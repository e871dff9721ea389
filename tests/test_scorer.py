"""Feature extraction and the scoring model's forward/backward passes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttrank.corpus import Utterance
from uttrank.errors import ValidationError
from uttrank.scorer import (
    FEATURE_DIM,
    InstanceStats,
    apply_gradient,
    backward,
    featurize,
    flat_gradient,
    flat_params,
    forward,
    init_model,
    instance_features,
    load_model,
    num_params,
    save_model,
    score_utterances,
    set_flat_params,
)
from tests.conftest import make_instance


def _stats(instance):
    return InstanceStats.from_instance(instance)


# --------------------------------------------------------------- featurize

def test_identical_utterance_saturates_overlap_features(tiny_instance):
    stats = _stats(tiny_instance)
    query = tiny_instance.query
    utt = Utterance(meeting_id="meet-0", index=0, speaker="alice", text=query)
    x = featurize(query, utt, stats)
    assert x[0] == pytest.approx(1.0)  # unigram F1
    assert x[1] == pytest.approx(1.0)  # bigram F1
    assert x[5] == pytest.approx(1.0)  # content coverage


def test_disjoint_utterance_zeroes_overlap_features(tiny_instance):
    stats = _stats(tiny_instance)
    utt = Utterance(meeting_id="meet-0", index=1, speaker="zed", text="xylophone harmonica")
    x = featurize(tiny_instance.query, utt, stats)
    assert x[0] == x[1] == x[2] == x[5] == 0.0


def test_position_feature_endpoints(tiny_instance):
    feats = instance_features(tiny_instance)
    n = len(tiny_instance.utterances)
    assert feats[0][4] == 0.0
    assert feats[n - 1][4] == 1.0
    assert np.all(np.diff(feats[:, 4]) > 0)


def test_speaker_indicator():
    inst = make_instance(query="what did alice say about the cat")
    feats = instance_features(inst)
    speakers = [u.speaker for u in inst.utterances]
    for row, spk in zip(feats, speakers):
        assert row[6] == (1.0 if spk == "alice" else 0.0)


def test_length_feature_caps_at_one(tiny_instance):
    stats = _stats(tiny_instance)
    long_utt = Utterance(
        meeting_id="meet-0", index=2, speaker="bob", text="word " * 250
    )
    x = featurize(tiny_instance.query, long_utt, stats)
    assert x[3] == 1.0
    short = Utterance(meeting_id="meet-0", index=3, speaker="bob", text="just five tokens right here")
    assert featurize(tiny_instance.query, short, stats)[3] == pytest.approx(0.05)


def test_features_finite_and_bounded(tiny_corpus):
    for inst in tiny_corpus.instances:
        feats = instance_features(inst)
        assert feats.shape == (len(inst.utterances), FEATURE_DIM)
        assert np.all(np.isfinite(feats))
        assert np.all(feats[:, :6] >= 0.0) and np.all(feats[:, :6] <= 1.0)
        assert set(np.unique(feats[:, 6])) <= {0.0, 1.0}


# ------------------------------------------------------------- init_model

def test_init_same_seed_identical():
    a = init_model((7, 16, 1), seed=3)
    b = init_model((7, 16, 1), seed=3)
    assert np.array_equal(flat_params(a), flat_params(b))


def test_init_different_seed_differs():
    a = init_model((7, 16, 1), seed=3)
    b = init_model((7, 16, 1), seed=4)
    assert not np.array_equal(flat_params(a), flat_params(b))


def test_param_count_7_16_1():
    model = init_model((7, 16, 1), seed=0)
    assert num_params(model) == 7 * 16 + 16 + 16 * 1 + 1 == 145


def test_init_bounds_follow_fan_sums():
    model = init_model((7, 16, 1), seed=9)
    limits = (math.sqrt(6 / (7 + 16)), math.sqrt(6 / (16 + 1)))
    for w, b, lim in zip(model.weights, model.biases, limits):
        assert np.all(np.abs(w) <= lim)
        assert np.all(b == 0.0)


def test_init_rejects_wide_output():
    with pytest.raises(ValidationError):
        init_model((7, 16, 2), seed=0)


# ---------------------------------------------------------------- forward

def test_forward_zero_model_scores_zero():
    model = init_model((4, 3, 1), seed=0)
    set_flat_params(model, np.zeros(num_params(model)))
    scores, _ = forward(model, np.array([[1.0, -2.0, 0.5, 3.0]]))
    assert scores[0] == 0.0


def test_forward_single_linear_layer_is_dot_product():
    model = init_model((3, 1), seed=1)
    w = np.array([0.2, -0.4, 1.1])
    set_flat_params(model, np.concatenate([w, [0.35]]))
    x = np.array([1.0, 2.0, -1.0])
    scores, _ = forward(model, x[None, :])
    assert scores[0] == pytest.approx(float(w @ x) + 0.35)


def _forward_oracle(model, x):
    """Straight-line re-evaluation of the layer arithmetic."""
    h = np.asarray(x, dtype=float)
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = w @ h + b
        if layer < len(model.weights) - 1:
            h = np.tanh(h)
    return float(h[0])


def test_forward_matches_independent_reimplementation():
    rng = np.random.default_rng(29)
    for _ in range(50):
        dims = (int(rng.integers(2, 8)), int(rng.integers(2, 12)), 1)
        model = init_model(dims, seed=int(rng.integers(0, 1000)))
        x = rng.normal(size=dims[0])
        scores, _ = forward(model, x[None, :])
        assert scores[0] == pytest.approx(_forward_oracle(model, x), abs=1e-12)


def test_forward_deterministic():
    model = init_model((5, 4, 1), seed=8)
    x = np.linspace(-1, 1, 5)[None, :]
    assert forward(model, x)[0][0] == forward(model, x)[0][0]


def test_forward_dimension_mismatch():
    model = init_model((5, 4, 1), seed=8)
    with pytest.raises(ValidationError):
        forward(model, np.zeros((1, 4)))


# --------------------------------------------------------------- backward

def test_backward_zero_upstream():
    model = init_model((3, 2, 1), seed=2)
    x = np.array([[0.3, -0.7, 0.9]])
    _, activations = forward(model, x)
    grad = backward(model, activations, np.array([0.0]))
    assert np.all(flat_gradient(grad) == 0.0)


def test_backward_linear_layer_gradient_is_input():
    model = init_model((3, 1), seed=5)
    x = np.array([0.5, -1.5, 2.0])
    _, activations = forward(model, x[None, :])
    grad = backward(model, activations, np.array([1.0]))
    assert np.allclose(grad.weights[0].ravel(), x)
    assert grad.biases[0] == pytest.approx(1.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(41)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        dims = (int(rng.integers(2, 7)), int(rng.integers(2, 9)), 1)
        model = init_model(dims, seed=int(rng.integers(0, 10_000)))
        x = rng.normal(size=(1, dims[0]))
        _, activations = forward(model, x)
        analytic = flat_gradient(backward(model, activations, np.array([1.0])))
        theta = flat_params(model)
        numeric = np.empty_like(theta)
        for j in range(len(theta)):
            bump = theta.copy()
            bump[j] += eps
            set_flat_params(model, bump)
            up = forward(model, x)[0][0]
            bump[j] -= 2 * eps
            set_flat_params(model, bump)
            dn = forward(model, x)[0][0]
            numeric[j] = (up - dn) / (2 * eps)
            set_flat_params(model, theta)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst <= 1e-5


def _per_row_gradient(model, rows, upstream):
    """Sum over rows of each row's single-example backward pass."""
    weights = [np.zeros_like(w) for w in model.weights]
    biases = [np.zeros_like(b) for b in model.biases]
    n_layers = len(model.weights)
    for x, u in zip(rows, upstream):
        hs = [x]
        for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = w @ hs[-1] + b
            hs.append(np.tanh(z) if layer < n_layers - 1 else z)
        g = np.array([u])
        for layer in reversed(range(n_layers)):
            weights[layer] += np.outer(g, hs[layer])
            biases[layer] += g
            if layer > 0:
                g = (model.weights[layer].T @ g) * (1.0 - hs[layer] ** 2)
    return weights, biases


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    input_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_batched_pass_equals_per_row_oracle(n, input_dim, hidden, seed, data):
    model = init_model((input_dim, *hidden, 1), seed=seed)
    rows = np.random.default_rng(seed).normal(size=(n, input_dim))
    upstream = np.array(
        data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n), label="upstream")
    )
    scores, activations = forward(model, rows)
    assert scores.shape == (n,)
    for i, x in enumerate(rows):
        assert scores[i] == pytest.approx(_forward_oracle(model, x), abs=1e-12)
    grad = backward(model, activations, upstream)
    want_w, want_b = _per_row_gradient(model, rows, upstream)
    for got, want in zip(grad.weights + grad.biases, want_w + want_b):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_layerless_model_scores_first_feature():
    model = init_model((1,), seed=0)
    rows = np.array([[0.5], [-2.0]])
    scores, activations = forward(model, rows)
    assert scores.tolist() == [0.5, -2.0]
    grad = backward(model, activations, np.array([1.0, 3.0]))
    assert grad.weights == [] and grad.biases == []


def test_apply_gradient_moves_downhill():
    model = init_model((4, 3, 1), seed=12)
    x = np.array([[0.9, -0.2, 0.4, 1.3]])
    before, activations = forward(model, x)
    apply_gradient(model, backward(model, activations, np.array([1.0])), 0.05)
    after, _ = forward(model, x)
    assert after[0] < before[0]  # descending on the raw score


# ---------------------------------------------------------- serialization

def test_save_load_roundtrip(tmp_path):
    model = init_model((7, 16, 1), seed=77)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.layer_dims == model.layer_dims
    assert np.array_equal(flat_params(again), flat_params(model))
    x = np.linspace(0, 1, 7)[None, :]
    assert forward(again, x)[0][0] == forward(model, x)[0][0]


def _set_input_dim(payload):
    payload["layer_dims"][0] = FEATURE_DIM - 1


def _rename_feature(payload):
    payload["feature_names"][0] = "renamed"


def _drop_layer(payload):
    payload["weights"].pop()


def _truncate_weights(payload):
    payload["weights"][0].pop()


def _widen_biases(payload):
    payload["biases"][-1].append(0.0)


def _drop_seed(payload):
    del payload["seed"]


def _spell_weight(payload):
    payload["weights"][0][0] = "x"


@pytest.mark.parametrize(
    "corrupt",
    [
        _set_input_dim,
        _rename_feature,
        _drop_layer,
        _truncate_weights,
        _widen_biases,
        _drop_seed,
        _spell_weight,
    ],
)
def test_load_rejects_mismatched_checkpoint(tmp_path, corrupt):
    path = tmp_path / "model.json"
    save_model(init_model((FEATURE_DIM, 4, 1), seed=3), path)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        load_model(path)


def test_load_rejects_non_finite_bias(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model((FEATURE_DIM, 4, 1), seed=3), path)
    payload = json.loads(path.read_text())
    payload["biases"][1][0] = float("inf")
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="non-finite"):
        load_model(path)


def test_load_rejects_unreadable_file(tmp_path):
    with pytest.raises(ValidationError):
        load_model(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{ not json")
    with pytest.raises(ValidationError):
        load_model(garbled)


def test_score_utterances_alignment(tiny_instance):
    model = init_model((FEATURE_DIM, 5, 1), seed=0)
    scores = score_utterances(model, tiny_instance)
    feats = instance_features(tiny_instance)
    for i, row in enumerate(feats):
        assert scores[i] == pytest.approx(forward(model, row[None, :])[0][0])
