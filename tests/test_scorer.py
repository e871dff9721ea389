"""Feature extraction and the scoring model's forward/backward passes."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttrank.corpus import Utterance
from uttrank import scorer
from uttrank.errors import ValidationError
from uttrank.rouge import rouge_n, tokenize
from uttrank.scorer import (
    FEATURE_DIM,
    STOPWORDS,
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
from tests import counter_oracles
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


def _tfidf_cosine(query_tokens: list[str], utt_tokens: list[str], stats: InstanceStats) -> float:
    qc = Counter(query_tokens)
    uc = Counter(utt_tokens)
    dot = 0.0
    for token, q_count in qc.items():
        if token in uc:
            w = stats.idf(token)
            dot += (q_count * w) * (uc[token] * w)
    if dot == 0.0:
        return 0.0
    qn = math.sqrt(counter_oracles.sum_of_squares(c * stats.idf(t) for t, c in qc.items()))
    un = math.sqrt(counter_oracles.sum_of_squares(c * stats.idf(t) for t, c in uc.items()))
    return dot / (qn * un)


def _featurize_from_strings(query, utterance, stats):
    """The feature formula as first written, with ROUGE-N taken on the raw strings."""
    query_tokens = tokenize(query)
    utt_tokens = tokenize(utterance.text)
    utt_token_set = set(utt_tokens)

    content = [t for t in dict.fromkeys(query_tokens) if t not in STOPWORDS]
    if not content:
        content = list(dict.fromkeys(query_tokens))
    coverage = (
        sum(1 for t in content if t in utt_token_set) / len(content) if content else 0.0
    )

    n = stats.n_utterances
    position = utterance.index / (n - 1) if n > 1 else 0.0

    speaker_tokens = tokenize(utterance.speaker)
    query_token_set = set(query_tokens)
    speaker_hit = 1.0 if any(t in query_token_set for t in speaker_tokens) else 0.0

    return np.array(
        [
            rouge_n(utterance.text, query, 1).f1,
            rouge_n(utterance.text, query, 2).f1,
            _tfidf_cosine(query_tokens, utt_tokens, stats),
            min(len(utt_tokens) / 100.0, 1.0),
            position,
            coverage,
            speaker_hit,
        ]
    )


_WORDS = ["the", "tabby", "Cat", "cat's", "sat", "on", "mat.", "alice", "Bob", "budget", "42"]
_texts = st.lists(st.sampled_from(_WORDS), max_size=20).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(
    query=_texts,
    texts=st.lists(_texts, min_size=1, max_size=6),
    speakers=st.lists(st.sampled_from(["alice", "bob", "Carol-Ann", ""]), min_size=1, max_size=3),
)
def test_featurize_equals_string_formula(query, texts, speakers):
    instance = make_instance(query=query, texts=texts, speakers=speakers)
    stats = _stats(instance)
    n = len(instance.utterances)
    for token in {t for text in texts + [query, "xylophone"] for t in tokenize(text)}:
        df = sum(token in tokenize(u.text) for u in instance.utterances)
        assert stats.idf(token) == math.log((1 + n) / (1 + df)) + 1.0
    rows = instance_features(instance).tolist()
    for utterance, row in zip(instance.utterances, rows):
        want = _featurize_from_strings(instance.query, utterance, stats).tolist()
        assert featurize(instance.query, utterance, stats).tolist() == want
        assert row == want


_STOP_QUERIES = ["the", "what did the", "?!", ""]
_oracle_texts = st.one_of(
    _texts,
    st.sampled_from(_WORDS),  # one token: no bigram
    st.lists(st.sampled_from(_WORDS[:3]), min_size=2, max_size=12).map(" ".join),  # repeats
)


@settings(max_examples=150, deadline=None)
@given(
    query=st.one_of(_oracle_texts, st.sampled_from(_STOP_QUERIES)),
    texts=st.lists(_oracle_texts, min_size=1, max_size=8),
    speakers=st.lists(st.sampled_from(["alice", "bob", "Carol-Ann", "", "?!"]), min_size=1, max_size=3),
)
def test_features_equal_counter_oracle(query, texts, speakers):
    instance = make_instance(query=query, texts=texts, speakers=speakers)
    stats = _stats(instance)
    want = counter_oracles.feature_rows(instance.query, instance.utterances, stats)
    assert instance_features(instance).tolist() == want
    for utterance, row in zip(instance.utterances, want):
        assert featurize(instance.query, utterance, stats).tolist() == row


def test_tfidf_norm_squares_by_product():
    # C pow(x, 2) and x * x round this value apart; the norms square by product.
    x = 33.952794612593195
    assert x**2 != x * x
    norm = scorer._norms(np.zeros(3, dtype=np.int64), np.array([x, 2.0, x]), 1)
    assert norm.tolist() == [math.sqrt(counter_oracles.sum_of_squares([x, 2.0, x]))]


_mixed_terms = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-10.0, 10.0),
    st.integers(-12, 12),
)


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(1, 6),
    pairs=st.lists(st.tuples(st.integers(0, 5), _mixed_terms), max_size=60),
)
def test_bincount_adds_each_row_left_to_right(n_rows, pairs):
    # The tf-idf sums rely on this: np.bincount adds each weight into its
    # row's bin in input order, starting from 0.0.
    pairs = [(row % n_rows, term) for row, term in pairs]
    want = [0.0] * n_rows
    for row, term in pairs:
        want[row] += term
    rows = np.array([row for row, _ in pairs], dtype=np.int64)
    terms = np.array([term for _, term in pairs], dtype=np.float64)
    assert np.bincount(rows, weights=terms, minlength=n_rows).tolist() == want


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


def test_init_rejects_an_empty_layer():
    with pytest.raises(ValidationError, match="positive"):
        init_model((7, 0, 1), seed=0)


def test_set_flat_params_rejects_a_wrong_length():
    model = init_model((7, 4, 1), seed=0)
    for size in (num_params(model) - 1, num_params(model) + 1):
        with pytest.raises(ValidationError, match="parameter vector shape"):
            set_flat_params(model, np.zeros(size))


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


def test_apply_gradient_rounds_as_w_minus_lr_g():
    # The checkpoints' bits rest on this rounding; a faster step must keep it.
    rng = np.random.default_rng(31)
    for lr in (5e-3, 0.1, 3e-7):
        model = init_model((FEATURE_DIM, 16, 8, 1), seed=4)
        grad = scorer.ParameterGradient(
            weights=[rng.normal(size=w.shape) for w in model.weights],
            biases=[rng.normal(size=b.shape) for b in model.biases],
        )
        params = model.weights + model.biases
        want = [p - lr * g for p, g in zip(params, grad.weights + grad.biases)]
        apply_gradient(model, grad, lr)
        got = model.weights + model.biases
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


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


def _bump_schema(payload):
    payload["feature_schema_version"] = 2


def _drop_schema(payload):
    del payload["feature_schema_version"]


def _hold_a_list(payload):
    return [payload]


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
        _bump_schema,
        _drop_schema,
        _hold_a_list,
    ],
)
def test_load_rejects_mismatched_checkpoint(tmp_path, corrupt):
    path = tmp_path / "model.json"
    save_model(init_model((FEATURE_DIM, 4, 1), seed=3), path)
    payload = json.loads(path.read_text())
    # A corruption edits the payload in place or returns what to write instead.
    payload = corrupt(payload) or payload
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError) as excinfo:
        load_model(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize(
    "key, raw",
    [
        ("seed", "2.7"),
        ("seed", "1e999"),
        ("seed", "true"),
        ("layer_dims", f"[{FEATURE_DIM}.9, 4, 1]"),
        ("layer_dims", f"[{FEATURE_DIM}, 1e999, 1]"),
        ("layer_dims", f"[{FEATURE_DIM}, 4.0, 1]"),
    ],
)
def test_load_rejects_non_integer_seed_or_dims(tmp_path, key, raw):
    # A float is rejected, not truncated, and one past the float range is not an OverflowError.
    path = tmp_path / "model.json"
    save_model(init_model((FEATURE_DIM, 4, 1), seed=3), path)
    payload = json.loads(path.read_text())
    payload[key] = "@"
    path.write_text(json.dumps(payload).replace('"@"', raw))
    with pytest.raises(ValidationError, match=f"model.json: '{key}' must be"):
        load_model(path)


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("weights", '"1.5"', "layer 0 weights must be JSON numbers, got '1.5'"),
        ("weights", "null", "layer 0 weights must be JSON numbers, got None"),
        ("biases", "true", "layer 0 biases must be JSON numbers, got True"),
        ("biases", "[0.5]", r"layer 0 biases must be JSON numbers, got \[0.5\]"),
        ("weights", "1" + "0" * 400, "unreadable checkpoint: OverflowError"),
    ],
)
def test_load_rejects_non_number_parameter(tmp_path, key, raw, message):
    # "1.5" is not the weight 1.5 and true is not the bias 1.0.
    path = tmp_path / "model.json"
    save_model(init_model((FEATURE_DIM, 4, 1), seed=3), path)
    payload = json.loads(path.read_text())
    payload[key][0][1] = "@"
    path.write_text(json.dumps(payload).replace('"@"', raw))
    with pytest.raises(ValidationError, match=f"model.json: {message}"):
        load_model(path)
    payload[key][0] = "@"
    path.write_text(json.dumps(payload).replace('"@"', '"abc"'))
    with pytest.raises(ValidationError, match=f"model.json: layer 0 {key} must be a list"):
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


def test_load_rejects_deeply_nested_checkpoint(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    with pytest.raises(ValidationError, match=r"model\.json: unreadable checkpoint: RecursionError"):
        load_model(path)


def test_score_utterances_alignment(tiny_instance):
    model = init_model((FEATURE_DIM, 5, 1), seed=0)
    feats = instance_features(tiny_instance)
    scores = score_utterances(model, feats)
    for i, row in enumerate(feats):
        assert scores[i] == pytest.approx(forward(model, row[None, :])[0][0])
