"""Two-stage extraction pipeline: stage tests against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttrank.corpus import QueryInstance, Utterance, partition_samples
from uttrank.errors import ValidationError
from uttrank.pipeline import (
    ExtractionResult,
    PipelineConfig,
    pool_candidates,
    rank_descending,
    run_pipeline,
    select_topk,
    stage1_pool,
    stage1_rank,
    stage2_rerank,
)
from uttrank.scorer import (
    FEATURE_DIM,
    init_model,
    instance_features,
    num_params,
    score_utterances,
    set_flat_params,
)
from tests.conftest import make_instance


def _instance(n, tokens_per_utt=6):
    utts = tuple(
        Utterance(
            meeting_id="m",
            index=i,
            speaker="spk",
            text=" ".join(f"w{i}t{j}" for j in range(tokens_per_utt)),
        )
        for i in range(n)
    )
    return QueryInstance(
        instance_id=f"fix-{n}",
        meeting_id="m",
        query="what happened with the widgets",
        utterances=utts,
        gold_summary="widgets happened",
    )


def _linear_model(weights, bias=0.0):
    model = init_model((FEATURE_DIM, 1), seed=0)
    set_flat_params(model, np.concatenate([np.asarray(weights, dtype=float), [bias]]))
    return model


# ---------------------------------------------------------- rank_descending

def test_rank_descending_fixture():
    assert rank_descending([0.2, 0.9, 0.5]) == [1, 2, 0]


def test_rank_descending_ties_keep_transcript_order():
    assert rank_descending([0.5, 0.5, 0.5, 0.5]) == [0, 1, 2, 3]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 0.25, 0.5, -1.0]), max_size=40))
def test_rank_descending_stable_under_ties(values):
    order = rank_descending(values)
    assert sorted(order) == list(range(len(values)))
    for i, j in zip(order, order[1:]):
        assert values[i] > values[j] or (values[i] == values[j] and i < j)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(-3, 3), min_size=1, max_size=30),
    data=st.data(),
)
def test_rank_descending_on_a_subset_filters_the_full_order(values, data):
    # Few distinct values, so most orders resolve ties by position.
    n = len(values)
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="subset")
    want = [i for i in rank_descending(values) if i in subset]
    assert rank_descending(values, subset) == want
    assert rank_descending(np.array(values, dtype=float), subset) == want
    assert rank_descending(values, sorted(subset)) == want


def rank_descending_oracle(values, indices=None):
    """The per-element sort rank_descending replaced: score descending, ties by position."""
    if indices is None:
        indices = range(len(values))
    return sorted(indices, key=lambda i: (-values[i], i))


_rank_values = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.5]), max_size=40),  # ties, ±0.0
    st.lists(st.floats(allow_nan=False, width=64), max_size=40),
    st.lists(st.integers(-5, 5), max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(values=_rank_values, data=st.data())
def test_rank_descending_equals_the_sort_oracle(values, data):
    n = len(values)
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="subset") if n else []
    for given_values in (values, np.array(values, dtype=float)):
        assert rank_descending(given_values) == rank_descending_oracle(values)
        assert rank_descending(given_values, subset) == rank_descending_oracle(values, subset)
        assert rank_descending(given_values, range(n)) == rank_descending_oracle(values)
    assert rank_descending(values, []) == []
    assert all(type(i) is int for i in rank_descending(values))


def test_rank_descending_of_empty_input():
    assert rank_descending([]) == []
    assert rank_descending(np.array([]), []) == []


@pytest.mark.parametrize("indices", [None, [3, 0, 1], range(1, 4)])
def test_rank_descending_rejects_nan(indices):
    values = [0.5, 1.0, 0.2, float("nan"), float("nan")]
    with pytest.raises(ValidationError, match="NaN score, at position 3"):
        rank_descending(values, indices)


def test_rank_descending_ignores_nan_outside_the_ranked_subset():
    assert rank_descending([0.5, float("nan"), 0.7], [0, 2]) == [2, 0]


# -------------------------------------------------------------- stage1_rank

def test_stage1_zero_scores_identity_order():
    inst = _instance(8)
    samples = partition_samples(inst, 4)
    scores = np.zeros(8)
    assert stage1_rank(samples[0], scores) == (0, 1, 2, 3)
    assert stage1_rank(samples[1], scores) == (4, 5, 6, 7)


def test_stage1_negative_position_weight_gives_transcript_order():
    inst = _instance(10)
    w = np.zeros(FEATURE_DIM)
    w[4] = -1.0  # read only the relative-position feature
    model = _linear_model(w)
    scores = score_utterances(model, instance_features(inst))
    samples = partition_samples(inst, 10)
    assert stage1_rank(samples[0], scores) == tuple(range(10))


def test_stage1_matches_argsort_oracle():
    rng = np.random.default_rng(71)
    inst = _instance(12)
    samples = partition_samples(inst, 6)
    for _ in range(20):
        scores = rng.normal(size=12)
        for sample in samples:
            got = stage1_rank(sample, scores)
            members = list(sample)
            want = tuple(sorted(members, key=lambda i: (-scores[i], i)))
            assert got == want


# ---------------------------------------------------------- pool_candidates

def test_pool_three_disjoint_samples():
    orders = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    scores = np.arange(9, 0, -1, dtype=float)
    pool = pool_candidates(orders, per_sample_top=2)
    assert pool == (0, 1, 3, 4, 6, 7)


def test_pool_top_exceeds_sample_size():
    orders = [(2, 0, 1)]
    pool = pool_candidates(orders, per_sample_top=10)
    assert pool == (2, 0, 1)


def test_pool_single_sample():
    orders = [(5, 3, 4)]
    pool = pool_candidates(orders, per_sample_top=2)
    assert pool == (5, 3)


def test_pool_deduplicates_overlapping_samples():
    # the same utterance surfacing in two samples is pooled once
    orders = [(1, 0), (1, 2)]
    pool = pool_candidates(orders, per_sample_top=1)
    assert pool == (1,)


# ----------------------------------------------------------- stage2_rerank

def test_rerank_pool_of_one():
    assert stage2_rerank((4,), np.zeros(5)) == (4,)


def test_rerank_with_stage1_scores_preserves_relative_order():
    scores = np.array([0.5, 0.9, 0.1, 0.7])
    orders = [(1, 3), (0, 2)]
    pool = pool_candidates(orders, per_sample_top=2)
    reranked = stage2_rerank(pool, scores)
    assert reranked == tuple(sorted(pool, key=lambda i: (-scores[i], i)))


def test_rerank_matches_argsort_oracle():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        members = rng.permutation(12)[:n]
        pool = tuple(int(i) for i in members)
        scores = rng.normal(size=12)
        got = stage2_rerank(pool, scores)
        want = tuple(sorted((int(i) for i in members), key=lambda i: (-scores[i], i)))
        assert got == want


def test_rerank_empty_pool_errors():
    with pytest.raises(ValidationError):
        stage2_rerank((), np.zeros(3))


# -------------------------------------------------------------- select_topk

def test_select_top3_with_huge_budget():
    inst = _instance(6)
    order = (4, 2, 0, 1, 3, 5)
    scores = np.linspace(1, 0, 6)
    result = select_topk(order, scores, inst, top_k=3, token_budget=10_000)
    assert sorted(result.selected_indices) == sorted(order[:3])
    # emitted in transcript order
    assert list(result.selected_indices) == sorted(result.selected_indices)


def test_select_budget_stops_after_one():
    inst = _instance(4, tokens_per_utt=10)  # each line: speaker + 10 tokens = 11
    query_tokens = len(inst.query.split())
    order = (0, 1, 2, 3)
    budget = query_tokens + 11 + 5  # room for one line, not two
    result = select_topk(order, np.ones(4), inst, top_k=4, token_budget=budget)
    assert result.selected_indices == (0,)
    assert not result.truncated


def test_select_first_utterance_over_budget_truncates():
    inst = _instance(3, tokens_per_utt=50)
    result = select_topk((1, 0, 2), np.ones(3), inst, top_k=3, token_budget=20)
    assert result.truncated
    assert result.selected_indices == (1,)
    assert len(result.generator_input.split()) <= 20
    # 5 query tokens and "spk:" leave 14 words of the text, the only ones selected.
    kept = " ".join(inst.utterances[1].text.split()[:14])
    assert result.selected_texts == (kept,)
    assert result.generator_input.endswith("\nspk: " + kept)
    # A query that fills the budget leaves no text at all.
    for budget in (3, 5):
        result = select_topk((1, 0, 2), np.ones(3), inst, top_k=3, token_budget=budget)
        assert result.truncated and result.selected_texts == ("",)
        assert result.generator_input == " ".join(inst.query.split()[:budget])


def _greedy_oracle(order, inst, top_k, budget):
    picked, used = [], len(inst.query.split())
    for idx in order:
        if len(picked) >= top_k:
            break
        cost = 1 + len(inst.utterances[idx].text.split())  # speaker prefix
        if used + cost > budget:
            break
        picked.append(idx)
        used += cost
    return sorted(picked)


def test_select_matches_greedy_oracle():
    rng = np.random.default_rng(97)
    for _ in range(40):
        n = int(rng.integers(3, 30))
        inst = _instance(n, tokens_per_utt=int(rng.integers(3, 40)))
        order = tuple(rng.permutation(n).tolist())
        budget = int(rng.integers(30, 400))
        top_k = int(rng.integers(1, 12))
        result = select_topk(order, np.ones(n), inst, top_k=top_k, token_budget=budget)
        if result.truncated:
            continue
        assert list(result.selected_indices) == _greedy_oracle(order, inst, top_k, budget)
        assert len(result.generator_input.split()) <= budget


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 25),
    tokens_per_utt=st.integers(1, 60),
    top_k=st.integers(1, 12),
    token_budget=st.integers(1, 400),
    data=st.data(),
)
def test_select_generator_input_within_budget(n, tokens_per_utt, top_k, token_budget, data):
    # includes budgets below the query's own 5 tokens and first candidates that overflow
    inst = _instance(n, tokens_per_utt=tokens_per_utt)
    order = data.draw(st.permutations(range(n)), label="order")
    scores = np.arange(n, dtype=float)
    result = select_topk(order, scores, inst, top_k=top_k, token_budget=token_budget)
    assert len(result.generator_input.split()) <= token_budget
    assert 1 <= len(result.selected_indices) <= top_k


def test_generator_input_layout(tiny_instance):
    result = select_topk((0, 2), np.ones(6), tiny_instance, top_k=2, token_budget=500)
    lines = result.generator_input.split("\n")
    assert lines[0] == tiny_instance.query
    assert lines[1] == ""
    assert lines[2].startswith("alice: ")


# -------------------------------------------------------------- run_pipeline

def _models(seed_a=1, seed_b=2):
    return (
        init_model((FEATURE_DIM, 6, 1), seed=seed_a),
        init_model((FEATURE_DIM, 6, 1), seed=seed_b),
    )


def _scores(inst, *models):
    features = instance_features(inst)
    return [score_utterances(model, features) for model in models]


def test_pipeline_rerank_off_single_sample_is_plain_topk():
    inst = _instance(9)
    ranker, _ = _models()
    config = PipelineConfig(sample_size=16, top_k=4)
    (scores,) = _scores(inst, ranker)
    result = run_pipeline(inst, scores, scores, config)
    want = sorted(range(9), key=lambda i: (-scores[i], i))[:4]
    assert sorted(result.selected_indices) == sorted(want)


def test_pipeline_selection_subset_of_pool():
    inst = _instance(20)
    scores, rerank_scores = _scores(inst, *_models())
    for rerank in (True, False):
        config = PipelineConfig(sample_size=5, per_sample_top=2, top_k=6)
        result = run_pipeline(inst, scores, rerank_scores if rerank else scores, config)
        samples = partition_samples(inst, 5)
        pool = {i for s in samples for i in sorted(s, key=lambda j: (-scores[j], j))[:2]}
        assert set(result.selected_indices) <= pool
        assert set(result.global_order) == pool


def test_pipeline_deterministic():
    inst = _instance(15)
    config = PipelineConfig(sample_size=4, per_sample_top=2, top_k=5)
    a = run_pipeline(inst, *_scores(inst, *_models()), config)
    b = run_pipeline(inst, *_scores(inst, *_models()), config)
    assert a == b


def test_pipeline_invariant_under_increasing_score_transform():
    # scaling the output layer by a > 0 and shifting its bias is a strictly
    # increasing transform of every model score; selections must not move
    inst = _instance(18)
    ranker, reranker = _models(3, 4)
    config = PipelineConfig(sample_size=6, per_sample_top=3, top_k=5)
    base = run_pipeline(inst, *_scores(inst, ranker, reranker), config)
    for model in (ranker, reranker):
        model.weights[-1] *= 2.5
        model.biases[-1] = model.biases[-1] * 2.5 + 0.7
    transformed = run_pipeline(inst, *_scores(inst, ranker, reranker), config)
    assert transformed.selected_indices == base.selected_indices
    assert transformed.global_order == base.global_order
    assert transformed.stage1_orders == base.stage1_orders


def test_pipeline_budget_holds_on_random_corpora():
    rng = np.random.default_rng(101)
    ranker, reranker = _models(7, 8)
    for _ in range(15):
        n = int(rng.integers(4, 40))
        inst = _instance(n, tokens_per_utt=int(rng.integers(5, 120)))
        config = PipelineConfig(
            sample_size=int(rng.integers(2, 12)),
            per_sample_top=2,
            top_k=int(rng.integers(1, 12)),
            token_budget=int(rng.integers(64, 1200)),
        )
        result = run_pipeline(inst, *_scores(inst, ranker, reranker), config)
        if not result.truncated:
            assert len(result.generator_input.split()) <= config.token_budget


_INCREASING = (lambda x: 2.5 * x + 0.7, lambda x: np.exp(x / 8.0), lambda x: x**3)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 30),
    sample_size=st.integers(2, 12),
    top_k=st.integers(1, 12),
    data=st.data(),
)
def test_pipeline_on_random_score_vectors(n, sample_size, top_k, data):
    inst = _instance(n)
    config = PipelineConfig(
        sample_size=sample_size,
        per_sample_top=data.draw(st.integers(1, sample_size), label="per_sample_top"),
        top_k=top_k,
    )
    # Integer scores keep ties, which the index tie-break must resolve alike.
    vector = st.lists(st.integers(-50, 50), min_size=n, max_size=n).map(np.array)
    stage1 = data.draw(vector, label="stage1")
    selection = data.draw(vector, label="selection")
    base = run_pipeline(inst, stage1, selection, config)
    orders, pool = stage1_pool(inst, stage1, config)
    assert base.global_order == tuple(sorted(pool, key=lambda i: (-selection[i], i)))
    assert base.stage1_orders == orders

    # Selections depend on each vector's order only.
    f = data.draw(st.sampled_from(_INCREASING), label="transform")
    for moved in ((f(stage1), selection), (stage1, f(selection))):
        result = run_pipeline(inst, *moved, config)
        assert result.selected_indices == base.selected_indices
        assert result.global_order == base.global_order
        assert result.stage1_orders == base.stage1_orders

    # The stage-1 vector twice is the ablation: the pool in stage-1 order.
    ablation = run_pipeline(inst, stage1, stage1, config)
    want = tuple(sorted(pool, key=lambda i: (-stage1[i], i)))
    assert ablation.global_order == want
    plain = select_topk(want, stage1, inst, config.top_k, config.token_budget)
    assert ablation.selected_indices == plain.selected_indices
    assert ablation.selection_scores == plain.selection_scores
    assert plain.stage1_orders == ()
    assert select_topk(want, stage1, inst, config.top_k, config.token_budget, orders) == ablation

    # A vector of the wrong length is rejected, in either place.
    for wrong in (stage1[:-1], np.append(stage1, 0)):
        for vectors in ((wrong, selection), (stage1, wrong)):
            with pytest.raises(ValidationError, match="scores for"):
                run_pipeline(inst, *vectors, config)


def test_pipeline_config_validation():
    with pytest.raises(ValidationError):
        PipelineConfig(sample_size=1)
    with pytest.raises(ValidationError):
        PipelineConfig(per_sample_top=0)
    with pytest.raises(ValidationError):
        PipelineConfig(sample_size=4, per_sample_top=5)
    with pytest.raises(ValidationError):
        PipelineConfig(top_k=0)
