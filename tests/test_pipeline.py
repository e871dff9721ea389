"""Two-stage extraction pipeline: stage tests against independent oracles."""

import numpy as np
import pytest

from uttrank.corpus import QueryInstance, Utterance, partition_samples
from uttrank.errors import ValidationError
from uttrank.pipeline import (
    Candidate,
    ExtractionResult,
    PipelineConfig,
    pool_candidates,
    run_pipeline,
    select_topk,
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


# -------------------------------------------------------------- stage1_rank

def test_stage1_zero_scores_identity_order():
    inst = _instance(8)
    samples = partition_samples(inst, 4, [0.0] * 8)
    scores = np.zeros(8)
    assert stage1_rank(samples[0], scores) == (0, 1, 2, 3)
    assert stage1_rank(samples[1], scores) == (4, 5, 6, 7)


def test_stage1_negative_position_weight_gives_transcript_order():
    inst = _instance(10)
    w = np.zeros(FEATURE_DIM)
    w[4] = -1.0  # read only the relative-position feature
    model = _linear_model(w)
    scores = score_utterances(model, inst)
    samples = partition_samples(inst, 10, [0.0] * 10)
    assert stage1_rank(samples[0], scores) == tuple(range(10))


def test_stage1_matches_argsort_oracle():
    rng = np.random.default_rng(71)
    inst = _instance(12)
    samples = partition_samples(inst, 6, [0.0] * 12)
    for _ in range(20):
        scores = rng.normal(size=12)
        for sample in samples:
            got = stage1_rank(sample, scores)
            members = list(sample.member_indices)
            want = tuple(sorted(members, key=lambda i: (-scores[i], i)))
            assert got == want


# ---------------------------------------------------------- pool_candidates

def test_pool_three_disjoint_samples():
    orders = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    scores = np.arange(9, 0, -1, dtype=float)
    pool = pool_candidates([(o, scores) for o in orders], per_sample_top=2)
    assert [c.index for c in pool] == [0, 1, 3, 4, 6, 7]
    assert [c.sample_ordinal for c in pool] == [0, 0, 1, 1, 2, 2]
    assert [c.stage1_rank for c in pool] == [0, 1, 0, 1, 0, 1]


def test_pool_top_exceeds_sample_size():
    orders = [(2, 0, 1)]
    scores = np.array([0.1, 0.0, 0.9])
    pool = pool_candidates([(o, scores) for o in orders], per_sample_top=10)
    assert [c.index for c in pool] == [2, 0, 1]


def test_pool_single_sample():
    orders = [(5, 3, 4)]
    scores = np.array([0, 0, 0, 0.5, 0.4, 0.9])
    pool = pool_candidates([(o, scores) for o in orders], per_sample_top=2)
    assert [c.index for c in pool] == [5, 3]
    assert pool[0].stage1_score == pytest.approx(0.9)


def test_pool_deduplicates_overlapping_samples():
    # same utterance surfacing in two samples keeps first provenance
    orders = [(1, 0), (1, 2)]
    scores = np.array([0.2, 0.9, 0.1])
    pool = pool_candidates([(o, scores) for o in orders], per_sample_top=1)
    assert [c.index for c in pool] == [1]
    assert pool[0].sample_ordinal == 0


# ----------------------------------------------------------- stage2_rerank

def test_rerank_pool_of_one():
    pool = (Candidate(index=4, sample_ordinal=0, stage1_rank=0, stage1_score=1.0),)
    assert stage2_rerank(pool, np.zeros(5)) == (4,)


def test_rerank_with_stage1_scores_preserves_relative_order():
    scores = np.array([0.5, 0.9, 0.1, 0.7])
    orders = [(1, 3), (0, 2)]
    pool = pool_candidates([(o, scores) for o in orders], per_sample_top=2)
    reranked = stage2_rerank(pool, scores)
    members = [c.index for c in pool]
    assert reranked == tuple(sorted(members, key=lambda i: (-scores[i], i)))


def test_rerank_matches_argsort_oracle():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        members = rng.permutation(12)[:n]
        pool = tuple(
            Candidate(index=int(i), sample_ordinal=0, stage1_rank=r, stage1_score=0.0)
            for r, i in enumerate(members)
        )
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


def test_pipeline_rerank_off_single_sample_is_plain_topk():
    inst = _instance(9)
    ranker, _ = _models()
    config = PipelineConfig(sample_size=16, top_k=4, rerank_enabled=False)
    result = run_pipeline(inst, ranker, None, config)
    scores = score_utterances(ranker, inst)
    want = sorted(range(9), key=lambda i: (-scores[i], i))[:4]
    assert sorted(result.selected_indices) == sorted(want)


def test_pipeline_selection_subset_of_pool():
    inst = _instance(20)
    ranker, reranker = _models()
    for rerank in (True, False):
        config = PipelineConfig(
            sample_size=5, per_sample_top=2, top_k=6, rerank_enabled=rerank
        )
        result = run_pipeline(inst, ranker, reranker if rerank else None, config)
        scores = score_utterances(ranker, inst)
        samples = partition_samples(inst, 5, [0.0] * 20)
        pool = {
            i
            for s in samples
            for i in sorted(s.member_indices, key=lambda j: (-scores[j], j))[:2]
        }
        assert set(result.selected_indices) <= pool
        assert set(result.global_order) == pool


def test_pipeline_deterministic():
    inst = _instance(15)
    ranker, reranker = _models()
    config = PipelineConfig(sample_size=4, per_sample_top=2, top_k=5)
    a = run_pipeline(inst, ranker, reranker, config)
    b = run_pipeline(inst, ranker, reranker, config)
    assert a == b


def test_pipeline_requires_reranker_when_enabled():
    inst = _instance(5)
    ranker, _ = _models()
    with pytest.raises(ValidationError):
        run_pipeline(inst, ranker, None, PipelineConfig())


def test_pipeline_invariant_under_increasing_score_transform():
    # scaling the output layer by a > 0 and shifting its bias is a strictly
    # increasing transform of every model score; selections must not move
    inst = _instance(18)
    ranker, reranker = _models(3, 4)
    config = PipelineConfig(sample_size=6, per_sample_top=3, top_k=5)
    base = run_pipeline(inst, ranker, reranker, config)
    for model in (ranker, reranker):
        model.weights[-1] *= 2.5
        model.biases[-1] = model.biases[-1] * 2.5 + 0.7
    transformed = run_pipeline(inst, ranker, reranker, config)
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
        result = run_pipeline(inst, ranker, reranker, config)
        if not result.truncated:
            assert len(result.generator_input.split()) <= config.token_budget


def test_pipeline_config_validation():
    with pytest.raises(ValidationError):
        PipelineConfig(sample_size=1)
    with pytest.raises(ValidationError):
        PipelineConfig(per_sample_top=0)
    with pytest.raises(ValidationError):
        PipelineConfig(sample_size=4, per_sample_top=5)
    with pytest.raises(ValidationError):
        PipelineConfig(top_k=0)
    assert PipelineConfig(top_k=7).effective_listwise_k == 7
    assert PipelineConfig(top_k=7, listwise_k=3).effective_listwise_k == 3
