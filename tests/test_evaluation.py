"""Rank metrics, top-k overlap measurement, and the comparison harness."""

import json
import math

import numpy as np
import pytest

from uttrank.errors import ValidationError
from uttrank.evaluation import (
    ComparisonReport,
    corpus_digest,
    kendall_tau,
    ndcg_at_k,
    ranking_metrics,
    run_comparison,
    topk_rouge_overlap,
)
from uttrank.pipeline import ExtractionResult, PipelineConfig
from uttrank.rouge import rouge_l, rouge_n
from uttrank.synthesis import synth_splits
from uttrank.trainer import TrainConfig


# ---------------------------------------------------------------- ndcg_at_k

def test_ndcg_perfect_order_is_one():
    assert ndcg_at_k([2, 0, 1], [0.5, 0.1, 0.9], k=3) == 1.0


def test_ndcg_equal_relevance_is_one_for_any_order():
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        assert ndcg_at_k(order, [0.4, 0.4, 0.4], k=3) == 1.0


def test_ndcg_reversed_hand_value():
    # relevances [3,2,1], predicted worst-first
    dcg = 1.0 / math.log2(2) + 2.0 / math.log2(3) + 3.0 / math.log2(4)
    idcg = 3.0 / math.log2(2) + 2.0 / math.log2(3) + 1.0 / math.log2(4)
    got = ndcg_at_k([2, 1, 0], [3.0, 2.0, 1.0], k=3)
    assert got == pytest.approx(dcg / idcg, abs=1e-12)


def test_ndcg_zero_ideal_defined_as_one():
    assert ndcg_at_k([1, 0], [0.0, 0.0], k=2) == 1.0


def test_ndcg_normalizes_within_the_ranked_subset():
    # item 2 (the global best) is absent from the ranking; the ideal is taken
    # over the items actually ranked, so a perfect subset order scores 1
    assert ndcg_at_k([1, 0], [0.1, 0.9, 5.0], k=2) == 1.0


def test_ndcg_rejects_bad_k():
    with pytest.raises(ValidationError):
        ndcg_at_k([0, 1], [1.0, 0.0], k=0)


def test_ndcg_bounded_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        rel = rng.uniform(size=n)
        order = rng.permutation(n).tolist()
        v = ndcg_at_k(order, rel, k=int(rng.integers(1, n + 1)))
        assert 0.0 <= v <= 1.0 + 1e-12


# ------------------------------------------------------------- correlations

def test_tau_identity_and_reversal():
    order = [3, 1, 4, 0, 2]
    assert kendall_tau(order, order) == 1.0
    assert kendall_tau(order, order[::-1]) == -1.0


def test_tau_rejects_mismatched_sets():
    with pytest.raises(ValidationError):
        kendall_tau([0, 1, 2], [0, 1, 3])
    with pytest.raises(ValidationError):
        kendall_tau([0, 0, 1], [0, 1, 0])


def _tau_brute(order_a, order_b):
    pos_a = {x: i for i, x in enumerate(order_a)}
    pos_b = {x: i for i, x in enumerate(order_b)}
    items = list(order_a)
    conc = disc = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            da = pos_a[items[i]] - pos_a[items[j]]
            db = pos_b[items[i]] - pos_b[items[j]]
            if da * db > 0:
                conc += 1
            else:
                disc += 1
    return (conc - disc) / (len(items) * (len(items) - 1) / 2)


def test_tau_matches_pair_enumeration():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = 7
        a = rng.permutation(n).tolist()
        b = rng.permutation(n).tolist()
        assert kendall_tau(a, b) == pytest.approx(_tau_brute(a, b), abs=1e-12)


def test_ranking_metrics_perfect_and_ranges():
    rel = [0.9, 0.2, 0.7, 0.4]
    perfect = [0, 2, 3, 1]
    m = ranking_metrics(perfect, rel, k=4)
    assert m.ndcg_at_k == 1.0 and m.kendall_tau == 1.0
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        m = ranking_metrics(rng.permutation(n).tolist(), rng.uniform(size=n), k=n)
        assert 0.0 <= m.ndcg_at_k <= 1.0 + 1e-12
        assert -1.0 <= m.kendall_tau <= 1.0


# ------------------------------------------------------- topk_rouge_overlap

def _extraction(indices, scores, texts, query="q"):
    return ExtractionResult(
        instance_id="x",
        selected_indices=tuple(indices),
        selection_scores=tuple(scores),
        selected_texts=tuple(texts),
        generator_input=query,
        stage1_orders=((),),
        global_order=tuple(indices),
        truncated=False,
    )


def test_overlap_identical_text_scores_one():
    ext = _extraction([0, 1], [0.9, 0.8], ["the quick brown", "fox jumps"])
    out = topk_rouge_overlap(ext, "the quick brown\nfox jumps", k_values=(2,))
    r1, r2, rl = out[2]
    assert r1.f1 == 1.0 and r2.f1 == 1.0 and rl.f1 == 1.0


def test_overlap_disjoint_text_scores_zero():
    ext = _extraction([0], [1.0], ["alpha beta gamma"])
    out = topk_rouge_overlap(ext, "delta epsilon zeta", k_values=(1,))
    assert all(s.f1 == 0.0 for s in out[1])


def test_overlap_matches_manual_composition():
    # five selected utterances; k=3 keeps the three best scores, re-sorted
    # into transcript order before concatenation
    texts = [f"tok{i} shared words here" for i in range(5)]
    scores = [0.2, 0.9, 0.1, 0.8, 0.5]
    ext = _extraction(list(range(5)), scores, texts)
    gold = "shared words tok1 tok3"
    out = topk_rouge_overlap(ext, gold, k_values=(3, 10))

    keep = sorted(sorted(range(5), key=lambda i: -scores[i])[:3])
    joined = "\n".join(texts[i] for i in keep)
    assert out[3][0] == rouge_n(joined, gold, 1)
    assert out[3][1] == rouge_n(joined, gold, 2)
    assert out[3][2] == rouge_l(joined, gold)
    # k beyond the selection uses everything
    all_joined = "\n".join(texts)
    assert out[10][0] == rouge_n(all_joined, gold, 1)


def test_overlap_rejects_bad_k():
    ext = _extraction([0], [1.0], ["text"])
    with pytest.raises(ValidationError):
        topk_rouge_overlap(ext, "text", k_values=(0,))


# ------------------------------------------------------------ corpus_digest

def test_digest_stable_and_content_sensitive():
    a = synth_splits(4, 2, 2, n_utterances=12, seed=1)
    b = synth_splits(4, 2, 2, n_utterances=12, seed=1)
    c = synth_splits(4, 2, 2, n_utterances=12, seed=2)
    assert corpus_digest(a) == corpus_digest(b)
    assert corpus_digest(a) != corpus_digest(c)
    assert len(corpus_digest(a)) == 16


# ------------------------------------------------------------ run_comparison

@pytest.fixture(scope="module")
def small_report():
    corpora = synth_splits(12, 4, 6, n_utterances=20, seed=5)
    cfg = TrainConfig(epochs=2, seed=0)
    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)
    report = run_comparison(corpora, train_config=cfg, pipeline_config=pcfg)
    return corpora, cfg, pcfg, report


def test_comparison_requires_all_splits():
    corpora = synth_splits(4, 0, 3, n_utterances=12, seed=6)
    with pytest.raises(ValidationError, match="validation"):
        run_comparison(corpora, train_config=TrainConfig(epochs=1))


def test_comparison_rejects_unknown_objective():
    corpora = synth_splits(4, 2, 3, n_utterances=12, seed=6)
    with pytest.raises(ValidationError, match="unknown"):
        run_comparison(corpora, objectives=("pairwise", "hinge"))


def test_comparison_row_structure(small_report):
    _, _, _, report = small_report
    names = [r.objective for r in report.rows]
    assert names == ["pairwise+listwise", "pairwise", "bce", "mse", "lead", "gold"]
    assert report.row("gold").mean_ndcg == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(KeyError):
        report.row("nope")


def test_gold_row_weakly_dominates_ndcg(small_report):
    _, _, _, report = small_report
    gold = report.row("gold")
    for row in report.rows:
        for g, other in zip(gold.ndcg_per_instance, row.ndcg_per_instance):
            assert g >= other - 1e-12


def test_comparison_deterministic(small_report):
    corpora, cfg, pcfg, report = small_report
    again = run_comparison(corpora, train_config=cfg, pipeline_config=pcfg)
    assert again.to_json() == report.to_json()


def test_report_serialization_round_trip(small_report):
    _, _, _, report = small_report
    payload = json.loads(report.to_json())
    assert payload["corpus_id"] == report.corpus_id
    assert len(payload["rows"]) == len(report.rows)
    table = report.format_table()
    assert "objective" in table and "gold" in table
    assert all(len(line.split()) >= 9 for line in table.splitlines()[2:])
