"""Rank metrics, top-k overlap measurement, and the comparison harness."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from uttrank.corpus import Corpus
from uttrank.errors import ValidationError
from uttrank.evaluation import (
    ComparisonReport,
    ComparisonRow,
    corpus_digest,
    kendall_tau,
    ranking_metrics,
    run_comparison,
    topk_rouge_overlap,
)
from uttrank.pipeline import ExtractionResult, PipelineConfig, rank_descending, select_topk
from uttrank.rouge import rouge_l, rouge_n
from uttrank.synthesis import synth_splits
from uttrank.trainer import (
    TrainConfig,
    prepare_corpus,
    train_baseline,
    train_ranker,
    train_reranker,
)
from tests.conftest import make_instance


# ----------------------------------------------------------------- NDCG@k

def test_ndcg_perfect_order_is_one():
    assert ranking_metrics([2, 0, 1], [0.5, 0.1, 0.9], k=3).ndcg_at_k == 1.0


def test_ndcg_equal_relevance_is_one_for_any_order():
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        assert ranking_metrics(order, [0.4, 0.4, 0.4], k=3).ndcg_at_k == 1.0


def test_ndcg_reversed_hand_value():
    # relevances [3,2,1], predicted worst-first
    dcg = 1.0 / math.log2(2) + 2.0 / math.log2(3) + 3.0 / math.log2(4)
    idcg = 3.0 / math.log2(2) + 2.0 / math.log2(3) + 1.0 / math.log2(4)
    got = ranking_metrics([2, 1, 0], [3.0, 2.0, 1.0], k=3).ndcg_at_k
    assert got == pytest.approx(dcg / idcg, abs=1e-12)


def test_ndcg_zero_ideal_defined_as_one():
    assert ranking_metrics([1, 0], [0.0, 0.0], k=2).ndcg_at_k == 1.0


def test_ndcg_normalizes_within_the_ranked_subset():
    # item 2 (the global best) is absent from the ranking; the ideal is taken
    # over the items actually ranked, so a perfect subset order scores 1
    assert ranking_metrics([1, 0], [0.1, 0.9, 5.0], k=2).ndcg_at_k == 1.0


def test_ndcg_rejects_bad_k():
    with pytest.raises(ValidationError):
        ranking_metrics([0, 1], [1.0, 0.0], k=0)


@pytest.mark.parametrize("order", [[0, 0, 0], [2, 2]])
def test_ndcg_rejects_a_repeated_item(order):
    # Each order once scored 1.0: the repeat was counted as if it were distinct.
    with pytest.raises(ValidationError, match="repeat"):
        ranking_metrics(order, [1.0, 0.0, 0.5], len(order))


def test_ndcg_bounded_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        rel = rng.uniform(size=n)
        order = rng.permutation(n).tolist()
        v = ranking_metrics(order, rel, k=int(rng.integers(1, n + 1))).ndcg_at_k
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


def test_tau_on_sparse_elements_matches_pair_enumeration():
    rng = np.random.default_rng(33)
    for _ in range(40):
        items = rng.choice(1000, size=9, replace=False)
        a = rng.permutation(items).tolist()
        b = rng.permutation(items).tolist()
        assert kendall_tau(a, b) == pytest.approx(_tau_brute(a, b), abs=1e-12)
        assert kendall_tau([f"u{x}" for x in a], [f"u{x}" for x in b]) == kendall_tau(a, b)


def _ndcg_brute(order, relevance, k):
    """DCG over the first k of order, against the same items sorted by relevance."""
    depth = min(k, len(order))
    dcg = sum(relevance[i] / math.log2(rank + 2) for rank, i in enumerate(order[:depth]))
    ideal = sorted((relevance[i] for i in order), reverse=True)[:depth]
    idcg = sum(gain / math.log2(rank + 2) for rank, gain in enumerate(ideal))
    return dcg / idcg if idcg != 0.0 else 1.0


def test_ranking_metrics_equal_the_separate_metrics():
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        rel = rng.choice([0.0, 0.25, 0.5, rng.uniform()], size=n)  # ties in the ideal order
        order = rng.permutation(n).tolist()[: int(rng.integers(1, n + 1))]
        k = int(rng.integers(1, 12))
        m = ranking_metrics(order, rel, k)
        assert m.ndcg_at_k == pytest.approx(_ndcg_brute(order, rel, k), abs=1e-12)
        assert m.kendall_tau == kendall_tau(order, rank_descending(rel, order))


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
    (out,) = topk_rouge_overlap([ext], "the quick brown\nfox jumps", k_values=(2,))
    r1, r2, rl = out[2]
    assert r1.f1 == 1.0 and r2.f1 == 1.0 and rl.f1 == 1.0


def test_overlap_disjoint_text_scores_zero():
    ext = _extraction([0], [1.0], ["alpha beta gamma"])
    (out,) = topk_rouge_overlap([ext], "delta epsilon zeta", k_values=(1,))
    assert all(s.f1 == 0.0 for s in out[1])


def test_overlap_matches_manual_composition():
    # five selected utterances; k=3 keeps the three best scores, re-sorted
    # into transcript order before concatenation
    texts = [f"tok{i} shared words here" for i in range(5)]
    scores = [0.2, 0.9, 0.1, 0.8, 0.5]
    ext = _extraction(list(range(5)), scores, texts)
    gold = "shared words tok1 tok3"
    (out,) = topk_rouge_overlap([ext], gold, k_values=(3, 10))

    keep = sorted(sorted(range(5), key=lambda i: -scores[i])[:3])
    joined = "\n".join(texts[i] for i in keep)
    assert out[3][0] == rouge_n(joined, gold, 1)
    assert out[3][1] == rouge_n(joined, gold, 2)
    assert out[3][2] == rouge_l(joined, gold)
    # k beyond the selection uses everything
    all_joined = "\n".join(texts)
    assert out[10][0] == rouge_n(all_joined, gold, 1)


def test_overlap_of_a_truncated_selection_scores_only_the_generator_input():
    inst = make_instance(query="q", texts=["alpha beta gamma delta epsilon zeta"], speakers=["a"])
    ext = select_topk((0,), np.ones(1), inst, top_k=5, token_budget=4)
    assert ext.truncated and ext.generator_input == "q\n\na: alpha beta"
    r1, r2, rl = topk_rouge_overlap([ext], "zeta epsilon", k_values=(5,))[0][5]
    assert r1.f1 == 0.0 and r2.f1 == 0.0 and rl.f1 == 0.0


def test_overlap_of_many_extractions_equals_one_at_a_time():
    inst = make_instance()
    rng = np.random.default_rng(35)
    extractions = [
        select_topk(rng.permutation(6).tolist(), scores, inst, top_k, budget)
        for scores, top_k, budget in (
            (rng.uniform(size=6), 5, 1024),
            (np.full(6, 0.5), 3, 1024),  # tied selection scores
            (rng.uniform(size=6), 10, 1024),
            (rng.uniform(size=6), 4, 5),  # truncated
        )
    ]
    extractions.append(select_topk((), np.ones(6), inst, 5, 1024))  # nothing selected
    assert extractions[3].truncated and not extractions[4].selected_indices
    for k_values in ((5, 10), (1,), (3, 1, 3)):
        batched = topk_rouge_overlap(extractions, inst.gold_summary, k_values)
        alone = [topk_rouge_overlap([e], inst.gold_summary, k_values)[0] for e in extractions]
        assert batched == alone
    assert topk_rouge_overlap([], inst.gold_summary) == []


def test_overlap_rejects_bad_k():
    ext = _extraction([0], [1.0], ["text"])
    with pytest.raises(ValidationError):
        topk_rouge_overlap([ext], "text", k_values=(0,))


# ------------------------------------------------------------ corpus_digest

def test_digest_stable_and_content_sensitive():
    a = synth_splits(4, 2, 2, n_utterances=12, seed=1)["test"]
    b = synth_splits(4, 2, 2, n_utterances=12, seed=1)["test"]
    c = synth_splits(4, 2, 2, n_utterances=12, seed=2)["test"]
    assert corpus_digest(a) == corpus_digest(b)
    assert corpus_digest(a) != corpus_digest(c)
    assert len(corpus_digest(a)) == 16


def test_digest_hashes_the_split_then_the_records():
    # Literals taken from the digest of {"test": test}, the form that once
    # keyed each corpus by its split; a report's corpus_id keeps its value.
    test = synth_splits(4, 2, 2, n_utterances=12, seed=1)["test"]
    assert corpus_digest(test) == "a0507c25dc534e2c"
    assert corpus_digest(replace(test, split="validation")) != corpus_digest(test)


# ------------------------------------------------------------ run_comparison

def _train_models(prepared, cfg, pcfg):
    """Every comparison model trained through trainer, keyed by its row name."""
    models = {}
    for objective in ("pairwise", "listwise", "bce", "mse"):
        config = replace(cfg, objective=objective)
        if objective == "pairwise":
            models["pairwise"] = train_ranker(prepared, config, pcfg).model
        elif objective == "listwise":
            models["pairwise+listwise"] = train_reranker(
                prepared, models["pairwise"], config, pcfg
            ).model
        else:
            models[objective] = train_baseline(prepared, config, pcfg).model
    return models


@pytest.fixture(scope="module")
def small_report():
    corpora = synth_splits(12, 4, 6, n_utterances=20, seed=5)
    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)
    models = _train_models(prepare_corpus(corpora["train"]), TrainConfig(epochs=2, seed=0), pcfg)
    report = run_comparison(corpora["test"], models, pcfg)
    return corpora, models, pcfg, report


def test_comparison_rejects_unknown_objective(small_report):
    corpora, models, pcfg, _ = small_report
    with pytest.raises(ValidationError, match="unknown models \\['hinge'\\]"):
        run_comparison(corpora["test"], {"pairwise": models["pairwise"], "hinge": models["mse"]})
    # The reference rows are computed, never given.
    with pytest.raises(ValidationError, match="unknown"):
        run_comparison(corpora["test"], {"gold": models["mse"]})


def test_comparison_rejects_an_empty_test_split(small_report):
    _, models, pcfg, _ = small_report
    with pytest.raises(ValidationError, match="at least one instance"):
        run_comparison(Corpus(instances=(), split="test"), models, pcfg)


def test_comparison_rejects_reranker_without_stage1(small_report):
    corpora, models, pcfg, _ = small_report
    with pytest.raises(ValidationError, match="'pairwise'"):
        run_comparison(corpora["test"], {"pairwise+listwise": models["pairwise+listwise"]}, pcfg)


def test_comparison_rows_follow_the_given_models(small_report):
    corpora, models, pcfg, report = small_report
    given = {name: models[name] for name in ("mse", "pairwise")}
    subset = run_comparison(corpora["test"], given, pcfg)
    assert [r.objective for r in subset.rows] == ["pairwise", "mse", "lead", "gold"]
    rows = {r.objective: r for r in report.rows}
    for row in subset.rows:
        assert row == rows[row.objective]
    only_references = run_comparison(corpora["test"], {}, pcfg)
    assert [r.objective for r in only_references.rows] == ["lead", "gold"]


def test_comparison_row_structure(small_report):
    _, _, _, report = small_report
    names = [r.objective for r in report.rows]
    assert names == ["pairwise+listwise", "pairwise", "bce", "mse", "lead", "gold"]
    assert {r.objective: r for r in report.rows}["gold"].mean_ndcg == pytest.approx(1.0, abs=1e-12)


def test_gold_row_weakly_dominates_ndcg(small_report):
    _, _, _, report = small_report
    gold = {r.objective: r for r in report.rows}["gold"]
    for row in report.rows:
        for g, other in zip(gold.ndcg_per_instance, row.ndcg_per_instance):
            assert g >= other - 1e-12


def test_comparison_reference_rows_match_a_per_row_pass(small_report):
    # The two-pass aggregate the harness used to make: one row at a time,
    # one overlap call per instance, sums added in instance order.
    corpora, _, pcfg, report = small_report
    prepared = prepare_corpus(corpora["test"])
    rows = {r.objective: r for r in report.rows}
    for objective in ("lead", "gold"):
        r5, r10, ndcgs, taus = np.zeros(3), np.zeros(3), [], []
        for prep in prepared:
            n = len(prep.instance.utterances)
            scores = np.arange(n, 0, -1, dtype=float) if objective == "lead" else prep.relevance
            order = rank_descending(scores)
            ext = select_topk(order, scores, prep.instance, pcfg.top_k, pcfg.token_budget)
            (overlap,) = topk_rouge_overlap([ext], prep.instance.gold_summary)
            r5 += [s.f1 for s in overlap[5]]
            r10 += [s.f1 for s in overlap[10]]
            metrics = ranking_metrics(order, prep.relevance, pcfg.top_k)
            ndcgs.append(metrics.ndcg_at_k)
            taus.append(metrics.kendall_tau)
        r5 /= len(prepared)
        r10 /= len(prepared)
        row = rows[objective]
        assert [row.top5_rouge1, row.top5_rouge2, row.top5_rougeL] == r5.tolist()
        assert [row.top10_rouge1, row.top10_rouge2, row.top10_rougeL] == r10.tolist()
        assert (row.ndcg_per_instance, row.tau_per_instance) == (tuple(ndcgs), tuple(taus))
        assert (row.mean_ndcg, row.mean_tau) == (float(np.mean(ndcgs)), float(np.mean(taus)))


def test_comparison_deterministic(small_report):
    corpora, models, pcfg, report = small_report
    again = run_comparison(corpora["test"], models, pcfg)
    assert again.to_json() == report.to_json()


def test_report_serialization_round_trip(small_report):
    _, _, _, report = small_report
    payload = json.loads(report.to_json())
    assert payload["corpus_id"] == report.corpus_id
    assert len(payload["rows"]) == len(report.rows)
    assert [ComparisonRow(**row) for row in payload["rows"]] == [
        replace(r, ndcg_per_instance=list(r.ndcg_per_instance),
                tau_per_instance=list(r.tau_per_instance))
        for r in report.rows
    ]
    lines = report.format_table().splitlines()
    assert lines[0].split() == [
        "objective", "top5", "R-1", "top5", "R-2", "top5", "R-L",
        "top10", "R-1", "top10", "R-2", "top10", "R-L", f"NDCG@{report.ndcg_k}", "tau",
    ]
    metric_fields = (
        "top5_rouge1", "top5_rouge2", "top5_rougeL",
        "top10_rouge1", "top10_rouge2", "top10_rougeL", "mean_ndcg", "mean_tau",
    )
    assert len(lines) == 2 + len(report.rows)
    for line, row in zip(lines[2:], report.rows, strict=True):
        assert line.split() == [
            row.objective, *(f"{getattr(row, name):.4f}" for name in metric_fields)
        ]
