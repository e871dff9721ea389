"""Ranking-quality metrics and the extractor comparison harness.

Two metric families are reported side by side. Rank-level metrics (NDCG and
Kendall tau, both from ranking_metrics) score the order of all utterances by
a row's score vector against the ROUGE-derived relevance labels and isolate
what the scorer itself controls. Overlap metrics measure the selected
utterances against the reference summary, which also depends on budgets,
pooling, and selection. The harness rates the trained models it is given and
trains none itself. Every row, trained or reference, is one score vector per
test instance (see run_comparison), and the harness rates all rows of an
instance in one pass: one NumPy sort per order, and one ROUGE call for the
instance's overlaps. ComparisonRow's fields are the report's columns, in its
JSON and its table. Conclusions drawn from the harness are directional:
absolute numbers depend on corpus scale and scorer capacity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, astuple, dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Corpus, instance_to_record
from .errors import ValidationError
from .pipeline import ExtractionResult, PipelineConfig, rank_descending, run_pipeline, select_topk
from .rouge import RougeScore, rouge_scores
from .scorer import ScoringModel, score_utterances
from .trainer import prepare_corpus

COMPARISON_OBJECTIVES = ("pairwise+listwise", "pairwise", "bce", "mse")
REFERENCE_ROWS = ("lead", "gold")

__all__ = [
    "COMPARISON_OBJECTIVES",
    "REFERENCE_ROWS",
    "RankingMetrics",
    "ndcg_at_k",
    "kendall_tau",
    "ranking_metrics",
    "topk_rouge_overlap",
    "ComparisonRow",
    "ComparisonReport",
    "corpus_digest",
    "run_comparison",
]


@dataclass(frozen=True)
class RankingMetrics:
    """Rank-agreement scores for one predicted ordering."""

    ndcg_at_k: float
    kendall_tau: float


def ndcg_at_k(predicted_order, relevance, k: int) -> float:
    """The NDCG@k of ranking_metrics: see there."""
    return ranking_metrics(predicted_order, relevance, k).ndcg_at_k


def kendall_tau(order_a, order_b) -> float:
    """Tau-a between two orderings of the same elements: (C − D) / C(n,2).

    seq lists each element's position in order_b in order_a's order, so a
    pair is discordant exactly when seq orders it against its positions in
    order_a; the comparison marks each such pair twice, once per direction.
    """
    order_a, order_b = list(order_a), list(order_b)
    if len(set(order_a)) != len(order_a):
        raise ValidationError("orders must not repeat elements")
    if len(order_a) != len(order_b) or set(order_a) != set(order_b):
        raise ValidationError("orders must rank the same element set")
    n = len(order_a)
    if n < 2:
        return 1.0
    seq = np.empty(n, dtype=np.intp)
    # The j-th smallest element sits at argsort(a)[j] in a and argsort(b)[j] in b.
    seq[np.argsort(np.asarray(order_a))] = np.argsort(np.asarray(order_b))
    rank = np.arange(n)
    discordant = int(np.count_nonzero((seq[:, None] > seq) != (rank[:, None] > rank))) // 2
    total = n * (n - 1) // 2
    return (total - 2 * discordant) / total


def ranking_metrics(predicted_order, relevance, k: int) -> RankingMetrics:
    """NDCG@k and Kendall tau of one ordering against the relevance-ideal ordering.

    The ideal ordering is taken over the same items as predicted_order, once
    for both metrics, so a ranking of a candidate subset is normalized against
    the best achievable ordering of that subset. NDCG's gain is the raw
    relevance value, its discount 1/log2(rank+1) with ranks from 1, and an
    all-zero ideal defines it as 1. An order that repeats an item raises
    ValidationError (through kendall_tau).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    items = list(predicted_order)
    relevance = np.asarray(relevance, dtype=np.float64)
    ideal = rank_descending(relevance, items)
    tau = kendall_tau(items, ideal)
    depth = min(k, len(items))
    discounts = 1.0 / np.log2(np.arange(2, depth + 2))
    dcg = float(np.dot(relevance[items[:depth]], discounts))
    idcg = float(np.dot(relevance[ideal[:depth]], discounts))
    return RankingMetrics(ndcg_at_k=dcg / idcg if idcg != 0.0 else 1.0, kendall_tau=tau)


def topk_rouge_overlap(
    extractions: Sequence[ExtractionResult],
    gold_summary: str,
    k_values=(5, 10),
) -> list[dict[int, tuple[RougeScore, RougeScore, RougeScore]]]:
    """R-1/R-2/R-L of each extraction's top-k selected utterances against the summary.

    extractions are selections from one instance, so they share gold_summary;
    the result holds one dict per extraction, keyed by k. The k
    highest-scoring selected utterances (all of them when fewer were
    selected) are concatenated in transcript order before scoring, so the
    measurement matches the text a generator would actually receive. Every
    text is scored in one rouge_scores call, which tokenizes the summary once.
    """
    k_values = tuple(k_values)
    for k in k_values:
        if k < 1:
            raise ValidationError(f"k values must be >= 1, got {k}")
    texts = []
    for extraction in extractions:
        n = len(extraction.selected_indices)
        # Selected indices ascend, so ties by list position are ties by transcript position.
        by_score = rank_descending(extraction.selection_scores)
        for k in k_values:
            keep = sorted(by_score[: min(k, n)])  # back to transcript order
            texts.append("\n".join(extraction.selected_texts[i] for i in keep))
    scores = iter(rouge_scores(texts, gold_summary))
    return [{k: next(scores) for k in k_values} for _ in extractions]


@dataclass(frozen=True)
class ComparisonRow:
    """Aggregated test-split metrics for one extractor configuration."""

    objective: str
    top5_rouge1: float
    top5_rouge2: float
    top5_rougeL: float
    top10_rouge1: float
    top10_rouge2: float
    top10_rougeL: float
    mean_ndcg: float
    mean_tau: float
    ndcg_per_instance: tuple[float, ...] = field(default=(), repr=False)
    tau_per_instance: tuple[float, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    corpus_id: str
    ndcg_k: int
    config: dict

    def row(self, objective: str) -> ComparisonRow:
        for r in self.rows:
            if r.objective == objective:
                return r
        raise KeyError(objective)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def format_table(self) -> str:
        headers = (
            "objective",
            "top5 R-1",
            "top5 R-2",
            "top5 R-L",
            "top10 R-1",
            "top10 R-2",
            "top10 R-L",
            f"NDCG@{self.ndcg_k}",
            "tau",
        )
        # The metric columns are the row's fields from top5_rouge1 to mean_tau.
        body = [
            (row.objective, *(f"{value:.4f}" for value in astuple(row)[1:9])) for row in self.rows
        ]
        widths = [max(len(h), *(len(r[c]) for r in body)) for c, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(r)) for r in body]
        return "\n".join(lines)


def corpus_digest(corpus: Corpus) -> str:
    """First 16 hex digits of the SHA-256 of the split name, then each instance's record."""
    h = hashlib.sha256(corpus.split.encode("utf-8"))
    for inst in corpus:
        h.update(json.dumps(instance_to_record(inst), sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:16]


def run_comparison(
    test: Corpus,
    models: dict[str, ScoringModel],
    pipeline_config: PipelineConfig = PipelineConfig(),
) -> ComparisonReport:
    """Score the given trained models and the reference rows on the test split.

    models maps names in COMPARISON_OBJECTIVES to trained scoring models; the
    rows are the given models in COMPARISON_OBJECTIVES order, then lead and
    gold. Each row ranks all utterances by its score vector: the row's model
    scores, lead's descending transcript positions, or gold's relevance
    labels. The pairwise row selects from the pool of per-window top
    candidates ordered by its own scores, pairwise+listwise re-ranks the pool
    that the pairwise model builds (so it needs that model too), and every
    other row selects greedily in its own order. Rank metrics are computed
    over the full utterance ordering, so every row's tau and NDCG are measured
    on the same element set. Each instance is visited once: all its rows are
    scored, ranked, extracted and measured together, and each row's sums add
    up in instance order.
    """
    if not test:
        raise ValidationError("run_comparison needs at least one instance in the 'test' split")
    unknown = sorted(set(models) - set(COMPARISON_OBJECTIVES))
    if unknown:
        raise ValidationError(
            f"unknown models {unknown}, expected among {list(COMPARISON_OBJECTIVES)}"
        )
    if "pairwise+listwise" in models and "pairwise" not in models:
        raise ValidationError("model 'pairwise+listwise' needs its stage 1, the 'pairwise' model")
    trained = [o for o in COMPARISON_OBJECTIVES if o in models]

    prepared_test = prepare_corpus(test)

    k = pipeline_config.top_k
    objectives = trained + list(REFERENCE_ROWS)
    # Per row, the top-5 then top-10 R-1, R-2 and R-L F1 sums, added in instance order.
    f1_sums = np.zeros((len(objectives), 6))
    ndcgs: dict[str, list[float]] = {o: [] for o in objectives}
    taus: dict[str, list[float]] = {o: [] for o in objectives}
    for prep in prepared_test:
        instance = prep.instance
        n = len(instance.utterances)
        row_scores = {o: score_utterances(models[o], prep.features) for o in trained}
        row_scores["lead"] = np.arange(n, 0, -1, dtype=float)
        row_scores["gold"] = prep.relevance
        extractions = []
        for objective, scores in row_scores.items():
            order = rank_descending(scores)
            if objective in ("pairwise", "pairwise+listwise"):
                extraction = run_pipeline(instance, row_scores["pairwise"], scores, pipeline_config)
            else:
                extraction = select_topk(order, scores, instance, k, pipeline_config.token_budget)
            extractions.append(extraction)
            metrics = ranking_metrics(order, prep.relevance, k)
            ndcgs[objective].append(metrics.ndcg_at_k)
            taus[objective].append(metrics.kendall_tau)
        overlaps = topk_rouge_overlap(extractions, instance.gold_summary, (5, 10))
        for sums, overlap in zip(f1_sums, overlaps, strict=True):
            sums += [score.f1 for score in (*overlap[5], *overlap[10])]

    f1_means = f1_sums / len(prepared_test)
    rows = tuple(
        ComparisonRow(
            objective,
            *f1_means[r].tolist(),
            mean_ndcg=float(np.mean(ndcgs[objective])),
            mean_tau=float(np.mean(taus[objective])),
            ndcg_per_instance=tuple(ndcgs[objective]),
            tau_per_instance=tuple(taus[objective]),
        )
        for r, objective in enumerate(objectives)
    )
    return ComparisonReport(
        rows=rows,
        corpus_id=corpus_digest(test),
        ndcg_k=k,
        config={"pipeline": asdict(pipeline_config)},
    )
