"""Ranking-quality metrics and the extractor comparison harness.

Two metric families are reported side by side. Rank-level metrics (NDCG and
Kendall tau) score the order of all utterances by a row's score vector
against the ROUGE-derived relevance labels and isolate what the scorer
itself controls. Overlap metrics measure the selected utterances against the
reference summary, which also depends on budgets, pooling, and selection.
Every row, trained or reference, is one score vector per test instance (see
run_comparison). Conclusions drawn from the harness are directional:
absolute numbers depend on corpus scale and scorer capacity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .corpus import Corpus, instance_to_record
from .errors import ValidationError
from .pipeline import ExtractionResult, PipelineConfig, run_pipeline, select_topk
from .rouge import RougeScore, rank_descending, rouge_scores
from .scorer import ScoringModel, forward
from .trainer import (
    PreparedInstance,
    TrainConfig,
    prepare_corpus,
    train_baseline,
    train_ranker,
    train_reranker,
)

COMPARISON_OBJECTIVES = ("pairwise+listwise", "pairwise", "bce", "mse")
REFERENCE_ROWS = ("lead", "gold")
REQUIRED_SPLITS = ("train", "validation", "test")

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
    """Discounted cumulative gain of the predicted prefix over the ideal one.

    Gain is the raw relevance value, discount 1/log2(rank+1) with ranks from
    1. The ideal ordering is taken over the same item set as predicted_order,
    so a ranking of a candidate subset is normalized against the best
    achievable ordering of that subset. An all-zero ideal defines the metric
    as 1.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    order = list(predicted_order)
    relevance = np.asarray(relevance, dtype=np.float64)
    ideal = sorted(order, key=lambda i: (-relevance[i], i))
    depth = min(k, len(order))
    discounts = 1.0 / np.log2(np.arange(2, depth + 2))
    dcg = float(np.dot(relevance[order[:depth]], discounts))
    idcg = float(np.dot(relevance[ideal[:depth]], discounts))
    if idcg == 0.0:
        return 1.0
    return dcg / idcg


def _positions(order) -> dict:
    return {item: rank for rank, item in enumerate(order)}


def _check_same_elements(order_a, order_b) -> None:
    if len(set(order_a)) != len(order_a):
        raise ValidationError("orders must not repeat elements")
    if len(order_a) != len(order_b) or set(order_a) != set(order_b):
        raise ValidationError("orders must rank the same element set")


def kendall_tau(order_a, order_b) -> float:
    """Tau-a between two orderings of the same elements: (C − D) / C(n,2)."""
    order_a, order_b = list(order_a), list(order_b)
    _check_same_elements(order_a, order_b)
    n = len(order_a)
    if n < 2:
        return 1.0
    pos_b = _positions(order_b)
    seq = np.array([pos_b[x] for x in order_a])
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    discordant = int(np.count_nonzero((seq[:, None] > seq[None, :]) & upper))
    total = n * (n - 1) // 2
    return (total - 2 * discordant) / total


def ranking_metrics(predicted_order, relevance, k: int) -> RankingMetrics:
    """All rank metrics of one ordering against the relevance-ideal ordering."""
    items = list(predicted_order)
    relevance = np.asarray(relevance, dtype=np.float64)
    gold = sorted(items, key=lambda i: (-relevance[i], i))
    return RankingMetrics(
        ndcg_at_k=ndcg_at_k(items, relevance, k),
        kendall_tau=kendall_tau(items, gold),
    )


def topk_rouge_overlap(
    extraction: ExtractionResult,
    gold_summary: str,
    k_values=(5, 10),
) -> dict[int, tuple[RougeScore, RougeScore, RougeScore]]:
    """R-1/R-2/R-L of the top-k selected utterances against the summary.

    The k highest-scoring selected utterances (all of them when fewer were
    selected) are concatenated in transcript order before scoring, so the
    measurement matches the text a generator would actually receive.
    """
    n = len(extraction.selected_indices)
    by_score = sorted(
        range(n),
        key=lambda i: (-extraction.selection_scores[i], extraction.selected_indices[i]),
    )
    texts = {}
    for k in k_values:
        if k < 1:
            raise ValidationError(f"k values must be >= 1, got {k}")
        keep = sorted(by_score[: min(k, n)])  # back to transcript order
        texts[k] = "\n".join(extraction.selected_texts[i] for i in keep)
    return dict(zip(texts, rouge_scores(texts.values(), gold_summary)))


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
        payload = {
            "corpus_id": self.corpus_id,
            "ndcg_k": self.ndcg_k,
            "config": self.config,
            "rows": [asdict(r) for r in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

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
        body = [
            (
                row.objective,
                f"{row.top5_rouge1:.4f}",
                f"{row.top5_rouge2:.4f}",
                f"{row.top5_rougeL:.4f}",
                f"{row.top10_rouge1:.4f}",
                f"{row.top10_rouge2:.4f}",
                f"{row.top10_rougeL:.4f}",
                f"{row.mean_ndcg:.4f}",
                f"{row.mean_tau:.4f}",
            )
            for row in self.rows
        ]
        widths = [max(len(h), *(len(r[c]) for r in body)) for c, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(r)) for r in body]
        return "\n".join(lines)


def corpus_digest(corpora: dict[str, Corpus]) -> str:
    h = hashlib.sha256()
    for split in sorted(corpora):
        h.update(split.encode("utf-8"))
        for inst in corpora[split]:
            h.update(json.dumps(instance_to_record(inst), sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:16]


def _aggregate_row(
    objective: str, prepared: list[PreparedInstance], selections, k: int
) -> ComparisonRow:
    """selections holds one (extraction, predicted_order) pair per prepared instance."""
    r5 = np.zeros(3)
    r10 = np.zeros(3)
    ndcgs, taus = [], []
    for prep, (extraction, order) in zip(prepared, selections, strict=True):
        overlap = topk_rouge_overlap(extraction, prep.instance.gold_summary, (5, 10))
        r5 += [s.f1 for s in overlap[5]]
        r10 += [s.f1 for s in overlap[10]]
        metrics = ranking_metrics(order, prep.relevance, k)
        ndcgs.append(metrics.ndcg_at_k)
        taus.append(metrics.kendall_tau)
    n = len(prepared)
    r5 /= n
    r10 /= n
    return ComparisonRow(
        objective=objective,
        top5_rouge1=float(r5[0]),
        top5_rouge2=float(r5[1]),
        top5_rougeL=float(r5[2]),
        top10_rouge1=float(r10[0]),
        top10_rouge2=float(r10[1]),
        top10_rougeL=float(r10[2]),
        mean_ndcg=float(np.mean(ndcgs)),
        mean_tau=float(np.mean(taus)),
        ndcg_per_instance=tuple(ndcgs),
        tau_per_instance=tuple(taus),
    )


def _train_models(
    objectives,
    prepared_train: list[PreparedInstance],
    train_config: TrainConfig,
    pipeline_config: PipelineConfig,
) -> dict[str, ScoringModel]:
    models: dict[str, ScoringModel] = {}
    needs_stage1 = "pairwise" in objectives or "pairwise+listwise" in objectives
    if needs_stage1:
        stage1 = train_ranker(
            prepared_train, replace(train_config, objective="pairwise"), pipeline_config
        ).model
        models["pairwise"] = stage1
        if "pairwise+listwise" in objectives:
            models["pairwise+listwise"] = train_reranker(
                prepared_train,
                stage1,
                replace(train_config, objective="listwise"),
                pipeline_config,
            ).model
    for objective in ("bce", "mse"):
        if objective in objectives:
            models[objective] = train_baseline(
                prepared_train, replace(train_config, objective=objective), pipeline_config
            ).model
    return models


def run_comparison(
    corpora: dict[str, Corpus],
    objectives=COMPARISON_OBJECTIVES,
    train_config: TrainConfig = TrainConfig(),
    pipeline_config: PipelineConfig = PipelineConfig(),
) -> ComparisonReport:
    """Train each requested objective and score all extractors on the test split.

    Every trainable objective starts from the same seed and scorer
    architecture. Each row ranks all utterances by its score vector: the
    row's model scores, lead's descending transcript positions, or gold's
    relevance labels. The pairwise row selects from the pool of per-window
    top candidates ordered by stage-1 score, pairwise+listwise re-ranks that
    pool, and every other row selects greedily in its own order. Gold and
    lead reference rows are always included. Rank metrics are computed over
    the full utterance ordering, so every row's tau and NDCG are measured on
    the same element set.
    """
    for split in REQUIRED_SPLITS:
        if split not in corpora:
            raise ValidationError(f"run_comparison requires a {split!r} split")
    known = set(COMPARISON_OBJECTIVES) | set(REFERENCE_ROWS)
    requested = list(dict.fromkeys(objectives))
    unknown = [o for o in requested if o not in known]
    if unknown:
        raise ValidationError(f"unknown objectives {unknown}, expected among {sorted(known)}")
    trainable = [o for o in COMPARISON_OBJECTIVES if o in requested]

    prepared_train = prepare_corpus(corpora["train"])
    prepared_test = prepare_corpus(corpora["test"])

    models = _train_models(trainable, prepared_train, train_config, pipeline_config)

    k = pipeline_config.top_k
    selections: dict[str, list] = {o: [] for o in trainable + list(REFERENCE_ROWS)}
    for prep in prepared_test:
        instance = prep.instance
        n = len(instance.utterances)
        row_scores = {o: forward(models[o], prep.features)[0] for o in trainable}
        row_scores["lead"] = np.arange(n, 0, -1, dtype=float)
        row_scores["gold"] = prep.relevance
        for objective, scores in row_scores.items():
            order = rank_descending(scores.tolist())
            if objective == "pairwise+listwise":
                extraction = run_pipeline(
                    instance, prep.features, models["pairwise"], models[objective], pipeline_config
                )
            elif objective == "pairwise":
                extraction = run_pipeline(
                    instance, prep.features, models[objective], None, pipeline_config
                )
            else:
                extraction = select_topk(order, scores, instance, k, pipeline_config.token_budget)
            selections[objective].append((extraction, order))

    rows = tuple(
        _aggregate_row(objective, prepared_test, selections[objective], k)
        for objective in selections
    )
    config_snapshot = {
        "train": asdict(train_config),
        "pipeline": asdict(pipeline_config),
    }
    return ComparisonReport(
        rows=rows,
        corpus_id=corpus_digest(corpora),
        ndcg_k=k,
        config=config_snapshot,
    )
