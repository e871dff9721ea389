"""Ranking-quality metrics and the extractor comparison harness.

Two metric families are reported side by side. Rank-level metrics (NDCG,
Kendall tau, Spearman) score the ordering a model produces against the
ROUGE-derived relevance labels and isolate what the scorer itself controls.
Overlap metrics run each extractor end to end and measure the selected
utterances against the reference summary, which also depends on budgets,
pooling, and selection. Conclusions drawn from the harness are directional:
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
from .rouge import RougeScore, rank_descending, rouge_l, rouge_n
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
    "spearman",
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
    spearman: float


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


def spearman(order_a, order_b) -> float:
    """Rank correlation 1 − 6·Σd² / (n(n²−1)) between two orderings."""
    order_a, order_b = list(order_a), list(order_b)
    _check_same_elements(order_a, order_b)
    n = len(order_a)
    if n < 2:
        return 1.0
    pos_a = _positions(order_a)
    pos_b = _positions(order_b)
    d2 = sum((pos_a[x] - pos_b[x]) ** 2 for x in order_a)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def ranking_metrics(predicted_order, relevance, k: int) -> RankingMetrics:
    """All rank metrics of one ordering against the relevance-ideal ordering."""
    items = list(predicted_order)
    relevance = np.asarray(relevance, dtype=np.float64)
    gold = sorted(items, key=lambda i: (-relevance[i], i))
    return RankingMetrics(
        ndcg_at_k=ndcg_at_k(items, relevance, k),
        kendall_tau=kendall_tau(items, gold),
        spearman=spearman(items, gold),
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
    out = {}
    for k in k_values:
        if k < 1:
            raise ValidationError(f"k values must be >= 1, got {k}")
        keep = sorted(by_score[: min(k, n)])  # back to transcript order
        text = "\n".join(extraction.selected_texts[i] for i in keep)
        out[k] = (
            rouge_n(text, gold_summary, 1),
            rouge_n(text, gold_summary, 2),
            rouge_l(text, gold_summary),
        )
    return out


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


def _aggregate_row(objective: str, per_instance, k: int) -> ComparisonRow:
    """per_instance holds (extraction, predicted_order, relevance, summary)."""
    r5 = np.zeros(3)
    r10 = np.zeros(3)
    ndcgs, taus = [], []
    for extraction, order, relevance, summary in per_instance:
        overlap = topk_rouge_overlap(extraction, summary, (5, 10))
        r5 += [s.f1 for s in overlap[5]]
        r10 += [s.f1 for s in overlap[10]]
        metrics = ranking_metrics(order, relevance, k)
        ndcgs.append(metrics.ndcg_at_k)
        taus.append(metrics.kendall_tau)
    n = len(per_instance)
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
    train_corpus: Corpus,
    prepared_train: list[PreparedInstance],
    train_config: TrainConfig,
    pipeline_config: PipelineConfig,
    reranker_config: TrainConfig | None,
) -> dict[str, ScoringModel]:
    models: dict[str, ScoringModel] = {}
    needs_stage1 = "pairwise" in objectives or "pairwise+listwise" in objectives
    if needs_stage1:
        stage1 = train_ranker(
            train_corpus,
            replace(train_config, objective="pairwise"),
            pipeline_config,
            prepared=prepared_train,
        ).model
        models["pairwise"] = stage1
        if "pairwise+listwise" in objectives:
            listwise_config = reranker_config or replace(train_config, objective="listwise")
            models["pairwise+listwise"] = train_reranker(
                train_corpus,
                stage1,
                listwise_config,
                pipeline_config,
                prepared=prepared_train,
            ).model
    for objective in ("bce", "mse"):
        if objective in objectives:
            models[objective] = train_baseline(
                train_corpus,
                replace(train_config, objective=objective),
                pipeline_config,
                prepared=prepared_train,
            ).model
    return models


def run_comparison(
    corpora: dict[str, Corpus],
    objectives=COMPARISON_OBJECTIVES,
    train_config: TrainConfig | None = None,
    pipeline_config: PipelineConfig | None = None,
    reranker_config: TrainConfig | None = None,
    prepared: dict[str, list[PreparedInstance]] | None = None,
) -> ComparisonReport:
    """Train each requested objective and score all extractors on the test split.

    Every trainable objective starts from the same seed and scorer
    architecture. Baseline (bce/mse) extractors rank all utterances with
    their single model; the pairwise row pools per-sample top candidates and
    orders them by stage-1 score; pairwise+listwise re-ranks that pool. Gold
    and lead reference rows are always included. Rank metrics are computed
    over the full utterance ordering each row's final model induces, so every
    row's tau and NDCG are measured on the same element set.
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

    train_config = train_config or TrainConfig()
    pipeline_config = pipeline_config or PipelineConfig()
    prepared = prepared or {}
    prepared_train = prepared.get("train") or prepare_corpus(corpora["train"])
    prepared_test = prepared.get("test") or prepare_corpus(corpora["test"])

    models = _train_models(
        trainable, corpora["train"], prepared_train, train_config, pipeline_config, reranker_config
    )

    k = pipeline_config.top_k
    collected: dict[str, list] = {o: [] for o in trainable + list(REFERENCE_ROWS)}
    for prep in prepared_test:
        instance = prep.instance
        relevance = prep.relevance
        summary = instance.gold_summary
        n = len(instance.utterances)

        for objective in trainable:
            model = models[objective]
            scores = forward(model, prep.features)[0]
            order = rank_descending(scores.tolist())
            if objective == "pairwise+listwise":
                extraction = run_pipeline(
                    instance, models["pairwise"], model,
                    replace(pipeline_config, rerank_enabled=True), features=prep.features,
                )
            elif objective == "pairwise":
                extraction = run_pipeline(
                    instance, model, None,
                    replace(pipeline_config, rerank_enabled=False), features=prep.features,
                )
            else:
                extraction = select_topk(
                    order, scores, instance, pipeline_config.top_k, pipeline_config.token_budget
                )
            collected[objective].append((extraction, order, relevance, summary))

        lead_order = list(range(n))
        lead_scores = np.array([float(n - i) for i in range(n)])
        collected["lead"].append(
            (
                select_topk(lead_order, lead_scores, instance, k, pipeline_config.token_budget),
                lead_order,
                relevance,
                summary,
            )
        )
        gold_order = rank_descending(relevance.tolist())
        collected["gold"].append(
            (
                select_topk(gold_order, relevance, instance, k, pipeline_config.token_budget),
                gold_order,
                relevance,
                summary,
            )
        )

    rows = tuple(
        _aggregate_row(objective, collected[objective], k)
        for objective in trainable + list(REFERENCE_ROWS)
    )
    config_snapshot = {
        "train": asdict(train_config),
        "pipeline": asdict(pipeline_config),
        "reranker": asdict(reranker_config) if reranker_config else None,
    }
    return ComparisonReport(
        rows=rows,
        corpus_id=corpus_digest(corpora),
        ndcg_k=k,
        config=config_snapshot,
    )
