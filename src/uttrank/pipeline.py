"""Two-stage extraction pipeline.

Per-sample ranking, pooling of each sample's top utterances, an optional
global listwise-trained re-ranking pass over the pool, greedy top-K selection
under a token budget, and generator-input assembly.

Selected utterances are emitted in transcript order (dialogue coherence for a
downstream generator); rank order is recoverable from selection_scores. The
token budget counts whitespace-delimited tokens because this toolkit carries
no subword vocabulary -- rescale against your generator's tokenizer if needed.

Per-instance runs are independent and may execute in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import QueryInstance, RankSample, partition_samples
from .errors import ValidationError
from .scorer import ScoringModel, instance_features, score_utterances

__all__ = [
    "PipelineConfig",
    "Candidate",
    "ExtractionResult",
    "stage1_rank",
    "pool_candidates",
    "stage2_rerank",
    "select_topk",
    "run_pipeline",
]


@dataclass(frozen=True)
class PipelineConfig:
    sample_size: int = 32
    per_sample_top: int = 4
    top_k: int = 10
    token_budget: int = 1024

    def __post_init__(self):
        if self.sample_size < 2:
            raise ValidationError(f"sample_size must be >= 2, got {self.sample_size}")
        if self.per_sample_top < 1:
            raise ValidationError(f"per_sample_top must be >= 1, got {self.per_sample_top}")
        if self.per_sample_top > self.sample_size:
            raise ValidationError(
                f"per_sample_top {self.per_sample_top} exceeds sample_size {self.sample_size}"
            )
        if self.top_k < 1:
            raise ValidationError(f"top_k must be >= 1, got {self.top_k}")
        if self.token_budget < 1:
            raise ValidationError(f"token_budget must be >= 1, got {self.token_budget}")


@dataclass(frozen=True)
class Candidate:
    """Pooled utterance with stage-1 provenance."""

    index: int
    sample_ordinal: int
    stage1_rank: int
    stage1_score: float


@dataclass(frozen=True)
class ExtractionResult:
    """Final selection for one instance.

    selected_indices/selection_scores/selected_texts are aligned and kept in
    transcript order. stage1_orders and global_order are audit fields: the
    per-sample rankings and the final candidate ranking that selection walked.
    truncated marks the degenerate path where even the first candidate
    overflowed the token budget and had to be cut.
    """

    instance_id: str
    selected_indices: tuple[int, ...]
    selection_scores: tuple[float, ...]
    selected_texts: tuple[str, ...]
    generator_input: str
    stage1_orders: tuple[tuple[int, ...], ...]
    global_order: tuple[int, ...]
    truncated: bool = False


def _order_by_score(indices, scores) -> tuple[int, ...]:
    return tuple(sorted(indices, key=lambda i: (-scores[i], i)))


def stage1_rank(sample: RankSample, scores) -> tuple[int, ...]:
    """Sample members sorted by predicted score descending, ties by position.

    scores is the per-utterance score array for the whole instance, so one
    scoring pass serves every sample of that instance.
    """
    return _order_by_score(sample.member_indices, scores)


def pool_candidates(ranked_samples, per_sample_top: int) -> tuple[Candidate, ...]:
    """Union of each ranked sample's top members, deduplicated with provenance.

    ranked_samples holds (ordered member indices, member scores aligned to
    utterance index) pairs per sample, as produced by stage1_rank.
    """
    pool: list[Candidate] = []
    seen: set[int] = set()
    for sample_ordinal, (order, scores) in enumerate(ranked_samples):
        for rank, idx in enumerate(order[:per_sample_top]):
            if idx in seen:
                continue
            seen.add(idx)
            pool.append(
                Candidate(
                    index=idx,
                    sample_ordinal=sample_ordinal,
                    stage1_rank=rank,
                    stage1_score=float(scores[idx]),
                )
            )
    return tuple(pool)


def stage2_rerank(pool, scores) -> tuple[int, ...]:
    """Global sort of the pooled utterances by re-ranker score."""
    if not pool:
        raise ValidationError("cannot re-rank an empty candidate pool")
    indices = [c.index if isinstance(c, Candidate) else int(c) for c in pool]
    return _order_by_score(indices, scores)


def _format_line(utterance) -> str:
    return f"{utterance.speaker}: {utterance.text}"


def select_topk(
    global_order,
    scores,
    instance: QueryInstance,
    top_k: int,
    token_budget: int,
) -> ExtractionResult:
    """Greedy walk of the global order under the count and token budgets.

    Stops at the first utterance that would exceed either budget. If even the
    first candidate overflows the budget on its own, it is kept truncated and
    the result is flagged.
    """
    utterances = instance.utterances
    query_tokens = len(instance.query.split())
    selected: list[int] = []
    used = query_tokens
    truncated = False
    for idx in global_order:
        if len(selected) >= top_k:
            break
        line_tokens = len(_format_line(utterances[idx]).split())
        if used + line_tokens > token_budget:
            break
        selected.append(idx)
        used += line_tokens

    lines = None
    if not selected and len(global_order) > 0:
        # Degenerate: the first candidate alone exceeds the budget.
        first = global_order[0]
        selected = [first]
        truncated = True
        keep = max(1, token_budget - query_tokens)
        line = " ".join(_format_line(utterances[first]).split()[:keep])
        if query_tokens >= token_budget:
            # Even the query overflows; cut the assembled text outright.
            text = "\n".join([instance.query, "", line])
            text = " ".join(text.split()[:token_budget])
            return ExtractionResult(
                instance_id=instance.instance_id,
                selected_indices=(first,),
                selection_scores=(float(scores[first]),),
                selected_texts=(utterances[first].text,),
                generator_input=text,
                stage1_orders=(),
                global_order=tuple(global_order),
                truncated=True,
            )
        lines = [instance.query, "", line]

    selected.sort()  # transcript order for the generator input
    if lines is None:
        lines = [instance.query, ""] + [_format_line(utterances[i]) for i in selected]
    generator_input = "\n".join(lines)
    if len(generator_input.split()) > token_budget:
        raise ValidationError(
            f"instance {instance.instance_id!r}: generator input exceeds budget"
        )
    return ExtractionResult(
        instance_id=instance.instance_id,
        selected_indices=tuple(selected),
        selection_scores=tuple(float(scores[i]) for i in selected),
        selected_texts=tuple(utterances[i].text for i in selected),
        generator_input=generator_input,
        stage1_orders=(),
        global_order=tuple(global_order),
        truncated=truncated,
    )


def run_pipeline(
    instance: QueryInstance,
    ranker: ScoringModel,
    reranker: ScoringModel | None,
    config: PipelineConfig,
    features: np.ndarray | None = None,
) -> ExtractionResult:
    """Full extraction for one instance; deterministic given models and config.

    With reranker None the pool is ordered by stage-1 scores (the ablation
    path). features is the instance's feature matrix, computed here when not
    given; both models score the same matrix.
    """
    if features is None:
        features = instance_features(instance)

    samples = partition_samples(instance, config.sample_size)
    ranker_scores = score_utterances(ranker, instance, features=features)
    stage1_orders = tuple(stage1_rank(s, ranker_scores) for s in samples)
    pool = pool_candidates(
        [(order, ranker_scores) for order in stage1_orders], config.per_sample_top
    )

    if reranker is None:
        global_order = _order_by_score([c.index for c in pool], ranker_scores)
        selection_scores = ranker_scores
    else:
        rerank_scores = score_utterances(reranker, instance, features=features)
        global_order = stage2_rerank(pool, rerank_scores)
        selection_scores = rerank_scores

    result = select_topk(
        global_order, selection_scores, instance, config.top_k, config.token_budget
    )
    return replace(result, stage1_orders=stage1_orders)
