"""Two-stage extraction pipeline.

Per-sample ranking, pooling of each sample's top utterances, a global
re-ranking pass over the pool, greedy top-K selection under a token budget,
and generator-input assembly. Every stage reads score vectors, one score per
utterance, and no model; the no-re-ranker ablation orders the pool by the
stage-1 vector. Samples are range windows and the pool is a tuple of
utterance indices; re-ranker training pools with the same stage1_pool.
select_topk builds every ExtractionResult, and run_pipeline passes it the
stage-1 orders to record.

rank_descending is the one rule that turns scores into an order (score
descending, ties by transcript position); both stages, trainer and metrics use it.
It is one NumPy sort over a score array, and it rejects a NaN score.

Selected utterances are emitted in transcript order (dialogue coherence for a
downstream generator); rank order is recoverable from selection_scores. The
token budget counts whitespace-delimited tokens because this toolkit carries
no subword vocabulary -- rescale against your generator's tokenizer if needed.

Per-instance runs are independent and may execute in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import QueryInstance, partition_samples
from .errors import ValidationError

__all__ = [
    "rank_descending",
    "PipelineConfig",
    "ExtractionResult",
    "stage1_rank",
    "pool_candidates",
    "stage1_pool",
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
class ExtractionResult:
    """Final selection for one instance.

    selected_indices/selection_scores/selected_texts are aligned and kept in
    transcript order. stage1_orders and global_order are audit fields: the
    per-sample rankings and the final candidate ranking that selection walked.
    truncated marks the degenerate path where even the first candidate
    overflowed the token budget and was cut, in generator_input and selected_texts.
    """

    instance_id: str
    selected_indices: tuple[int, ...]
    selection_scores: tuple[float, ...]
    selected_texts: tuple[str, ...]
    generator_input: str
    stage1_orders: tuple[tuple[int, ...], ...]
    global_order: tuple[int, ...]
    truncated: bool = False


def rank_descending(values, indices=None) -> list[int]:
    """indices (default: every position of values) by value descending, ties by position.

    values are compared as float64, so -0.0 ties with 0.0. A NaN among the
    ranked values has no place in the order and raises ValidationError.
    """
    v = np.asarray(values, dtype=np.float64)
    if indices is None:
        order = np.argsort(-v, kind="stable")
    else:
        if isinstance(indices, range):  # np.asarray would walk it item by item
            idx = np.arange(indices.start, indices.stop, indices.step)
        else:
            idx = np.asarray(indices, dtype=np.intp)
        order = idx[np.lexsort((idx, -v[idx]))]
    # Both sorts put NaN last, so the last item shows whether there is one.
    if len(order) and np.isnan(v[order[-1]]):
        position = int(order[np.isnan(v[order])].min())
        raise ValidationError(f"cannot rank a NaN score, at position {position}")
    return order.tolist()


def stage1_rank(window: range, scores) -> tuple[int, ...]:
    """Window members sorted by predicted score descending, ties by position.

    scores is the per-utterance score array for the whole instance, so one
    scoring pass serves every window of that instance.
    """
    return tuple(rank_descending(scores, window))


def pool_candidates(stage1_orders, per_sample_top: int) -> tuple[int, ...]:
    """Union of each window's top per_sample_top indices, in window then rank order.

    An index that tops several orders is pooled once, where it first appears.
    """
    pool = dict.fromkeys(idx for order in stage1_orders for idx in order[:per_sample_top])
    return tuple(pool)


def stage1_pool(
    instance: QueryInstance, scores, config: PipelineConfig
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each window's stage-1 order under scores, and the candidate pool drawn from them."""
    orders = tuple(
        stage1_rank(window, scores) for window in partition_samples(instance, config.sample_size)
    )
    return orders, pool_candidates(orders, config.per_sample_top)


def stage2_rerank(pool, scores) -> tuple[int, ...]:
    """Global sort of the pooled utterance indices by re-ranker score."""
    if not pool:
        raise ValidationError("cannot re-rank an empty candidate pool")
    return tuple(rank_descending(scores, pool))


def _format_line(utterance) -> str:
    return f"{utterance.speaker}: {utterance.text}"


def select_topk(
    global_order,
    scores,
    instance: QueryInstance,
    top_k: int,
    token_budget: int,
    stage1_orders=(),
) -> ExtractionResult:
    """Greedy walk of the global order under the count and token budgets.

    Stops at the first utterance that would exceed either budget. If even the
    first candidate overflows the budget on its own, it is kept truncated and
    the result is flagged. stage1_orders, the per-window orders that built
    global_order's pool (none for a plain ranking), is carried into the result.
    """
    utterances = instance.utterances
    query_tokens = len(instance.query.split())
    selected: list[int] = []
    used = query_tokens
    for idx in global_order:
        if len(selected) >= top_k:
            break
        line_tokens = len(_format_line(utterances[idx]).split())
        if used + line_tokens > token_budget:
            break
        selected.append(idx)
        used += line_tokens

    truncated = not selected and len(global_order) > 0
    if truncated:
        # Degenerate: the first candidate alone exceeds the budget.
        first = global_order[0]
        selected = [first]
        line = _format_line(utterances[first]).split()[: max(0, token_budget - query_tokens)]
        speaker_tokens = len(f"{utterances[first].speaker}:".split())
        texts = [" ".join(line[speaker_tokens:])]
        generator_input = "\n".join([instance.query, "", " ".join(line)])
        if query_tokens >= token_budget:
            # Even the query overflows; cut the assembled text outright.
            generator_input = " ".join(generator_input.split()[:token_budget])
    else:
        selected.sort()  # transcript order for the generator input
        texts = [utterances[i].text for i in selected]
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
        selected_texts=tuple(texts),
        generator_input=generator_input,
        stage1_orders=tuple(stage1_orders),
        global_order=tuple(global_order),
        truncated=truncated,
    )


def run_pipeline(
    instance: QueryInstance,
    stage1_scores,
    selection_scores,
    config: PipelineConfig,
) -> ExtractionResult:
    """Full extraction for one instance; deterministic given its score vectors and config.

    stage1_scores picks each window's top candidates; selection_scores orders
    the pool and is reported as the selected utterances' scores. Each holds
    one score per utterance (scorer.score_utterances).
    """
    n = len(instance.utterances)
    for name, scores in (("stage1_scores", stage1_scores), ("selection_scores", selection_scores)):
        if len(scores) != n:
            raise ValidationError(f"{name} holds {len(scores)} scores for {n} utterances")
    stage1_orders, pool = stage1_pool(instance, stage1_scores, config)
    global_order = stage2_rerank(pool, selection_scores)
    return select_topk(
        global_order, selection_scores, instance, config.top_k, config.token_budget, stage1_orders
    )
