"""Training loops for the ranking objectives, plus the gradient checker.

prepare_corpus collects each instance with the feature matrix and gold labels
that scorer.iter_prepared hands back for it; every train_* function takes
the prepared instances first.

All four objectives train through one loop. train_ranker (pairwise) and
train_baseline (bce, mse) make one unit per partition_samples window;
train_reranker (listwise) makes one unit per stage-1 candidate pool, with
the stage-1 ranker frozen. Each checks its objective and names its row
groups; _train builds the units, skips any window or pool of fewer than two
utterances, in which nothing can be compared, and runs the epochs.

Plain gradient descent with no optimizer state: every run is a pure function
of (corpus, config, seed) and repeated runs produce bit-identical models.
Each epoch visits every unit once, in a seeded random order. The default
learning rate targets this feature-model regime; the 5e-6 rate appropriate
for a large pretrained cross-encoder is selectable through TrainConfig.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import Corpus, QueryInstance, partition_samples
from .errors import ValidationError
from .pipeline import PipelineConfig, rank_descending, stage1_pool
from .ranklosses import (
    LossResult,
    bce_locator_loss,
    kl_listwise_loss,
    mse_simulator_loss,
    pairwise_margin_loss,
)
from .scorer import (
    FEATURE_DIM,
    ParameterGradient,
    ScoringModel,
    apply_gradient,
    backward,
    flat_gradient,
    flat_params,
    forward,
    init_model,
    iter_prepared,
    num_params,
    score_utterances,
    set_flat_params,
)

logger = logging.getLogger(__name__)

OBJECTIVES = ("pairwise", "listwise", "bce", "mse")

__all__ = [
    "OBJECTIVES",
    "TrainConfig",
    "TrainResult",
    "PreparedInstance",
    "prepare_corpus",
    "locator_labels",
    "LossAssembly",
    "make_objective_assembly",
    "train_ranker",
    "train_reranker",
    "train_baseline",
    "GRAD_CHECK_THRESHOLD",
    "GradCheckReport",
    "grad_check",
]


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "pairwise"
    learning_rate: float = 5e-3
    epochs: int = 10
    seed: int = 0
    base_margin: float = 0.01
    listwise_k: int = 10
    hidden_dims: tuple[int, ...] = (16,)
    locator_positives: int = 8
    locator_use_spans: bool = False

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.base_margin < math.inf:
            raise ValidationError(f"base_margin must be finite and >= 0, got {self.base_margin}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not all(d >= 1 for d in self.hidden_dims):
            raise ValidationError(f"hidden_dims must all be >= 1, got {self.hidden_dims}")
        if self.listwise_k < 1:
            raise ValidationError(f"listwise_k must be >= 1, got {self.listwise_k}")
        if self.locator_positives < 1:
            raise ValidationError(f"locator_positives must be >= 1, got {self.locator_positives}")


@dataclass
class TrainResult:
    """Final model plus the per-epoch mean training loss."""

    model: ScoringModel
    epoch_losses: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class PreparedInstance:
    """Instance with its feature matrix and gold relevance labels precomputed."""

    instance: QueryInstance
    features: np.ndarray
    relevance: np.ndarray


def prepare_corpus(corpus: Corpus) -> list[PreparedInstance]:
    """Features and gold labels of every instance, a chunk of instances per pass."""
    return [PreparedInstance(*prepared) for prepared in iter_prepared(corpus, with_gold=True)]


def locator_labels(prep: PreparedInstance, n_positive: int, use_spans: bool) -> np.ndarray:
    """Binary labels for the locator objective.

    With span annotations (and use_spans set) an utterance inside any relevant
    span is positive; otherwise the top n_positive utterances by gold
    relevance are positive, ties resolved by transcript position.
    """
    n = len(prep.instance.utterances)
    labels = np.zeros(n)
    spans = prep.instance.relevant_spans
    if use_spans and spans:
        for start, stop in spans:
            labels[max(0, start) : min(n, stop + 1)] = 1.0
        return labels
    for i in rank_descending(prep.relevance)[: min(n_positive, n)]:
        labels[i] = 1.0
    return labels


@dataclass(frozen=True)
class LossAssembly:
    """One training unit: feature rows plus the loss over their scores.

    value() runs the score path only (used by finite differences);
    value_and_grad() also backpropagates into the model parameters.
    """

    feature_rows: np.ndarray
    loss_fn: Callable[[np.ndarray], LossResult]

    def value(self, model: ScoringModel) -> float:
        return self.loss_fn(score_utterances(model, self.feature_rows)).value

    def value_and_grad(self, model: ScoringModel) -> tuple[float, ParameterGradient]:
        scores, activations = forward(model, self.feature_rows)
        result = self.loss_fn(scores)
        return result.value, backward(model, activations, result.grad)


def make_objective_assembly(
    objective: str,
    features: np.ndarray,
    targets: np.ndarray,
    *,
    base_margin: float = TrainConfig.base_margin,
    listwise_k: int = TrainConfig.listwise_k,
) -> LossAssembly:
    """Bind one objective's loss to concrete feature rows and targets.

    For the pairwise objective the rows are re-indexed into gold order
    (targets descending) before the margin loss sees their scores. The
    listwise k is clamped to the number of rows.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if objective == "pairwise":
        perm = rank_descending(targets)
        return LossAssembly(
            feature_rows=features[perm],
            loss_fn=lambda s: pairwise_margin_loss(s, base_margin),
        )
    if objective == "listwise":
        k = min(listwise_k, len(targets))
        return LossAssembly(
            feature_rows=features,
            loss_fn=lambda s: kl_listwise_loss(s, targets, k),
        )
    if objective == "bce":
        return LossAssembly(feature_rows=features, loss_fn=lambda s: bce_locator_loss(s, targets))
    if objective == "mse":
        return LossAssembly(feature_rows=features, loss_fn=lambda s: mse_simulator_loss(s, targets))
    raise ValidationError(f"unknown objective {objective!r}")


@np.errstate(over="raise", invalid="raise")
def _run_epochs(
    model: ScoringModel,
    units: list[LossAssembly],
    config: TrainConfig,
) -> TrainResult:
    """Gradient descent over the units, in a fresh seeded order every epoch.

    Raises at the first floating-point overflow or invalid value, and on a
    non-finite loss or parameter.
    """
    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for u in rng.permutation(len(units)):
            try:
                value, pgrad = units[u].value_and_grad(model)
                if not math.isfinite(value):
                    raise FloatingPointError(f"loss {value}")
                apply_gradient(model, pgrad, config.learning_rate)
            except FloatingPointError as exc:
                raise ValidationError(
                    f"training diverged: {exc} at epoch {epoch}, unit {u}; "
                    "lower the learning rate"
                ) from exc
            total += value
        if not np.isfinite(flat_params(model)).all():
            raise ValidationError(
                f"training diverged: non-finite parameters after epoch {epoch}; "
                "lower the learning rate"
            )
        history.append(total / len(units))
    return TrainResult(model=model, epoch_losses=history)


def _train(
    prepared: list[PreparedInstance],
    config: TrainConfig,
    groups: Callable[[PreparedInstance], Sequence[Sequence[int]]],
) -> TrainResult:
    """Train a fresh model on one unit per row group of every instance.

    groups(prep) gives the utterance indices of each unit of one instance: its
    windows or its candidate pool. A group of fewer than two utterances admits
    no comparison and is skipped with a warning; partition_samples gives such
    a window only to a one-utterance instance.
    """
    units = []
    for prep in prepared:
        if config.objective == "bce":
            targets_all = locator_labels(prep, config.locator_positives, config.locator_use_spans)
        else:
            targets_all = prep.relevance
        for group in groups(prep):
            members = list(group)
            if len(members) < 2:
                logger.warning(
                    "skipping instance %s: its window or pool has %d utterance(s)",
                    prep.instance.instance_id,
                    len(members),
                )
                continue
            units.append(
                make_objective_assembly(
                    config.objective,
                    prep.features[members],
                    targets_all[members],
                    base_margin=config.base_margin,
                    listwise_k=config.listwise_k,
                )
            )
    if not units:
        raise ValidationError("corpus yields no trainable samples")
    model = init_model((FEATURE_DIM, *config.hidden_dims, 1), config.seed)
    return _run_epochs(model, units, config)


def train_ranker(
    prepared: list[PreparedInstance],
    config: TrainConfig,
    pipeline_config: PipelineConfig = PipelineConfig(),
) -> TrainResult:
    """Train the stage-1 ranker with the pairwise margin objective, one unit per window."""
    if config.objective != "pairwise":
        raise ValidationError(f"train_ranker expects objective 'pairwise', got {config.objective!r}")
    return _train(
        prepared, config, lambda prep: partition_samples(prep.instance, pipeline_config.sample_size)
    )


def train_baseline(
    prepared: list[PreparedInstance],
    config: TrainConfig,
    pipeline_config: PipelineConfig = PipelineConfig(),
) -> TrainResult:
    """Train a locator (bce) or simulator (mse) baseline scorer, one unit per window."""
    if config.objective not in ("bce", "mse"):
        raise ValidationError(f"train_baseline expects 'bce' or 'mse', got {config.objective!r}")
    return _train(
        prepared, config, lambda prep: partition_samples(prep.instance, pipeline_config.sample_size)
    )


def train_reranker(
    prepared: list[PreparedInstance],
    stage1_model: ScoringModel,
    config: TrainConfig,
    pipeline_config: PipelineConfig = PipelineConfig(),
) -> TrainResult:
    """Train the global re-ranker on pooled stage-1 candidates, one unit per pool.

    Stage 1 is frozen: pools are fixed before the epoch loop, by the
    pipeline's stage1_pool. _train skips a pool of fewer than two members
    with a warning.
    """
    if config.objective != "listwise":
        raise ValidationError(f"train_reranker expects objective 'listwise', got {config.objective!r}")

    def pools(prep: PreparedInstance) -> list[tuple[int, ...]]:
        scores = score_utterances(stage1_model, prep.features)
        return [stage1_pool(prep.instance, scores, pipeline_config)[1]]

    return _train(prepared, config, pools)


# Largest relative error per parameter at which grad_check passes.
GRAD_CHECK_THRESHOLD = 1e-4


@dataclass(frozen=True)
class GradCheckReport:
    max_relative_error: float
    passed: bool


def grad_check(
    loss_assembly: LossAssembly,
    model: ScoringModel,
    epsilon: float = 1e-6,
) -> GradCheckReport:
    """Central finite differences over every model parameter.

    Relative error per parameter is |analytic - numeric| divided by
    max(1e-12, |analytic| + |numeric|); the check passes when none exceeds
    GRAD_CHECK_THRESHOLD. A parameter-free model passes vacuously.

    Coordinates where both sides sit below an absolute noise floor are
    scored as exact matches: shift-invariant losses make the output-bias
    derivative exactly zero, and there the finite difference returns pure
    rounding noise of order ulp(loss)/epsilon, which the relative formula
    would amplify to O(1). Below the floor the difference quotient carries
    no information either way, so no real defect can hide in the guard.
    """
    if not 0 < epsilon <= 1e-3:
        raise ValidationError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    n = num_params(model)
    if n == 0:
        return GradCheckReport(0.0, True)
    _, pgrad = loss_assembly.value_and_grad(model)
    analytic = flat_gradient(pgrad)
    theta = flat_params(model)
    numeric = np.zeros(n)
    for i in range(n):
        bumped = theta.copy()
        bumped[i] = theta[i] + epsilon
        set_flat_params(model, bumped)
        plus = loss_assembly.value(model)
        bumped[i] = theta[i] - epsilon
        set_flat_params(model, bumped)
        minus = loss_assembly.value(model)
        numeric[i] = (plus - minus) / (2.0 * epsilon)
    set_flat_params(model, theta)
    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(numeric))
    errors = np.abs(analytic - numeric) / denom
    noise_floor = 1e-6
    errors[(np.abs(analytic) <= noise_floor) & (np.abs(numeric) <= noise_floor)] = 0.0
    max_err = float(errors.max())
    return GradCheckReport(max_err, max_err <= GRAD_CHECK_THRESHOLD)
