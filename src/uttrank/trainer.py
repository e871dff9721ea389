"""Training loops for the ranking objectives, plus the gradient checker.

Plain gradient descent with no optimizer state: every run is a pure function
of (corpus, config, seed) and repeated runs produce bit-identical models.
Pairwise updates happen once per sample (the loss is defined over all pairs
of one sample); the re-ranker is trained after, and conditioned on, a frozen
stage-1 ranker. The default learning rate targets this feature-model regime;
the 5e-6 rate appropriate for a large pretrained cross-encoder is selectable
through TrainConfig.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import Corpus, QueryInstance, partition_samples
from .errors import ValidationError
from .pipeline import PipelineConfig, pool_candidates, stage1_rank
from .ranklosses import (
    LossResult,
    bce_locator_loss,
    kl_listwise_loss,
    mse_simulator_loss,
    pairwise_margin_loss,
)
from .rouge import gold_relevance, rank_descending
from .scorer import (
    FEATURE_DIM,
    InstanceStats,
    ParameterGradient,
    ScoringModel,
    apply_gradient,
    backward,
    flat_gradient,
    flat_params,
    forward,
    init_model,
    instance_features,
    num_params,
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
    shuffle: bool = True
    hidden_dims: tuple[int, ...] = (16,)
    locator_positives: int = 8
    locator_use_spans: bool = False

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")


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
    prepared = []
    for instance in corpus:
        stats = InstanceStats.from_instance(instance)
        features = instance_features(instance, stats)
        relevance = np.array(
            [gold_relevance(u.text, instance.gold_summary) for u in instance.utterances]
        )
        prepared.append(PreparedInstance(instance=instance, features=features, relevance=relevance))
    return prepared


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
    for i in rank_descending(prep.relevance.tolist())[: min(n_positive, n)]:
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

    def scores(self, model: ScoringModel) -> np.ndarray:
        return forward(model, self.feature_rows)[0]

    def value(self, model: ScoringModel) -> float:
        return self.loss_fn(self.scores(model)).value

    def value_and_grad(self, model: ScoringModel) -> tuple[float, ParameterGradient]:
        scores, activations = forward(model, self.feature_rows)
        result = self.loss_fn(scores)
        return result.value, backward(model, activations, result.grad)


def make_objective_assembly(
    objective: str,
    features: np.ndarray,
    targets: np.ndarray,
    *,
    base_margin: float = 0.01,
    listwise_k: int | None = None,
) -> LossAssembly:
    """Bind one objective's loss to concrete feature rows and targets.

    For the pairwise objective the rows are re-indexed into gold order
    (targets descending) before the margin loss sees their scores.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if objective == "pairwise":
        perm = rank_descending(targets.tolist())
        return LossAssembly(
            feature_rows=features[perm],
            loss_fn=lambda s: pairwise_margin_loss(s, base_margin),
        )
    if objective == "listwise":
        k = min(listwise_k or len(targets), len(targets))
        return LossAssembly(
            feature_rows=features,
            loss_fn=lambda s: kl_listwise_loss(s, targets, k),
        )
    if objective == "bce":
        return LossAssembly(feature_rows=features, loss_fn=lambda s: bce_locator_loss(s, targets))
    if objective == "mse":
        return LossAssembly(feature_rows=features, loss_fn=lambda s: mse_simulator_loss(s, targets))
    raise ValidationError(f"unknown objective {objective!r}")


def _run_epochs(
    model: ScoringModel,
    units: list[LossAssembly],
    config: TrainConfig,
) -> TrainResult:
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(units)) if config.shuffle else np.arange(len(units))
        total = 0.0
        for u in order:
            value, pgrad = units[u].value_and_grad(model)
            apply_gradient(model, pgrad, config.learning_rate)
            total += value
        history.append(total / len(units))
    return TrainResult(model=model, epoch_losses=history)


def _sample_units(
    prepared: list[PreparedInstance],
    objective: str,
    config: TrainConfig,
    pipeline_config: PipelineConfig,
) -> list[LossAssembly]:
    units = []
    for prep in prepared:
        n = len(prep.instance.utterances)
        if n < 2:
            logger.warning("skipping instance %s: fewer than 2 utterances", prep.instance.instance_id)
            continue
        if objective == "bce":
            targets_all = locator_labels(prep, config.locator_positives, config.locator_use_spans)
        else:
            targets_all = prep.relevance
        for sample in partition_samples(prep.instance, pipeline_config.sample_size, prep.relevance):
            members = list(sample.member_indices)
            units.append(
                make_objective_assembly(
                    objective,
                    prep.features[members],
                    targets_all[members],
                    base_margin=config.base_margin,
                )
            )
    return units


def train_ranker(
    corpus: Corpus,
    config: TrainConfig,
    pipeline_config: PipelineConfig | None = None,
    prepared: list[PreparedInstance] | None = None,
) -> TrainResult:
    """Train the stage-1 ranker with the pairwise margin objective."""
    if config.objective != "pairwise":
        raise ValidationError(f"train_ranker expects objective 'pairwise', got {config.objective!r}")
    pipeline_config = pipeline_config or PipelineConfig()
    prepared = prepared if prepared is not None else prepare_corpus(corpus)
    units = _sample_units(prepared, "pairwise", config, pipeline_config)
    if not units:
        raise ValidationError("corpus yields no trainable samples")
    model = init_model((FEATURE_DIM, *config.hidden_dims, 1), config.seed)
    return _run_epochs(model, units, config)


def train_baseline(
    corpus: Corpus,
    config: TrainConfig,
    pipeline_config: PipelineConfig | None = None,
    prepared: list[PreparedInstance] | None = None,
) -> TrainResult:
    """Train a locator (bce) or simulator (mse) baseline scorer."""
    if config.objective not in ("bce", "mse"):
        raise ValidationError(f"train_baseline expects 'bce' or 'mse', got {config.objective!r}")
    pipeline_config = pipeline_config or PipelineConfig()
    prepared = prepared if prepared is not None else prepare_corpus(corpus)
    units = _sample_units(prepared, config.objective, config, pipeline_config)
    if not units:
        raise ValidationError("corpus yields no trainable samples")
    model = init_model((FEATURE_DIM, *config.hidden_dims, 1), config.seed)
    return _run_epochs(model, units, config)


def train_reranker(
    corpus: Corpus,
    stage1_model: ScoringModel,
    config: TrainConfig,
    pipeline_config: PipelineConfig | None = None,
    prepared: list[PreparedInstance] | None = None,
) -> TrainResult:
    """Train the global re-ranker on pooled stage-1 candidates.

    Stage 1 is frozen: pools are fixed before the epoch loop. Pools with
    fewer than two members are skipped with a warning; a pool smaller than
    the configured listwise k clamps k to the pool size.
    """
    if config.objective != "listwise":
        raise ValidationError(f"train_reranker expects objective 'listwise', got {config.objective!r}")
    pipeline_config = pipeline_config or PipelineConfig()
    prepared = prepared if prepared is not None else prepare_corpus(corpus)
    units = []
    for prep in prepared:
        n = len(prep.instance.utterances)
        if n < 2:
            logger.warning("skipping instance %s: fewer than 2 utterances", prep.instance.instance_id)
            continue
        samples = partition_samples(prep.instance, pipeline_config.sample_size, prep.relevance)
        scores = forward(stage1_model, prep.features)[0]
        ranked = [(stage1_rank(s, scores), scores) for s in samples]
        pool = pool_candidates(ranked, pipeline_config.per_sample_top)
        pool_idx = [c.index for c in pool]
        if len(pool_idx) < 2:
            logger.warning(
                "skipping instance %s: candidate pool has %d member(s)",
                prep.instance.instance_id,
                len(pool_idx),
            )
            continue
        units.append(
            make_objective_assembly(
                "listwise",
                prep.features[pool_idx],
                prep.relevance[pool_idx],
                listwise_k=min(config.listwise_k, len(pool_idx)),
            )
        )
    if not units:
        raise ValidationError("corpus yields no candidate pools with >= 2 members")
    model = init_model((FEATURE_DIM, *config.hidden_dims, 1), config.seed)
    return _run_epochs(model, units, config)


@dataclass(frozen=True)
class GradCheckReport:
    max_relative_error: float
    per_parameter: np.ndarray
    threshold: float
    passed: bool


def grad_check(
    loss_assembly: LossAssembly,
    model: ScoringModel,
    epsilon: float = 1e-6,
    threshold: float = 1e-4,
) -> GradCheckReport:
    """Central finite differences over every model parameter.

    Relative error per parameter is |analytic - numeric| divided by
    max(1e-12, |analytic| + |numeric|). A parameter-free model passes
    vacuously.

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
        return GradCheckReport(0.0, np.zeros(0), threshold, True)
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
    max_err = float(errors.max()) if n else 0.0
    return GradCheckReport(max_err, errors, threshold, max_err <= threshold)
