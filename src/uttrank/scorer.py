"""Differentiable query-relevance scoring.

InstanceStats.from_instance tokenizes an instance's texts once and builds what
every feature row reads; instance_features builds the whole matrix from it, and
featurize one row with the same row code.

A small feed-forward model over hand-built (query, utterance) features stands
in for a pretrained cross-encoder: the ranking losses are agnostic to the
scorer, so every trainable objective stays exercisable at desk scale. Hidden
layers use tanh (smooth everywhere, so finite-difference gradient checks are
clean); the output layer is linear and always one-dimensional.

forward scores a whole (n, input_dim) feature matrix with one matrix product
per layer and returns the per-layer activations; backward takes those
activations and the vector of upstream score gradients and returns one
parameter gradient summed over the rows. Call backward with the model that
ran the forward pass, before any update is applied to it.

forward and the feature functions are read-only and safe to call
concurrently; parameter updates are single-writer.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import QueryInstance, Utterance
from .errors import ValidationError
from .fileio import atomic_open
from .rouge import _ngram_score, ngram_counts, tokenize

FEATURE_NAMES = (
    "query_unigram_f1",
    "query_bigram_f1",
    "tfidf_cosine",
    "length_ratio",
    "relative_position",
    "query_content_coverage",
    "speaker_in_query",
)
FEATURE_DIM = len(FEATURE_NAMES)
FEATURE_SCHEMA_VERSION = 1

# Small frozen function-word list for the content-coverage feature. Kept
# deliberately short; when a query is entirely stopwords the coverage feature
# falls back to all query tokens.
STOPWORDS = frozenset(
    """a an the and or but if then than as of at by for with about into over
    after before between to from in on off out up down is are was were be been
    being am do does did doing have has had having not no nor it its this that
    these those he she they them his her their i you we us our your my me what
    which who whom when where why how will would can could should may might
    must there here all any both each few more most other some such only own
    same so too very just don now""".split()
)

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_DIM",
    "InstanceStats",
    "featurize",
    "instance_features",
    "ScoringModel",
    "ParameterGradient",
    "init_model",
    "forward",
    "backward",
    "score_utterances",
    "num_params",
    "flat_params",
    "set_flat_params",
    "apply_gradient",
    "save_model",
    "load_model",
]


def _idf(n_utterances: int, doc_freq: int) -> float:
    return math.log((1 + n_utterances) / (1 + doc_freq)) + 1.0


@dataclass(frozen=True)
class _QueryTerms:
    """What every feature row reads of a query.

    counts is the token Counter, whose keys are the token set; content lists
    the distinct non-stopword tokens.
    """

    counts: Counter
    bigrams: Counter
    content: list[str]

    @staticmethod
    def from_text(query: str) -> "_QueryTerms":
        tokens = tokenize(query)
        counts = Counter(tokens)
        # A query of stopwords only falls back to all of its tokens.
        content = [t for t in counts if t not in STOPWORDS] or list(counts)
        return _QueryTerms(counts=counts, bigrams=ngram_counts(tokens, 2), content=content)


@dataclass(frozen=True)
class InstanceStats:
    """An instance's texts, each tokenized once, and what its feature rows read.

    Holds the query terms, the utterance and speaker tokens, and the smoothed
    idf of every token they hold. Built per use: prepared instances keep only
    the feature matrix.
    """

    n_utterances: int
    idf_table: dict[str, float]
    query: _QueryTerms
    utterance_tokens: tuple[list[str], ...]
    speaker_tokens: tuple[list[str], ...]

    @staticmethod
    def from_instance(instance: QueryInstance) -> "InstanceStats":
        utterance_tokens = tuple(tokenize(u.text) for u in instance.utterances)
        n = len(utterance_tokens)
        doc_freq: Counter = Counter()
        for tokens in utterance_tokens:
            doc_freq.update(set(tokens))
        query = _QueryTerms.from_text(instance.query)
        return InstanceStats(
            n_utterances=n,
            idf_table={t: _idf(n, doc_freq[t]) for t in [*doc_freq, *query.counts]},
            query=query,
            utterance_tokens=utterance_tokens,
            speaker_tokens=tuple(tokenize(u.speaker) for u in instance.utterances),
        )

    def idf(self, token: str) -> float:
        """Smoothed idf; a token no utterance holds has document frequency 0."""
        if token in self.idf_table:
            return self.idf_table[token]
        return _idf(self.n_utterances, 0)


def _feature_row(
    query: _QueryTerms,
    index: int,
    utt_tokens: list[str],
    speaker_tokens: list[str],
    stats: InstanceStats,
) -> list[float]:
    """The features of one utterance, in FEATURE_NAMES order."""
    counts = Counter(utt_tokens)
    idf = stats.idf
    # tf-idf cosine (Salton & Buckley 1988), walking the query in token order.
    dot = 0.0
    for token, q_count in query.counts.items():
        if token in counts:
            w = idf(token)
            dot += (q_count * w) * (counts[token] * w)
    if dot == 0.0:
        cosine = 0.0
    else:
        qn = math.sqrt(sum((c * idf(t)) ** 2 for t, c in query.counts.items()))
        un = math.sqrt(sum((c * idf(t)) ** 2 for t, c in counts.items()))
        cosine = dot / (qn * un)
    n = stats.n_utterances
    content = query.content
    return [
        _ngram_score(counts, query.counts).f1,
        _ngram_score(ngram_counts(utt_tokens, 2), query.bigrams).f1,
        cosine,
        min(len(utt_tokens) / 100.0, 1.0),
        index / (n - 1) if n > 1 else 0.0,
        sum(1 for t in content if t in counts) / len(content) if content else 0.0,
        1.0 if any(t in query.counts for t in speaker_tokens) else 0.0,
    ]


def featurize(query: str, utterance: Utterance, stats: InstanceStats) -> np.ndarray:
    """Feature vector of one (query, utterance) pair against an instance's statistics.

    Features, in order: unigram-overlap F1 vs the query, bigram-overlap F1,
    tf-idf cosine similarity, utterance token count / 100 capped at 1,
    relative transcript position, fraction of query content words present,
    and a speaker-mentioned-in-query indicator. Tokenizes only its own
    arguments; instance_features computes the same rows from stats.
    """
    row = _feature_row(
        _QueryTerms.from_text(query),
        utterance.index,
        tokenize(utterance.text),
        tokenize(utterance.speaker),
        stats,
    )
    return np.array(row, dtype=np.float64)


def instance_features(instance: QueryInstance, stats: InstanceStats | None = None) -> np.ndarray:
    """Feature matrix (n_utterances, FEATURE_DIM) of one instance, a featurize row per utterance.

    The rows read the tokens in stats, built here when not given.
    """
    if stats is None:
        stats = InstanceStats.from_instance(instance)
    rows = [
        _feature_row(stats.query, u.index, tokens, speaker, stats)
        for u, tokens, speaker in zip(
            instance.utterances, stats.utterance_tokens, stats.speaker_tokens
        )
    ]
    return np.array(rows, dtype=np.float64)


@dataclass
class ScoringModel:
    """Feed-forward scorer; weights[l] has shape (fan_out, fan_in)."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]


@dataclass
class ParameterGradient:
    """Gradient congruent with ScoringModel parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _check_dims(dims: tuple[int, ...]) -> None:
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"layer dims must be positive, got {dims}")
    if dims[-1] != 1:
        raise ValidationError(f"output dimension must be 1, got {dims[-1]}")


def init_model(layer_dims, seed: int) -> ScoringModel:
    """Glorot-uniform weights, zero biases, reproducible from the seed."""
    dims = tuple(int(d) for d in layer_dims)
    _check_dims(dims)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        scale = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ScoringModel(layer_dims=dims, weights=weights, biases=biases, seed=int(seed))


def forward(model: ScoringModel, features: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Score every row of an (n, input_dim) matrix.

    Returns the n scores and the per-layer activations backward() consumes,
    starting with the input itself.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValidationError(f"input shape {x.shape} != (n, {model.input_dim})")
    activations = [x]
    n_layers = len(model.weights)
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ w.T + b
        activations.append(np.tanh(z) if l < n_layers - 1 else z)
    return activations[-1][:, 0], activations


def backward(
    model: ScoringModel, activations: list[np.ndarray], upstream: np.ndarray
) -> ParameterGradient:
    """Exact gradient of sum_i upstream[i] * score_i with respect to the parameters."""
    g = np.asarray(upstream, dtype=np.float64).reshape(-1, 1)
    weights, biases = [], []
    for l in reversed(range(len(model.weights))):
        weights.append(g.T @ activations[l])
        biases.append(g.sum(axis=0))
        if l > 0:
            # activations[l] = tanh(z_{l-1}) for hidden layers
            g = (g @ model.weights[l]) * (1.0 - activations[l] ** 2)
    return ParameterGradient(weights=weights[::-1], biases=biases[::-1])


def score_utterances(model: ScoringModel, features: np.ndarray) -> np.ndarray:
    """Model score per row of an instance's feature matrix, aligned with transcript indices."""
    return forward(model, features)[0]


def num_params(model: ScoringModel) -> int:
    return sum(w.size for w in model.weights) + sum(b.size for b in model.biases)


def _flatten(weights: list[np.ndarray], biases: list[np.ndarray]) -> np.ndarray:
    """Layer by layer, each layer's weights then its biases."""
    parts = [part.ravel() for w, b in zip(weights, biases) for part in (w, b)]
    return np.concatenate(parts) if parts else np.zeros(0)


def flat_params(model: ScoringModel) -> np.ndarray:
    return _flatten(model.weights, model.biases)


def set_flat_params(model: ScoringModel, vector: np.ndarray) -> None:
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (num_params(model),):
        raise ValidationError(f"parameter vector shape {vector.shape} != ({num_params(model)},)")
    pos = 0
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        model.weights[l] = vector[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        model.biases[l] = vector[pos : pos + b.size].copy()
        pos += b.size


def flat_gradient(grad: ParameterGradient) -> np.ndarray:
    return _flatten(grad.weights, grad.biases)


def apply_gradient(model: ScoringModel, grad: ParameterGradient, learning_rate: float) -> None:
    """Plain gradient-descent step."""
    for l in range(len(model.weights)):
        model.weights[l] = model.weights[l] - learning_rate * grad.weights[l]
        model.biases[l] = model.biases[l] - learning_rate * grad.biases[l]


def save_model(model: ScoringModel, path: str | Path) -> None:
    """Checkpoint: layer dims, flattened per-layer parameters, seed, schema tag."""
    payload = {
        "layer_dims": list(model.layer_dims),
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": model.seed,
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "feature_names": list(FEATURE_NAMES),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path: str | Path) -> ScoringModel:
    """Read a checkpoint, rejecting any this feature schema cannot score with."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValidationError(f"{path}: checkpoint must hold a JSON object")
        return _model_from_payload(payload, path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: unreadable checkpoint: {exc!r}") from exc


def _model_from_payload(payload: dict, path: str | Path) -> ScoringModel:
    schema = payload.get("feature_schema_version")
    if schema != FEATURE_SCHEMA_VERSION:
        raise ValidationError(f"unsupported feature schema version: {schema}")
    names = payload.get("feature_names")
    if names != list(FEATURE_NAMES):
        raise ValidationError(f"{path}: feature names {names} != {list(FEATURE_NAMES)}")
    dims = tuple(int(d) for d in payload["layer_dims"])
    _check_dims(dims)
    if dims[0] != FEATURE_DIM:
        raise ValidationError(f"{path}: input dimension {dims[0]} != {FEATURE_DIM} features")
    n_layers = len(dims) - 1
    if len(payload["weights"]) != n_layers or len(payload["biases"]) != n_layers:
        raise ValidationError(f"{path}: layer dims {dims} need {n_layers} weight and bias lists")
    weights = []
    biases = []
    for l, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        w = np.array(payload["weights"][l], dtype=np.float64)
        b = np.array(payload["biases"][l], dtype=np.float64)
        if w.shape != (fan_out * fan_in,) or b.shape != (fan_out,):
            raise ValidationError(
                f"{path}: layer {l} holds {w.size} weights and {b.size} biases, "
                f"expected {fan_out * fan_in} and {fan_out}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValidationError(f"{path}: layer {l} holds a non-finite parameter")
        weights.append(w.reshape(fan_out, fan_in))
        biases.append(b)
    return ScoringModel(layer_dims=dims, weights=weights, biases=biases, seed=int(payload["seed"]))
