"""Differentiable query-relevance scoring.

InstanceStats.from_instance tokenizes an instance's texts once and maps the
tokens to integer ids. instance_features computes every column for all rows at
once from the ROUGE kernel's count matrix against the query; featurize is the
one-row call of the same function. Each tf-idf sum goes through np.bincount,
which adds a row's terms in input order starting from 0.0, and squares are the
product w * w, so each value equals a per-row loop over Counters bit for bit.

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
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import QueryInstance, Utterance
from .errors import ValidationError
from .fileio import read_text, write_text
from .rouge import _ngram_counts, _ngram_prf, _ratio, tokenize

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


def _token_ids(vocab: dict[str, int], tokens: Iterable[str], count: int) -> np.ndarray:
    return np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=count)


def _row_terms(ids: np.ndarray, lengths: np.ndarray, width: int):
    """Each row's distinct ids and their counts: rows in order, ids in first-occurrence order."""
    row_of = np.repeat(np.arange(len(lengths)), lengths)
    keys, first, counts = np.unique(row_of * width + ids, return_index=True, return_counts=True)
    order = np.argsort(first)
    keys = keys[order]
    return keys // width, keys % width, counts[order]


def _norms(rows: np.ndarray, weights: np.ndarray, n_rows: int) -> np.ndarray:
    """Length of each row's vector of weights, its squares added in the given order."""
    return np.sqrt(np.bincount(rows, weights=weights * weights, minlength=n_rows))


@dataclass(frozen=True)
class InstanceStats:
    """An instance's texts, each tokenized once, as integer token ids, and what its rows read.

    Ids number the distinct tokens of the query, then of the utterances, in
    first-occurrence order, so the query's k distinct tokens hold ids 0..k-1
    in query order. utterance_ids holds the utterances' ids back to back and
    lengths their token counts; row_terms lists each utterance's distinct ids
    in first-occurrence order as (row, id, count) arrays. idf_by_id is each
    id's smoothed idf. Built per use: prepared instances keep only the
    feature matrix.
    """

    n_utterances: int
    vocab: dict[str, int]
    idf_by_id: np.ndarray
    query_ids: np.ndarray
    content_ids: np.ndarray
    utterance_tokens: tuple[list[str], ...]
    utterance_ids: np.ndarray
    lengths: np.ndarray
    row_terms: tuple[np.ndarray, np.ndarray, np.ndarray]
    indices: np.ndarray
    speaker_hits: np.ndarray

    @staticmethod
    def from_instance(instance: QueryInstance) -> "InstanceStats":
        utterance_tokens = tuple(tokenize(u.text) for u in instance.utterances)
        return _build_stats(tokenize(instance.query), instance.utterances, utterance_tokens)

    def idf(self, token: str) -> float:
        """Smoothed idf; a token no utterance holds has document frequency 0."""
        if token in self.vocab:
            return float(self.idf_by_id[self.vocab[token]])
        return _idf(self.n_utterances, 0)


def _build_stats(
    query_tokens: list[str],
    utterances: tuple[Utterance, ...],
    utterance_tokens: tuple[list[str], ...],
) -> InstanceStats:
    """InstanceStats of tokenized utterances, idf from their own document frequencies."""
    query_terms = dict.fromkeys(query_tokens)
    vocab = {t: i for i, t in enumerate(dict.fromkeys(chain(query_terms, *utterance_tokens)))}
    lengths = np.fromiter(map(len, utterance_tokens), dtype=np.int64, count=len(utterance_tokens))
    ids = _token_ids(vocab, chain.from_iterable(utterance_tokens), int(lengths.sum()))
    row_terms = _row_terms(ids, lengths, len(vocab))
    n_utterances = len(utterance_tokens)
    table = np.array([_idf(n_utterances, d) for d in range(n_utterances + 1)])
    # A query of stopwords only falls back to all of its tokens.
    content = [i for i, t in enumerate(query_terms) if t not in STOPWORDS]
    content = content or list(range(len(query_terms)))
    # Each distinct speaker is tokenized once.
    speakers = dict.fromkeys(u.speaker for u in utterances)
    hits = {s: any(t in query_terms for t in tokenize(s)) for s in speakers}
    query_ids = _token_ids(vocab, query_tokens, len(query_tokens))
    return InstanceStats(
        n_utterances=n_utterances,
        vocab=vocab,
        idf_by_id=table[np.bincount(row_terms[1], minlength=len(vocab))],
        query_ids=query_ids,
        content_ids=np.array(content, dtype=np.int64),
        utterance_tokens=utterance_tokens,
        utterance_ids=ids,
        lengths=lengths,
        row_terms=row_terms,
        indices=np.fromiter((u.index for u in utterances), dtype=np.int64, count=len(utterances)),
        speaker_hits=np.array([1.0 if hits[u.speaker] else 0.0 for u in utterances]),
    )


def _features(stats: InstanceStats) -> np.ndarray:
    """The (rows, FEATURE_DIM) feature matrix of stats' utterances; see featurize."""
    ids, lengths, query = stats.utterance_ids, stats.lengths, stats.query_ids
    # counts[i, j]: occurrences of query term j (id j) in utterance i.
    counts, query_counts = _ngram_counts(ids, lengths, query, 1)
    n, k = counts.shape
    idf = stats.idf_by_id
    # tf-idf cosine (Salton & Buckley 1988): the dot and the query norm walk
    # the query in token order, each utterance norm its own tokens.
    query_weights = query_counts * idf[:k]
    terms = query_weights * (counts * idf[:k])
    dot = np.bincount(np.repeat(np.arange(n), k), weights=terms.ravel(), minlength=n)
    query_norm = _norms(np.zeros(k, dtype=np.int64), query_weights, 1)
    rows, term_ids, term_counts = stats.row_terms
    utterance_norms = _norms(rows, term_counts * idf[term_ids], n)
    present = (counts[:, stats.content_ids] > 0).sum(axis=1)
    columns = [
        _ngram_prf(counts, query_counts, lengths, len(query), 1)[2],
        _ngram_prf(*_ngram_counts(ids, lengths, query, 2), lengths, len(query), 2)[2],
        _ratio(dot, query_norm * utterance_norms),
        np.minimum(lengths / 100.0, 1.0),
        _ratio(stats.indices, stats.n_utterances - 1),
        _ratio(present, len(stats.content_ids)),
        stats.speaker_hits,
    ]
    return np.stack(columns, axis=1)


def featurize(query: str, utterance: Utterance, stats: InstanceStats) -> np.ndarray:
    """Feature vector of one (query, utterance) pair against an instance's statistics.

    Features, in order: unigram-overlap F1 vs the query, bigram-overlap F1,
    tf-idf cosine similarity, utterance token count / 100 capped at 1,
    relative transcript position, fraction of query content words present,
    and a speaker-mentioned-in-query indicator. Tokenizes only its own
    arguments and reads stats' idf and utterance count; it is the one-row
    call of what instance_features computes for every row.
    """
    one = _build_stats(tokenize(query), (utterance,), (tokenize(utterance.text),))
    idf_by_id = np.array([stats.idf(t) for t in one.vocab], dtype=np.float64)
    return _features(replace(one, idf_by_id=idf_by_id, n_utterances=stats.n_utterances))[0]


def instance_features(instance: QueryInstance, stats: InstanceStats | None = None) -> np.ndarray:
    """Feature matrix (n_utterances, FEATURE_DIM) of one instance, a featurize row per utterance.

    The rows read the token ids in stats, built here when not given.
    """
    if stats is None:
        stats = InstanceStats.from_instance(instance)
    return _features(stats)


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
    write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path: str | Path) -> ScoringModel:
    """Read a checkpoint, rejecting any this feature schema cannot score with."""
    try:
        payload = json.loads(read_text(path))  # a read failure is read_text's, not caught here
        if not isinstance(payload, dict):
            raise ValidationError(f"{path}: checkpoint must hold a JSON object")
        return _model_from_payload(payload, path)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: unreadable checkpoint: {exc!r}") from exc


def _model_from_payload(payload: dict, path: str | Path) -> ScoringModel:
    schema = payload.get("feature_schema_version")
    if schema != FEATURE_SCHEMA_VERSION:
        raise ValidationError(f"{path}: unsupported feature schema version: {schema}")
    names = payload.get("feature_names")
    if names != list(FEATURE_NAMES):
        raise ValidationError(f"{path}: feature names {names} != {list(FEATURE_NAMES)}")
    dims = payload["layer_dims"]
    if type(dims) is not list or any(type(d) is not int for d in dims):
        raise ValidationError(f"{path}: 'layer_dims' must be a list of integers, got {dims!r}")
    dims = tuple(dims)
    seed = payload["seed"]
    if type(seed) is not int:
        raise ValidationError(f"{path}: 'seed' must be an integer, got {seed!r}")
    _check_dims(dims)
    if dims[0] != FEATURE_DIM:
        raise ValidationError(f"{path}: input dimension {dims[0]} != {FEATURE_DIM} features")
    n_layers = len(dims) - 1
    if len(payload["weights"]) != n_layers or len(payload["biases"]) != n_layers:
        raise ValidationError(f"{path}: layer dims {dims} need {n_layers} weight and bias lists")
    weights = []
    biases = []
    for l, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        for key in ("weights", "biases"):
            # A string or bool is malformed, not converted; JSON true is not 1.0.
            entries = payload[key][l]
            if type(entries) is not list:
                raise ValidationError(f"{path}: layer {l} {key} must be a list, got {entries!r}")
            bad = [x for x in entries if type(x) not in (int, float)]
            if bad:
                raise ValidationError(
                    f"{path}: layer {l} {key} must be JSON numbers, got {bad[0]!r}"
                )
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
    return ScoringModel(layer_dims=dims, weights=weights, biases=biases, seed=seed)
