"""Differentiable query-relevance scoring.

iter_prepared yields each instance with its feature matrix and, when asked,
its gold labels, computed a chunk of about CHUNK_TOKENS utterance tokens at
a time. It tokenizes each instance's texts once and numbers each instance's
distinct tokens apart from every other instance's, then lays the chunk's
instances back to back in one InstanceStats: every feature of the chunk's
rows comes from one pass over the ROUGE kernel's counts against each row's
query, and every label from one group_relevances call against each gold
summary. InstanceStats.from_instance and instance_features are the
one-instance case of the same pass, and featurize its one-row case. Each
tf-idf sum goes through np.bincount, which adds a row's terms in input order
starting from 0.0, and squares are the product w * w, so each value equals a
per-row loop over Counters bit for bit, whatever the chunk.

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
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .corpus import QueryInstance, Utterance
from .errors import ValidationError
from .fileio import read_text, write_text
from .rouge import TokenGroups, _ngram_counts, _ngram_prf, _ratio, group_relevances, tokenize

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
    "CHUNK_TOKENS",
    "InstanceStats",
    "iter_prepared",
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


# Utterance tokens per chunk of instances prepared in one pass: a chunk closes
# at the instance that brings it to this many, so the arrays of one pass stay
# small whatever the corpus size.
CHUNK_TOKENS = 8192


def _idf(n_utterances: int, doc_freq: int) -> float:
    return math.log((1 + n_utterances) / (1 + doc_freq)) + 1.0


def _idf_by_id(utterance_counts: np.ndarray, id_instance: np.ndarray, doc_freq: np.ndarray) -> np.ndarray:
    """The idf of each id, from its document frequency within its instance; one table per utterance count."""
    counts, table_of = np.unique(utterance_counts, return_inverse=True)
    tables = [[_idf(n, d) for d in range(n + 1)] for n in counts.tolist()]
    starts = np.cumsum([0] + [len(t) for t in tables[:-1]])
    return np.array(list(chain.from_iterable(tables)))[starts[table_of][id_instance] + doc_freq]


def _row_terms(ids: np.ndarray, lengths: np.ndarray, width: int):
    """Each row's distinct ids and their counts: rows in order, ids in first-occurrence order.

    One sort of (row, id, position) keys groups each row's occurrences of
    an id, the first one leading; ids are below width. It is kept for speed:
    over the chunks of each benchmark workload's train split it takes half
    the time of np.unique(row * width + ids, return_index=True,
    return_counts=True), 2.0-2.9 against 4.4-7.3 ms (2 vCPUs, NumPy 2.4.6),
    and saves only about 0.15 MB of peak memory per chunk.
    """
    n = len(ids)
    shift = n.bit_length()
    if (len(lengths) * width) << shift >= 1 << 63:
        raise ValidationError(f"{n} tokens in {len(lengths)} utterances are too many to count at once")
    row_of = np.repeat(np.arange(len(lengths)), lengths)
    keys = row_of * width
    keys += ids
    keys <<= shift
    keys |= np.arange(n)
    keys.sort()
    term = keys >> shift
    leads = np.ones(n, dtype=bool)  # where a new (row, id) term starts
    np.not_equal(term[1:], term[:-1], out=leads[1:])
    starts = np.flatnonzero(leads)
    del term
    # Each distinct term's count, placed at its first position; reading the
    # positions in order puts the terms in first-occurrence order.
    count_at = np.zeros(n, dtype=np.int64)
    count_at[keys[starts] & ((1 << shift) - 1)] = np.diff(starts, append=n)
    del keys
    first = np.flatnonzero(count_at)
    return row_of[first], ids[first], count_at[first]


def _norms(rows: np.ndarray, weights: np.ndarray, n_rows: int) -> np.ndarray:
    """Length of each row's vector of weights, its squares added in the given order."""
    return np.sqrt(np.bincount(rows, weights=weights * weights, minlength=n_rows))


class _Numbered(NamedTuple):
    """One instance's tokens as integer ids, and what its rows read of its strings."""

    n_ids: int  # distinct tokens; ids are 0..n_ids-1
    utterances: np.ndarray  # the utterances' token ids back to back
    lengths: np.ndarray
    query: np.ndarray
    gold: np.ndarray  # empty unless the gold summary was asked for
    content: np.ndarray  # ids of the query's content words
    indices: np.ndarray
    speaker_hits: list[float]


def _numbered(
    query: str, utterances: tuple[Utterance, ...], gold_summary: str | None
) -> tuple[dict[str, int], _Numbered]:
    """The vocab numbering one instance's distinct tokens in first-occurrence order, and its texts as ids.

    Each text is tokenized once and each distinct speaker once. The query's
    k distinct tokens hold ids 0..k-1 in query order. A gold_summary of
    None is not read.
    """
    query_tokens = tokenize(query)
    utterance_tokens = [tokenize(u.text) for u in utterances]
    gold_tokens = [] if gold_summary is None else tokenize(gold_summary)
    query_terms = dict.fromkeys(query_tokens)
    tokens = list(chain(chain.from_iterable(utterance_tokens), query_tokens, gold_tokens))
    vocab = {t: i for i, t in enumerate(dict.fromkeys(chain(query_terms, tokens)))}
    ids = np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    lengths = np.fromiter(map(len, utterance_tokens), dtype=np.int64, count=len(utterances))
    n_utterance_tokens, n_query = int(lengths.sum()), len(query_tokens)
    # A query of stopwords only falls back to all of its tokens.
    content = [i for i, t in enumerate(query_terms) if t not in STOPWORDS]
    content = content or list(range(len(query_terms)))
    hits = {
        s: any(t in query_terms for t in tokenize(s)) for s in dict.fromkeys(u.speaker for u in utterances)
    }
    return vocab, _Numbered(
        n_ids=len(vocab),
        utterances=ids[:n_utterance_tokens],
        lengths=lengths,
        query=ids[n_utterance_tokens : n_utterance_tokens + n_query],
        gold=ids[n_utterance_tokens + n_query :],
        content=np.array(content, dtype=np.int64),
        indices=np.fromiter((u.index for u in utterances), dtype=np.int64, count=len(utterances)),
        speaker_hits=[1.0 if hits[u.speaker] else 0.0 for u in utterances],
    )


@dataclass(frozen=True)
class InstanceStats:
    """Instances laid back to back as integer token ids, and what their rows read.

    Ids number the chunk's distinct (instance, token) pairs, so no id occurs
    in two instances. queried holds the utterance rows, instance by
    instance, each instance's rows a group against its query; gold holds
    the same rows against each gold summary when it was asked for.
    row_terms lists each row's distinct ids in first-occurrence order as
    (row, id, count) arrays. idf_by_id is each id's smoothed idf within its
    instance, content_by_id whether it counts as a query content word, and
    utterance_counts each instance's utterance count for the position
    feature. vocab maps the tokens of a one-instance stats to their ids;
    a chunk's stats drops its token strings once they are numbered. Built
    per use: prepared instances keep only the feature matrix.
    """

    vocab: dict[str, int] | None
    idf_by_id: np.ndarray
    content_by_id: np.ndarray
    queried: TokenGroups
    gold: TokenGroups | None
    row_terms: tuple[np.ndarray, np.ndarray, np.ndarray]
    indices: np.ndarray
    speaker_hits: np.ndarray
    utterance_counts: np.ndarray

    @staticmethod
    def from_instance(instance: QueryInstance) -> "InstanceStats":
        """The one-instance stats: featurize and instance_features read it."""
        vocab, part = _numbered(instance.query, instance.utterances, None)
        return _build_stats([part], False, vocab)

    @property
    def n_utterances(self) -> int:
        """The utterance count of a one-instance stats."""
        (n,) = self.utterance_counts.tolist()
        return n

    def idf(self, token: str) -> float:
        """Smoothed idf in a one-instance stats; a token no utterance holds has document frequency 0."""
        if token in self.vocab:
            return float(self.idf_by_id[self.vocab[token]])
        return _idf(self.n_utterances, 0)

    def per_instance(self, rows: np.ndarray) -> list[np.ndarray]:
        """Each instance's slice of an array with one entry per row, as its own array."""
        ends = np.cumsum(self.queried.group_rows)[:-1]
        return [part.copy() for part in np.split(rows, ends)]


def _build_stats(
    parts: list[_Numbered], with_gold: bool, vocab: dict[str, int] | None = None
) -> InstanceStats:
    """InstanceStats of numbered instances, idf from each instance's own document frequencies.

    Each instance's ids are shifted past the ids of the instances before it.
    vocab is the one instance's, or None.
    """
    n_instances = len(parts)
    vocab_sizes = np.fromiter((p.n_ids for p in parts), dtype=np.int64, count=n_instances)
    offsets = np.cumsum(vocab_sizes) - vocab_sizes

    def shifted(field: str) -> tuple[np.ndarray, np.ndarray]:
        arrays = [getattr(p, field) for p in parts]
        sizes = np.fromiter(map(len, arrays), dtype=np.int64, count=n_instances)
        return np.concatenate(arrays) + np.repeat(offsets, sizes), sizes

    utterance_ids, _ = shifted("utterances")
    query_ids, query_lengths = shifted("query")
    gold_ids, gold_lengths = shifted("gold")
    n_ids = int(vocab_sizes.sum())
    lengths = np.concatenate([p.lengths for p in parts])
    group_rows = np.fromiter((len(p.lengths) for p in parts), dtype=np.int64, count=n_instances)
    row_terms = _row_terms(utterance_ids, lengths, n_ids)
    doc_freq = np.bincount(row_terms[1], minlength=n_ids)
    content_by_id = np.zeros(n_ids, dtype=bool)
    content_by_id[shifted("content")[0]] = True
    queried = TokenGroups(utterance_ids, lengths, group_rows, query_ids, query_lengths)
    gold = replace(queried, reference=gold_ids, ref_lengths=gold_lengths) if with_gold else None
    return InstanceStats(
        vocab=vocab,
        idf_by_id=_idf_by_id(group_rows, np.repeat(np.arange(n_instances), vocab_sizes), doc_freq),
        content_by_id=content_by_id,
        queried=queried,
        gold=gold,
        row_terms=row_terms,
        indices=np.concatenate([p.indices for p in parts]),
        speaker_hits=np.array(list(chain.from_iterable(p.speaker_hits for p in parts))),
        utterance_counts=group_rows,
    )


def iter_prepared(
    instances: Iterable[QueryInstance], with_gold: bool = False
) -> Iterator[tuple[QueryInstance, np.ndarray, np.ndarray | None]]:
    """Each instance with its feature matrix and its relevance labels, None unless with_gold."""
    chunk, parts, n_tokens = [], [], 0
    for instance in instances:
        gold = instance.gold_summary if with_gold else None
        parts.append(_numbered(instance.query, instance.utterances, gold)[1])
        chunk.append(instance)
        n_tokens += len(parts[-1].utterances)
        if n_tokens >= CHUNK_TOKENS:
            yield from _prepared(chunk, _build_stats(parts, with_gold))
            chunk, parts, n_tokens = [], [], 0
    if chunk:
        yield from _prepared(chunk, _build_stats(parts, with_gold))


def _prepared(instances: list[QueryInstance], stats: InstanceStats):
    """Each instance of stats with its feature matrix and its labels, None without stats.gold."""
    features = stats.per_instance(_features(stats))
    labels = repeat(None) if stats.gold is None else stats.per_instance(group_relevances(stats.gold))
    return zip(instances, features, labels)


def _features(stats: InstanceStats) -> np.ndarray:
    """The (rows, FEATURE_DIM) feature matrix of every row of stats; see featurize."""
    groups = stats.queried
    lengths, n_rows, n_instances = groups.lengths, len(groups.lengths), len(groups.group_rows)
    instance_of_row = np.repeat(np.arange(n_instances), groups.group_rows)
    # Columns are each query's distinct tokens in query order, query by query.
    unigrams = _ngram_counts(groups, 1)
    row, column = unigrams.row, unigrams.column
    column_ids = groups.reference[unigrams.ref_first]
    instance_of_column = np.repeat(np.arange(n_instances), groups.ref_lengths)[unigrams.ref_first]
    idf = stats.idf_by_id[column_ids]
    # tf-idf cosine (Salton & Buckley 1988): the dot and the query norm walk
    # the query in token order, each utterance norm its own tokens; the dot
    # leaves out its zero terms, which add nothing.
    query_weights = unigrams.ref_counts * idf
    terms = query_weights[column] * (unigrams.count * idf[column])
    dot = np.bincount(row, weights=terms, minlength=n_rows)
    query_norms = _norms(instance_of_column, query_weights, n_instances)
    rows, term_ids, term_counts = stats.row_terms
    utterance_norms = _norms(rows, term_counts * stats.idf_by_id[term_ids], n_rows)
    content = stats.content_by_id[column_ids]
    present = np.bincount(row, weights=content[column], minlength=n_rows)
    n_content = np.bincount(instance_of_column, weights=content, minlength=n_instances)
    columns = [
        _ngram_prf(unigrams, groups, 1)[2],
        _ngram_prf(_ngram_counts(groups, 2), groups, 2)[2],
        _ratio(dot, query_norms[instance_of_row] * utterance_norms),
        np.minimum(lengths / 100.0, 1.0),
        _ratio(stats.indices, (stats.utterance_counts - 1)[instance_of_row]),
        _ratio(present, n_content[instance_of_row]),
        stats.speaker_hits,
    ]
    return np.stack(columns, axis=1)


def featurize(query: str, utterance: Utterance, stats: InstanceStats) -> np.ndarray:
    """Feature vector of one (query, utterance) pair against a one-instance stats.

    Features, in order: unigram-overlap F1 vs the query, bigram-overlap F1,
    tf-idf cosine similarity, utterance token count / 100 capped at 1,
    relative transcript position, fraction of query content words present,
    and a speaker-mentioned-in-query indicator. Tokenizes only its own
    arguments and reads stats' idf and utterance count; it is the one-row
    case of the feature pass over every row of a chunk.
    """
    vocab, part = _numbered(query, (utterance,), None)
    one = _build_stats([part], False, vocab)
    idf_by_id = np.array([stats.idf(t) for t in one.vocab], dtype=np.float64)
    return _features(replace(one, idf_by_id=idf_by_id, utterance_counts=stats.utterance_counts))[0]


def instance_features(instance: QueryInstance) -> np.ndarray:
    """Feature matrix (n_utterances, FEATURE_DIM) of one instance: the one-instance case of iter_prepared's."""
    return _features(InstanceStats.from_instance(instance))


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
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
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
