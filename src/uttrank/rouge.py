"""ROUGE-1/2/L overlap metrics (Lin 2004).

Serves two roles: the relevance oracle that turns a reference summary into
per-utterance training labels, and the extraction-quality metric reported by
the evaluation harness. No stemming and no stopword removal, so scores are
deterministic and dependency-free; documented here so results stay comparable
across runs.

Every score comes from exact integer counts. _ngram_counts is the one n-gram
kernel: it takes TokenGroups, candidate rows of integer token ids in groups
that each have their own reference, and counts every row's n-grams against
its own reference in one pass, as the non-zero cells of a sparse count
matrix; ROUGE-N is the clipped overlap of those cells with the reference's
counts. ROUGE-L takes one bit-parallel LCS per row, on match masks built
once per reference. group_relevances labels every row of the groups at
once; scorer.iter_prepared calls it on a chunk of instances, one group per
instance. The one-reference calls are the one-group case: _encode maps the
candidates' tokens to ids against the reference, rouge_scores and
gold_relevance run the kernels on that one group, rouge_l reads
rouge_scores, and rouge_n (any n) calls the kernel for one pair. scorer
builds its overlap features on the kernel, with each query as a group's
reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from typing import Hashable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "RougeScore",
    "tokenize",
    "has_tokens",
    "rouge_n",
    "lcs_length",
    "rouge_l",
    "rouge_scores",
    "TokenGroups",
    "group_relevances",
    "gold_relevance",
]

# Lowercase alphanumeric runs; underscore is punctuation here, digits kept.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

TokenSequence = list[str]


@dataclass(frozen=True)
class RougeScore:
    """Precision/recall/F1 triple, each in [0, 1]."""

    precision: float
    recall: float
    f1: float


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split on any non-alphanumeric run."""
    return _TOKEN_RE.findall(text.lower())


def has_tokens(text: str) -> bool:
    """Whether tokenize(text) is non-empty, without building the list."""
    return _TOKEN_RE.search(text.lower()) is not None


def _lookup(vocab: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each non-negative key in the sorted vocab; len(vocab) where absent."""
    pos = np.searchsorted(vocab, keys)
    return np.where(np.append(vocab, -1)[pos] == keys, pos, len(vocab))


@dataclass(frozen=True)
class TokenGroups:
    """Candidate rows in groups, each group scored against its own reference, as integer token ids.

    ids holds the rows back to back and lengths their token counts;
    group_rows counts the rows of each group, in row order, and reference
    and ref_lengths hold the groups' references back to back. Ids are
    non-negative and no id occurs in two groups, so a row's n-grams can
    only match its own group's reference.
    """

    ids: np.ndarray
    lengths: np.ndarray
    group_rows: np.ndarray
    reference: np.ndarray
    ref_lengths: np.ndarray

    @cached_property
    def row_of(self) -> np.ndarray:
        """The row of each token."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)

    def row_ref_lengths(self) -> np.ndarray:
        """The token count of each row's reference."""
        return np.repeat(self.ref_lengths, self.group_rows)


class _Cells(NamedTuple):
    """The non-zero cells of a count matrix of rows over reference n-grams.

    Columns number the distinct n-grams of every reference, reference by
    reference, each reference's in the order they first occur there.
    Cells are sorted by row, then column.
    """

    row: np.ndarray
    column: np.ndarray
    count: np.ndarray
    ref_counts: np.ndarray  # each column's count in its reference
    ref_first: np.ndarray  # where each column's n-gram first starts in the reference


def _ngram_counts(groups: TokenGroups, n: int) -> _Cells:
    """Count matrix of every row's n-grams over its group's reference n-grams.

    A token's code is its rank among the references' distinct ids, read
    from a table indexed by id, so ids should be compact. An n-gram is
    coded as its (n-1)-gram's code times the unigram width plus its last
    token's code, then compacted to its rank among the references' codes,
    so keys stay below (len(reference) + 1)**2 for every n. Only n-grams
    whose every prefix the references hold are coded. An n-gram counts
    when it ends inside its own row, or its own reference, and that
    reference holds it.
    """
    distinct, ref_code = np.unique(groups.reference, return_inverse=True)
    size = len(distinct)  # codes in use; a token the references lack gets code size
    table = np.full(max(int(groups.ids.max(initial=0)), int(distinct.max(initial=0))) + 1, size)
    table[distinct] = np.arange(size)
    unigram, ref_unigram, width = table[groups.ids], ref_code, size + 1
    starts = np.flatnonzero(unigram < size)
    code = unigram[starts]
    for j in range(1, n):
        # Extend each held (j)-gram by the token j places after its start.
        last = unigram[np.minimum(starts + j, len(unigram) - 1)]
        held = (starts + j < len(unigram)) & (last < width - 1)
        vocab, ref_code = np.unique(ref_code[:-1] * width + ref_unigram[j:], return_inverse=True)
        size = len(vocab)
        starts, code = starts[held], _lookup(vocab, code[held] * width + last[held])
        starts, code = starts[code < size], code[code < size]
    ref_starts = np.flatnonzero(_inside(groups.ref_lengths, np.arange(len(ref_code)), n))
    ranks, first, ref_counts = np.unique(ref_code[ref_starts], return_index=True, return_counts=True)
    order = np.argsort(first)
    k = len(ranks)
    column = np.full(size, k)  # code -> column; k where no n-gram inside a reference has it
    column[ranks[order]] = np.arange(k)
    code = column[code]
    inside = _inside(groups.lengths, starts, n, groups.row_of) & (code < k)
    bits = k.bit_length()
    cells, counts = np.unique((groups.row_of[starts[inside]] << bits) | code[inside], return_counts=True)
    return _Cells(cells >> bits, cells & ((1 << bits) - 1), counts, ref_counts[order], ref_starts[first[order]])


def _inside(lengths: np.ndarray, starts: np.ndarray, n: int, segment_of: np.ndarray | None = None):
    """Whether the n-gram at each start ends inside its segment, of segments laid back to back.

    segment_of, when given, must be np.repeat(np.arange(len(lengths)), lengths).
    """
    if segment_of is None:
        segment_of = np.repeat(np.arange(len(lengths)), lengths)
    return starts + n <= np.cumsum(lengths)[segment_of[starts]]


def _ratio(numerator: np.ndarray, denominator) -> np.ndarray:
    """numerator / denominator elementwise, 0.0 where the denominator is 0."""
    out = np.zeros(len(numerator))
    return np.divide(numerator, denominator, out=out, where=np.asarray(denominator) > 0)


def _prf(overlap: np.ndarray, cand_total: np.ndarray, ref_total: np.ndarray):
    """Precision, recall and F1 arrays; zero denominators yield zero scores.

    Each element takes the float operations of a single score, in the same
    order: p = overlap / cand_total, r = overlap / ref_total and
    F1 = 2.0 * p * r / (p + r).
    """
    precision = _ratio(overlap, cand_total)
    recall = _ratio(overlap, ref_total)
    return precision, recall, _ratio(2.0 * precision * recall, precision + recall)


def _ngram_prf(cells: _Cells, groups: TokenGroups, n: int):
    """ROUGE-N precision, recall and F1 arrays of every row from its _ngram_counts cells.

    A row's clipped overlap adds integer counts as float64, exact below 2**53.
    """
    clipped = np.minimum(cells.count, cells.ref_counts[cells.column])
    overlap = np.bincount(cells.row, weights=clipped, minlength=len(groups.lengths))
    return _prf(
        overlap,
        np.maximum(groups.lengths - (n - 1), 0),
        np.maximum(groups.row_ref_lengths() - (n - 1), 0),
    )


def _encode(candidates: list[TokenSequence], reference: TokenSequence) -> TokenGroups:
    """The candidates as one group of rows against the reference.

    Ids number the reference's distinct tokens; every other token gets one
    id the reference does not hold.
    """
    vocab = {token: i for i, token in enumerate(dict.fromkeys(reference))}
    lengths = np.fromiter(map(len, candidates), dtype=np.int64, count=len(candidates))
    ids = np.fromiter(
        map(vocab.get, chain.from_iterable(candidates), repeat(len(vocab))),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    ref_ids = np.fromiter(map(vocab.__getitem__, reference), dtype=np.int64, count=len(reference))
    return TokenGroups(ids, lengths, np.array([len(candidates)]), ref_ids, np.array([len(reference)]))


def _scores(prf) -> list[RougeScore]:
    return [RougeScore(*triple) for triple in zip(*(part.tolist() for part in prf))]


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap; zero denominators yield zero scores."""
    if n < 1:
        raise ValidationError(f"n-gram order must be >= 1, got {n}")
    groups = _encode([tokenize(candidate)], tokenize(reference))
    return _scores(_ngram_prf(_ngram_counts(groups, n), groups, n))[0]


def _match_masks(b: Sequence[Hashable]) -> dict[Hashable, int]:
    """Bit j of a token's mask is set where b[j] is that token."""
    masks: dict[Hashable, int] = {}
    bit = 1
    for token in b:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def lcs_length(
    a: Sequence[Hashable], b: Sequence[Hashable], b_masks: dict[Hashable, int] | None = None
) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986; Hyyrö 2004).

    a and b hold tokens, or integer token ids of one numbering. b is the
    masked side: bit j of a token's match mask is set where b holds that
    token, and b_masks, when given, must be those masks (built once per
    reference and shared by every candidate). Bit j of the state v is zero
    exactly where row i of the classic DP table steps up by one at column j,
    so after the last token of a the zero bits count the LCS. Each token of a
    costs a few operations on integers as wide as b; Python ints are
    unbounded, so the result is exact at any length.
    """
    masks = _match_masks(b) if b_masks is None else b_masks
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        m = masks.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """LCS-based ROUGE; zero denominators yield zero scores."""
    return rouge_scores([candidate], reference)[0][2]


def _slices(values: np.ndarray, lengths: np.ndarray) -> Iterator[list]:
    """Consecutive slices of values with the given lengths, each as a list."""
    ends = np.cumsum(lengths).tolist()
    return (values[start:end].tolist() for start, end in zip([0] + ends, ends))


def _lcs_lengths(groups: TokenGroups) -> np.ndarray:
    """LCS length of each row against its group's reference, masks built once per reference."""
    rows = _slices(groups.ids, groups.lengths)
    lcs = []
    for reference, n_rows in zip(_slices(groups.reference, groups.ref_lengths), groups.group_rows.tolist()):
        masks = _match_masks(reference)
        lcs.extend(lcs_length(row, reference, masks) for row in islice(rows, n_rows))
    return np.array(lcs, dtype=np.int64)


def _rouge_prf(groups: TokenGroups):
    """ROUGE-1, ROUGE-2 and ROUGE-L (precision, recall, F1) arrays of every row."""
    return (
        _ngram_prf(_ngram_counts(groups, 1), groups, 1),
        _ngram_prf(_ngram_counts(groups, 2), groups, 2),
        _prf(_lcs_lengths(groups), groups.lengths, groups.row_ref_lengths()),
    )


def rouge_scores(candidates, reference: str) -> list[tuple[RougeScore, RougeScore, RougeScore]]:
    """(ROUGE-1, ROUGE-2, ROUGE-L) of each candidate text against one reference text."""
    groups = _encode([tokenize(text) for text in candidates], tokenize(reference))
    return list(zip(*map(_scores, _rouge_prf(groups))))


def group_relevances(groups: TokenGroups) -> np.ndarray:
    """Relevance label of every row: mean of its ROUGE-1, ROUGE-2 and ROUGE-L F1 against its reference.

    The mean of the three reported metrics is the least arbitrary composite
    and matches how extractors are scored on all three downstream.
    """
    (_, _, f1), (_, _, f2), (_, _, fl) = _rouge_prf(groups)
    return (f1 + f2 + fl) / 3.0


def gold_relevance(utterance: str, gold_summary: str) -> float:
    """Relevance label of one utterance text; the one-row call of group_relevances."""
    return group_relevances(_encode([tokenize(utterance)], tokenize(gold_summary))).item()
