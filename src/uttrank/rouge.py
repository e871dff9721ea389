"""ROUGE-1/2/L overlap metrics (Lin 2004).

Serves two roles: the relevance oracle that turns a reference summary into
per-utterance training labels, and the extraction-quality metric reported by
the evaluation harness. No stemming and no stopword removal, so scores are
deterministic and dependency-free; documented here so results stay comparable
across runs.

Every score comes from exact integer counts. _ngram_counts is the one n-gram
kernel: it counts the n-grams of many candidate rows of integer token ids
against one reference in a single count matrix, and ROUGE-N is the clipped
overlap of that matrix with the reference's counts. ROUGE-L takes one
bit-parallel LCS per candidate, on match masks of the reference built once
per call. token_rouge_scores maps the candidates' tokens to ids against the
reference and scores them all at once; rouge_l, rouge_scores and the
relevance labels call it, rouge_n (any n) calls the kernel for one pair, and
scorer builds its overlap features on the kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from .errors import ValidationError

__all__ = [
    "RougeScore",
    "tokenize",
    "has_tokens",
    "rouge_n",
    "lcs_length",
    "rouge_l",
    "token_rouge_scores",
    "rouge_scores",
    "token_relevances",
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


def _ngram_counts(
    ids: np.ndarray, lengths: np.ndarray, reference: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Count matrix of the candidates' n-grams over the reference's distinct n-grams.

    ids holds the candidate rows of non-negative token ids back to back and
    lengths their sizes; reference shares the id space. Returns the
    (rows, K) matrix counting, per row, each of the reference's K distinct
    n-grams, and the reference's own K counts; n-grams the reference lacks
    are not counted. An n-gram is coded as its (n-1)-gram's code times the
    unigram width plus its last token's code, then compacted to its rank
    among the reference's codes, so keys stay below (len(reference) + 1)**2
    for every n.
    """
    vocab, ref_code = np.unique(reference, return_inverse=True)
    code = _lookup(vocab, ids)
    unigram, ref_unigram, width = code, ref_code, len(vocab) + 1
    for j in range(1, n):
        vocab, ref_code = np.unique(ref_code[:-1] * width + ref_unigram[j:], return_inverse=True)
        code = _lookup(vocab, code[:-1] * width + unigram[j:])
    rows, k = len(lengths), len(vocab)
    row_of = np.repeat(np.arange(rows), lengths)[: len(code)]
    # An n-gram counts when it ends inside its own row and the reference holds it.
    keep = (np.arange(len(code)) + n <= np.cumsum(lengths)[row_of]) & (code < k)
    counts = np.bincount(row_of[keep] * k + code[keep], minlength=rows * k)
    return counts.reshape(rows, k), np.bincount(ref_code, minlength=k)


def _ratio(numerator: np.ndarray, denominator) -> np.ndarray:
    """numerator / denominator elementwise, 0.0 where the denominator is 0."""
    out = np.zeros(len(numerator))
    return np.divide(numerator, denominator, out=out, where=np.asarray(denominator) > 0)


def _prf(overlap: np.ndarray, cand_total: np.ndarray, ref_total: int):
    """Precision, recall and F1 arrays; zero denominators yield zero scores.

    Each element takes the float operations of a single score, in the same
    order: p = overlap / cand_total, r = overlap / ref_total and
    F1 = 2.0 * p * r / (p + r).
    """
    precision = _ratio(overlap, cand_total)
    recall = _ratio(overlap, ref_total)
    return precision, recall, _ratio(2.0 * precision * recall, precision + recall)


def _ngram_prf(
    counts: np.ndarray, ref_counts: np.ndarray, lengths: np.ndarray, ref_length: int, n: int
):
    """ROUGE-N precision, recall and F1 arrays from an _ngram_counts matrix and the token counts."""
    overlap = np.minimum(counts, ref_counts).sum(axis=1)
    return _prf(overlap, np.maximum(lengths - (n - 1), 0), max(ref_length - (n - 1), 0))


def _rouge_n_prf(ids: np.ndarray, lengths: np.ndarray, reference: np.ndarray, n: int):
    """ROUGE-N precision, recall and F1 arrays of each candidate row against the reference."""
    return _ngram_prf(*_ngram_counts(ids, lengths, reference, n), lengths, len(reference), n)


def _encode(candidates: list[TokenSequence], reference: TokenSequence):
    """Token ids of the candidates (back to back, with lengths) and of the reference.

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
    return ids, lengths, ref_ids


def _scores(prf) -> list[RougeScore]:
    return [RougeScore(*triple) for triple in zip(*(part.tolist() for part in prf))]


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap; zero denominators yield zero scores."""
    if n < 1:
        raise ValidationError(f"n-gram order must be >= 1, got {n}")
    return _scores(_rouge_n_prf(*_encode([tokenize(candidate)], tokenize(reference)), n))[0]


def _match_masks(b: TokenSequence) -> dict[str, int]:
    """Bit j of a token's mask is set where b[j] is that token."""
    masks: dict[str, int] = {}
    bit = 1
    for token in b:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def lcs_length(a: TokenSequence, b: TokenSequence, b_masks: dict[str, int] | None = None) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986; Hyyrö 2004).

    b is the masked side: bit j of a token's match mask is set where b holds
    that token, and b_masks, when given, must be those masks (built once per
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


def _rouge_prf(candidates: Iterable[TokenSequence], reference: TokenSequence):
    """ROUGE-1, ROUGE-2 and ROUGE-L (precision, recall, F1) arrays of the candidates."""
    candidates = list(candidates)
    ids, lengths, ref_ids = _encode(candidates, reference)
    masks = _match_masks(reference)
    lcs = np.fromiter(
        (lcs_length(cand, reference, masks) for cand in candidates),
        dtype=np.int64,
        count=len(candidates),
    )
    return (
        _rouge_n_prf(ids, lengths, ref_ids, 1),
        _rouge_n_prf(ids, lengths, ref_ids, 2),
        _prf(lcs, lengths, len(reference)),
    )


def token_rouge_scores(
    candidates: Iterable[TokenSequence], reference: TokenSequence
) -> list[tuple[RougeScore, RougeScore, RougeScore]]:
    """(ROUGE-1, ROUGE-2, ROUGE-L) of each candidate token list against one reference."""
    return list(zip(*map(_scores, _rouge_prf(candidates, reference))))


def rouge_scores(candidates, reference: str) -> list[tuple[RougeScore, RougeScore, RougeScore]]:
    """(ROUGE-1, ROUGE-2, ROUGE-L) of each candidate text against one reference text."""
    return token_rouge_scores((tokenize(text) for text in candidates), tokenize(reference))


def token_relevances(candidates: Iterable[TokenSequence], gold_summary: TokenSequence) -> list[float]:
    """Relevance label of each utterance token list: mean of its ROUGE-1, ROUGE-2 and ROUGE-L F1.

    The mean of the three reported metrics is the least arbitrary composite
    and matches how extractors are scored on all three downstream.
    """
    (_, _, f1), (_, _, f2), (_, _, fl) = _rouge_prf(candidates, gold_summary)
    return ((f1 + f2 + fl) / 3.0).tolist()


def gold_relevance(utterance: str, gold_summary: str) -> float:
    """Relevance label of one utterance text; see token_relevances."""
    return token_relevances([tokenize(utterance)], tokenize(gold_summary))[0]
