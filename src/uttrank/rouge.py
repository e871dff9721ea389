"""ROUGE-1/2/L overlap metrics (Lin 2004).

Serves two roles: the relevance oracle that turns a reference summary into
per-utterance training labels, and the extraction-quality metric reported by
the evaluation harness. No stemming and no stopword removal, so scores are
deterministic and dependency-free; documented here so results stay comparable
across runs.

Every score comes from exact integer counts over token lists: _ngram_score
on n-gram Counters and _lcs_score on the tokens, with a bit-parallel LCS. The string
functions rouge_n and rouge_l tokenize each side once and call them;
token_rouge_scores gives all three scores of many candidate token lists
against one reference, counting its n-grams once, and rouge_scores and the
relevance labels call it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError

__all__ = [
    "RougeScore",
    "tokenize",
    "ngram_counts",
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

    @staticmethod
    def from_pr(precision: float, recall: float) -> "RougeScore":
        denom = precision + recall
        f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
        return RougeScore(precision, recall, f1)


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split on any non-alphanumeric run."""
    return _TOKEN_RE.findall(text.lower())


def ngram_counts(tokens: TokenSequence, n: int) -> Counter:
    """Multiset of contiguous n-grams; empty when the sequence is shorter than n."""
    if n < 1:
        raise ValidationError(f"n-gram order must be >= 1, got {n}")
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _overlap(candidate: Counter, reference: Counter) -> int:
    """Clipped overlap of two n-gram multisets, walking the smaller one."""
    if len(candidate) > len(reference):
        candidate, reference = reference, candidate
    get = reference.get
    return sum(min(count, get(gram, 0)) for gram, count in candidate.items())


def _ngram_score(cand_counts: Counter, ref_counts: Counter) -> RougeScore:
    """ROUGE-N from the two n-gram multisets; zero denominators yield zero scores."""
    overlap = _overlap(cand_counts, ref_counts)
    cand_total = sum(cand_counts.values())
    ref_total = sum(ref_counts.values())
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    return RougeScore.from_pr(precision, recall)


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap; zero denominators yield zero scores."""
    return _ngram_score(
        ngram_counts(tokenize(candidate), n), ngram_counts(tokenize(reference), n)
    )


def lcs_length(a: TokenSequence, b: TokenSequence) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986; Hyyrö 2004).

    Bit j of a token's match mask is set where the shorter sequence holds that
    token. Bit j of the state v is zero exactly where row i of the classic DP
    table steps up by one at column j, so after the last token of the longer
    sequence the zero bits count the LCS. Each token costs a few operations
    on integers as wide as the shorter sequence; Python ints are unbounded,
    so the result is exact at any length.
    """
    if len(a) < len(b):
        a, b = b, a  # mask the shorter side
    masks: dict[str, int] = {}
    bit = 1
    for token in b:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    for token in a:
        m = masks.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _lcs_score(cand_tokens: TokenSequence, ref_tokens: TokenSequence) -> RougeScore:
    """ROUGE-L from the two token lists; zero denominators yield zero scores."""
    lcs = lcs_length(cand_tokens, ref_tokens)
    precision = lcs / len(cand_tokens) if cand_tokens else 0.0
    recall = lcs / len(ref_tokens) if ref_tokens else 0.0
    return RougeScore.from_pr(precision, recall)


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """LCS-based ROUGE; zero denominators yield zero scores."""
    return _lcs_score(tokenize(candidate), tokenize(reference))


def token_rouge_scores(
    candidates: Iterable[TokenSequence], reference: TokenSequence
) -> list[tuple[RougeScore, RougeScore, RougeScore]]:
    """(ROUGE-1, ROUGE-2, ROUGE-L) of each candidate token list against one reference.

    The reference's n-gram counts are built once for all candidates.
    """
    ref1, ref2 = ngram_counts(reference, 1), ngram_counts(reference, 2)
    return [
        (
            _ngram_score(ngram_counts(cand, 1), ref1),
            _ngram_score(ngram_counts(cand, 2), ref2),
            _lcs_score(cand, reference),
        )
        for cand in candidates
    ]


def rouge_scores(candidates, reference: str) -> list[tuple[RougeScore, RougeScore, RougeScore]]:
    """(ROUGE-1, ROUGE-2, ROUGE-L) of each candidate text against one reference text."""
    return token_rouge_scores((tokenize(text) for text in candidates), tokenize(reference))


def token_relevances(candidates: Iterable[TokenSequence], gold_summary: TokenSequence) -> list[float]:
    """Relevance label of each utterance token list: mean of its ROUGE-1, ROUGE-2 and ROUGE-L F1.

    The mean of the three reported metrics is the least arbitrary composite
    and matches how extractors are scored on all three downstream.
    """
    scores = token_rouge_scores(candidates, gold_summary)
    return [(r1.f1 + r2.f1 + rl.f1) / 3.0 for r1, r2, rl in scores]


def gold_relevance(utterance: str, gold_summary: str) -> float:
    """Relevance label of one utterance text; see token_relevances."""
    return token_relevances([tokenize(utterance)], tokenize(gold_summary))[0]
