"""Per-row Counter references for ROUGE-N and the feature rows.

The array code in uttrank.rouge and uttrank.scorer must equal these bit for
bit: ngram_counts/_ngram_score is ROUGE-N over n-gram multisets, and
feature_row builds one utterance's features by walking Counters in
first-occurrence order with Python float arithmetic, adding left to right.
Its idf comes from the instance's own utterance texts, not from the code
under test.
"""

import math
from collections import Counter
from dataclasses import dataclass

from uttrank.errors import ValidationError
from uttrank.rouge import RougeScore, tokenize
from uttrank.scorer import STOPWORDS


def ngram_counts(tokens: list[str], n: int) -> Counter:
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
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return RougeScore(precision, recall, f1)


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    return _ngram_score(ngram_counts(tokenize(candidate), n), ngram_counts(tokenize(reference), n))


def smoothed_idf(utterances):
    """token -> log((1 + n) / (1 + df)) + 1, df the number of the n utterances whose text holds token."""
    documents = [set(tokenize(u.text)) for u in utterances]
    n = len(documents)
    return lambda token: math.log((1 + n) / (1 + sum(token in d for d in documents))) + 1


def sum_of_squares(weights) -> float:
    """Sum of w * w over weights, added left to right from 0.0.

    An explicit loop, because the builtin sum of floats compensates its
    rounding from Python 3.12 on.
    """
    acc = 0.0
    for w in weights:
        acc += w * w
    return acc


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


def _feature_row(
    query: _QueryTerms,
    index: int,
    utt_tokens: list[str],
    speaker_tokens: list[str],
    idf,
    n: int,
) -> list[float]:
    """The features of one utterance of n, in FEATURE_NAMES order."""
    counts = Counter(utt_tokens)
    # tf-idf cosine (Salton & Buckley 1988), walking the query in token order.
    dot = 0.0
    for token, q_count in query.counts.items():
        if token in counts:
            w = idf(token)
            dot += (q_count * w) * (counts[token] * w)
    if dot == 0.0:
        cosine = 0.0
    else:
        qn = math.sqrt(sum_of_squares(c * idf(t) for t, c in query.counts.items()))
        un = math.sqrt(sum_of_squares(c * idf(t) for t, c in counts.items()))
        cosine = dot / (qn * un)
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


def feature_rows(query: str, utterances) -> list[list[float]]:
    """One _feature_row per utterance, with the idf and utterance count of the utterances."""
    terms = _QueryTerms.from_text(query)
    idf = smoothed_idf(utterances)
    return [
        _feature_row(terms, u.index, tokenize(u.text), tokenize(u.speaker), idf, len(utterances))
        for u in utterances
    ]
