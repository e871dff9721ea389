"""Overlap metrics: fixtures with hand-computed values plus brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import counter_oracles
from tests.counter_oracles import ngram_counts
from uttrank.errors import ValidationError
from uttrank.rouge import (
    RougeScore,
    _match_masks,
    gold_relevance,
    has_tokens,
    lcs_length,
    rouge_l,
    rouge_n,
    rouge_scores,
    token_relevances,
    token_rouge_scores,
    tokenize,
)


# ---------------------------------------------------------------- tokenize

def test_tokenize_lowercases_and_splits():
    assert tokenize("The cat sat.") == ["the", "cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_on_apostrophe():
    assert tokenize("don't stop") == ["don", "t", "stop"]


def test_tokenize_keeps_digits():
    assert tokenize("room 42, 9am") == ["room", "42", "9am"]


@settings(max_examples=300, deadline=None)
@given(text=st.text())
def test_has_tokens_iff_tokenize_nonempty(text):
    assert has_tokens(text) == (tokenize(text) != [])


# ------------------------------------------------- ngram_counts (the oracle)

def test_unigram_counts():
    assert ngram_counts(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}


def test_bigram_counts():
    assert ngram_counts(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}


def test_ngram_counts_short_input():
    assert ngram_counts(["a"], 2) == {}


def test_ngram_counts_rejects_zero():
    with pytest.raises(Exception):
        ngram_counts(["a"], 0)


def test_rouge_n_rejects_zero():
    with pytest.raises(ValidationError):
        rouge_n("a", "a", 0)


# ----------------------------------------------------------------- rouge_n

def test_rouge1_identical():
    assert rouge_n("the cat sat", "the cat sat", 1).f1 == pytest.approx(1.0)


def test_rouge1_disjoint():
    assert rouge_n("a b", "c d", 1).f1 == 0.0


def test_rouge1_partial_overlap():
    score = rouge_n("the cat", "the cat sat", 1)
    assert score.precision == pytest.approx(1.0)
    assert score.recall == pytest.approx(2 / 3)
    assert score.f1 == pytest.approx(0.8)


def test_rouge_empty_candidate_yields_zeros():
    score = rouge_n("", "the cat", 1)
    assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


def test_rouge2_clipping():
    # candidate repeats a bigram that appears once in the reference
    score = rouge_n("a b a b", "a b c", 2)
    # candidate bigrams: (a,b)x2, (b,a)x1; reference: (a,b), (b,c); clipped overlap 1
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 2)


def _brute_force_rouge_f1(cand_tokens, ref_tokens, n):
    cand = [tuple(cand_tokens[i : i + n]) for i in range(len(cand_tokens) - n + 1)]
    ref = [tuple(ref_tokens[i : i + n]) for i in range(len(ref_tokens) - n + 1)]
    overlap = 0
    pool = list(ref)
    for g in cand:
        if g in pool:
            pool.remove(g)
            overlap += 1
    p = overlap / len(cand) if cand else 0.0
    r = overlap / len(ref) if ref else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def test_rouge_n_matches_multiset_oracle():
    rng = np.random.default_rng(11)
    alphabet = ["x", "y", "z", "w"]
    for _ in range(200):
        a = " ".join(rng.choice(alphabet, size=rng.integers(0, 9)))
        b = " ".join(rng.choice(alphabet, size=rng.integers(0, 9)))
        for n in (1, 2):
            got = rouge_n(a, b, n).f1
            want = _brute_force_rouge_f1(tokenize(a), tokenize(b), n)
            assert math.isclose(got, want, abs_tol=1e-12), (a, b, n)


def test_f1_symmetry_random_texts():
    rng = np.random.default_rng(5)
    words = ["cat", "dog", "sat", "ran", "mat"]
    for _ in range(100):
        a = " ".join(rng.choice(words, size=rng.integers(1, 8)))
        b = " ".join(rng.choice(words, size=rng.integers(1, 8)))
        assert rouge_n(a, b, 1).f1 == pytest.approx(rouge_n(b, a, 1).f1)
        ab, ba = rouge_l(a, b), rouge_l(b, a)
        assert ab.f1 == pytest.approx(ba.f1)
        assert ab.precision == pytest.approx(ba.recall)


# -------------------------------------------------------------- lcs_length

def _lcs_brute_force(a, b):
    """Exponential subsequence enumeration; independent of the DP route."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


def _lcs_dp(a, b):
    """Classic O(len(a) * len(b)) dynamic programme, one row at a time."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def test_lcs_fixture():
    assert lcs_length(list("abcde"), list("ace")) == 3


def test_lcs_identity():
    x = ["p", "q", "r"]
    assert lcs_length(x, x) == len(x)


def test_lcs_empty():
    assert lcs_length(["a"], []) == 0
    assert lcs_length([], []) == 0


def test_lcs_exhaustive_short_pairs():
    # every pair with both sides of length <= 4 over a 3-symbol alphabet
    alphabet = "abc"
    seqs = [
        list(s)
        for n in range(5)
        for s in itertools.product(alphabet, repeat=n)
    ]
    for a in seqs:
        for b in seqs:
            want = _lcs_brute_force(a, b)
            assert lcs_length(a, b) == want, (a, b)
            assert _lcs_dp(a, b) == want, (a, b)


def test_lcs_sampled_longer_pairs():
    # lengths 5..8 over the same alphabet, seeded sample (full cross product
    # of length-8 pairs is ~1e8 and out of unit-test budget)
    rng = np.random.default_rng(23)
    alphabet = list("abc")
    for _ in range(300):
        a = list(rng.choice(alphabet, size=rng.integers(5, 9)))
        b = list(rng.choice(alphabet, size=rng.integers(0, 9)))
        assert lcs_length(a, b) == _lcs_brute_force(a, b), (a, b)


def test_lcs_bounded_by_shorter_side():
    rng = np.random.default_rng(31)
    alphabet = list("abc")
    for _ in range(200):
        a = list(rng.choice(alphabet, size=rng.integers(0, 10)))
        b = list(rng.choice(alphabet, size=rng.integers(0, 10)))
        assert lcs_length(a, b) <= min(len(a), len(b))


# Two lists of 0 to 200 tokens over one alphabet of 1 to 50 symbols.
_token_pairs = st.integers(1, 50).flatmap(
    lambda k: st.tuples(*[st.lists(st.integers(0, k - 1).map("t{}".format), max_size=200)] * 2)
)


@settings(max_examples=200, deadline=None)
@given(pair=_token_pairs)
def test_lcs_equals_dp_oracle(pair):
    a, b = pair
    assert lcs_length(a, b) == _lcs_dp(a, b)
    assert lcs_length(b, a) == _lcs_dp(a, b)


@settings(max_examples=100, deadline=None)
@given(pair=_token_pairs, data=st.data())
def test_lcs_with_shared_masks_equals_dp_oracle(pair, data):
    # One reference's masks serve several candidates, in either argument order.
    a, b = pair
    candidates = [a, *data.draw(st.lists(st.permutations(a), max_size=3), label="more")]
    for reference, others in ((b, candidates), (a, [b])):
        masks = _match_masks(reference)
        for cand in others:
            assert lcs_length(cand, reference, masks) == _lcs_dp(cand, reference)
        assert masks == _match_masks(reference)


@pytest.mark.parametrize("length", [29, 30, 31, 32, 63, 64, 65, 127, 128, 129, 200])
def test_lcs_equals_dp_oracle_at_word_boundaries(length):
    # one side exactly at, or one past, a 30- or 64-bit machine word
    rng = np.random.default_rng(length)
    for alphabet_size in (1, 2, 4, 50):
        alphabet = [f"t{i}" for i in range(alphabet_size)]
        for other in (1, length // 2, length, 200):
            a = list(rng.choice(alphabet, size=length))
            b = list(rng.choice(alphabet, size=other))
            assert lcs_length(a, b) == _lcs_dp(a, b), (alphabet_size, length, other)
            assert lcs_length(b, a) == _lcs_dp(a, b), (alphabet_size, length, other)


# ----------------------------------------------------------------- rouge_l

def test_rouge_l_identical():
    assert rouge_l("same text here", "same text here").f1 == pytest.approx(1.0)


def test_rouge_l_disjoint():
    assert rouge_l("a b c", "d e f").f1 == 0.0


def test_rouge_l_fixture():
    score = rouge_l("a b c", "a c")
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(1.0)
    assert score.f1 == pytest.approx(0.8)


def test_scores_stay_in_unit_interval():
    rng = np.random.default_rng(7)
    words = ["u", "v", "w", "x"]
    for _ in range(100):
        a = " ".join(rng.choice(words, size=rng.integers(0, 7)))
        b = " ".join(rng.choice(words, size=rng.integers(0, 7)))
        for s in (rouge_n(a, b, 1), rouge_n(a, b, 2), rouge_l(a, b)):
            assert 0.0 <= s.precision <= 1.0
            assert 0.0 <= s.recall <= 1.0
            assert 0.0 <= s.f1 <= 1.0


def test_self_rouge_is_one_with_enough_tokens():
    assert rouge_n("one two three", "one two three", 2).f1 == pytest.approx(1.0)


# ---------------------------------------------------------- gold relevance

def test_gold_relevance_identical():
    assert gold_relevance("the cat sat", "the cat sat") == pytest.approx(1.0)


def test_gold_relevance_disjoint():
    assert gold_relevance("a b", "c d") == 0.0


def test_gold_relevance_hand_average():
    utt, summ = "the cat sat", "the cat sat on the mat"
    r1 = rouge_n(utt, summ, 1).f1
    r2 = rouge_n(utt, summ, 2).f1
    rl = rouge_l(utt, summ).f1
    # unigram: overlap 3 (the, cat, sat), P=1, R=(clip: the x2? candidate has 1 'the') 3/6
    assert r1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)
    assert gold_relevance(utt, summ) == pytest.approx((r1 + r2 + rl) / 3)


_WORDS = ["the", "cat", "Cat", "sat", "mat,", "on", "a", "dog's", "42", "ran"]
_texts = st.lists(st.sampled_from(_WORDS), max_size=25).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(candidates=st.lists(_texts, max_size=8), reference=_texts)
def test_batch_scores_equal_per_text_scores(candidates, reference):
    labels = token_relevances([tokenize(text) for text in candidates], tokenize(reference))
    assert labels == [gold_relevance(text, reference) for text in candidates]
    for text, label, triple in zip(candidates, labels, rouge_scores(candidates, reference)):
        r1 = rouge_n(text, reference, 1)
        r2 = rouge_n(text, reference, 2)
        rl = rouge_l(text, reference)
        assert triple == (r1, r2, rl)
        assert label == (r1.f1 + r2.f1 + rl.f1) / 3


def test_rouge_score_f1_invariant():
    s = RougeScore(precision=0.5, recall=0.25, f1=2 * 0.5 * 0.25 / 0.75)
    assert s.f1 == pytest.approx(1 / 3)


# ------------------------------------------------ count matrices vs Counters

# A few repeated words, so n-grams repeat and clipping runs, plus the rest
# of a vocabulary of 10**4 words, so V**5 > 2**63 for n = 5.
_VOCAB = 10**4
_big_vocab_texts = st.lists(
    st.one_of(st.integers(0, 3), st.integers(0, _VOCAB - 1)).map("w{}".format), max_size=30
).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(candidate=_big_vocab_texts, reference=_big_vocab_texts, n=st.integers(1, 5))
def test_rouge_n_equals_counter_oracle(candidate, reference, n):
    assert _VOCAB**5 > 2**63
    assert rouge_n(candidate, reference, n) == counter_oracles.rouge_n(candidate, reference, n)


_oracle_texts = st.one_of(
    _texts,
    st.sampled_from(["?!", "", "cat", "cat cat cat", "the cat the cat the"]),
)


@settings(max_examples=200, deadline=None)
@given(candidates=st.lists(_oracle_texts, max_size=8), reference=_oracle_texts)
def test_batch_rouge_n_equals_counter_oracle(candidates, reference):
    triples = rouge_scores(candidates, reference)
    assert len(triples) == len(candidates)
    for text, (r1, r2, _) in zip(candidates, triples):
        assert r1 == counter_oracles.rouge_n(text, reference, 1)
        assert r2 == counter_oracles.rouge_n(text, reference, 2)


def test_no_candidates_score_nothing():
    assert token_rouge_scores([], ["a", "b"]) == []
    assert token_relevances([], ["a", "b"]) == []
