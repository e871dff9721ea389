"""Seeded synthetic corpora with a planted relevance ordering.

Transcripts are built from speaker blocks: contiguous segments of
segment_len utterances, one speaker per segment. Every query names two of
the instance's speakers, and utterances in those speakers' segments draw
their latent target relevance from the full [0, 1] range while the other
segments are capped low — meetings where the queried speakers carry the
queried content. Each utterance realizes its target t textually as a
contiguous slice of the instance's template summary covering a t-fraction
of its tokens, embedded among filler words from a disjoint vocabulary.
ROUGE-derived relevance labels computed downstream are therefore monotone
in t up to noise; query-overlap features track the same signal because the
query also samples the summary's words, and the speaker structure carries
cross-segment signal that within-segment comparisons cannot see.
Everything is a pure function of the seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .corpus import SPLITS, Corpus, QueryInstance, Utterance
from .errors import ValidationError

__all__ = ["synth_corpus", "synth_splits", "SUMMARY_VOCAB", "FILLER_VOCAB", "SPEAKER_POOL"]

_QUERY_STEM = "what did"          # function words only
_QUERY_JOIN = "and"               # between the two focus speakers
_QUERY_VERB = "do about the"      # function words only
SPEAKER_POOL = ("host", "scribe", "pilot", "critic", "mentor", "broker", "envoy", "warden")

_SUMMARY_VOCAB_SIZE = 80
_FILLER_VOCAB_SIZE = 240
_VOCAB_SEED = 20240311  # fixed: vocabularies are part of the format, not the draw


def _build_vocab() -> tuple[tuple[str, ...], tuple[str, ...]]:
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c, v in itertools.product(consonants, vowels)]
    words = ["".join(pair) for pair in itertools.product(syllables, repeat=2)]
    rng = np.random.default_rng(_VOCAB_SEED)
    rng.shuffle(words)
    total = _SUMMARY_VOCAB_SIZE + _FILLER_VOCAB_SIZE
    picked = words[:total]
    return tuple(picked[:_SUMMARY_VOCAB_SIZE]), tuple(picked[_SUMMARY_VOCAB_SIZE:])


SUMMARY_VOCAB, FILLER_VOCAB = _build_vocab()


def synth_corpus(
    n_instances: int,
    n_utterances: int = 40,
    noise: float = 0.05,
    seed: int = 0,
    split: str = "train",
    summary_words: int = 60,
    query_words: int = 30,
    min_tokens: int = 10,
    max_tokens: int = 14,
    segment_len: int = 10,
    offtopic_cap: float = 0.15,
) -> Corpus:
    """One split of planted-order instances, fully determined by the seed."""
    if n_instances < 1:
        raise ValidationError(f"n_instances must be >= 1, got {n_instances}")
    if n_utterances < 2:
        raise ValidationError(f"n_utterances must be >= 2, got {n_utterances}")
    if not 0 <= noise < math.inf:
        raise ValidationError(f"noise must be finite and >= 0, got {noise}")
    if not 2 <= min_tokens <= max_tokens:
        raise ValidationError(
            f"need 2 <= min_tokens <= max_tokens, got {min_tokens}..{max_tokens}"
        )
    if not 1 <= summary_words <= len(SUMMARY_VOCAB):
        raise ValidationError(
            f"summary_words must be in 1..{len(SUMMARY_VOCAB)}, got {summary_words}"
        )
    if query_words < 1:
        raise ValidationError(f"query_words must be >= 1, got {query_words}")
    if segment_len < 1:
        raise ValidationError(f"segment_len must be >= 1, got {segment_len}")
    if not 0.0 < offtopic_cap <= 1.0:
        raise ValidationError(f"offtopic_cap must be in (0, 1], got {offtopic_cap}")
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n_instances):
        meeting_id = f"meet-{split}-{i:05d}"
        # Each draw picks indices, exactly as rng.choice over the sequence itself
        # would, without converting the sequence to a NumPy array on every call.
        picked = rng.choice(len(SUMMARY_VOCAB), size=summary_words, replace=False)
        summary_tokens = [SUMMARY_VOCAB[j] for j in picked.tolist()]
        picked = rng.choice(summary_words, size=min(query_words, summary_words), replace=False)
        content = [summary_tokens[j] for j in picked.tolist()]

        n_segments = -(-n_utterances // segment_len)
        start = int(rng.integers(0, len(SPEAKER_POOL)))
        speakers = [SPEAKER_POOL[(start + s) % len(SPEAKER_POOL)] for s in range(n_segments)]
        focus = set(rng.choice(n_segments, size=min(2, n_segments), replace=False).tolist())
        named = f" {_QUERY_JOIN} ".join(speakers[s] for s in sorted(focus))
        query = f"{_QUERY_STEM} {named} {_QUERY_VERB} {' '.join(content)}"

        utterances = []
        for u in range(n_utterances):
            high = 1.0 if (u // segment_len) in focus else offtopic_cap
            target = min(max(rng.uniform(0.0, high) + rng.normal(0.0, noise), 0.0), 1.0)
            length = int(rng.integers(min_tokens, max_tokens + 1))
            span_len = int(round(target * min(length, summary_words)))
            # Meetings walk an agenda: an utterance's summary content sits near the
            # summary region matching its transcript position. Neighbours' slices
            # overlap, so picks from one segment repeat each other's tokens: at
            # seed 101, 61% (qf40), 74% (long160) and 76% (longtext) of the
            # summary-token occurrences in gold's top-10 text repeat one already there.
            span_start = int(round(u / max(1, n_utterances - 1) * (summary_words - span_len)))
            span = summary_tokens[span_start : span_start + span_len]
            # rng.choice(FILLER_VOCAB, size, replace=True) makes this same draw.
            drawn = rng.integers(0, len(FILLER_VOCAB), size=length - span_len)
            fillers = [FILLER_VOCAB[j] for j in drawn.tolist()]
            cut = int(rng.integers(0, len(fillers) + 1))
            text = " ".join(fillers[:cut] + span + fillers[cut:])
            utterances.append(Utterance(meeting_id, u, speakers[u // segment_len], text))
        instances.append(
            QueryInstance(
                instance_id=f"{split}-{i:05d}",
                meeting_id=meeting_id,
                query=query,
                utterances=tuple(utterances),
                gold_summary=" ".join(summary_tokens),
            )
        )
    return Corpus(instances=tuple(instances), split=split)


def synth_splits(
    n_train: int,
    n_validation: int,
    n_test: int,
    seed: int = 0,
    **kwargs,
) -> dict[str, Corpus]:
    """Train/validation/test splits from one seed, each drawn independently.

    Splits with a zero count are omitted; the per-split streams do not
    shift when another split's count changes. Keyword arguments such as
    n_utterances and noise go to synth_corpus.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    counts = dict(zip(SPLITS, (n_train, n_validation, n_test)))
    children = np.random.SeedSequence(seed).spawn(len(SPLITS))
    out = {}
    for split, child in zip(SPLITS, children):
        if counts[split] == 0:
            continue
        out[split] = synth_corpus(counts[split], seed=child, split=split, **kwargs)
    return out
