"""Structure and determinism of the planted-order corpus generator."""

import hashlib

import numpy as np
import pytest

from uttrank.corpus import instance_to_record, save_corpus
from uttrank.errors import ValidationError
from uttrank.synthesis import (
    FILLER_VOCAB,
    SPEAKER_POOL,
    SUMMARY_VOCAB,
    synth_corpus,
    synth_splits,
)


def _records(corpus):
    return [instance_to_record(inst) for inst in corpus]


def test_vocabularies_are_disjoint_and_sized():
    assert len(SUMMARY_VOCAB) == len(set(SUMMARY_VOCAB))
    assert len(FILLER_VOCAB) == len(set(FILLER_VOCAB))
    assert not set(SUMMARY_VOCAB) & set(FILLER_VOCAB)


def test_same_seed_reproduces_corpus():
    a = synth_corpus(5, n_utterances=20, seed=42)
    b = synth_corpus(5, n_utterances=20, seed=42)
    assert _records(a) == _records(b)


def test_different_seed_differs():
    a = synth_corpus(3, n_utterances=20, seed=1)
    b = synth_corpus(3, n_utterances=20, seed=2)
    assert _records(a) != _records(b)


def test_validation_errors():
    with pytest.raises(ValidationError):
        synth_corpus(0)
    with pytest.raises(ValidationError):
        synth_corpus(2, n_utterances=1)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="noise"):
            synth_corpus(2, noise=bad)
    with pytest.raises(ValidationError):
        synth_corpus(2, min_tokens=9, max_tokens=5)
    with pytest.raises(ValidationError):
        synth_corpus(2, summary_words=len(SUMMARY_VOCAB) + 1)
    with pytest.raises(ValidationError):
        synth_corpus(2, offtopic_cap=0.0)
    with pytest.raises(ValidationError):
        synth_corpus(2, offtopic_cap=1.5)
    with pytest.raises(ValidationError):
        synth_corpus(2, segment_len=0)


def test_segments_have_one_speaker_and_queries_name_two():
    corpus = synth_corpus(6, n_utterances=25, segment_len=10, seed=3)
    for inst in corpus:
        speakers = [u.speaker for u in inst.utterances]
        for seg_start in range(0, len(speakers), 10):
            seg = speakers[seg_start : seg_start + 10]
            assert len(set(seg)) == 1
        named = [w for w in inst.query.split() if w in SPEAKER_POOL]
        assert len(named) == 2
        assert set(named) <= set(speakers)


def test_focus_segments_carry_the_high_relevance():
    corpus = synth_corpus(8, n_utterances=40, noise=0.0, seed=4)
    for inst in corpus:
        named = {w for w in inst.query.split() if w in SPEAKER_POOL}
        summary = set(inst.gold_summary.split())
        focus_fracs, off_fracs = [], []
        for utt in inst.utterances:
            tokens = utt.text.split()
            frac = sum(t in summary for t in tokens) / len(tokens)
            (focus_fracs if utt.speaker in named else off_fracs).append(frac)
        # off-topic targets are capped at 0.15 of min(len, summary) tokens,
        # far below the focus segments' upper range
        assert max(focus_fracs) > max(off_fracs)


def test_token_counts_within_bounds():
    corpus = synth_corpus(4, n_utterances=15, min_tokens=6, max_tokens=9, seed=5)
    for inst in corpus:
        for utt in inst.utterances:
            assert 6 <= len(utt.text.split()) <= 9


def test_summary_uses_summary_vocab_only():
    corpus = synth_corpus(3, n_utterances=10, seed=6)
    for inst in corpus:
        assert set(inst.gold_summary.split()) <= set(SUMMARY_VOCAB)
        assert len(inst.gold_summary.split()) == 60


def test_split_metadata_and_unique_ids():
    splits = synth_splits(3, 2, 2, n_utterances=10, seed=7)
    assert set(splits) == {"train", "validation", "test"}
    ids = []
    for name, corpus in splits.items():
        assert corpus.split == name
        ids += [inst.instance_id for inst in corpus]
    assert len(ids) == len(set(ids))


def test_zero_count_split_omitted():
    splits = synth_splits(3, 0, 2, n_utterances=10, seed=7)
    assert set(splits) == {"train", "test"}


def test_split_streams_do_not_shift():
    # growing the test split must not disturb train draws, and the shared
    # prefix of the grown split itself is stable
    small = synth_splits(3, 2, 2, n_utterances=10, seed=8)
    large = synth_splits(3, 2, 6, n_utterances=10, seed=8)
    assert _records(small["train"]) == _records(large["train"])
    assert _records(small["validation"]) == _records(large["validation"])
    assert _records(small["test"]) == _records(large["test"])[:2]


# The benchmark's workload shapes. Each draw depends on the shape, not on the
# split sizes, so three small splits cover every kind of draw.
_SHAPES = {
    "qf40": {"n_utterances": 40},
    "long160": {"n_utterances": 160},
    "longtext": {"n_utterances": 40, "min_tokens": 30, "max_tokens": 40, "summary_words": 80},
}


def test_corpus_digest(tmp_path):
    # Literals taken from the generator that drew words with rng.choice over
    # the vocabulary tuples: any change to the random stream moves them.
    digests = {}
    for name, shape in _SHAPES.items():
        for seed in (101, 7, 1):
            sha = hashlib.sha256()
            for split, corpus in synth_splits(3, 1, 2, seed=seed, **shape).items():
                path = tmp_path / f"{name}-{seed}-{split}.jsonl"
                save_corpus(corpus, path)
                sha.update(path.read_bytes())
            digests[name, seed] = sha.hexdigest()
    assert digests == {
        ("qf40", 101): "56cc8077c52d0ea58a9a34ab96910019872f94e126ce76c45237c2e4ad164739",
        ("qf40", 7): "e371f3b82dcd9d160f90534760470281de7e0dbee695d910a7745f4afb5f453d",
        ("qf40", 1): "0e3144eae7233bf688cf59b76bbea2d5c9fa23032a53435f063948afbd743616",
        ("long160", 101): "9fb5be6214c2d507793ce8f7cafff6c815897d9d5035d63a17fd5b1ed61bd20d",
        ("long160", 7): "adfee90396ad6223bb923a909c7d071e315b11ec520310efd804c53e84fe8efd",
        ("long160", 1): "420d15e13313b30fd142ac2e4e48e890d56e91d15a29be5e086a18a490042c49",
        ("longtext", 101): "e22d01f8197dda450e715bd91cda1c060934621ab37ccc1a743a0de71cc6d37b",
        ("longtext", 7): "e82aeea4345ccec387627ed8b3e77dd75b7bb2137beabe57a68d1aade708ddb6",
        ("longtext", 1): "2bdb35557768e28ac8d4d53f7241ca969714bee3147fe565efa310724bd1f88c",
    }
