"""File output: corpus JSONL round-trips and atomic replacement of run outputs."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttrank.corpus import Corpus, QueryInstance, Utterance, load_corpus, save_corpus
from uttrank.fileio import atomic_open
from uttrank.scorer import init_model, load_model, save_model

# Any text around at least one alphanumeric run, so every field validates.
_word = st.text(alphabet=string.ascii_letters + string.digits + "éßж", min_size=1, max_size=8)
_text = st.builds(
    lambda pre, word, post: pre + word + post, st.text(max_size=12), _word, st.text(max_size=12)
)


@st.composite
def _instances(draw, instance_id):
    meeting_id = draw(st.text(max_size=6))
    texts = draw(st.lists(_text, min_size=1, max_size=6))
    n = len(texts)
    span = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)
    return QueryInstance(
        instance_id=instance_id,
        meeting_id=meeting_id,
        query=draw(_text),
        utterances=tuple(
            Utterance(meeting_id=meeting_id, index=i, speaker=draw(st.text(max_size=6)), text=t)
            for i, t in enumerate(texts)
        ),
        gold_summary=draw(_text),
        relevant_spans=draw(st.none() | st.lists(span, max_size=3).map(tuple)),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_instances=st.integers(0, 4))
def test_save_load_corpus_roundtrips(tmp_path_factory, data, n_instances):
    corpus = Corpus(
        instances=tuple(data.draw(_instances(f"inst-{i}")) for i in range(n_instances)),
        split="validation",
    )
    path = tmp_path_factory.mktemp("corpus") / "split.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path, split="validation") == corpus


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(path) as fh:
        fh.write("first\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_save_model_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model((7, 3, 1), seed=1), path)
    before = path.read_bytes()
    broken = init_model((7, 3, 1), seed=2)
    broken.seed = object()  # serialized after the weights, so the failure comes mid-file
    with pytest.raises(TypeError):
        save_model(broken, path)
    assert path.read_bytes() == before
    assert load_model(path).seed == 1
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
