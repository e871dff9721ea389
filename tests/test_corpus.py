"""Corpus loading, validation, and sample partitioning."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttrank.corpus import (
    Corpus,
    QueryInstance,
    Utterance,
    instance_to_record,
    load_corpus,
    partition_samples,
    save_corpus,
)
from uttrank.errors import CorpusFormatError, ValidationError


def _record(instance_id="a", n=3, spans=None):
    rec = {
        "instance_id": instance_id,
        "meeting_id": f"m-{instance_id}",
        "query": "what was decided",
        "gold_summary": "they decided things",
        "utterances": [
            {"index": i, "speaker": "s", "text": f"utterance number {i}"} for i in range(n)
        ],
    }
    if spans is not None:
        rec["relevant_spans"] = spans
    return rec


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


# ------------------------------------------------------------ load_corpus

def test_load_roundtrip_fixture(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record(f"i{k}", n=10) for k in range(3)])
    corpus = load_corpus(path, split="train")
    assert len(corpus.instances) == 3
    assert all(len(inst.utterances) == 10 for inst in corpus.instances)
    # serialize back and reload: field-by-field identical
    out = tmp_path / "again.jsonl"
    save_corpus(corpus, out)
    again = load_corpus(out, split="train")
    assert again.instances == corpus.instances


def test_load_numeric_meeting_id(tmp_path):
    # A number is not converted to a string: 7 and "7" are different ids.
    path = tmp_path / "numeric.jsonl"
    _write_jsonl(path, [dict(_record("a"), meeting_id=7)])
    with pytest.raises(CorpusFormatError, match="numeric.jsonl:1: .*meeting_id must be a string"):
        load_corpus(path)


@pytest.mark.parametrize(
    "field, raw",
    [
        ("instance_id", "12345"),
        ("meeting_id", "7"),
        ("query", "null"),
        ("gold_summary", "true"),
        ("speaker", "1.5"),
        ("text", "12345"),
        ("text", '["words"]'),
    ],
)
def test_load_rejects_non_string_field(tmp_path, field, raw):
    record = _record("st", n=3)
    if field in ("speaker", "text"):
        record["utterances"][1][field] = "@"
    else:
        record[field] = "@"
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_record("ok")) + "\n" + json.dumps(record).replace('"@"', raw) + "\n")
    with pytest.raises(CorpusFormatError, match=f"c.jsonl:2: .*{field} must be a string, got "):
        load_corpus(path)


def test_load_duplicate_instance_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    _write_jsonl(path, [_record("same"), _record("same")])
    with pytest.raises(ValidationError, match="same"):
        load_corpus(path)


def test_load_index_gap(tmp_path):
    rec = _record("gap")
    rec["utterances"][2]["index"] = 5
    path = tmp_path / "gap.jsonl"
    _write_jsonl(path, [rec])
    with pytest.raises(ValidationError):
        load_corpus(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("query", "   ", "empty query"),
        ("utterances", [], "no utterances"),
        # Punctuation alone has no tokens, so every relevance label would be 0.
        ("query", "?!", "empty query"),
        ("gold_summary", "?? -- !!", "empty gold_summary"),
    ],
)
def test_load_rejects_an_empty_query_or_transcript(tmp_path, field, value, message):
    record = dict(_record("hollow"), **{field: value})
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("ok"), record])
    with pytest.raises(ValidationError, match=f"instance 'hollow': {message}"):
        load_corpus(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = [json.dumps(_record("a")), "", "   ", json.dumps(_record("b")), ""]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [inst.instance_id for inst in load_corpus(path)] == ["a", "b"]


def test_load_empty_utterance_text(tmp_path):
    rec = _record("blank")
    rec["utterances"][1]["text"] = "   ...   "
    path = tmp_path / "blank.jsonl"
    _write_jsonl(path, [rec])
    with pytest.raises(ValidationError):
        load_corpus(path)


def test_load_malformed_line_cites_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(_record("ok")) + "\n")
        fh.write("{not json\n")
    with pytest.raises(CorpusFormatError, match="2"):
        load_corpus(path)


def test_load_non_utf8_line_cites_its_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    # Line 1 ends in CRLF and loads; line 2 holds a byte that is not UTF-8.
    path.write_bytes(json.dumps(_record("ok")).encode() + b'\r\n{"query": "\xff"}\n')
    with pytest.raises(CorpusFormatError, match=r"bad\.jsonl:2: not UTF-8"):
        load_corpus(path)


def test_load_missing_file():
    with pytest.raises(CorpusFormatError, match="cannot open"):
        load_corpus("/nonexistent/nowhere.jsonl")


def test_relevant_spans_roundtrip(tmp_path):
    path = tmp_path / "spans.jsonl"
    _write_jsonl(path, [_record("sp", n=6, spans=[[1, 3], [5, 5]])])
    corpus = load_corpus(path)
    inst = corpus.instances[0]
    assert inst.relevant_spans == ((1, 3), (5, 5))
    rec = instance_to_record(inst)
    assert rec["relevant_spans"] == [[1, 3], [5, 5]]


@pytest.mark.parametrize("span", [[5, 2], [-3, 100], [50, 60], [0, 12]])
def test_load_rejects_bad_span(tmp_path, span):
    path = tmp_path / "spans.jsonl"
    _write_jsonl(path, [_record("sp", n=12, spans=[[0, 11], span])])
    with pytest.raises(ValidationError, match="relevant span"):
        load_corpus(path)


@pytest.mark.parametrize("span", [[1, 2, 3], ["x", 2]])
def test_load_rejects_malformed_span(tmp_path, span):
    path = tmp_path / "spans.jsonl"
    _write_jsonl(path, [_record("sp", n=12, spans=[span])])
    with pytest.raises(CorpusFormatError, match=":1:"):
        load_corpus(path)


@pytest.mark.parametrize(
    "field, raw",
    [
        ("index", "1e999"),
        ("index", "1.9"),
        ("index", "1.0"),
        ("index", "true"),
        ("start", "1e999"),
        ("start", "0.5"),
        ("end", "2.9"),
    ],
)
def test_load_rejects_non_integer_index_or_span_bound(tmp_path, field, raw):
    # A float is rejected, not truncated, and one past the float range is not an OverflowError.
    record = _record("ix", n=4, spans=[[0, 2]])
    if field == "index":
        record["utterances"][1]["index"] = "@"
    else:
        record["relevant_spans"][0][("start", "end").index(field)] = "@"
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_record("ok")) + "\n" + json.dumps(record).replace('"@"', raw) + "\n")
    with pytest.raises(CorpusFormatError, match="c.jsonl:2: .* must be an integer, got "):
        load_corpus(path)


def test_corpus_rejects_bad_split():
    with pytest.raises(ValidationError):
        Corpus(instances=(), split="dev")


def test_instance_requires_consistent_meeting_id():
    utts = (
        Utterance(meeting_id="m1", index=0, speaker="s", text="one two"),
        Utterance(meeting_id="OTHER", index=1, speaker="s", text="three four"),
    )
    inst = QueryInstance(
        instance_id="x",
        meeting_id="m1",
        query="q",
        utterances=utts,
        gold_summary="summary",
    )
    with pytest.raises(ValidationError):
        inst.validate()


def test_instance_requires_nonempty_summary():
    utts = (Utterance(meeting_id="m", index=0, speaker="s", text="hello there"),)
    inst = QueryInstance(
        instance_id="x", meeting_id="m", query="q", utterances=utts, gold_summary=""
    )
    with pytest.raises(ValidationError):
        inst.validate()


# ------------------------------------------------------ partition_samples

def test_partition_even_windows(tiny_instance):
    inst = tiny_instance  # 6 utterances
    samples = partition_samples(inst, 3)
    assert [list(s) for s in samples] == [[0, 1, 2], [3, 4, 5]]


def test_partition_10_by_4():
    inst = _make_n(10)
    samples = partition_samples(inst, 4)
    assert [list(s) for s in samples] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


def test_partition_trailing_singleton_merged():
    inst = _make_n(9)
    samples = partition_samples(inst, 4)
    assert [list(s) for s in samples] == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]
    assert all(len(s) >= 2 for s in samples)


def test_partition_single_window_when_small():
    inst = _make_n(4)
    samples = partition_samples(inst, 8)
    assert [list(s) for s in samples] == [[0, 1, 2, 3]]


def test_partition_rejects_tiny_instance():
    # a one-utterance instance is one window; training skips it, extraction selects it
    assert partition_samples(_make_n(1), 4) == [range(0, 1)]


def test_partition_rejects_sample_size_one():
    inst = _make_n(5)
    with pytest.raises(ValidationError):
        partition_samples(inst, 1)


def test_partition_covers_disjointly_random_sizes():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 201))
        inst = _make_n(n)
        sample_size = int(rng.integers(2, n + 6))
        samples = partition_samples(inst, sample_size)
        seen = [i for s in samples for i in s]
        assert sorted(seen) == list(range(n))
        assert len(set(seen)) == len(seen)
        assert all(len(s) >= 2 for s in samples)
        # windows are contiguous and in transcript order
        flat = []
        for s in samples:
            assert list(s) == list(range(s[0], s[-1] + 1))
            flat.extend(s)
        assert flat == sorted(flat)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 300), data=st.data())
def test_partition_covers_every_index_once(n, data):
    sample_size = data.draw(st.integers(2, n + 5), label="sample_size")
    samples = partition_samples(_make_n(n), sample_size)
    seen = [i for s in samples for i in s]
    assert sorted(seen) == list(range(n))
    assert all(2 <= len(s) <= sample_size + 1 for s in samples)


def _make_n(n):
    utts = tuple(
        Utterance(meeting_id="m", index=i, speaker="s", text=f"tok{i} tok{i}b") for i in range(n)
    )
    return QueryInstance(
        instance_id=f"n{n}",
        meeting_id="m",
        query="q",
        utterances=utts,
        gold_summary="summary text",
    )
