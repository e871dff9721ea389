"""Corpus data model and ingestion.

A corpus file is UTF-8 JSONL: one instance record per line with fields
`instance_id`, `meeting_id`, `query`, `gold_summary`, `utterances` (array of
{index, speaker, text}), and optional `relevant_spans` ([start, end] inclusive
index pairs). Lines end at a line feed (LF or CRLF; a bare CR ends no line),
and each line is decoded on its own, so a byte that is not UTF-8 is reported
at its line. This mirrors the annotation structure of query-focused meeting
corpora with topic segmentation and relevant spans.

All corpus values are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import CorpusFormatError, ValidationError
from .fileio import atomic_open
from .rouge import has_tokens

SPLITS = ("train", "validation", "test")

__all__ = [
    "SPLITS",
    "Utterance",
    "QueryInstance",
    "Corpus",
    "load_corpus",
    "save_corpus",
    "partition_samples",
]


@dataclass(frozen=True)
class Utterance:
    """One speaker turn; `index` is the 0-based transcript position."""

    meeting_id: str
    index: int
    speaker: str
    text: str


@dataclass(frozen=True)
class QueryInstance:
    """One query over one meeting, paired with its reference summary."""

    instance_id: str
    meeting_id: str
    query: str
    utterances: tuple[Utterance, ...]
    gold_summary: str
    relevant_spans: tuple[tuple[int, int], ...] | None = None

    def validate(self) -> None:
        if not has_tokens(self.query):
            raise ValidationError(f"instance {self.instance_id!r}: empty query")
        if not has_tokens(self.gold_summary):
            raise ValidationError(f"instance {self.instance_id!r}: empty gold_summary")
        if not self.utterances:
            raise ValidationError(f"instance {self.instance_id!r}: no utterances")
        indices = [u.index for u in self.utterances]
        if indices != list(range(len(indices))):
            raise ValidationError(
                f"instance {self.instance_id!r}: utterance indices must be 0..n-1 "
                f"in order with no gaps, got {indices}"
            )
        for u in self.utterances:
            if u.meeting_id != self.meeting_id:
                raise ValidationError(
                    f"instance {self.instance_id!r}: utterance {u.index} has "
                    f"meeting_id {u.meeting_id!r}, expected {self.meeting_id!r}"
                )
            if not has_tokens(u.text):
                raise ValidationError(
                    f"instance {self.instance_id!r}: utterance {u.index} has no tokens"
                )
        n = len(self.utterances)
        for start, stop in self.relevant_spans or ():
            if not 0 <= start <= stop < n:
                raise ValidationError(
                    f"instance {self.instance_id!r}: relevant span [{start}, {stop}] "
                    f"must satisfy 0 <= start <= stop < {n}"
                )


@dataclass(frozen=True)
class Corpus:
    instances: tuple[QueryInstance, ...]
    split: str = "train"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValidationError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        seen: set[str] = set()
        for inst in self.instances:
            if inst.instance_id in seen:
                raise ValidationError(f"duplicate instance_id {inst.instance_id!r}")
            seen.add(inst.instance_id)

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)


def _json_int(value, name: str) -> int:
    """value if JSON parsed it as an integer; a float or bool is malformed, not truncated."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_str(value, name: str) -> str:
    """value if JSON parsed it as a string; a number, bool or null is malformed, not converted."""
    if type(value) is not str:
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _parse_instance(record: dict, path: str, line_number: int) -> QueryInstance:
    try:
        meeting_id = _json_str(record["meeting_id"], "meeting_id")
        utterances = tuple(
            Utterance(
                meeting_id=meeting_id,
                index=_json_int(u["index"], "utterance index"),
                speaker=_json_str(u["speaker"], "speaker"),
                text=_json_str(u["text"], "text"),
            )
            for u in record["utterances"]
        )
        spans = record.get("relevant_spans")
        instance = QueryInstance(
            instance_id=_json_str(record["instance_id"], "instance_id"),
            meeting_id=meeting_id,
            query=_json_str(record["query"], "query"),
            utterances=utterances,
            gold_summary=_json_str(record["gold_summary"], "gold_summary"),
            relevant_spans=None if spans is None else tuple(
                (_json_int(a, "span start"), _json_int(b, "span end")) for a, b in spans
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(path, line_number, f"missing or malformed field: {exc}") from exc
    instance.validate()
    return instance


def load_corpus(path: str | Path, split: str = "train") -> Corpus:
    """Load and validate a JSONL corpus file; utterance order is preserved."""
    path = Path(path)
    instances = []
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise CorpusFormatError(str(path), 0, f"cannot open corpus file: {exc}") from exc
    with fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(str(path), line_number, f"not UTF-8: {exc}") from exc
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(str(path), line_number, f"invalid JSON: {exc}") from exc
            instances.append(_parse_instance(record, str(path), line_number))
    return Corpus(instances=tuple(instances), split=split)


def instance_to_record(instance: QueryInstance) -> dict:
    record = {
        "instance_id": instance.instance_id,
        "meeting_id": instance.meeting_id,
        "query": instance.query,
        "gold_summary": instance.gold_summary,
        "utterances": [
            {"index": u.index, "speaker": u.speaker, "text": u.text}
            for u in instance.utterances
        ],
    }
    if instance.relevant_spans is not None:
        record["relevant_spans"] = [list(span) for span in instance.relevant_spans]
    return record


def save_corpus(corpus: Corpus | Iterable[QueryInstance], path: str | Path) -> None:
    """Write instances as JSONL; load_corpus on the result round-trips exactly."""
    with atomic_open(path) as fh:
        for instance in corpus:
            fh.write(json.dumps(instance_to_record(instance), ensure_ascii=False) + "\n")


def partition_samples(instance: QueryInstance, sample_size: int) -> list[range]:
    """Split an instance into contiguous range windows of sample_size utterance indices.

    The final window may be smaller, but a trailing singleton is merged into
    the preceding window: a 1-element sample admits no pairwise comparison.
    A one-utterance instance is the single window range(0, 1). Windows are
    disjoint and cover every utterance index.
    """
    n = len(instance.utterances)
    if sample_size < 2:
        raise ValidationError(f"sample_size must be >= 2, got {sample_size}")
    bounds = list(range(0, n, sample_size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # merge trailing singleton into the previous window
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]
