"""Span tracer for the traced benchmark run.

The tracer wraps uttrank's public functions from outside the package: every
module-level name bound to a traced function is rebound in each loaded
``uttrank`` module (``trainer`` and ``evaluation`` import ``forward`` and
friends by name), and methods are wrapped on their class. Each call records
one span (name, start, end, parent) in compact arrays kept in memory; counts
are derived from call arguments and results at the same boundaries. Nothing
inside ``src/uttrank`` is modified.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, qualified name) of every traced function, in metric order.
TARGETS = (
    ("corpus", "load_corpus"),
    ("corpus", "save_corpus"),
    ("corpus", "partition_samples"),
    ("rouge", "tokenize"),
    ("rouge", "rouge_n"),
    ("rouge", "rouge_l"),
    ("rouge", "lcs_length"),
    ("rouge", "gold_relevance"),
    ("scorer", "InstanceStats.from_instance"),
    ("scorer", "featurize"),
    ("scorer", "instance_features"),
    ("scorer", "forward"),
    ("scorer", "backward"),
    ("scorer", "score_utterances"),
    ("scorer", "apply_gradient"),
    ("scorer", "save_model"),
    ("scorer", "load_model"),
    ("ranklosses", "pairwise_margin_loss"),
    ("ranklosses", "kl_listwise_loss"),
    ("ranklosses", "bce_locator_loss"),
    ("ranklosses", "mse_simulator_loss"),
    ("trainer", "prepare_corpus"),
    ("trainer", "LossAssembly.value_and_grad"),
    ("trainer", "train_ranker"),
    ("trainer", "train_reranker"),
    ("trainer", "train_baseline"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "stage1_rank"),
    ("pipeline", "pool_candidates"),
    ("pipeline", "stage2_rerank"),
    ("pipeline", "select_topk"),
    ("evaluation", "run_comparison"),
    ("evaluation", "ranking_metrics"),
    ("evaluation", "topk_rouge_overlap"),
    ("synthesis", "synth_splits"),
)
CLI_COMMANDS = ("synth", "train", "extract", "eval")

# Per-command distinct-key sets: a cache inside one command could save the
# repeated calls, one shared across separate CLI processes could not.
DISTINCT = ("rouge.tokenize", "scorer.featurize")
EXTRA_COUNTS = (
    "rouge.lcs_length.cells",
    "ranklosses.kl_listwise_loss.items",
    "trainer.prepare_corpus.instances",
    "pipeline.pool_candidates.pooled",
    "pipeline.select_topk.selected",
    "pipeline.select_topk.truncated",
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _lcs_hook(tracer, args, kwargs, result):
    tracer.counts["rouge.lcs_length.cells"] += len(_arg(args, kwargs, 0, "a")) * len(
        _arg(args, kwargs, 1, "b")
    )


def _tokenize_hook(tracer, args, kwargs, result):
    tracer.distinct["rouge.tokenize"].add(_arg(args, kwargs, 0, "text"))


def _featurize_hook(tracer, args, kwargs, result):
    utterance = _arg(args, kwargs, 1, "utterance")
    key = (_arg(args, kwargs, 0, "query"), utterance.meeting_id, utterance.index)
    tracer.distinct["scorer.featurize"].add(key)


def _kl_hook(tracer, args, kwargs, result):
    tracer.counts["ranklosses.kl_listwise_loss.items"] += len(_arg(args, kwargs, 0, "pred_scores"))


def _prepare_hook(tracer, args, kwargs, result):
    tracer.counts["trainer.prepare_corpus.instances"] += len(result)


def _pool_hook(tracer, args, kwargs, result):
    tracer.counts["pipeline.pool_candidates.pooled"] += len(result)


def _select_hook(tracer, args, kwargs, result):
    tracer.counts["pipeline.select_topk.selected"] += len(result.selected_indices)
    tracer.counts["pipeline.select_topk.truncated"] += int(result.truncated)


HOOKS = {
    "rouge.lcs_length": _lcs_hook,
    "rouge.tokenize": _tokenize_hook,
    "scorer.featurize": _featurize_hook,
    "ranklosses.kl_listwise_loss": _kl_hook,
    "trainer.prepare_corpus": _prepare_hook,
    "pipeline.pool_candidates": _pool_hook,
    "pipeline.select_topk": _select_hook,
}


class Tracer:
    """In-memory span log plus argument-derived counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {key: set() for key in DISTINCT}
        self._distinct_total: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _flush_distinct(self) -> None:
        for key, seen in self.distinct.items():
            self._distinct_total[key] += len(seen)
            seen.clear()

    @contextlib.contextmanager
    def command(self, name: str):
        """Span around one CLI subcommand; distinct keys are counted per command."""
        self._flush_distinct()
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, hook=None):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in the loaded uttrank modules; restore on exit."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "uttrank"]
        undo = []
        try:
            for module_name, qualname in TARGETS:
                home = sys.modules[f"uttrank.{module_name}"]
                name = f"{module_name}.{qualname}"
                hook = HOOKS.get(name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        replacement = staticmethod(self.wrap(name, raw.__func__, hook))
                    else:
                        replacement = self.wrap(name, raw, hook)
                    setattr(cls, attr, replacement)
                    undo.append((cls, attr, raw))
                    continue
                original = getattr(home, qualname)
                traced = self.wrap(name, original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            undo.append((module, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write the span log as .npz: name ids, parents, starts, ends and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.span_arrays())

    def layer_metrics(self) -> dict[str, float]:
        """calls and self time per traced name, plus the derived counters."""
        self._flush_distinct()
        spans = self.span_arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.zeros(len(duration))
        np.add.at(child_time, spans["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time
        n_names = len(self.names)
        calls = np.bincount(spans["name"], minlength=n_names)
        self_s = np.bincount(spans["name"], weights=self_time, minlength=n_names)
        by_name = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

        out: dict[str, float] = {}
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            n, s = by_name.get(name, (0, 0.0))
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = s
        for command in CLI_COMMANDS:
            out[f"cli.{command}.self_s"] = by_name.get(f"cli.{command}", (0, 0.0))[1]
        for key in DISTINCT:
            n = by_name.get(key, (0, 0.0))[0]
            out[f"{key}.distinct_ratio"] = self._distinct_total[key] / n if n else 0.0
        for key in EXTRA_COUNTS:
            out[key] = int(self.counts[key])
        return out
