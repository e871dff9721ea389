"""Every function the benchmark's span tracer wraps still exists under its traced name."""

import importlib
import importlib.util
from pathlib import Path

from uttrank.scorer import InstanceStats

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _resolves(module_name: str, qualname: str) -> bool:
    owner = importlib.import_module(f"uttrank.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{m}.{q}" for m, q in spans.TARGETS if not _resolves(m, q)]
    assert missing == []
    # The tracer rewraps a staticmethod as one; any other kind of method would be traced wrongly.
    assert isinstance(InstanceStats.__dict__["from_instance"], staticmethod)
