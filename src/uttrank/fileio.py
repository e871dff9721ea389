"""Atomic file output.

Every file a run writes goes through atomic_open: the text is written to a
temporary file in the target's directory and moved onto the target with
os.replace only once it is complete, so a failure part-way leaves the
previous file, if any, intact and no partial file behind.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["atomic_open"]


@contextlib.contextmanager
def atomic_open(path: str | Path, newline: str | None = None):
    """Text handle (UTF-8) whose content replaces path when the block exits cleanly."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
