"""The file system edge: every text read, digest and write of a command.

read_text and atomic_open (write_text is its one-string form) turn a failure
to read or write, an OSError in atomic_open's block included, into a
ValidationError naming the path. atomic_open creates the target's directory,
writes a temporary file beside it and os.replaces the target only when the
block exits cleanly, so a failure leaves the previous file, if any, and no
partial or temporary one. corpus.load_corpus reads its own bytes, to report
the line of a byte that is not UTF-8.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path

from .errors import ValidationError

__all__ = ["atomic_open", "read_text", "sha256", "to_devnull", "write_text"]


def read_text(path: str | Path, newline: str | None = None, missing_ok: bool = False) -> str | None:
    """The UTF-8 text of path; a ValidationError naming path if it cannot be read.

    With missing_ok, a path that names no file, or lies under a file, gives None.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        if missing_ok and isinstance(exc, (FileNotFoundError, NotADirectoryError)):
            return None
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def sha256(path: str | Path) -> str:
    """The hex SHA-256 of path's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


@contextlib.contextmanager
def atomic_open(path: str | Path, newline: str | None = None):
    """Text handle (UTF-8) whose content replaces path when the block exits cleanly."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def write_text(path: str | Path, text: str) -> None:
    """text written to path through atomic_open."""
    with atomic_open(path) as fh:
        fh.write(text)


def to_devnull(stream) -> None:
    """Point stream's file descriptor, if it has one, at os.devnull, so that flushing it cannot fail."""
    with contextlib.suppress(AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
