"""Typed exceptions shared across the package; the one rule for files,
:func:`file_io` (and :func:`read_text` over it); and the one parser and
type check for documents read from outside the package,
:func:`parse_json` and :func:`typed`."""

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path


class ToporagError(Exception):
    """Base class for all package errors."""


class ParseError(ToporagError):
    """A file could not be parsed into the expected structure."""


class ValidationError(ToporagError):
    """Structurally parsed input violates a graph invariant."""


class MissingGraphError(ToporagError):
    """A QA fixture references a graph file that does not exist."""


class IoError(ToporagError):
    """Filesystem read/write failure."""


class DimensionMismatch(ToporagError):
    """Vectors of incompatible dimensionality were combined."""


class ZeroVector(ToporagError):
    """Cosine similarity is undefined for an all-zero vector."""


class ProviderUnavailable(ToporagError):
    """An external provider could not be reached or failed server-side."""


class ProviderRejected(ToporagError):
    """An external provider rejected the request (HTTP 4xx)."""


class CacheCorrupt(ToporagError):
    """The embedding cache file is unreadable or internally inconsistent."""


class EmptyCandidates(ToporagError):
    """No cell carries positive prize and no fallback cell was supplied."""


class TooLarge(ToporagError):
    """Instance exceeds an exhaustive-enumeration guard."""


class DanglingCell(ToporagError):
    """A subcomplex references a cell absent from the source graph."""


class EmptySubcomplex(ToporagError):
    """An operation requires at least one cell."""


@contextmanager
def file_io(path, action: str = "read"):
    """Run a block of filesystem calls on ``path``: an ``OSError`` from it,
    or a path holding a NUL byte, raises ``IoError("cannot <action>
    <path>: <reason>")``. Other errors pass through unchanged."""
    if "\0" in os.fspath(path):
        raise IoError(f"cannot {action} {path}: path holds a NUL byte")
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot {action} {path}: {exc.strerror or exc}") from exc


def read_text(path, error: type[ToporagError]) -> str:
    """The text of file ``path``, read under :func:`file_io`; bytes that are
    not UTF-8 raise ``error``, as in :func:`parse_json`."""
    with file_io(path):
        raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc


def parse_json(text: str | bytes, what: str, error: type[ToporagError]):
    """``json.loads(text)``, bytes read as UTF-8; a document that is not
    JSON, or nests too deeply to parse, raises ``error``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes)
                          else text)
    except (ValueError, RecursionError) as exc:  # ValueError: JSON, UTF-8
        raise error(f"{what}: {exc}") from exc


def typed(value, kind: type, what: str, error: type[ToporagError]):
    """``value`` if it has JSON type ``kind``, else ``error``.

    The type policy of every outside document: an int is never a bool, a
    float is an int or a float and must be finite (``json.loads`` accepts
    ``NaN`` and ``Infinity``), and nothing is coerced.
    """
    if isinstance(value, bool):
        ok = kind is bool
    elif kind is float:
        ok = (isinstance(value, (int, float))
              and abs(value) <= sys.float_info.max)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise error(f"{what} must be {kind.__name__}, got {value!r:.80}")
    return value
