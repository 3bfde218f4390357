"""Deterministic serialization and atomic report writes.

Reports must be byte-identical across runs with the same flags, so floats are
rendered with a fixed 17-significant-digit format (round-trip exact for IEEE
doubles) and dictionaries keep insertion order; no timestamps appear outside
the run manifest.
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path


def format_float(x: float) -> str:
    """Decimal rendering with 17 significant digits (round-trip exact)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def complex_pair(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _escape_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize nested dict/list/scalar data to JSON deterministically.

    Unlike the stdlib encoder this renders every float with exactly 17
    significant digits.  Dict keys keep insertion order (reports are built
    with a fixed layout); complex values must be converted with
    ``complex_pair`` first.
    """
    lines: list[str] = []

    def emit(value, depth: int, prefix: str, suffix: str):
        pad = " " * (indent * depth)
        if isinstance(value, dict):
            if not value:
                lines.append(f"{pad}{prefix}{{}}{suffix}")
                return
            lines.append(f"{pad}{prefix}{{")
            items = list(value.items())
            for pos, (key, item) in enumerate(items):
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {key!r}")
                comma = "," if pos < len(items) - 1 else ""
                emit(item, depth + 1, f"{_escape_string(key)}: ", comma)
            lines.append(f"{pad}}}{suffix}")
        elif isinstance(value, (list, tuple)):
            if not value:
                lines.append(f"{pad}{prefix}[]{suffix}")
                return
            lines.append(f"{pad}{prefix}[")
            for pos, item in enumerate(value):
                comma = "," if pos < len(value) - 1 else ""
                emit(item, depth + 1, "", comma)
            lines.append(f"{pad}]{suffix}")
        elif isinstance(value, bool):
            lines.append(f"{pad}{prefix}{'true' if value else 'false'}{suffix}")
        elif value is None:
            lines.append(f"{pad}{prefix}null{suffix}")
        elif isinstance(value, int):
            lines.append(f"{pad}{prefix}{value}{suffix}")
        elif isinstance(value, float):
            lines.append(f"{pad}{prefix}{format_float(value)}{suffix}")
        elif isinstance(value, str):
            lines.append(f"{pad}{prefix}{_escape_string(value)}{suffix}")
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")

    emit(obj, 0, "", "")
    return "\n".join(lines) + "\n"


def json_compact(obj) -> str:
    """Single-line variant of ``json_dumps`` (used for CSV header comments)."""
    if isinstance(obj, dict):
        items = ", ".join(
            f"{_escape_string(k)}: {json_compact(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_compact(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _escape_string(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def csv_text(header: list[str], rows: list[list], comments: list[str] | None = None) -> str:
    """Comma-separated text: '.' decimal point, header row, LF endings.

    Floats are rendered like the JSON reports; ``comments`` become leading
    '#'-prefixed lines (used to embed the evaluation config).
    """
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial report."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
