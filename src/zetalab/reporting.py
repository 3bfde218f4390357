"""Deterministic serialization and atomic report writes.

Reports must be byte-identical across runs with the same flags.  They are
written by the standard library's ``json`` encoder: dictionaries keep
insertion order, every float is the shortest decimal that reads back as the
same double (``repr``), nan and inf are refused, and a complex value becomes
``{"re", "im"}``.  No timestamps appear outside the run manifest.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from functools import partial
from pathlib import Path


def format_float(x: float) -> str:
    """Shortest decimal that reads back as the same double."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return repr(float(x))


def _complex_as_pair(value) -> dict:
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


#: One-line form of the report encoder.
_encode = partial(json.dumps, ensure_ascii=False, allow_nan=False, default=_complex_as_pair)


def json_dumps(obj) -> str:
    """Serialize a report to indented JSON text, ending in a newline."""
    return _encode(obj, indent=2) + "\n"


def csv_text(header: list[str], rows: list[list], config: dict) -> str:
    """Comma-separated text: '.' decimal point, header row, LF endings.

    Floats are rendered like the JSON reports; a leading ``# config:`` line
    holds ``config`` as one-line JSON.
    """
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    lines = [f"# config: {_encode(config)}", ",".join(header)]
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
