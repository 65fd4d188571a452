"""Result-file emission: RFC-4180-style CSV tables with 12 significant
digits, and the output directory and text files around them.  A failed
write raises ``IoError`` naming the path."""
from __future__ import annotations

import csv
from pathlib import Path

from .errors import IoError

__all__ = ["emit_csv", "format_value", "make_dir", "write_text"]


def make_dir(path) -> Path:
    """``path`` as a directory, created with its parents when missing."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # FileExistsError when a file is there
        raise IoError(f"cannot create directory {path}: {exc}") from exc
    return path


def write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_csv(rows, schema, path) -> None:
    """Write rows under the column names in ``schema``.

    Rows are sequences; floats are rendered with 12 significant digits,
    '.' decimal separator, LF line endings.
    """
    schema = list(schema)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(schema)
            for row in rows:
                if len(row) != len(schema):
                    raise ValueError("row length does not match schema")
                writer.writerow([format_value(v) for v in row])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
