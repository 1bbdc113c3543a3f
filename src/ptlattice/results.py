"""Tabular run results and their on-disk CSV form.

A result file is UTF-8 CSV whose first line is a '#'-prefixed JSON object
carrying the fully resolved configuration and any accuracy warnings; the
second line names the columns.  Floats are written with repr so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# columns of one exact built-in type skip _format_cell's dispatch, same text
_COLUMN_FORMATTERS = {float: float.__repr__, int: int.__repr__}
# rows formatted at once; bounds the memory of the text being written
_BLOCK_ROWS = 4096


def _format_column(values: tuple) -> Iterator[str]:
    """Format one column's cells as _format_cell does, choosing the formatter once."""
    kinds = set(map(type, values))
    fmt = _COLUMN_FORMATTERS.get(kinds.pop()) if len(kinds) == 1 else None
    return map(fmt or _format_cell, values)


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must match the column count")

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])

    def write_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", encoding="utf-8") as f:
            f.write("# " + json.dumps(self.metadata, sort_keys=True, separators=(",", ":")) + "\n")
            f.write(",".join(self.columns) + "\n")
            for i in range(0, len(self.rows), _BLOCK_ROWS):
                columns = map(_format_column, zip(*self.rows[i : i + _BLOCK_ROWS]))
                f.write("\n".join(map(",".join, zip(*columns))) + "\n")
        return path


def load_csv(path) -> ResultTable:
    """Parse a file written by ResultTable.write_csv."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or not text[0].startswith("#"):
        raise ValueError(f"{path}: missing metadata header line")
    metadata = json.loads(text[0].lstrip("#").strip())
    columns = text[1].split(",")
    rows = []
    for line in text[2:]:
        if not line:
            continue
        cells = []
        for cell in line.split(","):
            try:
                cells.append(int(cell))
            except ValueError:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
        rows.append(tuple(cells))
    return ResultTable(columns=columns, rows=rows, metadata=metadata)
