"""Tabular run results and their on-disk CSV form.

A ResultTable holds named 1-D numpy columns of equal length, in output
order, plus a metadata dict.  A result file is UTF-8 CSV whose first line is
a '#'-prefixed JSON object carrying the fully resolved configuration and any
accuracy warnings; the second line names the columns.  Each cell is the str
of the column's Python value (repr for floats), so identical runs produce
byte-identical files.  A run of equal cells in a column is formatted once and
its text repeated, with the same bytes; a bands table repeats each momentum
once per band.  Distinct floats set the floor: about 0.7 us per cell for
float.__repr__, and 1.1 us for numpy's astype(str), which gives the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# rows formatted at once; bounds the memory of the text being written
_BLOCK_ROWS = 4096


@dataclass
class ResultTable:
    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = {name: np.asarray(values) for name, values in self.columns.items()}
        shapes = {values.shape for values in self.columns.values()}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError("columns must be 1-D and of equal length")

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def rows(self) -> list[tuple]:
        """The table as tuples of Python scalars, one per row."""
        return list(zip(*(values.tolist() for values in self.columns.values())))

    def write_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", encoding="utf-8") as f:
            f.write("# " + json.dumps(self.metadata, sort_keys=True, separators=(",", ":")) + "\n")
            f.write(",".join(self.columns) + "\n")
            count = len(next(iter(self.columns.values()), ()))
            for i in range(0, count, _BLOCK_ROWS):
                cells = [_cells(v[i : i + _BLOCK_ROWS]) for v in self.columns.values()]
                f.write("\n".join(map(",".join, zip(*cells))) + "\n")
        return path


def _cells(values: np.ndarray) -> list[str]:
    """Each value's str (repr for floats), formatted once per run of equal values.

    Runs are stretches of equal bytes, not of == values: 0.0 == -0.0 prints
    two ways, and nan != nan prints one.  Object columns hold references, not
    bytes, and take the plain map, as does a block without repeats.
    """
    if not values.dtype.hasobject:
        bits = values.view(f"V{values.itemsize}")
        first = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
        if len(first) < len(values):
            texts = np.array(list(map(str, values[first].tolist())), dtype=object)
            return np.repeat(texts, np.diff(first, append=len(values))).tolist()
    return list(map(str, values.tolist()))


def _parse_column(cells: list[str]) -> np.ndarray:
    """Integers if every cell is one, else floats if every cell is one, else text."""
    for kind in (int, float):
        try:
            return np.array([kind(cell) for cell in cells])
        except ValueError:
            pass
    return np.array(cells)


def load_csv(path) -> ResultTable:
    """Parse a file written by ResultTable.write_csv."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if len(text) < 2 or not text[0].startswith("#"):
        raise ValueError(f"{path}: missing metadata header line or column header row")
    metadata = json.loads(text[0].lstrip("#").strip())
    names = text[1].split(",")
    rows = [line.split(",") for line in text[2:] if line]
    if any(len(row) != len(names) for row in rows):
        raise ValueError(f"{path}: rows must match the column count")
    cells = zip(*rows) if rows else [[] for _ in names]
    return ResultTable({name: _parse_column(list(c)) for name, c in zip(names, cells)}, metadata)
