"""Experiment configuration: one JSON document per run, parsed fail-fast.

Each kind is one table, {field: (checker, default)}, with nested sections as
nested tables; the lattice, drive, integrator and twomode tables are read off
the fields of the dataclasses those sections become.  One walker rejects
unknown and missing fields, type-checks every value (numbers finite, integers
not booleans) and fills the defaults, and the dataclasses check the ranges.
The filled document is what run outputs embed as metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .dynamics import DriveParams, IntegratorConfig
from .errors import ConfigError, ParameterError
from .lattice import LatticeParams, _is_integer
from .twomode import TwoModeParams

# default marker of a field that must be given
_REQUIRED = object()


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value}")
    return float(value)


def _check(test, label: str):
    """Checker that passes the values for which test(value) holds."""
    def check(value, where: str):
        if not test(value):
            raise ConfigError(f"{where}: expected {label}")
        return value
    return check


def _optional(check):
    """Checker that also accepts null."""
    return lambda value, where: None if value is None else check(value, where)


_boolean = _check(lambda v: isinstance(v, bool), "a boolean")
_string = _check(lambda v: isinstance(v, str), "a string")
_count = _check(lambda v: _is_integer(v) and v >= 1, "a positive integer")

# filled sections that become typed parameter objects; each one's field table
# is read off its dataclass: the annotation picks the checker, and the default
# (if any) is the section default.  The parameter modules keep `from __future__
# import annotations`, so a field's type is its annotation string.
_TYPED = {"lattice": LatticeParams, "drive": DriveParams,
          "integrator": IntegratorConfig, "twomode": TwoModeParams}
_ANNOTATED = {"float": _number, "int": _count, "bool": _boolean,
              "float | None": _optional(_number), "int | None": _optional(_count)}
_LATTICE, _DRIVE, _INTEGRATOR, _TWOMODE = (
    {f.name: (_ANNOTATED[f.type], _REQUIRED if f.default is MISSING else f.default)
     for f in fields(cls)}
    for cls in _TYPED.values()
)

_COMMON = {
    "kind": (_string, _REQUIRED),
    "jobs": (_count, 1),
    "svg": (_boolean, False),
    "out": (_optional(_string), None),
}
_DRIVEN = _COMMON | {
    "lattice": (_LATTICE, _REQUIRED),
    "drive": (_DRIVE, _REQUIRED),
    "integrator": (_INTEGRATOR, {}),
}

# one field table per kind; the table order is the order of the filled document
_SCHEMAS = {
    "bands": _COMMON | {
        "lattice": (_LATTICE, _REQUIRED),
        "q_grid": ({
            "start": (_number, _REQUIRED),
            "stop": (_number, _REQUIRED),
            "count": (_count, _REQUIRED),
        }, _REQUIRED),
        "band_count": (_count, 4),
    },
    "evolve": _DRIVEN,
    "sweep": _COMMON | {
        "lattice": (_LATTICE, _REQUIRED),
        # each sweep point samples only the two ends of its run
        "integrator": ({k: v for k, v in _INTEGRATOR.items() if k != "sample_stride"}, {}),
        "sweep": ({
            "rate_min": (_number, _REQUIRED),
            "rate_max": (_number, _REQUIRED),
            "count": (_count, _REQUIRED),
            "spacing": (_check(lambda v: v in ("log", "linear"), "'log' or 'linear'"), "log"),
            "q_start": (_number, _REQUIRED),
            "q_stop": (_number, _REQUIRED),
        }, _REQUIRED),
    },
    "multicross": _DRIVEN,
    "twomode": _COMMON | {
        "twomode": (_TWOMODE, _REQUIRED),
        "t_max": (_optional(_number), None),
        "integrator": (_INTEGRATOR, {}),
    },
}
KINDS = tuple(_SCHEMAS)


def _walk(table: dict, raw, where: str) -> dict:
    """Check raw against a field table; return it filled with defaults, in table order."""
    name = where or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"{name}: unknown field(s) {sorted(unknown)}")
    missing = [k for k, (_, default) in table.items() if default is _REQUIRED and k not in raw]
    if missing:
        raise ConfigError(f"{name}: missing required field(s) {missing}")
    filled = {}
    for key, (check, default) in table.items():
        value = raw.get(key, default)
        path = f"{where}.{key}" if where else key
        filled[key] = _walk(check, value, path) if isinstance(check, dict) else check(value, path)
    return filled


@dataclass
class ExperimentConfig:
    """A parsed run: the filled document and the typed objects built from its sections.

    The command line writes its jobs, svg and out overrides into doc.
    """

    doc: dict
    lattice: LatticeParams | None = None
    drive: DriveParams | None = None
    integrator: IntegratorConfig | None = None
    twomode: TwoModeParams | None = None

    @property
    def kind(self) -> str:
        return self.doc["kind"]

    def resolved(self) -> dict:
        """Full configuration, defaults included, for output metadata."""
        return {**self.doc, "out": self.doc["out"] or self.kind}


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    doc = _walk(_SCHEMAS[kind], doc, "")

    typed = {}
    for name, build in _TYPED.items():
        if name in doc:
            try:
                typed[name] = build(**doc[name])
            except ParameterError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    cfg = ExperimentConfig(doc, **typed)

    if kind == "bands" and doc["band_count"] > cfg.lattice.size:
        raise ConfigError(f"band_count: expected an integer in 1..{cfg.lattice.size}")
    if kind == "sweep" and (doc["sweep"]["rate_min"] <= 0 or doc["sweep"]["rate_max"] <= 0):
        raise ConfigError("sweep rates must be positive")
    return cfg


def load_config(source) -> ExperimentConfig:
    """Parse the JSON config file at source, or the bundled preset named source (fig3, ...)."""
    path = Path(source)
    if not path.exists():
        presets = resources.files("ptlattice").joinpath("presets")
        found = [p for p in (presets / str(source), presets / f"{source}.json") if p.is_file()]
        if not found:
            raise ConfigError(f"config not found: {source!r} is neither a file nor a bundled preset")
        path = found[0]
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)
