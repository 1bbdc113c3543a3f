"""Experiment configuration: one JSON document per run, parsed fail-fast.

Each kind is one table, {field: (checker, default)}, with nested sections as
nested tables.  One walker rejects unknown and missing fields, type-checks
every value (numbers finite, integers not booleans) and fills the defaults.
The filled document is what run outputs embed as metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dynamics import DriveParams, IntegratorConfig
from .errors import ConfigError, ParameterError
from .lattice import DEFAULT_L_MAX, LatticeParams
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
# type() and not isinstance(): JSON true/false are bools, and bool subclasses int
_count = _check(lambda v: type(v) is int and v >= 1, "a positive integer")

_LATTICE = {
    "v_real": (_number, _REQUIRED),
    "v_imag": (_number, _REQUIRED),
    "l_max": (_count, DEFAULT_L_MAX),
}
_DRIVE = {
    "rate": (_number, _REQUIRED),
    "q_start": (_number, _REQUIRED),
    "q_stop": (_number, _REQUIRED),
}
_INTEGRATOR = {
    "step": (_optional(_number), None),
    "sample_stride": (_optional(_count), None),
    "convergence_check": (_boolean, False),
}
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
        "integrator": (_INTEGRATOR, {}),
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
        "twomode": ({
            "coupling": (_number, _REQUIRED),
            "skew": (_number, _REQUIRED),
            "rate": (_number, _REQUIRED),
        }, _REQUIRED),
        "t_max": (_optional(_number), None),
        "integrator": (_INTEGRATOR, {}),
    },
}
KINDS = tuple(_SCHEMAS)

# filled sections that become typed parameter objects
_TYPED = {
    "lattice": LatticeParams,
    "drive": DriveParams,
    "integrator": IntegratorConfig,
    "twomode": TwoModeParams,
}


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
    if cfg.drive is not None and cfg.drive.rate == 0.0:
        raise ConfigError("drive.rate must be non-zero")
    if kind == "sweep" and (doc["sweep"]["rate_min"] <= 0 or doc["sweep"]["rate_max"] <= 0):
        raise ConfigError("sweep rates must be positive")
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)
