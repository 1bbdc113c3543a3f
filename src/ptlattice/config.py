"""Experiment configuration: one JSON document per run, parsed fail-fast.

Unknown fields anywhere in the document are errors.  The fully resolved
configuration (defaults included) is what run outputs embed as metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DriveParams, IntegratorConfig
from .errors import ConfigError, ParameterError
from .lattice import DEFAULT_L_MAX, LatticeParams
from .twomode import TwoModeParams

KINDS = ("bands", "evolve", "sweep", "multicross", "twomode")


def _section(raw: dict, name: str, allowed: dict, where: str) -> dict:
    """Validate keys of a config section against {key: required} and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = [k for k, required in allowed.items() if required and k not in raw]
    if missing:
        raise ConfigError(f"{where}: missing required field(s) {missing}")
    return raw


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value}")
    return float(value)


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def values(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.start, self.stop, self.count)
        if self.spacing == "log":
            if self.start <= 0 or self.stop <= 0:
                raise ConfigError("log spacing needs positive endpoints")
            return np.geomspace(self.start, self.stop, self.count)
        raise ConfigError(f"unknown spacing {self.spacing!r}")


def _parse_grid(raw: dict, where: str, allow_log: bool = False) -> GridSpec:
    fields = {"start": True, "stop": True, "count": True}
    if allow_log:
        fields["spacing"] = False
    raw = _section(raw, where, fields, where)
    count = raw["count"]
    if not isinstance(count, int) or count < 1:
        raise ConfigError(f"{where}.count: expected a positive integer")
    return GridSpec(
        start=_number(raw["start"], f"{where}.start"),
        stop=_number(raw["stop"], f"{where}.stop"),
        count=count,
        spacing=raw.get("spacing", "log" if allow_log else "linear"),
    )


@dataclass
class ExperimentConfig:
    kind: str
    lattice: LatticeParams | None = None
    drive: DriveParams | None = None
    integrator: IntegratorConfig = IntegratorConfig()
    q_grid: GridSpec | None = None
    rate_grid: GridSpec | None = None
    sweep_span: tuple[float, float] | None = None
    twomode: TwoModeParams | None = None
    t_max: float | None = None
    band_count: int = 4
    jobs: int = 1
    svg: bool = False
    out: str | None = None

    def resolved(self) -> dict:
        """Full configuration, defaults included, for output metadata."""
        doc: dict = {"kind": self.kind, "jobs": self.jobs, "svg": self.svg,
                     "out": self.out or self.kind}
        if self.lattice is not None:
            doc["lattice"] = {
                "v_real": self.lattice.v_real,
                "v_imag": self.lattice.v_imag,
                "l_max": self.lattice.l_max,
            }
        if self.drive is not None:
            doc["drive"] = {
                "rate": self.drive.rate,
                "q_start": self.drive.q_start,
                "q_stop": self.drive.q_stop,
            }
        if self.kind in ("evolve", "sweep", "multicross"):
            doc["integrator"] = {
                "step": self.integrator.step,
                "sample_stride": self.integrator.sample_stride,
                "convergence_check": self.integrator.convergence_check,
            }
        if self.q_grid is not None:
            doc["q_grid"] = {
                "start": self.q_grid.start, "stop": self.q_grid.stop, "count": self.q_grid.count,
            }
            doc["band_count"] = self.band_count
        if self.rate_grid is not None:
            doc["sweep"] = {
                "rate_min": self.rate_grid.start,
                "rate_max": self.rate_grid.stop,
                "count": self.rate_grid.count,
                "spacing": self.rate_grid.spacing,
                "q_start": self.sweep_span[0],
                "q_stop": self.sweep_span[1],
            }
        if self.twomode is not None:
            doc["twomode"] = {
                "coupling": self.twomode.coupling,
                "skew": self.twomode.skew,
                "rate": self.twomode.rate,
                "detuning_offset": self.twomode.detuning_offset,
            }
            doc["t_max"] = self.t_max
        return doc


def _parse_lattice(raw: dict) -> LatticeParams:
    raw = _section(raw, "lattice", {"v_real": True, "v_imag": True, "l_max": False}, "lattice")
    l_max = raw.get("l_max", DEFAULT_L_MAX)
    if not isinstance(l_max, int):
        raise ConfigError("lattice.l_max: expected an integer")
    try:
        return LatticeParams(
            v_real=_number(raw["v_real"], "lattice.v_real"),
            v_imag=_number(raw["v_imag"], "lattice.v_imag"),
            l_max=l_max,
        )
    except ParameterError as exc:
        raise ConfigError(f"lattice: {exc}") from exc


def _parse_drive(raw: dict, need_rate: bool = True) -> DriveParams:
    fields = {"rate": need_rate, "q_start": True, "q_stop": True}
    raw = _section(raw, "drive", fields, "drive")
    try:
        return DriveParams(
            rate=_number(raw.get("rate", 1.0), "drive.rate"),
            q_start=_number(raw["q_start"], "drive.q_start"),
            q_stop=_number(raw["q_stop"], "drive.q_stop"),
        )
    except ParameterError as exc:
        raise ConfigError(f"drive: {exc}") from exc


def _parse_integrator(raw: dict) -> IntegratorConfig:
    raw = _section(
        raw, "integrator",
        {"step": False, "sample_stride": False, "convergence_check": False},
        "integrator",
    )
    step = raw.get("step")
    if step is not None:
        step = _number(step, "integrator.step")
    stride = raw.get("sample_stride")
    if stride is not None and (not isinstance(stride, int) or stride < 1):
        raise ConfigError("integrator.sample_stride: expected a positive integer")
    check = raw.get("convergence_check", False)
    if not isinstance(check, bool):
        raise ConfigError("integrator.convergence_check: expected a boolean")
    try:
        return IntegratorConfig(step=step, sample_stride=stride, convergence_check=check)
    except ParameterError as exc:
        raise ConfigError(f"integrator: {exc}") from exc


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")

    top = {"kind": True, "out": False, "svg": False, "jobs": False}
    if kind == "bands":
        top |= {"lattice": True, "q_grid": True, "band_count": False}
    elif kind in ("evolve", "multicross"):
        top |= {"lattice": True, "drive": True, "integrator": False}
    elif kind == "sweep":
        top |= {"lattice": True, "sweep": True, "integrator": False}
    else:  # twomode
        top |= {"twomode": True, "t_max": False}
    doc = _section(doc, "config", top, "config")

    cfg = ExperimentConfig(kind=kind)
    cfg.out = doc.get("out")
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError("out: expected a string")
    svg = doc.get("svg", False)
    if not isinstance(svg, bool):
        raise ConfigError("svg: expected a boolean")
    cfg.svg = svg
    jobs = doc.get("jobs", 1)
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError("jobs: expected a positive integer")
    cfg.jobs = jobs

    if kind == "bands":
        cfg.lattice = _parse_lattice(doc["lattice"])
        cfg.q_grid = _parse_grid(doc["q_grid"], "q_grid")
        band_count = doc.get("band_count", 4)
        if not isinstance(band_count, int) or not 1 <= band_count <= cfg.lattice.size:
            raise ConfigError(f"band_count: expected an integer in 1..{cfg.lattice.size}")
        cfg.band_count = band_count
    elif kind in ("evolve", "multicross"):
        cfg.lattice = _parse_lattice(doc["lattice"])
        cfg.drive = _parse_drive(doc["drive"])
        if cfg.drive.rate == 0.0:
            raise ConfigError("drive.rate must be non-zero")
        cfg.integrator = _parse_integrator(doc.get("integrator", {}))
    elif kind == "sweep":
        cfg.lattice = _parse_lattice(doc["lattice"])
        raw = _section(
            doc["sweep"], "sweep",
            {"rate_min": True, "rate_max": True, "count": True, "spacing": False,
             "q_start": True, "q_stop": True},
            "sweep",
        )
        count = raw["count"]
        if not isinstance(count, int) or count < 1:
            raise ConfigError("sweep.count: expected a positive integer")
        cfg.rate_grid = GridSpec(
            start=_number(raw["rate_min"], "sweep.rate_min"),
            stop=_number(raw["rate_max"], "sweep.rate_max"),
            count=count,
            spacing=raw.get("spacing", "log"),
        )
        if cfg.rate_grid.start <= 0 or cfg.rate_grid.stop <= 0:
            raise ConfigError("sweep rates must be positive")
        cfg.sweep_span = (
            _number(raw["q_start"], "sweep.q_start"),
            _number(raw["q_stop"], "sweep.q_stop"),
        )
        cfg.integrator = _parse_integrator(doc.get("integrator", {}))
    else:
        raw = _section(
            doc["twomode"], "twomode",
            {"coupling": True, "skew": True, "rate": True, "detuning_offset": False},
            "twomode",
        )
        try:
            cfg.twomode = TwoModeParams(
                coupling=_number(raw["coupling"], "twomode.coupling"),
                skew=_number(raw["skew"], "twomode.skew"),
                rate=_number(raw["rate"], "twomode.rate"),
                detuning_offset=_number(raw.get("detuning_offset", 0.0), "twomode.detuning_offset"),
            )
        except ParameterError as exc:
            raise ConfigError(f"twomode: {exc}") from exc
        if doc.get("t_max") is not None:
            cfg.t_max = _number(doc["t_max"], "t_max")
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
