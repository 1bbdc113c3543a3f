"""The five experiment runners behind the command-line front end.

Each runner takes a parsed ExperimentConfig and produces a ResultTable: the
arrays it computed, handed over as named columns, and metadata carrying the
resolved configuration, the package version, and any accuracy warnings.
Sweep points are independent computations and run on a process pool when
jobs > 1; output rows keep grid order either way.  Analytic reference
columns always come from the twomode module.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .dynamics import (
    POWER_HALVING_TOL,
    DriveParams,
    IntegratorConfig,
    _crossings_between,
    _refined_probability,
    evolve,
    plateau_averages,
    prepare_band_state,
    transition_probability,
)
from .errors import ConfigError
from .lattice import band_structure, phase_of
from .results import ResultTable
from .svgplot import Series, render_line_chart
from .twomode import (
    TwoModeParams,
    evolve_two_mode,
    lz_probability,
    lz_survival,
    multicross_power,
)


def _base_metadata(cfg: ExperimentConfig) -> dict:
    return {"config": cfg.resolved(), "version": __version__, "warnings": []}


def run_bands(cfg: ExperimentConfig) -> ResultTable:
    """Band energies over a momentum grid: columns (q, band, energy_re, energy_im)."""
    if cfg.kind != "bands":
        raise ConfigError(f"run_bands got kind {cfg.kind!r}")
    q_grid = cfg.doc["q_grid"]
    grid = np.linspace(q_grid["start"], q_grid["stop"], q_grid["count"])
    # every band is solved once: the table keeps band_count of them, the
    # phase is classified over all; rows run over the bands of each q
    structure = band_structure(cfg.lattice, grid)
    count = cfg.doc["band_count"]
    energy = structure.energies[:count].T.ravel()
    metadata = _base_metadata(cfg)
    label, max_imag = phase_of(cfg.lattice, structure.energies)
    metadata["phase"] = label
    metadata["max_imag_energy"] = max_imag
    columns = {
        "q": np.repeat(structure.q_grid, count),
        "band": np.tile(np.arange(1, count + 1), grid.size),
        "energy_re": energy.real,
        "energy_im": energy.imag,
    }
    return ResultTable(columns, metadata)


def _trace_table(cfg: ExperimentConfig) -> tuple[ResultTable, object]:
    state = prepare_band_state(cfg.lattice, cfg.drive.q_start, 1)
    trace = evolve(state, cfg.lattice, cfg.drive, cfg.integrator)
    metadata = _base_metadata(cfg)
    metadata["warnings"] = list(trace.metadata.get("warnings", []))
    metadata["integration"] = {
        k: v for k, v in trace.metadata.items() if k != "warnings"
    }
    columns = {
        "z": trace.z,
        "q": trace.q,
        "power": trace.power,
        "band1_prob": trace.band1_prob,
        "band2_prob": trace.band2_prob,
    }
    return ResultTable(columns, metadata), trace


def run_evolve(cfg: ExperimentConfig) -> ResultTable:
    """One driven run: columns (z, q, power, band1_prob, band2_prob)."""
    if cfg.kind != "evolve":
        raise ConfigError(f"run_evolve got kind {cfg.kind!r}")
    table, trace = _trace_table(cfg)
    table.metadata["final_power"] = float(trace.power[-1])
    two = TwoModeParams.from_lattice(cfg.lattice, cfg.drive.rate)
    if abs(two.skew) < two.coupling:
        crossings = plateau_averages(trace)
        n = max(crossings) if crossings else 0
        if n >= 1:
            table.metadata["predicted_terminal_power"] = multicross_power(
                two.coupling, two.skew, two.rate, n
            )
    return table


def run_multicross(cfg: ExperimentConfig) -> ResultTable:
    """Staircase run over >= 2 crossings: columns (z, q, power), plateau summary in metadata."""
    if cfg.kind != "multicross":
        raise ConfigError(f"run_multicross got kind {cfg.kind!r}")
    if _crossings_between(cfg.drive.q_start, cfg.drive.q_stop) < 2:
        raise ConfigError("multicross drive must cross at least two odd-integer momenta")
    wide, trace = _trace_table(cfg)
    table = ResultTable({k: wide.column(k) for k in ("z", "q", "power")}, wide.metadata)
    two = TwoModeParams.from_lattice(cfg.lattice, cfg.drive.rate)
    plateaus = []
    for n, mean_power in plateau_averages(trace).items():
        entry = {"crossings": n, "mean_power": mean_power}
        if n >= 1 and abs(two.skew) < two.coupling:
            entry["predicted_power"] = multicross_power(two.coupling, two.skew, two.rate, n)
        plateaus.append(entry)
    table.metadata["plateaus"] = plateaus
    return table


def _sweep_point(job) -> tuple[float, float]:
    """P at the configured step and, with convergence_check, |P - P at twice the table steps|."""
    lattice, drive, integrator = job
    p = transition_probability(lattice, drive, IntegratorConfig(step=integrator.step))
    if not integrator.convergence_check:
        return p, 0.0
    return p, abs(_refined_probability(lattice, drive, integrator.step) - p)


def run_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Transition probability over a rate grid: rate, p_numeric, p_analytic, abs_error."""
    if cfg.kind != "sweep":
        raise ConfigError(f"run_sweep got kind {cfg.kind!r}")
    sweep = cfg.doc["sweep"]
    spaced = np.geomspace if sweep["spacing"] == "log" else np.linspace
    rates = spaced(sweep["rate_min"], sweep["rate_max"], sweep["count"])
    jobs = [
        (cfg.lattice, DriveParams(float(rate), sweep["q_start"], sweep["q_stop"]), cfg.integrator)
        for rate in rates
    ]
    if cfg.doc["jobs"] > 1:
        # imported here, so a run without a pool does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.doc["jobs"]) as pool:
            points = list(pool.map(_sweep_point, jobs))
    else:
        points = [_sweep_point(job) for job in jobs]
    numeric, halving = np.array(points).T
    twos = [TwoModeParams.from_lattice(cfg.lattice, rate) for rate in rates.tolist()]
    analytic = np.array([lz_probability(two.coupling, two.skew, two.rate) for two in twos])
    error = np.abs(numeric - analytic)
    metadata = _base_metadata(cfg)
    metadata["max_abs_error"] = float(error.max())
    if cfg.integrator.convergence_check:
        metadata["max_probability_halving_diff"] = float(halving.max())
        metadata["warnings"] = [
            f"rate {rate:.6g}: step too large: halving it changes P by {diff:.3e}"
            for rate, diff in zip(rates.tolist(), halving.tolist())
            if diff > POWER_HALVING_TOL
        ]
    columns = {"rate": rates, "p_numeric": numeric, "p_analytic": analytic, "abs_error": error}
    return ResultTable(columns, metadata)


def run_twomode(cfg: ExperimentConfig) -> ResultTable:
    """Two-level sweep: columns (t, a1_sq, a2_sq, power) plus analytic asymptotes."""
    if cfg.kind != "twomode":
        raise ConfigError(f"run_twomode got kind {cfg.kind!r}")
    t_max = cfg.doc["t_max"]
    span = None if t_max is None else (-t_max, t_max)
    trace = evolve_two_mode(cfg.twomode, t_span=span, config=cfg.integrator)
    a1_sq, a2_sq = np.abs(trace.a1) ** 2, np.abs(trace.a2) ** 2
    metadata = _base_metadata(cfg)
    metadata["warnings"] = list(trace.metadata.get("warnings", []))
    tail1, tail2 = trace.tail_intensities()
    metadata["tail_intensities"] = {"a1_sq": tail1, "a2_sq": tail2}
    two = cfg.twomode
    if abs(two.skew) < two.coupling and two.rate != 0:
        metadata["analytic"] = {
            "transition": lz_probability(two.coupling, two.skew, two.rate),
            "survival": lz_survival(two.coupling, two.skew, two.rate),
        }
    columns = {"t": trace.t, "a1_sq": a1_sq, "a2_sq": a2_sq, "power": a1_sq + a2_sq}
    return ResultTable(columns, metadata)


RUNNERS = {
    "bands": run_bands,
    "evolve": run_evolve,
    "sweep": run_sweep,
    "multicross": run_multicross,
    "twomode": run_twomode,
}


def render_chart(cfg: ExperimentConfig, table: ResultTable, path) -> None:
    """Draw the SVG companion of a result table, axes matching the run kind."""
    kind = cfg.kind
    if kind == "bands":
        q = table.column("q")
        bands = table.column("band")
        energy = table.column("energy_re")
        series = [
            Series(f"band {b}", q[bands == b], energy[bands == b])
            for b in np.unique(bands)
        ]
        render_line_chart(path, series, title="Band structure", x_label="q", y_label="energy")
    elif kind in ("evolve", "multicross"):
        series = [Series("power", table.column("z"), table.column("power"))]
        plateaus = table.metadata.get("plateaus", [])
        z = table.column("z")
        for entry in plateaus:
            if "predicted_power" in entry:
                level = entry["predicted_power"]
                series.append(
                    Series(
                        f"plateau {entry['crossings']} theory",
                        np.array([z[0], z[-1]]),
                        np.array([level, level]),
                        dashed=True,
                    )
                )
        render_line_chart(path, series, title="Beam power", x_label="z", y_label="power")
    elif kind == "sweep":
        rate = table.column("rate")
        series = [
            Series("numeric", rate, table.column("p_numeric")),
            Series("two-mode theory", rate, table.column("p_analytic"), dashed=True),
        ]
        render_line_chart(
            path, series, title="Transition probability", x_label="rate",
            y_label="P", x_log=True,
        )
    else:
        t = table.column("t")
        series = [
            Series("|a1|^2", t, table.column("a1_sq")),
            Series("|a2|^2", t, table.column("a2_sq")),
            Series("power", t, table.column("power"), dashed=True),
        ]
        render_line_chart(path, series, title="Two-level sweep", x_label="t", y_label="intensity")
