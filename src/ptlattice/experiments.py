"""The five experiment runners behind the command-line front end, and their charts.

Each runner takes a parsed ExperimentConfig and produces a ResultTable: the
arrays it computed, handed over as named columns, and metadata carrying the
resolved configuration, the package version, and any accuracy warnings.
evolve and multicross share one driven run, _driven, which launches band 1,
keeps the trace columns asked for and lists the power plateaus with their
two-mode predictions.  Sweep points are independent computations and run on
a process pool of min(jobs, rates) workers when that is above 1; output rows
keep grid order either way.
Analytic reference columns always come from the twomode module.

CHARTS declares each kind's SVG once: title, x column (also the x-axis
label), y label, log-x, and its lines as (legend, column, dashed).  Bands
add one line per band and multicross one dashed line per predicted plateau.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .dynamics import (
    POWER_HALVING_TOL,
    DriveParams,
    IntegratorConfig,
    _refined_probability,
    evolve,
    plateau_averages,
    prepare_band_state,
    transition_probability,
)
from .lattice import band_arrays, phase_of
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
    return {"config": cfg.doc, "version": __version__, "warnings": []}


def _traced_metadata(cfg: ExperimentConfig, trace) -> dict:
    """_base_metadata with a trace's warnings; the rest of its metadata goes under integration."""
    metadata = _base_metadata(cfg)
    metadata["warnings"] = list(trace.metadata["warnings"])
    metadata["integration"] = {k: v for k, v in trace.metadata.items() if k != "warnings"}
    return metadata


def run_bands(cfg: ExperimentConfig) -> ResultTable:
    """Band energies over a momentum grid: columns (q, band, energy_re, energy_im)."""
    q_grid = cfg.doc["q_grid"]
    grid = np.linspace(q_grid["start"], q_grid["stop"], q_grid["count"])
    # every band is solved once: the table keeps band_count of them, the
    # phase is classified over all; rows run over the bands of each q
    energies = band_arrays(cfg.lattice, grid, bands=()).energies
    count = cfg.doc["band_count"]
    energy = energies[:, :count].ravel()
    metadata = _base_metadata(cfg)
    label, max_imag = phase_of(cfg.lattice, energies)
    metadata["phase"] = label
    metadata["max_imag_energy"] = max_imag
    columns = {
        "q": np.repeat(grid, count),
        "band": np.tile(np.arange(1, count + 1), grid.size),
        "energy_re": energy.real,
        "energy_im": energy.imag,
    }
    return ResultTable(columns, metadata)


def _driven(cfg: ExperimentConfig, columns: tuple[str, ...]) -> tuple[ResultTable, list]:
    """Drive band 1: a table of the trace's columns, and its plateaus with two-mode predictions."""
    state = prepare_band_state(cfg.lattice, cfg.drive.q_start, 1)
    trace = evolve(state, cfg.lattice, cfg.drive, cfg.integrator)
    two = TwoModeParams.from_lattice(cfg.lattice, cfg.drive.rate)
    plateaus = []
    for n, mean_power in plateau_averages(trace).items():
        entry = {"crossings": n, "mean_power": mean_power}
        if n >= 1 and abs(two.skew) < two.coupling:
            entry["predicted_power"] = multicross_power(two.coupling, two.skew, two.rate, n)
        plateaus.append(entry)
    table = ResultTable({k: getattr(trace, k) for k in columns}, _traced_metadata(cfg, trace))
    return table, plateaus


def run_evolve(cfg: ExperimentConfig) -> ResultTable:
    """One driven run: columns (z, q, power, band1_prob, band2_prob)."""
    table, plateaus = _driven(cfg, ("z", "q", "power", "band1_prob", "band2_prob"))
    table.metadata["final_power"] = float(table.column("power")[-1])
    if plateaus and "predicted_power" in plateaus[-1]:
        table.metadata["predicted_terminal_power"] = plateaus[-1]["predicted_power"]
    return table


def run_multicross(cfg: ExperimentConfig) -> ResultTable:
    """Staircase run over >= 2 crossings: columns (z, q, power), plateau summary in metadata."""
    table, plateaus = _driven(cfg, ("z", "q", "power"))
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
    sweep = cfg.doc["sweep"]
    spaced = np.geomspace if sweep["spacing"] == "log" else np.linspace
    rates = spaced(sweep["rate_min"], sweep["rate_max"], sweep["count"])
    # the closed form raises outside the real-gap regime, before any propagation
    twos = [TwoModeParams.from_lattice(cfg.lattice, rate) for rate in rates.tolist()]
    analytic = np.array([lz_probability(two.coupling, two.skew, two.rate) for two in twos])
    jobs = [
        (cfg.lattice, DriveParams(float(rate), sweep["q_start"], sweep["q_stop"]), cfg.integrator)
        for rate in rates
    ]
    # a pool starts all its workers at once: at most one per rate
    workers = min(cfg.doc["jobs"], len(jobs))
    if workers > 1:
        # imported here, so a run without a pool does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_point, jobs))
    else:
        points = [_sweep_point(job) for job in jobs]
    numeric, halving = np.array(points).T
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
    t_max = cfg.doc["t_max"]
    span = None if t_max is None else (-t_max, t_max)
    trace = evolve_two_mode(cfg.twomode, t_span=span, config=cfg.integrator)
    a1_sq, a2_sq = np.abs(trace.a1) ** 2, np.abs(trace.a2) ** 2
    metadata = _traced_metadata(cfg, trace)
    tail1, tail2 = trace.tail_intensities()
    metadata["tail_intensities"] = {"a1_sq": tail1, "a2_sq": tail2}
    two = cfg.twomode
    if abs(two.skew) < two.coupling:
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


# kind: (title, x column and label, y label, log-x, lines as (legend, column, dashed))
_POWER = ("Beam power", "z", "power", False, (("power", "power", False),))
CHARTS = {
    "bands": ("Band structure", "q", "energy", False, ()),
    "evolve": _POWER,
    "sweep": ("Transition probability", "rate", "P", True,
              (("numeric", "p_numeric", False), ("two-mode theory", "p_analytic", True))),
    "multicross": _POWER,
    "twomode": ("Two-level sweep", "t", "intensity", False,
                (("|a1|^2", "a1_sq", False), ("|a2|^2", "a2_sq", False), ("power", "power", True))),
}


def render_chart(cfg: ExperimentConfig, table: ResultTable, path) -> None:
    """Draw the SVG companion of a result table, as CHARTS declares for its kind."""
    title, x_name, y_label, x_log, lines = CHARTS[cfg.kind]
    x = table.column(x_name)
    series = [Series(label, x, table.column(name), dashed) for label, name, dashed in lines]
    if cfg.kind == "bands":
        band, energy = table.column("band"), table.column("energy_re")
        series = [Series(f"band {b}", x[band == b], energy[band == b]) for b in np.unique(band)]
    for entry in table.metadata.get("plateaus", []):
        if "predicted_power" in entry:
            level = np.full(2, entry["predicted_power"])
            series.append(Series(f"plateau {entry['crossings']} theory", x[[0, -1]], level, True))
    render_line_chart(path, series, title=title, x_label=x_name, y_label=y_label, x_log=x_log)
