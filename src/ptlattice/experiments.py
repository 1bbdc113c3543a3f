"""The five experiment runners behind the command-line front end, and their charts.

Each runner takes a parsed ExperimentConfig and produces a ResultTable: the
arrays it computed, handed over as named columns, and metadata carrying the
resolved configuration, the package version, and any accuracy warnings.
evolve and multicross differ only in the columns they keep of one driven
run, _driven, which launches band 1 and records the final power and the
power plateaus with their two-mode predictions.  Sweep points are
independent computations: once every rate's grid is checked they run
costliest first in min(jobs, rates) processes, the calling one included,
each taking the next point until none is left (_fan_out).  Output rows
keep grid order either way.
Analytic reference columns always come from the twomode module.

CHARTS declares each kind's SVG once: title, x column (also the x-axis
label), y label, log-x, and its lines as (legend, column, dashed).  Bands
add one line per band, the driven kinds a dashed line per predicted plateau.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .dynamics import (
    DriveParams,
    _crossings_between,
    _halving_warnings,
    _lattice_grid,
    _overflow_raises,
    evolve,
    plateau_averages,
    prepare_band_state,
    transition_probability,
)
from .lattice import band_arrays, phase_of
from .results import ResultTable
from .svgplot import Series, render_line_chart
from .twomode import (
    _OVERFLOW_REMEDY,
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


def _driven(cfg: ExperimentConfig, columns: tuple[str, ...]) -> ResultTable:
    """Drive band 1: the trace's columns, final power and plateaus with two-mode predictions."""
    # first, so that a prediction beyond the float range raises before the march
    two = TwoModeParams.from_lattice(cfg.lattice, cfg.drive.rate)
    crossings = _crossings_between(cfg.drive.q_start, cfg.drive.q_stop)
    predicted = {n: multicross_power(two.coupling, two.skew, two.rate, n)
                 for n in range(1, crossings + 1)}
    state = prepare_band_state(cfg.lattice, cfg.drive.q_start, 1)
    trace = evolve(state, cfg.lattice, cfg.drive, cfg.integrator,
                   project="band1_prob" in columns)
    plateaus = []
    for n, mean_power in plateau_averages(trace).items():
        entry = {"crossings": n, "mean_power": mean_power}
        if n in predicted:
            entry["predicted_power"] = predicted[n]
        plateaus.append(entry)
    metadata = _traced_metadata(cfg, trace)
    metadata.update(final_power=float(trace.power[-1]), plateaus=plateaus)
    return ResultTable({k: getattr(trace, k) for k in columns}, metadata)


def run_evolve(cfg: ExperimentConfig) -> ResultTable:
    """One driven run: columns (z, q, power, band1_prob, band2_prob)."""
    return _driven(cfg, ("z", "q", "power", "band1_prob", "band2_prob"))


def run_multicross(cfg: ExperimentConfig) -> ResultTable:
    """Staircase run over >= 2 crossings: columns (z, q, power)."""
    return _driven(cfg, ("z", "q", "power"))


def _sweep_point(job) -> tuple[float, float]:
    """P at the configured step and, with convergence_check, |P - P at twice the table steps|."""
    lattice, drive, integrator = job
    p = transition_probability(lattice, drive, integrator.step)
    if not integrator.convergence_check:
        return p, 0.0
    return p, abs(transition_probability(lattice, drive, integrator.step, refine=2) - p)


def _pull(queue: list, counter) -> dict:
    """{index: point} of the (index, job) entries queue[k], for each k this process draws."""
    points = {}
    while True:
        with counter.get_lock():
            k = counter.value
            counter.value = k + 1
        if k >= len(queue):
            return points
        i, job = queue[k]
        points[i] = _sweep_point(job)


def _send_share(queue: list, counter, send) -> None:
    """A child's share of _fan_out: its {index: point}, or its exception, over send."""
    try:
        share = _pull(queue, counter)
    except Exception as exc:
        # past the end: every other process stops after its current point
        counter.value = len(queue)
        share = exc
    send.send(share)


def _fan_out(queue: list, workers: int) -> dict:
    """{index: point} of queue's (index, job) entries over workers processes, this one included.

    The workers - 1 children share a counter with this process; each process
    draws the next entry from it until the queue runs out, so with the
    queue costliest first a process slowed by the host takes fewer points.
    A child's exception is raised here with its type; a child that dies
    without sending raises ChildProcessError.  Every child is joined before
    this returns or raises.
    """
    # imported here, so a run in one process does not load multiprocessing
    import multiprocessing

    counter = multiprocessing.Value("q", 0)
    children, pipes, shares = [], [], []
    try:
        for _ in range(workers - 1):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_share,
                                            args=(queue, counter, send))
            try:
                child.start()
            finally:
                # the child holds the only send end left, so its death reads as EOF
                send.close()
            children.append(child)
            pipes.append(recv)
        points = _pull(queue, counter)
    except BaseException:
        counter.value = len(queue)
        raise
    finally:
        # read every pipe before joining: a child blocks on a full one
        for recv in pipes:
            try:
                shares.append(recv.recv())
            except EOFError:
                shares.append(None)
            recv.close()
        for child in children:
            child.join()
    for child, share in zip(children, shares):
        if isinstance(share, Exception):
            raise share
        if share is None:
            raise ChildProcessError(
                f"a sweep process exited with code {child.exitcode} before sending its points"
            )
        points.update(share)
    return points


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> ResultTable:
    """Transition probability over a rate grid: rate, p_numeric, p_analytic, abs_error."""
    sweep = cfg.doc["sweep"]
    spaced = np.geomspace if sweep["spacing"] == "log" else np.linspace
    rates = spaced(sweep["rate_min"], sweep["rate_max"], sweep["count"])
    twos = [TwoModeParams.from_lattice(cfg.lattice, rate) for rate in rates.tolist()]
    analytic = np.array([lz_probability(two.coupling, two.skew, two.rate) for two in twos])
    specs = [
        (cfg.lattice, DriveParams(float(rate), sweep["q_start"], sweep["q_stop"]), cfg.integrator)
        for rate in rates
    ]
    # every rate's grid is checked before any point marches; costliest first
    steps = [_lattice_grid(drive, cfg.integrator)[0] for _, drive, _ in specs]
    queue = sorted(enumerate(specs), key=lambda entry: -steps[entry[0]])
    workers = min(jobs, len(specs))
    if workers > 1:
        points = _fan_out(queue, workers)
    else:
        points = {i: _sweep_point(spec) for i, spec in queue}
    numeric, halving = np.array([points[i] for i in range(len(specs))]).T
    error = np.abs(numeric - analytic)
    metadata = _base_metadata(cfg)
    metadata["max_abs_error"] = float(error.max())
    if cfg.integrator.convergence_check:
        metadata["max_probability_halving_diff"] = float(halving.max())
        metadata["warnings"] = [
            f"rate {rate:.6g}: {warning}"
            for rate, diff in zip(rates.tolist(), halving.tolist())
            for warning in _halving_warnings("P", diff)
        ]
    columns = {"rate": rates, "p_numeric": numeric, "p_analytic": analytic, "abs_error": error}
    return ResultTable(columns, metadata)


def run_twomode(cfg: ExperimentConfig) -> ResultTable:
    """Two-level sweep: columns (t, a1_sq, a2_sq, power) plus analytic asymptotes."""
    t_max = cfg.doc["t_max"]
    span = None if t_max is None else (-t_max, t_max)
    trace = evolve_two_mode(cfg.twomode, t_span=span, config=cfg.integrator)
    with _overflow_raises(_OVERFLOW_REMEDY):
        a1_sq, a2_sq = np.abs(trace.a1) ** 2, np.abs(trace.a2) ** 2
        power = a1_sq + a2_sq
    metadata = _traced_metadata(cfg, trace)
    tail1, tail2 = trace.tail_intensities()
    metadata["tail_intensities"] = {"a1_sq": tail1, "a2_sq": tail2}
    two = cfg.twomode
    metadata["analytic"] = {
        "transition": lz_probability(two.coupling, two.skew, two.rate),
        "survival": lz_survival(two.coupling, two.skew, two.rate),
    }
    columns = {"t": trace.t, "a1_sq": a1_sq, "a2_sq": a2_sq, "power": power}
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
