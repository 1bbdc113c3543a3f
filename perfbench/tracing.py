"""Spans around the package's public functions, recorded from outside.

A traced run replaces each public name where its caller looks it up (module
attribute, class attribute or dispatch-table entry), records one span per
call (name, start, end, parent) in memory, and restores every name when it
ends.  Counts that only the return value knows, such as integration steps
or bytes written, are taken from it at the same boundary.

Spans recorded inside worker processes of a pool do not come back, so the
sweep workload is traced with one job.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent))
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Spans as TSV lines: id, name, start, end, parent (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                parent = -1 if s.parent is None else s.parent
                fh.write(f"{s.sid}\t{s.name}\t{s.start!r}\t{s.end!r}\t{parent}\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out


# ----------------------------------------------------------- patch points

def _count_evolve(counts, args, kwargs, trace):
    counts["dynamics.steps"] += trace.metadata["steps"]
    counts["dynamics.project_nan"] += int(
        sum(1 for v in trace.band1_prob if math.isnan(v))
        + sum(1 for v in trace.band2_prob if math.isnan(v))
    )


def _count_two_mode(counts, args, kwargs, trace):
    counts["twomode.steps"] += trace.metadata["steps"]


def _count_solver(counts, args, kwargs, result):
    params = args[0]
    solver = args[2] if len(args) > 2 else kwargs.get("solver", "auto")
    if solver == "auto":
        # the package's documented rule: symmetrize while v_real^2 > v_imag^2
        solver = "symmetric" if params.v_real**2 - params.v_imag**2 > 0 else "general"
    if solver == "general":
        counts["lattice.general_calls"] += 1


def _count_csv(counts, args, kwargs, path):
    counts["results.bytes"] += Path(path).stat().st_size


def _count_svg(counts, args, kwargs, result):
    counts["svgplot.bytes"] += Path(args[0]).stat().st_size


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the recorder's wrappers on the package for the duration of the block."""
    import ptlattice.cli as cli
    import ptlattice.dynamics as dynamics
    import ptlattice.experiments as experiments
    import ptlattice.lattice as lattice
    from ptlattice.results import ResultTable

    # (owner, attribute, span name, counter hook); evolve is looked up both by
    # the experiments runners and by transition_probability in dynamics
    points = [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "render_chart", "experiments.render_chart", None),
        (experiments, "evolve", "dynamics.evolve", _count_evolve),
        (dynamics, "evolve", "dynamics.evolve", _count_evolve),
        (dynamics, "project_onto_band", "dynamics.project_onto_band", None),
        (experiments, "transition_probability", "experiments.point", None),
        (experiments, "evolve_two_mode", "twomode.evolve_two_mode", _count_two_mode),
        (experiments, "render_line_chart", "svgplot.render_line_chart", _count_svg),
        (lattice, "eigensystem", "lattice.eigensystem", _count_solver),
        (lattice, "band_energies", "lattice.band_energies", _count_solver),
        (ResultTable, "write_csv", "results.write_csv", _count_csv),
    ]
    saved = []
    try:
        for owner, attr, name, hook in points:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, hook))
        runners = dict(cli.RUNNERS)
        for kind, fn in runners.items():
            cli.RUNNERS[kind] = recorder.wrap("experiments.run", fn)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        cli.RUNNERS.update(runners)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer totals of one traced workload run (seconds, counts, microseconds)."""
    selfs = self_times(recorder.spans)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    point_max = 0.0
    for s in recorder.spans:
        total[s.name] += s.duration
        own[s.name] += selfs[s.sid]
        calls[s.name] += 1
        if s.name == "experiments.point":
            point_max = max(point_max, s.duration)
    c = recorder.counts

    def per_call_us(seconds, n):
        return 1e6 * seconds / n if n else 0.0

    steps = c["dynamics.steps"]
    solver_calls = calls["lattice.eigensystem"] + calls["lattice.band_energies"]
    return {
        "cli.self_s": own["cli.main"],
        "config.load_s": total["config.load_config"],
        "experiments.self_s": own["experiments.run"] + own["experiments.render_chart"],
        "experiments.points": calls["experiments.point"],
        "experiments.point_s_max": point_max,
        "experiments.point_s_sum": total["experiments.point"],
        "dynamics.steps": steps,
        "dynamics.propagate_s": own["dynamics.evolve"],
        "dynamics.step_us": per_call_us(own["dynamics.evolve"], steps),
        "dynamics.project_calls": calls["dynamics.project_onto_band"],
        "dynamics.project_s": total["dynamics.project_onto_band"],
        "dynamics.project_us": per_call_us(total["dynamics.project_onto_band"],
                                           calls["dynamics.project_onto_band"]),
        "dynamics.project_nan": c["dynamics.project_nan"],
        "lattice.eig_calls": calls["lattice.eigensystem"],
        "lattice.eig_us": per_call_us(total["lattice.eigensystem"], calls["lattice.eigensystem"]),
        "lattice.energies_calls": calls["lattice.band_energies"],
        "lattice.energies_us": per_call_us(total["lattice.band_energies"],
                                           calls["lattice.band_energies"]),
        "lattice.general_share": c["lattice.general_calls"] / solver_calls if solver_calls else 0.0,
        "twomode.steps": c["twomode.steps"],
        "twomode.step_us": per_call_us(own["twomode.evolve_two_mode"], c["twomode.steps"]),
        "trace.remainder_s": (total["cli.main"] - own["dynamics.evolve"]
                              - total["dynamics.project_onto_band"]),
        "results.write_s": total["results.write_csv"],
        "results.bytes": c["results.bytes"],
        "svgplot.render_s": total["svgplot.render_line_chart"],
        "svgplot.bytes": c["svgplot.bytes"],
    }
