"""The four benchmark workloads: seeded configs, output checks, reference error.

Each workload turns a seed into a set of named config documents, one CLI
operation each.  The jitter stays inside regimes where the checks hold, so
that a correct package fails no operation.  v_real is the paper's 0.2 in
every lattice; the seed moves v_imag inside its phase, the two-level
couplings and the grid ends.  Drive rates, steps and grid sizes stay fixed,
so every seed asks for the same amount of work.

For every operation a workload also says which outputs are its headline
numbers, how to compute them from an independent converged reference, and
which correctness checks the output has to pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

V_REAL = 0.2
# worker processes of the sweep pool: the core count of the 2-CPU machine
# the benchmark was sized on, fixed so that runs elsewhere do the same work
SWEEP_JOBS = 2


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return value * (1.0 + share * rng.uniform(-1.0, 1.0))


def _finite_rows(table) -> list[str]:
    for row in table.rows:
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                return [f"non-finite output cell in row {row}"]
    return []


def _within(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------- staircase

STAIRCASE_STEP = 0.01       # RK4-stable at l_max 6 up to |q| = 4
STAIRCASE_STRIDE = 65       # ~200 samples, each projected on two bands
STAIRCASE_REF_STEP = 0.005


def _staircase_configs(rng: random.Random) -> dict[str, dict]:
    docs = {}
    for phase in ("unbroken", "critical"):
        for direction, sign in (("fwd", 1.0), ("rev", -1.0)):
            if phase == "unbroken":
                v_imag = _jitter(rng, 0.15, 0.1)
            else:
                v_imag = V_REAL - _jitter(rng, 1e-7, 0.5)
            docs[f"{phase}_{direction}"] = {
                "kind": "multicross",
                "lattice": {"v_real": V_REAL, "v_imag": v_imag, "l_max": 6},
                "drive": {"rate": sign * 0.03, "q_start": 0.0, "q_stop": sign * 3.9},
                "integrator": {"step": STAIRCASE_STEP, "sample_stride": STAIRCASE_STRIDE},
            }
    return docs


def _plateau_members(q: np.ndarray) -> dict[int, np.ndarray]:
    """Sample masks per plateau, by the package's documented plateau rule.

    A sample sits on a plateau when its momentum is more than 0.5 from every
    odd integer; its plateau is the number of odd integers passed since q[0].
    """
    nearest_odd = 2.0 * np.round((q - 1.0) / 2.0) + 1.0
    flat = np.abs(q - nearest_odd) > 0.5
    odd = np.arange(math.floor(q.min()) - 1, math.ceil(q.max()) + 2)
    odd = odd[odd % 2 != 0]
    lo, hi = np.minimum(q[0], q)[:, None], np.maximum(q[0], q)[:, None]
    crossings = np.sum((lo < odd) & (odd < hi), axis=1)
    return {int(n): flat & (crossings == n) for n in np.unique(crossings[flat])}


def _staircase_check(name, doc, table) -> list[str]:
    failures = _finite_rows(table)
    plateaus = {e["crossings"]: e for e in table.metadata["plateaus"]}
    for n in (1, 2):
        entry = plateaus.get(n)
        if entry is None or "predicted_power" not in entry:
            failures.append(f"plateau {n} missing or without a prediction")
        elif not _within(entry["mean_power"], entry["predicted_power"], 0.1):
            failures.append(
                f"plateau {n}: {entry['mean_power']:.4f} vs multicross_power "
                f"{entry['predicted_power']:.4f} (10%)"
            )
    return failures


def _staircase_reference(doc, table) -> dict[str, np.ndarray]:
    lat, drive = doc["lattice"], doc["drive"]
    powers = reference.lattice_powers(
        lat["v_real"], lat["v_imag"], lat["l_max"], drive["q_start"], drive["rate"],
        table.column("z"), STAIRCASE_REF_STEP,
    )
    return {"power": powers}


def _staircase_error(doc, table, ref) -> float:
    members = _plateau_members(table.column("q"))
    ref_power = ref["power"]
    devs = [abs(table.column("power")[-1] - ref_power[-1])]
    for entry in table.metadata["plateaus"]:
        mask = members[entry["crossings"]]
        devs.append(abs(entry["mean_power"] - float(np.mean(ref_power[mask]))))
    return max(devs)


def critical_reverse_deviation(table) -> float:
    """max |power - 1| past the first crossing of a reverse critical drive.

    The two-level theory predicts exactly 1; the lattice settles near 0.9905.
    Reported, never gated.
    """
    q, p = table.column("q"), table.column("power")
    nearest_odd = 2.0 * np.round((q - 1.0) / 2.0) + 1.0
    sel = (np.abs(q) > 1.5) & (np.abs(q - nearest_odd) > 0.5)
    return float(np.max(np.abs(p[sel] - 1.0)))


# --------------------------------------------------------------- rate_sweep

SWEEP_REF_STEP = 0.00125


def _sweep_configs(rng: random.Random) -> dict[str, dict]:
    docs = {}
    for name, v_imag in (("hermitian", 0.0),
                         ("unbroken", _jitter(rng, 0.15, 0.05)),
                         ("near_critical", _jitter(rng, 0.19, 0.02))):
        docs[name] = {
            "kind": "sweep",
            "lattice": {"v_real": V_REAL, "v_imag": v_imag, "l_max": 12},
            "sweep": {"rate_min": 0.03, "rate_max": 0.3, "count": 4, "spacing": "log",
                      "q_start": 0.0, "q_stop": 1.8},
        }
    return docs


def _sweep_check(name, doc, table) -> list[str]:
    from ptlattice.twomode import lz_probability

    failures = _finite_rows(table)
    lat = doc["lattice"]
    worst = 0.0
    for rate, p_num, p_ref, err in table.rows:
        closed = lz_probability(2.0 * lat["v_real"], 2.0 * lat["v_imag"], 4.0 * rate)
        if abs(p_ref - closed) > 1e-12 or abs(err - abs(p_num - p_ref)) > 1e-12:
            failures.append(f"rate {rate}: analytic column disagrees with the closed form")
        worst = max(worst, abs(p_num - closed))
    if worst > 0.03 or table.metadata["max_abs_error"] > 0.03:
        failures.append(f"max |P_numeric - P_closed| = {worst:.4f} exceeds 0.03")
    return failures


def _sweep_reference(doc, table) -> dict[str, np.ndarray]:
    lat, sweep = doc["lattice"], doc["sweep"]
    p = [
        reference.lattice_transition(lat["v_real"], lat["v_imag"], lat["l_max"],
                                     sweep["q_start"], sweep["q_stop"], rate, SWEEP_REF_STEP)
        for rate in table.column("rate")
    ]
    return {"p": np.array(p)}


def _sweep_error(doc, table, ref) -> float:
    return float(np.max(np.abs(table.column("p_numeric") - ref["p"])))


# ---------------------------------------------------------------- band_scan

BAND_L_MAX = 16
# extra modes per side of the reference basis; truncation error of the
# top bands dominates the deviation, well above eigensolver roundoff
BAND_REF_EXTRA = 16


def _band_configs(rng: random.Random) -> dict[str, dict]:
    docs = {}
    # the top bands' truncation error scales with |v_real^2 - v_imag^2|: a
    # small jitter keeps the reference deviation comparable between seeds
    for name, v_imag in (("unbroken", _jitter(rng, 0.15, 0.01)),
                         ("critical", V_REAL),
                         ("broken", _jitter(rng, 0.3, 0.01))):
        docs[name] = {
            "kind": "bands",
            "lattice": {"v_real": V_REAL, "v_imag": v_imag, "l_max": BAND_L_MAX},
            "q_grid": {"start": -2.0 + 0.02 * rng.uniform(-1.0, 1.0),
                       "stop": 2.0 + 0.02 * rng.uniform(-1.0, 1.0), "count": 801},
            "band_count": 2 * BAND_L_MAX + 1,
        }
    return docs


def _band_check(name, doc, table) -> list[str]:
    from ptlattice.lattice import LatticeParams, band_energies

    failures = _finite_rows(table)
    phase = table.metadata["phase"]
    if phase != name:
        failures.append(f"phase label {phase!r}, expected {name!r}")
    if name == "unbroken":
        if np.max(np.abs(table.column("energy_im"))) > 1e-9:
            failures.append("complex energy in the unbroken phase")
        lat = doc["lattice"]
        params = LatticeParams(lat["v_real"], lat["v_imag"], lat["l_max"])
        q = np.unique(table.column("q"))
        for qi in q[:: max(1, q.size // 8)]:
            sym = band_energies(params, float(qi), solver="symmetric")
            gen = band_energies(params, float(qi), solver="general")
            dev = float(np.max(np.abs(sym - gen) / np.maximum(1.0, np.abs(sym))))
            if dev > 1e-9:
                failures.append(f"q={qi}: symmetric and general solvers differ by {dev:.2e}")
    return failures


def _band_grid(table) -> tuple[np.ndarray, np.ndarray]:
    """Energies as a (q, band) matrix from the long-format table."""
    q = table.column("q")
    energy = table.column("energy_re") + 1j * table.column("energy_im")
    bands = int(np.max(table.column("band")))
    return q[::bands], energy.reshape(-1, bands)


def _band_reference(doc, table) -> dict[str, np.ndarray]:
    lat = doc["lattice"]
    q, _ = _band_grid(table)
    big = lat["l_max"] + BAND_REF_EXTRA
    return {"energies": np.array([
        reference.band_energies(lat["v_real"], lat["v_imag"], big, qi) for qi in q
    ])}


def _band_error(doc, table, ref) -> float:
    _, energies = _band_grid(table)
    # nearest reference level: the larger basis interleaves extra levels
    dist = np.abs(energies[:, :, None] - ref["energies"][:, None, :])
    return float(np.max(np.min(dist, axis=2)))


# ---------------------------------------------------------------- lz_oracle

TAIL_FRACTION = 0.05        # the package's tail-intensity window
LZ_REF_STEP = 0.01


def _lz_configs(rng: random.Random) -> dict[str, dict]:
    docs = {}
    for name, ratio, rate in (("loss_fast", -0.75, 0.12), ("loss_slow", -0.75, 0.06),
                              ("gain_fast", 0.75, 0.12), ("gain_slow", 0.75, 0.06),
                              ("critical", 1.0, 0.12)):
        # the RK4 drift behind the reference deviation grows with the coupling
        coupling = _jitter(rng, 0.4, 0.01)
        skew = coupling if ratio == 1.0 else _jitter(rng, ratio, 0.05) * coupling
        docs[name] = {"kind": "twomode",
                      "twomode": {"coupling": coupling, "skew": skew, "rate": rate}}
    return docs


def _lz_check(name, doc, table) -> list[str]:
    from ptlattice.twomode import critical_survival, lz_probability, lz_survival

    failures = _finite_rows(table)
    p = doc["twomode"]
    c, s, r = p["coupling"], p["skew"], p["rate"]
    tails = table.metadata["tail_intensities"]
    got = (tails["a1_sq"], tails["a2_sq"])
    if s == c:
        want = critical_survival(c, r)
        if not _within(got[0], want, 0.02):
            failures.append(f"critical survival {got[0]:.4f} vs {want:.4f} (2%)")
        return failures
    for label, g, w in (("survival", got[0], lz_survival(c, s, r)),
                        ("transition", got[1], lz_probability(c, s, r))):
        if not (_within(g, w, 0.02) or (w < 0.1 and abs(g - w) <= 0.005)):
            failures.append(f"{label} {g:.4f} vs {w:.4f} (2% rel, 0.005 abs below 0.1)")
    return failures


def _lz_reference(doc, table) -> dict[str, np.ndarray]:
    p = doc["twomode"]
    # the launch time, then the package's tail window
    t = table.column("t")
    n = max(1, int(round(TAIL_FRACTION * t.size)))
    times = np.concatenate([t[:1], t[-n:]])
    i1, i2 = reference.two_mode_intensities(p["coupling"], p["skew"], p["rate"], times,
                                            LZ_REF_STEP)
    return {"tails": np.array([np.mean(i1[1:]), np.mean(i2[1:])])}


def _lz_error(doc, table, ref) -> float:
    tails = table.metadata["tail_intensities"]
    got = np.array([tails["a1_sq"], tails["a2_sq"]])
    return float(np.max(np.abs(got - ref["tails"])))


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    configs: Callable[[random.Random], dict[str, dict]]
    check: Callable
    reference: Callable
    ref_error: Callable
    ref_step: float | None
    grid: str               # output column the reference is evaluated on
    jobs: int | None = None


WORKLOADS = {
    "staircase": Workload(_staircase_configs, _staircase_check, _staircase_reference,
                          _staircase_error, STAIRCASE_REF_STEP, "z"),
    "rate_sweep": Workload(_sweep_configs, _sweep_check, _sweep_reference, _sweep_error,
                           SWEEP_REF_STEP, "rate", jobs=SWEEP_JOBS),
    "band_scan": Workload(_band_configs, _band_check, _band_reference, _band_error, None, "q"),
    "lz_oracle": Workload(_lz_configs, _lz_check, _lz_reference, _lz_error, LZ_REF_STEP, "t"),
}


def generate(workload: str, seed: int) -> dict[str, str]:
    """Config files of one workload as {operation: JSON text}; same seed, same bytes."""
    docs = WORKLOADS[workload].configs(random.Random(f"{workload}:{seed}"))
    return {name: json.dumps(doc, indent=1, sort_keys=True) + "\n" for name, doc in docs.items()}
