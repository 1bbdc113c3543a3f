"""Acceptance gate: every primary criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ...: PASS/FAIL` line with the measured
numbers (run with -s to see them on success).  Criteria 1-3 run the paper's
figures as the bundled presets, through the same runners as the command
line, and read the gated numbers from the result tables.  Independent heavy
runs are spread over two worker processes.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ptlattice import (
    DriveParams,
    LatticeParams,
    critical_survival,
    evolve,
    lz_probability,
    lz_survival,
    multicross_power,
    prepare_band_state,
)
from ptlattice.config import load_config, parse_config
from ptlattice.experiments import RUNNERS
from ptlattice.lattice import band_energies, eigensystem
from ptlattice.twomode import TwoModeParams, evolve_two_mode

# the whole module takes minutes; `pytest -m "not slow"` skips it
pytestmark = pytest.mark.slow


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def run_preset(name: str):
    """A bundled preset's result table, run as `ptlattice <kind> --config <name>` runs it."""
    cfg = load_config(name)
    return RUNNERS[cfg.kind](cfg)


def _final_power(name: str) -> float:
    return run_preset(name).metadata["final_power"]


def _plateau_means(table) -> dict[int, float]:
    return {p["crossings"]: p["mean_power"] for p in table.metadata["plateaus"]}


def _power_excursion(job) -> float:
    """Largest |power - 1| along a drive (used for the Hermitian criterion)."""
    v_imag, rate, q_stop = job
    params = LatticeParams(0.2, v_imag)
    drive = DriveParams(rate, 0.0, q_stop)
    trace = evolve(prepare_band_state(params, 0.0, 1), params, drive)
    return float(np.max(np.abs(trace.power - 1.0)))


def test_criterion_1_adiabatic_gain_and_loss():
    with ProcessPoolExecutor(max_workers=2) as pool:
        rho_up, rho_down = pool.map(_final_power, ["fig3", "fig3_reverse"])
    ok_up = abs(rho_up - 3.0) <= 0.05 * 3.0
    ok_down = abs(rho_down - 1.0 / 3.0) <= 0.05 / 3.0
    report(
        "1 adiabatic gain/loss",
        ok_up and ok_down,
        f"terminal power {rho_up:.4f} (target 3 +-5%), {rho_down:.4f} (target 1/3 +-5%)",
    )
    assert ok_up and ok_down


# the ids are the lattices' v_imag; -0.19 is fig4c's lattice with v_imag
# negated, the loss side, whose closed form is the transposed sweep's
@pytest.mark.parametrize(
    "preset, sign",
    [("fig4a", 1), ("fig4b", 1), ("fig4c", 1), ("fig4c", -1)],
    ids=["0.0", "0.15", "0.19", "-0.19"],
)
def test_criterion_2_sweep_matches_closed_form(preset, sign):
    doc = load_config(preset).doc
    doc["lattice"]["v_imag"] *= sign
    table = RUNNERS["sweep"](parse_config({**doc, "jobs": 2}))
    worst = table.metadata["max_abs_error"]
    config = table.metadata["config"]
    sweep = config["sweep"]
    ok = worst <= 0.03
    report(
        f"2 sweep agreement (v_imag={config['lattice']['v_imag']})",
        ok,
        f"max |P_numeric - P_analytic| = {worst:.4f} over {sweep['count']} rates in "
        f"[{sweep['rate_min']:g}, {sweep['rate_max']:g}] (limit 0.03)",
    )
    assert ok


def test_criterion_3_staircase_plateaus():
    means = _plateau_means(run_preset("fig5a"))
    ok1 = abs(means[1] - 4.6) <= 0.1 * 4.6
    ok2 = abs(means[2] - 19.72) <= 0.1 * 19.72
    critical = run_preset("fig5a_critical")
    crit_means = _plateau_means(critical)
    # one crossing at a vanishing gap: full transition plus the critical survival
    config = critical.metadata["config"]
    two = TwoModeParams.from_lattice(LatticeParams(**config["lattice"]), config["drive"]["rate"])
    target = 1.0 + critical_survival(two.coupling, two.rate)
    ok3 = abs(crit_means[1] - target) <= 0.1 * target
    report(
        "3 staircase plateaus",
        ok1 and ok2 and ok3,
        f"plateaus {means[1]:.3f}/{means[2]:.3f} (targets 4.6/19.72 +-10%); "
        f"critical first plateau {crit_means[1]:.3f} (target {target:.3f} +-10%)",
    )
    assert ok1 and ok2 and ok3


def test_criterion_3_reversed_staircase_plateaus():
    """Reverse drive (fig. 5b): each crossing's step follows the transposed sweep's closed forms.

    The target takes the preset's raw values, negative rate included: the
    closed forms flip the skew for a reversed sweep, as TwoModeParams does.
    """
    table = run_preset("fig5b")
    means = _plateau_means(table)
    config = table.metadata["config"]
    lattice, rate = config["lattice"], config["drive"]["rate"]
    targets = {
        n: multicross_power(2.0 * lattice["v_real"], 2.0 * lattice["v_imag"], 4.0 * rate, n)
        for n in (1, 2)
    }
    ok = all(abs(means[n] - targets[n]) <= 0.1 * targets[n] for n in (1, 2))
    report(
        "3 reversed staircase plateaus",
        ok,
        f"plateaus {means[1]:.4f}/{means[2]:.4f} "
        f"(targets {targets[1]:.4f}/{targets[2]:.4f} +-10%)",
    )
    assert ok


def test_criterion_3_critical_reverse_stays_at_unity():
    """Reverse drive at criticality: power within 1e-3 of 1 past the first crossing.

    The two-level theory predicts exactly 1.  The full lattice cannot reach
    the 1e-3 tolerance: at criticality the unit-power starting eigenstate
    holds about (2 v_real / 4)^2 ~ 1% of its power in the one-way-coupled
    neighbour mode, and that share is shed as the mode spacing grows, so the
    power settles near 0.9905 (truncation-independent).  The criterion is
    asserted as stated; the flatness of the post-crossing power, which is
    what the prediction's step structure actually constrains, is reported
    alongside.
    """
    table = run_preset("fig5b_critical")
    q, power = table.column("q"), table.column("power")
    sel = np.abs(q) > 1.5
    nearest_odd = 2.0 * np.round((q - 1.0) / 2.0) + 1.0
    sel &= np.abs(q - nearest_odd) > 0.5
    worst = float(np.max(np.abs(power[sel] - 1.0)))
    flatness = float(np.max(power[sel]) - np.min(power[sel]))
    ok = worst <= 1e-3
    report(
        "3 critical reverse drive",
        ok,
        f"max |power - 1| after first crossing = {worst:.2e} (limit 1e-3); "
        f"post-crossing flatness = {flatness:.2e}",
    )
    assert ok, (
        f"max |power - 1| = {worst:.3e} exceeds 1e-3: the initial eigenstate's "
        "one-way dressing (~1% of the power at criticality) is shed after the "
        "crossing, which the two-level prediction does not model"
    )


def test_criterion_4_hermitian_conservation():
    # preset drives with the gain/loss amplitude set to zero
    jobs = [(0.0, 1e-3, 2.0), (0.0, 0.03, 3.9), (0.0, 0.03, 1.8)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        excursions = list(pool.map(_power_excursion, jobs))
    worst = max(excursions)
    ok = worst < 1e-6
    report(
        "4 Hermitian conservation",
        ok,
        f"max |power - 1| over drives (rates 1e-3, 0.03, 0.03) = {worst:.2e} (limit 1e-6)",
    )
    assert ok


def test_criterion_5_spectral_properties():
    rng = np.random.default_rng(7)
    worst_imag = worst_flip = worst_pair = 0.0
    for _ in range(100):
        v_real = rng.uniform(0.05, 0.5)
        v_imag = rng.uniform(-1.0, 1.0) * v_real
        q = rng.uniform(-4.0, 4.0)
        params = LatticeParams(v_real, v_imag)
        general = band_energies(params, q, solver="general")
        flipped = band_energies(LatticeParams(v_real, -v_imag), q, solver="general")
        symmetric = band_energies(params, q, solver="symmetric")
        worst_imag = max(worst_imag, float(np.max(np.abs(general.imag))))
        worst_flip = max(worst_flip, float(np.max(np.abs(general - flipped))))
        worst_pair = max(worst_pair, float(np.max(np.abs(general - symmetric))))
    ok = worst_imag < 1e-9 and worst_flip < 1e-10 and worst_pair < 1e-9
    report(
        "5 spectral properties",
        ok,
        f"100 draws: max |Im| = {worst_imag:.1e} (<1e-9), sign-flip dev = "
        f"{worst_flip:.1e} (<1e-10), solver dev = {worst_pair:.1e} (<1e-9)",
    )
    assert ok


def test_criterion_6_band_gap_oracle():
    devs = {}
    for v_imag in (0.0, 0.1, 0.15, 0.19):
        pairs = eigensystem(LatticeParams(0.2, v_imag), 1.0)
        gap = (pairs[1].energy - pairs[0].energy).real
        target = 2.0 * math.sqrt(0.2**2 - v_imag**2)
        devs[v_imag] = abs(gap - target) / target
    worst = max(devs.values())
    ok = worst <= 0.10
    report(
        "6 band-gap oracle",
        ok,
        f"max relative gap deviation from 2 sqrt(v1^2 - v2^2) = {worst:.4f} (limit 0.10)",
    )
    assert ok


def test_criterion_7_two_mode_oracle_suite():
    failures = []
    checked = 0
    for coupling in (0.2, 0.4):
        for skew in (-0.3, 0.0, 0.3):
            if abs(skew) >= coupling:
                continue  # imaginary two-level gap: outside the formulas' domain
            for rate in (0.05, 0.12, 0.5):
                trace = evolve_two_mode(TwoModeParams(coupling, skew, rate))
                got1, got2 = trace.tail_intensities()
                want1 = lz_survival(coupling, skew, rate)
                want2 = lz_probability(coupling, skew, rate)
                for got, want in ((got1, want1), (got2, want2)):
                    checked += 1
                    rel = abs(got - want) / want
                    if rel > 0.02 and not (want < 0.1 and abs(got - want) <= 0.005):
                        failures.append(
                            f"coupling={coupling} skew={skew} rate={rate}: "
                            f"{got:.4f} vs {want:.4f}"
                        )
    trace = evolve_two_mode(TwoModeParams(0.4, 0.4, 0.12))
    got_crit, _ = trace.tail_intensities()
    want_crit = critical_survival(0.4, 0.12)
    checked += 1
    if abs(got_crit - want_crit) / want_crit > 0.02:
        failures.append(f"critical: {got_crit:.4f} vs {want_crit:.4f}")
    ok = not failures
    report(
        "7 two-mode oracle",
        ok,
        f"{checked} asymptotics within 2% rel (0.005 abs for small values)"
        + ("" if ok else "; failing: " + "; ".join(failures)),
    )
    assert ok, failures


def test_criterion_8_exact_identities():
    classic = all(
        lz_probability(c, 0.0, r) == math.exp(-math.pi * c * c / (2.0 * r))
        for c, r in ((0.4, 0.12), (0.2, 0.05), (1.0, 3.0))
    )
    additive = all(
        multicross_power(0.4, s, 0.12, 1)
        == lz_survival(0.4, s, 0.12) + lz_probability(0.4, s, 0.12)
        for s in (0.0, 0.15, 0.3, -0.25)
    )
    symmetric = all(
        lz_probability(0.4, s, 0.12) == lz_probability(0.4, -s, 0.12)
        for s in (0.1, 0.25, 0.399)
    )
    ok = classic and additive and symmetric
    report(
        "8 exact identities",
        ok,
        f"classic reduction {classic}, single-crossing additivity {additive}, "
        f"skew-sign symmetry {symmetric} (all machine-exact)",
    )
    assert ok
