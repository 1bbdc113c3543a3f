"""Driven propagation: preparation, kernel step, power, projection, transitions."""

import math

import numpy as np
import pytest

from ptlattice import (
    DegenerateBandError,
    DriveParams,
    IntegratorConfig,
    LatticeParams,
    ModeVector,
    ParameterError,
    build_hamiltonian,
    evolve,
    prepare_band_state,
    project_onto_band,
    lz_probability,
    lz_survival,
    transition_probability,
)
from ptlattice import dynamics, experiments, twomode
from ptlattice.experiments import _sweep_point
from ptlattice.lattice import band_arrays
from ptlattice.dynamics import (
    _crossings_between,
    _expm,
    _integrate,
    default_step,
    plateau_averages,
)


# states that are not 9 finite amplitudes (l_max 4): too short, 2-D, NaN
BAD_AMPLITUDES = [
    np.ones(3, dtype=complex),
    np.ones((9, 1), dtype=complex),
    np.full(9, math.nan, dtype=complex),
]


class TestPrepare:
    def test_free_particle_ground_mode(self):
        state = prepare_band_state(LatticeParams(0.0, 0.0), 0.0, 1)
        center = LatticeParams(0.0, 0.0).l_max
        assert abs(state.amplitudes[center]) == pytest.approx(1.0, abs=1e-14)
        others = np.delete(state.amplitudes, center)
        assert np.max(np.abs(others)) < 1e-14

    def test_hermitian_even_profile(self):
        state = prepare_band_state(LatticeParams(0.2, 0.0), 0.0, 1)
        a = state.amplitudes
        center = 12
        assert np.max(np.abs(a.imag)) < 1e-12
        assert a[center + 1] == pytest.approx(a[center - 1], rel=1e-12)

    def test_unit_power(self):
        for band in (1, 2, 5):
            state = prepare_band_state(LatticeParams(0.2, 0.15), 0.3, band)
            assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_point_raises(self):
        with pytest.raises(DegenerateBandError):
            prepare_band_state(LatticeParams(0.2, 0.2), 1.0, 1)

    def test_band_out_of_range(self):
        with pytest.raises(ParameterError):
            prepare_band_state(LatticeParams(0.2, 0.0), 0.0, 0)

    @pytest.mark.parametrize("band", [math.nan, math.inf, True, 2.0])
    def test_band_must_be_an_integer(self, band):
        with pytest.raises(ParameterError, match="band must be an integer"):
            prepare_band_state(LatticeParams(0.2, 0.0), 0.0, band)


def record_marches(monkeypatch):
    """Spy on dynamics._march: per run, where each table step ends and the
    grid point it ends a sample interval on (0 inside an interval)."""
    runs = []
    march = dynamics._march

    def spy(*args):
        chunks = list(march(*args))
        runs.append((np.concatenate([z[:, -1] for _, _, z, *_ in chunks]),
                     np.concatenate([ends for *_, ends in chunks])))
        return iter(chunks)

    monkeypatch.setattr(dynamics, "_march", spy)
    return runs


def one_step(params, a, q=0.3, dz=0.1):
    """Amplitudes after one kernel step of length dz from q (drive rate 1)."""
    drive = DriveParams(1.0, q, q + dz)
    y, _ = _integrate(a, params, drive, 1, None)
    return y


class TestKernelStep:
    def test_single_mode_pure_phase_rotation(self):
        params = LatticeParams(0.0, 0.0)
        state = prepare_band_state(params, 0.0, 1)
        y = one_step(params, state.amplitudes)
        center = params.l_max
        assert abs(y[center]) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(np.delete(y, center))) == 0.0

    def test_hermitian_step_conserves_power(self):
        params = LatticeParams(0.2, 0.0)
        rng = np.random.default_rng(3)
        a = rng.normal(size=25) + 1j * rng.normal(size=25)
        y = one_step(params, a, q=1.3)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(np.abs(a) ** 2), rel=1e-12)

    def test_sub_coupling_vanishes_at_criticality(self):
        params = LatticeParams(0.2, 0.2)
        a = np.zeros(25, complex)
        a[12] = 1.0  # populate l = 0 only
        y = one_step(params, a)
        # row l = 1 reads its lower neighbour with weight v_real - v_imag = 0,
        # so the coupling exponential is upper triangular
        assert y[13] == 0.0
        assert y[11] != 0.0

    def test_eighth_order_convergence(self):
        # self-convergence over four crossings at 3200, 6400 and 12800 grid
        # steps (400, 800 and 1600 table steps): successive differences
        # shrink by 2^8.04 here, and by 2^6.00 with the sixth-order s9odr6a
        # table at these grid steps; the finest difference, 3.4e-11
        # relative, is far above roundoff
        params = LatticeParams(0.2, 0.15, l_max=4)
        drive = DriveParams(0.3, 0.0, 7.9)
        a0 = prepare_band_state(params, 0.0, 1).amplitudes
        y = [_integrate(a0, params, drive, n)[0] for n in (3200, 6400, 12800)]
        diffs = [np.linalg.norm(y[0] - y[1]), np.linalg.norm(y[1] - y[2])]
        assert math.log2(diffs[0] / diffs[1]) == pytest.approx(8.0, abs=0.3)

    def test_table_moments(self):
        # s15odr8 is palindromic, sums to 1, and its odd moments up to the
        # seventh vanish, the conditions of an eighth-order composition
        weights, nodes, folded = dynamics._TABLE
        assert len(weights) == 15 and np.array_equal(weights, weights[::-1])
        assert abs(weights.sum() - 1.0) <= 1e-15
        for p in (3, 5, 7):
            assert abs(np.sum(weights**p)) <= 1e-15, p
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        np.testing.assert_allclose(np.diff(nodes[1:-1]), (weights[:-1] + weights[1:]) / 2,
                                   rtol=0, atol=1e-15)
        assert folded[0] == nodes[-2] - 1.0

    # v_imag = v_real = 0.2 makes the coupling a Jordan block, 0.2 - 1e-7
    # leaves it an ill-conditioned eigenbasis, 0.3 gives it imaginary eigenvalues
    @pytest.mark.parametrize("v_imag", [0.0, 0.15, 0.19, 0.2 - 1e-7, 0.2, 0.3])
    def test_coupling_exponential_matches_scipy(self, v_imag):
        from scipy.linalg import expm

        # dz >= 1 needs squaring at every l_max here
        # the distinct weights of the lattice's and the two-level tables
        weights = set(dynamics._TABLE[0]) | set(twomode._TABLE[0])
        cases = [(dz, w) for dz in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0) for w in weights]
        for l_max in (4, 6, 12, 40, 80):
            h = build_hamiltonian(LatticeParams(0.2, v_imag, l_max), 0.0)
            coupling = h - np.diag(np.diag(h))
            a = [-1j * w * dz * coupling for dz, w in cases]
            # one stacked scipy call per l_max: alternating single calls into
            # scipy's and numpy's BLAS thread pools is slow on a few cores
            refs = expm(np.array(a))
            for (dz, w), a_i, ref in zip(cases, a, refs):
                err = np.max(np.abs(_expm(a_i) - ref)) / np.max(np.abs(ref))
                assert err <= 1e-13, (l_max, dz, w, err)


def direct_samples(a0, params, drive, n_steps, stride, refine):
    """The states _integrate samples, each phase factor exponentiated on its own.

    Marches the chunks of _march with exp(-i w (Qa^2 + Qa Qb + Qb^2)/3),
    Q = 2l + q, per mode and sub-step of width w from Qa to Qb.
    """
    ham = build_hamiltonian(params, 0.0)
    march = dynamics._march(ham - np.diag(np.diag(ham)), n_steps, stride or n_steps,
                            dynamics._GRID_STEPS, dynamics._TABLE, refine,
                            drive.duration / n_steps, dynamics._CHUNK)
    y, states = a0.astype(complex), [a0]
    for kicks, _, z, widths, _, ends in march:
        big_q = 2.0 * params.mode_indices + (drive.q_start + drive.rate * z)[:, :, None]
        qa, qb = big_q[:, :-1], big_q[:, 1:]
        phases = np.exp(-1j / 3.0 * widths[:, :, None] * (qa * qa + qa * qb + qb * qb))
        for row, i in zip(phases, ends):
            for p, kick in zip(row, kicks):
                y = kick @ (y * p)
            if i:
                y = y * row[-1]
                states.append(y)
    return states


class TestPhaseTables:
    # 603 grid steps: strides 2, 6 and 7 leave a remainder interval (of 1, 3
    # and 1 grid steps; at stride 6 of the same table-step length as the
    # whole intervals), stride 1 starts an interval at every table step; the
    # default stride of 9720 grid steps is 5
    @pytest.mark.parametrize("l_max, rate, stride, refine", [
        (40, 0.05, 1, 1),
        (40, -0.05, 2, 2),
        (80, 0.05, 2, 1),
        (80, -0.05, 6, 2),
        (40, 0.05, 7, 2),
        (80, -0.05, 7, 1),
        (80, 0.05, None, 2),
        (40, -0.02, "default", 1),
    ])
    def test_samples_match_direct_phases(self, l_max, rate, stride, refine):
        params = LatticeParams(0.2, 0.15, l_max)
        drive = DriveParams(rate, 0.0, math.copysign(1.8, rate))
        if stride == "default":
            n_steps, stride = dynamics._lattice_grid(drive, IntegratorConfig())
            assert (n_steps, stride) == (9720, 5)
        else:
            n_steps = 603
        assert_samples_match_direct(params, drive, n_steps, stride, refine)

    # one sample interval of _CHUNK + 6 table steps, twice as many at refine
    # 2, runs across chunk boundaries: the buffer of phase rows is rewritten
    # under it and its scalar phase joins only at its end
    @pytest.mark.parametrize("rate", [0.05, -0.05])
    @pytest.mark.parametrize("refine", [1, 2])
    def test_an_interval_across_chunks(self, rate, refine):
        n_steps = dynamics._GRID_STEPS * (dynamics._CHUNK + 5) + 3
        drive = DriveParams(rate, 0.0, math.copysign(1.8, rate))
        assert_samples_match_direct(LatticeParams(0.2, 0.15, 40), drive, n_steps, None, refine)

    # the staircase workload's grid: 200 intervals of 65 grid steps, nine
    # table steps each, so that most chunks end inside one
    @pytest.mark.parametrize("rate", [0.03, -0.03])
    def test_staircase_grid(self, rate):
        drive = DriveParams(rate, 0.0, math.copysign(3.9, rate))
        n_steps, _ = dynamics._lattice_grid(drive, IntegratorConfig(step=0.01))
        assert (n_steps, -(-65 // dynamics._GRID_STEPS)) == (13000, 9)
        assert_samples_match_direct(LatticeParams(0.2, 0.2 - 1e-7, 6), drive, n_steps, 65, 1)

    def test_samples_and_launch_stay_private(self):
        # intervals of one table step, 64 samples a chunk: each sample is a
        # copy of the state the kicks then overwrite in place
        params = LatticeParams(0.2, 0.15, 6)
        a0 = prepare_band_state(params, 0.0, 1).amplitudes
        launch = a0.copy()
        y, samples = _integrate(a0, params, DriveParams(0.05, 0.0, 1.8), 560, 8)
        np.testing.assert_array_equal(a0, launch)
        states = [a for _, _, a in samples]
        assert len(states) == 71
        for i, a in enumerate(states):
            assert not np.shares_memory(a, y)
            assert not any(np.shares_memory(a, b) for b in states[i + 1:])
        assert np.array_equal(states[-1], y) and not np.array_equal(states[-2], y)


def assert_samples_match_direct(params, drive, n_steps, stride, refine):
    """_integrate's samples of a band-1 launch within 1e-12 of direct_samples."""
    a0 = prepare_band_state(params, drive.q_start, 1).amplitudes
    _, samples = _integrate(a0, params, drive, n_steps, stride, refine)
    want = direct_samples(a0, params, drive, n_steps, stride, refine)
    assert len(samples) == len(want) > 1
    for (_, _, got), ref in zip(samples, want):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def cascade(a0, params, drive, z):
    """Exact amplitudes at v_imag = v_real on the grid z, one column per point.

    At criticality the mode operator is upper triangular.  In the interaction
    picture a_l = exp(-i Phi_l) b_l, Phi_l = integral of (2l + q)^2 dz, each
    level obeys b_l' = -i c exp(i theta_l) b_{l+1}, with c = v_real + v_imag
    and theta_l = Phi_l - Phi_{l+1} = -4 ((2l + 1 + q0) z + rate z^2/2).  The
    top level is constant and each level below it is one cumulative
    quadrature of the level above (Simpson's rule); the levels above the
    highest one that carries weight stay empty.
    """
    from scipy.integrate import cumulative_simpson

    c, rate, q0 = params.v_real + params.v_imag, drive.rate, drive.q_start
    levels = params.mode_indices
    b = np.zeros((levels.size, z.size), complex)
    top = np.flatnonzero(a0)[-1]
    b[top] = a0[top]
    for i in range(top - 1, -1, -1):
        theta = -4.0 * ((2 * levels[i] + 1 + q0) * z + rate * z * z / 2.0)
        b[i] = a0[i] - 1j * c * cumulative_simpson(np.exp(1j * theta) * b[i + 1], x=z,
                                                   initial=0.0)
    big_q = 2.0 * levels[:, None] + q0
    phi = ((big_q + rate * z) ** 3 - big_q**3) / (3.0 * rate)
    return np.exp(-1j * phi) * b


class TestCriticalCascade:
    def test_forward_drive_matches_the_cascade(self):
        # two crossings at v_imag = v_real and the default step, 65,910 grid
        # steps; the cascade runs on the half-steps of that grid, 131,821
        # points, and is within 1.9e-12 of a four times finer cascade.
        # Measured: the 1999 sample powers within 1.1e-12 relative and the
        # final state within 1.1e-12, a margin of about 90 under 1e-10
        params = LatticeParams(0.2, 0.2, 12)
        drive = DriveParams(0.03, 0.0, 3.9)
        state = prepare_band_state(params, 0.0, 1)
        trace = evolve(state, params, drive)
        n_steps = trace.metadata["steps"]
        z = np.linspace(0.0, drive.duration, 2 * n_steps + 1)
        exact = cascade(state.amplitudes, params, drive, z)
        at = np.rint(trace.z / (drive.duration / (2 * n_steps))).astype(int)
        np.testing.assert_allclose(z[at], trace.z, rtol=1e-12)
        power = np.sum(np.abs(exact[:, at]) ** 2, axis=0)
        assert power[-1] > 80.0  # the beam gains about ninefold per crossing
        assert np.max(np.abs(trace.power - power) / power) <= 1e-10
        final = exact[:, -1]
        assert np.linalg.norm(trace.final_state.amplitudes - final) <= 1e-10 * np.linalg.norm(final)


class TestHermitianGauge:
    @pytest.mark.parametrize("v_imag, l_max, rate", [(0.15, 8, 0.03), (0.19, 6, 0.1),
                                                     (-0.1, 8, -0.03)])
    def test_unbroken_run_is_a_hermitian_run_seen_through_the_gauge(self, v_imag, l_max, rate):
        # D = diag(r^(l/2)) takes H to the Hermitian lattice of coupling
        # sqrt(v_real^2 - v_imag^2) and does not depend on q, so a driven
        # state is D b with b the Hermitian run from D^-1 a(0); r^l_max stays
        # within 2.8e-10 to 6.6e3 here.  Measured: final states within 3.5e-14
        # relative, and b's power within 1.7e-12 of its launch
        params = LatticeParams(0.2, v_imag, l_max)
        hermitian = LatticeParams(math.sqrt(0.2**2 - v_imag**2), 0.0, l_max)
        r = (0.2 - v_imag) / (0.2 + v_imag)
        d = r ** (np.arange(-l_max, l_max + 1) / 2.0)
        drive = DriveParams(rate, 0.0, math.copysign(3.9, rate))
        state = prepare_band_state(params, 0.0, 1)
        a = evolve(state, params, drive).final_state.amplitudes
        b = evolve(ModeVector(state.amplitudes / d, 0.0), hermitian, drive)
        assert np.linalg.norm(a - d * b.final_state.amplitudes) <= 1e-12 * np.linalg.norm(a)
        assert np.max(np.abs(b.power / b.power[0] - 1.0)) <= 1e-10


class TestMirrorIdentity:
    # (v_imag, tolerances on the power, relative at every sample; on band 1,
    # relative; on the mirrored final state up to a global phase).  Measured
    # at step 0.0075: 4.2e-14, 1.7e-13, 3.1e-14 (unbroken); 6.6e-11, 3.3e-11,
    # 6.1e-7 (criterion 3's reverse drive, whose launch vectors next to the
    # EP are ill-conditioned); 6.1e-14, 1.1e-11, 5.2e-15 (broken)
    @pytest.mark.parametrize("v_imag, power_tol, band_tol, state_tol", [
        (0.15, 1e-12, 1e-11, 1e-12),
        (0.2 - 1e-7, 1e-9, 1e-9, 1e-5),
        (0.25, 1e-12, 1e-9, 1e-12),
    ])
    def test_reverse_drive_is_the_mirrored_forward_drive(self, v_imag, power_tol, band_tol,
                                                         state_tol):
        # mirroring the modes, l -> -l, keeps (2l + q)^2 under q -> -q and
        # transposes the coupling, which flips v_imag: the drive 0 -> -3.9 at
        # v_imag is the drive 0 -> 3.9 at -v_imag, mode by mode mirrored
        config = IntegratorConfig(step=0.0075)
        rev, fwd = (
            evolve(prepare_band_state(params, 0.0, 1), params, drive, config)
            for params, drive in ((LatticeParams(0.2, v_imag), DriveParams(-0.03, 0.0, -3.9)),
                                  (LatticeParams(0.2, -v_imag), DriveParams(0.03, 0.0, 3.9)))
        )
        assert np.array_equal(rev.z, fwd.z) and np.array_equal(rev.q, -fwd.q)
        np.testing.assert_allclose(rev.power, fwd.power, rtol=power_tol, atol=0)
        np.testing.assert_allclose(rev.band1_prob, fwd.band1_prob, rtol=band_tol, atol=0)
        mirrored, final = rev.final_state.amplitudes[::-1], fwd.final_state.amplitudes
        phase = np.vdot(final, mirrored)
        error = np.linalg.norm(mirrored - phase / abs(phase) * final) / np.linalg.norm(final)
        assert error <= state_tol


class TestPowerAndProjection:
    def test_biorthonormal_projection(self):
        params = LatticeParams(0.2, 0.15)
        state = prepare_band_state(params, 0.3, 1)
        _, p_same = project_onto_band(state, params, 0.3, 1)
        _, p_cross = project_onto_band(state, params, 0.3, 2)
        assert abs(p_same - 1.0) < 1e-10
        assert p_cross < 1e-10

    def test_hermitian_limit_is_standard_overlap(self):
        params = LatticeParams(0.2, 0.0)
        rng = np.random.default_rng(5)
        a = rng.normal(size=25) + 1j * rng.normal(size=25)
        a /= np.linalg.norm(a)
        state = ModeVector(a, 0.4)
        right = band_arrays(params, 0.4).right[0][:, 1]
        v = right / np.linalg.norm(right)
        _, prob = project_onto_band(state, params, 0.4, 2)
        assert prob == pytest.approx(abs(np.vdot(v, a)) ** 2, abs=1e-10)

    def test_momentum_mismatch_rejected(self):
        params = LatticeParams(0.2, 0.0)
        state = prepare_band_state(params, 0.0, 1)
        with pytest.raises(ParameterError):
            project_onto_band(state, params, 0.5, 1)

    @pytest.mark.parametrize("amplitudes", BAD_AMPLITUDES)
    def test_malformed_state_rejected(self, amplitudes):
        with pytest.raises(ParameterError, match="9 finite amplitudes"):
            project_onto_band(ModeVector(amplitudes, 0.0), LatticeParams(0.2, 0.0, 4), 0.0, 1)


class TestDrive:
    def test_inconsistent_direction_rejected(self):
        with pytest.raises(ParameterError):
            DriveParams(rate=-0.1, q_start=0.0, q_stop=1.0)

    @pytest.mark.parametrize("rate, q_start, q_stop, message", [
        (0.0, 0.0, 1.0, "non-zero"),
        (math.nan, 0.0, 1.0, "finite"),
        (math.inf, 0.0, 1.0, "finite"),
        (-math.inf, 0.0, -1.0, "finite"),
        (0.1, math.nan, 1.0, "finite"),
        (0.1, -math.inf, 1.0, "finite"),
        (0.1, 0.0, math.inf, "finite"),
        (0.1, 0.0, math.nan, "finite"),
        (1e-320, 0.0, 1.0, "overflows"),
        (1.0, -1e308, 1e308, "overflows"),
    ])
    def test_invalid_drive_rejected_at_construction(self, rate, q_start, q_stop, message):
        with pytest.raises(ParameterError, match=message):
            DriveParams(rate, q_start, q_stop)

    def test_crossing_counter(self):
        assert _crossings_between(0.0, 1.8) == 1
        assert _crossings_between(0.0, 3.9) == 2
        assert _crossings_between(0.0, -3.9) == 2
        assert _crossings_between(0.0, 0.9) == 0
        assert _crossings_between(1.0, 3.0) == 0  # endpoints excluded
        assert _crossings_between(0.5, 5.2) == 3
        # against a brute-force count, with odd-integer endpoints, negatives
        # and endpoints just beside an odd integer
        grid = sorted(
            {x / 4 for x in range(-24, 25)}
            | {m + d for m in range(-7, 8, 2) for d in (-1e-12, 1e-12, -0.5, 0.5)}
        )
        for lo in grid:
            for hi in grid:
                expected = sum(1 for m in range(-9, 10, 2) if min(lo, hi) < m < max(lo, hi))
                assert _crossings_between(lo, hi) == expected, (lo, hi)

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.01])
    def test_invalid_step_rejected(self, step):
        with pytest.raises(ParameterError):
            IntegratorConfig(step=step)
        for stride in (0, 2.5, True):
            with pytest.raises(ParameterError):
                IntegratorConfig(sample_stride=stride)

    def test_step_default_ignores_basis_size(self):
        # the default step depends on the drive alone; it takes no lattice
        assert default_step(DriveParams(0.05, 0.0, 1.5)) == 0.03 / 1.5**2

    # l_max 80 at step 0.02 sampled every 300: 10 intervals of 100 table
    # steps, four chunks of phases whose arguments grow with l^2
    @pytest.mark.parametrize("l_max, step, stride", [(12, 0.2, None), (40, 0.05, None),
                                                     (80, 0.02, 300)],
                             ids=["12-0.2", "40-0.05", "80-0.02"])
    def test_coarse_hermitian_run_conserves_power(self, l_max, step, stride):
        # each factor of the step is unitary, whatever the largest diagonal
        params = LatticeParams(0.2, 0.0, l_max=l_max)
        drive = DriveParams(0.03, 0.0, 1.8)
        cfg = IntegratorConfig(step=step, sample_stride=stride)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive, cfg)
        assert np.max(np.abs(trace.power - 1.0)) < 1e-12


class TestEvolve:
    def test_hermitian_power_conservation(self):
        params = LatticeParams(0.2, 0.0)
        drive = DriveParams(0.03, 0.0, 1.8)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive)
        assert np.max(np.abs(trace.power - 1.0)) < 1e-6
        assert trace.power[-1] == np.sum(np.abs(trace.final_state.amplitudes) ** 2)
        assert np.all(np.diff(trace.z) > 0)

    def test_power_column_matches_state_norm(self):
        params = LatticeParams(0.2, 0.1)
        drive = DriveParams(0.05, 0.0, 1.5)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive)
        assert trace.power[-1] == pytest.approx(
            float(np.sum(np.abs(trace.final_state.amplitudes) ** 2)), abs=1e-15
        )

    def test_step_halving_convergence(self):
        params = LatticeParams(0.2, 0.1)
        drive = DriveParams(0.03, 0.0, 2.0)
        cfg = IntegratorConfig(convergence_check=True)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive, cfg)
        assert trace.metadata["final_state_halving_diff"] < 1e-6
        assert trace.metadata["warnings"] == []

    def test_accuracy_warning_on_coarse_step(self):
        params = LatticeParams(0.2, 0.1, l_max=4)
        drive = DriveParams(0.3, 0.0, 1.8)
        # one table step over the whole drive: halving it changes the final
        # power by 9.6e-5; at step 0.2 it is 3.3e-10, under the 1e-6 gate
        cfg = IntegratorConfig(step=0.75, convergence_check=True)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive, cfg)
        assert trace.metadata["warnings"]

    def test_convergence_rerun_doubles_step_count(self, monkeypatch):
        # ceil(duration / (dz/2)) would give 47 grid steps here, not 46
        runs = []

        def spy(a0, params, drive, n_steps, stride=None, refine=1):
            runs.append((n_steps, stride, refine))
            return integrate(a0, params, drive, n_steps, stride, refine)

        integrate = dynamics._integrate
        monkeypatch.setattr(dynamics, "_integrate", spy)
        params, drive = LatticeParams(0.2, 0.1, 4), DriveParams(0.2, 0.0, 1.2)
        cfg = IntegratorConfig(step=0.261, convergence_check=True)
        evolve(prepare_band_state(params, 0.0, 1), params, drive, cfg)
        assert runs == [(23, 1, 1), (23, 1, 2)]

    def test_convergence_rerun_doubles_every_interval(self, monkeypatch):
        # 50 grid steps of 0.1 sampled every 18: intervals of 18, 18 and 14
        # grid steps take 3, 3 and 2 table steps; the rerun takes 6, 6 and
        # 4, where ceil(2L/8) would give 5 for L = 18
        runs = record_marches(monkeypatch)
        params, drive = LatticeParams(0.2, 0.1, 4), DriveParams(0.2, 0.0, 1.0)
        cfg = IntegratorConfig(step=0.1, sample_stride=18, convergence_check=True)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive, cfg)
        assert trace.metadata["steps"] == 50
        (z, ends), (z_finer, ends_finer) = runs
        # where each table step ends, and the grid point it ends an interval on
        steps = np.diff(z, prepend=0.0)
        np.testing.assert_allclose(steps, [1.8 / 3] * 6 + [1.4 / 2] * 2, rtol=1e-12)
        np.testing.assert_allclose(z_finer[1::2], z, rtol=1e-12)
        np.testing.assert_allclose(np.diff(z_finer, prepend=0.0), np.repeat(steps / 2, 2),
                                   rtol=1e-12)
        assert ends[ends > 0].tolist() == ends_finer[ends_finer > 0].tolist() == [18, 36, 50]

    def test_sweep_rerun_doubles_the_table_steps(self, monkeypatch):
        # 23 grid steps make one interval of 3 table steps; the rerun marches
        # the same grid in 6, which halve each of the 3
        runs = record_marches(monkeypatch)
        params, drive = LatticeParams(0.2, 0.15, 4), DriveParams(0.2, 0.0, 1.2)
        _sweep_point((params, drive, IntegratorConfig(step=0.261, convergence_check=True)))
        (z, ends), (z_finer, ends_finer) = runs
        assert z.size == 3 and z_finer.size == 6
        np.testing.assert_allclose(z_finer[1::2], z, rtol=1e-12)
        assert ends[-1] == ends_finer[-1] == 23

    def test_kicks_once_per_weight_and_step_length(self, monkeypatch):
        calls = []

        def spy(a):
            calls.append(a)
            return expm(a)

        expm = dynamics._expm
        monkeypatch.setattr(dynamics, "_expm", spy)
        # 3600 grid steps sampled every 7: intervals of 7 and a remainder of 2
        # grid steps, two step lengths; a palindrome of fifteen has eight weights
        params, drive = LatticeParams(0.2, 0.15, 4), DriveParams(0.05, 0.0, 1.8)
        cfg = IntegratorConfig(step=0.01, sample_stride=7)
        evolve(prepare_band_state(params, 0.0, 1), params, drive, cfg)
        assert len(calls) == 2 * 8

    def test_unprojected_run_keeps_its_grid_and_power(self):
        # what a multicross run asks for: no band columns, no projection
        # count, the same samples, steps and power
        params, drive = LatticeParams(0.2, 0.2, 4), DriveParams(0.1, 0.0, 1.0)
        cfg = IntegratorConfig(step=0.01, sample_stride=100)
        state = prepare_band_state(params, 0.0, 1)
        projected = evolve(state, params, drive, cfg)
        bare = evolve(state, params, drive, cfg, project=False)
        assert bare.band1_prob.shape == bare.band2_prob.shape == (0,)
        assert bare.band1_prob.dtype == float
        assert "projection_failures" not in bare.metadata
        assert bare.metadata == {k: v for k, v in projected.metadata.items()
                                 if k != "projection_failures"}
        assert bare.metadata["steps"] == 1000
        for name in ("z", "q", "power"):
            assert getattr(bare, name).tobytes() == getattr(projected, name).tobytes()
        assert np.array_equal(bare.final_state.amplitudes, projected.final_state.amplitudes)

    def test_degenerate_projection_is_counted(self):
        # at the critical point the operator is triangular with eigenvalues
        # (2l + q)^2, which coincide in pairs at integer q: bands 2 and 3 at
        # q = 0, bands 1 and 2 at q = 1
        params = LatticeParams(0.2, 0.2)
        drive = DriveParams(0.1, 0.0, 1.0)
        # 1000 grid steps, sampled every 0.1 in q
        cfg = IntegratorConfig(step=0.01, sample_stride=100)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive, cfg)
        assert trace.q[0] == 0.0 and trace.q[-1] == 1.0
        nan1, nan2 = np.isnan(trace.band1_prob), np.isnan(trace.band2_prob)
        assert list(np.flatnonzero(nan1)) == [10]
        assert list(np.flatnonzero(nan2)) == [0, 10]
        assert trace.metadata["projection_failures"] == 3

    def test_other_projection_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("eigensolver failed")

        params = LatticeParams(0.2, 0.1)
        drive = DriveParams(0.1, 0.0, 1.5)
        state = prepare_band_state(params, 0.0, 1)
        monkeypatch.setattr(dynamics, "band_arrays", broken)
        with pytest.raises(np.linalg.LinAlgError):
            evolve(state, params, drive)

    @pytest.mark.parametrize("v_imag, drive, stride", [
        (0.15, DriveParams(0.05, 0.0, 1.8), 40),
        # the drive of test_degenerate_projection_is_counted
        (0.2, DriveParams(0.1, 0.0, 1.0), 100),
    ])
    def test_stacked_projection_matches_per_sample_view(self, v_imag, drive, stride):
        params = LatticeParams(0.2, v_imag)
        cfg = IntegratorConfig(step=0.01, sample_stride=stride)
        state = prepare_band_state(params, drive.q_start, 1)
        trace = evolve(state, params, drive, cfg)
        # the same integration again, keeping the sampled states
        _, samples = _integrate(state.amplitudes, params, drive,
                                trace.metadata["steps"], stride)
        assert len(samples) == trace.q.size and len(samples) > 10
        for band, column in ((1, trace.band1_prob), (2, trace.band2_prob)):
            expected = np.empty(len(samples))
            for i, (_, q, a) in enumerate(samples):
                try:
                    expected[i] = project_onto_band(ModeVector(a, q), params, q, band)[1]
                except DegenerateBandError:
                    expected[i] = math.nan
            np.testing.assert_array_equal(np.isnan(column), np.isnan(expected))
            np.testing.assert_allclose(column, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride", [7, 40, 100, 10**6])
    def test_configured_grid_is_kept(self, stride):
        # the grid points i * dz, whatever the table steps between them
        params = LatticeParams(0.2, 0.15, 4)
        drive = DriveParams(0.05, 0.0, 1.8)
        cfg = IntegratorConfig(step=0.01, sample_stride=stride)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive, cfg)
        assert trace.metadata["steps"] == 3600
        dz = drive.duration / 3600
        grid = range(0, 3600, stride)
        assert trace.z.tolist() == [i * dz for i in grid] + [drive.duration]
        assert trace.q.tolist() == [0.05 * i * dz for i in grid] + [1.8]

    def test_default_stride_bounds_the_samples(self):
        # 200 / (0.03 / 4) = 26667 grid steps: ceil(n / 2000) = 14 gives
        # 1906 samples, the last at q_stop, where n // 2000 = 13 gave 2053
        params = LatticeParams(0.2, 0.1, 4)
        drive = DriveParams(0.01, 0.0, 2.0)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive)
        assert trace.metadata["steps"] == 26667
        assert trace.metadata["sample_stride"] == 14
        assert trace.z.size == 1906 and trace.q[-1] == 2.0

    def test_adiabatic_band_following(self):
        # slow Hermitian sweep through the avoided crossing keeps band 1 occupied
        params = LatticeParams(0.2, 0.0)
        drive = DriveParams(1e-4, 0.95, 1.05)
        trace = evolve(prepare_band_state(params, 0.95, 1), params, drive)
        assert np.nanmin(trace.band1_prob) > 0.999

    def test_gain_loss_duality(self):
        # The transition probability depends on the skew amplitude only through
        # its square.  The single-point estimator carries a residual interband
        # interference that decays away from the crossing and is antisymmetric
        # in the skew, so it sets the measurable floor: in the slow-drive
        # regime it sits well below the asymptotic claim's tolerance.
        drive = DriveParams(0.007, 0.0, 1.8)
        p_plus = transition_probability(LatticeParams(0.2, 0.15), drive)
        p_minus = transition_probability(LatticeParams(0.2, -0.15), drive)
        assert p_plus == pytest.approx(p_minus, abs=1e-3)
        # faster drives keep the same symmetry within the estimator floor
        drive = DriveParams(0.05, 0.0, 1.8)
        p_plus = transition_probability(LatticeParams(0.2, 0.15), drive)
        p_minus = transition_probability(LatticeParams(0.2, -0.15), drive)
        assert p_plus == pytest.approx(p_minus, abs=1e-2)

    @pytest.mark.parametrize("rate, v_imag", [(0.03, 0.15), (0.03, -0.10), (0.01, 0.19),
                                              (0.01, -0.19)])
    def test_band_occupations_follow_the_closed_forms(self, rate, v_imag):
        # v_imag manages both occupations after one crossing: band 2 takes the
        # transition P and band 1 keeps the survival, amplified for v_imag > 0
        # and damped for v_imag < 0 (measured within 0.51% and 0.80%)
        params = LatticeParams(0.2, v_imag)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, DriveParams(rate, 0.0, 1.8))
        two = (2 * 0.2, 2 * v_imag, 4 * rate)
        assert trace.band1_prob[-1] == pytest.approx(lz_survival(*two), rel=0.02)
        assert trace.band2_prob[-1] == pytest.approx(lz_probability(*two), rel=0.02)

    @pytest.mark.parametrize("rate, v_imag", [(0.03, 0.15), (0.03, 0.22), (0.03, 0.25),
                                              (0.03, 0.3), (0.1, 0.25), (0.1, 0.3), (0.03, -0.25)])
    def test_occupations_follow_the_continued_forms_past_the_exceptional_point(self, rate,
                                                                                v_imag):
        # one unbroken point and six with |v_imag| > v_real, where band 1 keeps
        # the continued survival and band 2 the transition P > 1 (measured
        # within 1.15% and 1.83%)
        params = LatticeParams(0.2, v_imag, 12)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, DriveParams(rate, 0.0, 1.8))
        two = (2 * 0.2, 2 * v_imag, 4 * rate)
        assert trace.band1_prob[-1] == pytest.approx(lz_survival(*two), rel=0.02)
        assert trace.band2_prob[-1] == pytest.approx(lz_probability(*two), rel=0.02)
        assert trace.metadata["projection_failures"] == 0

    def test_grid_above_the_largest_is_rejected(self):
        # checked on the unrounded step count, so one that overflows is caught too
        assert dynamics._grid(5e8, 0.5, None, 2000)[0] == dynamics.MAX_GRID_STEPS
        for duration, step in ((5e8, 0.4999999), (1e308, 1e-9)):
            with pytest.raises(ParameterError, match="MAX_GRID_STEPS"):
                dynamics._grid(duration, step, None, 2000)

    def test_zero_rate_rejected(self):
        params = LatticeParams(0.2, 0.0)
        state = prepare_band_state(params, 0.0, 1)
        with pytest.raises(ParameterError):
            evolve(state, params, DriveParams(0.0, 0.0, 1.0))

    def test_q_ref_mismatch_rejected(self):
        params = LatticeParams(0.2, 0.0)
        state = prepare_band_state(params, 0.5, 1)
        with pytest.raises(ParameterError):
            evolve(state, params, DriveParams(0.1, 0.0, 1.0))

    @pytest.mark.parametrize("amplitudes", BAD_AMPLITUDES)
    def test_malformed_state_rejected_before_any_step(self, amplitudes, monkeypatch):
        marched = []
        monkeypatch.setattr(dynamics, "_march", lambda *args: marched.append(args) or iter(()))
        with pytest.raises(ParameterError, match="9 finite amplitudes"):
            evolve(ModeVector(amplitudes, 0.0), LatticeParams(0.2, 0.0, 4),
                   DriveParams(0.1, 0.0, 1.0))
        assert marched == []


class TestTransitionProbability:
    def test_hermitian_sweep_matches_closed_form(self):
        # classic level-crossing value exp(-pi (2 v1)^2 / (2 * 4 rate))
        p = transition_probability(LatticeParams(0.2, 0.0), DriveParams(0.03, 0.0, 1.8))
        assert p == pytest.approx(math.exp(-math.pi * 0.16 / 0.24), abs=0.03)

    def test_gain_sweep_matches_closed_form(self):
        p = transition_probability(LatticeParams(0.2, 0.15), DriveParams(0.03, 0.0, 1.8))
        assert p == pytest.approx(math.exp(-math.pi * 0.07 / 0.24), abs=0.03)

    def test_near_critical_goes_to_unity(self):
        p = transition_probability(LatticeParams(0.2, 0.2 - 1e-7), DriveParams(0.05, 0.0, 1.8))
        assert p == pytest.approx(1.0, abs=0.03)

    def test_requires_single_crossing(self):
        with pytest.raises(ParameterError):
            transition_probability(LatticeParams(0.2, 0.0), DriveParams(0.1, 0.0, 3.9))
        with pytest.raises(ParameterError):
            transition_probability(LatticeParams(0.2, 0.0), DriveParams(0.1, 0.0, 0.9))

    @pytest.mark.parametrize("v_imag", [0.0, 0.15, 0.19])
    def test_equals_the_last_sample_of_evolve(self, v_imag):
        # one interval and evolve's projection: a sweep point is bit-for-bit
        # the band-2 occupation of evolve's final sample at q_stop
        params, drive = LatticeParams(0.2, v_imag, 12), DriveParams(0.03, 0.0, 1.8)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive,
                       IntegratorConfig(sample_stride=10**9))
        assert transition_probability(params, drive) == trace.band2_prob[-1]

    @pytest.mark.parametrize("refine", [0, 1.5, True])
    def test_refine_must_be_a_positive_integer(self, refine):
        with pytest.raises(ParameterError, match="refine"):
            transition_probability(LatticeParams(0.2, 0.15, 4), DriveParams(0.3, 0.0, 1.8),
                                   refine=refine)

    @pytest.mark.parametrize("check, refines", [(False, [1]), (True, [1, 2])])
    def test_sweep_point_calls_through_experiments(self, check, refines, monkeypatch):
        # perfbench's tracer wraps experiments.transition_probability: every
        # call of a sweep point, the convergence rerun too, goes through it
        calls = []

        def recorder(params, drive, step=None, refine=1):
            calls.append((step, refine))
            return 0.5

        monkeypatch.setattr(experiments, "transition_probability", recorder)
        job = (LatticeParams(0.2, 0.15, 4), DriveParams(0.3, 0.0, 1.8),
               IntegratorConfig(step=0.2, convergence_check=check))
        assert _sweep_point(job) == (0.5, 0.0)
        assert calls == [(0.2, refine) for refine in refines]

    def test_degenerate_final_momentum_raises(self):
        # at criticality the bands touch at every odd integer, here q_stop = 3
        with pytest.raises(DegenerateBandError):
            transition_probability(LatticeParams(0.2, 0.2, 6), DriveParams(0.3, 0.0, 3.0))


class TestPlateaus:
    def test_windows_exclude_transition_regions(self):
        params = LatticeParams(0.2, 0.1)
        drive = DriveParams(0.1, 0.0, 3.9)
        trace = evolve(prepare_band_state(params, 0.0, 1), params, drive)
        means = plateau_averages(trace)
        assert sorted(means) == [0, 1, 2]
        assert means[0] == pytest.approx(1.0, abs=0.02)
        # power grows at every crossing for positive skew and positive rate
        assert means[1] > means[0] and means[2] > means[1]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_means_follow_the_per_sample_rule(self, sign):
        # each sample on its own: more than 0.5 from every odd integer, its
        # plateau the odd integers passed since q[0]; samples at exactly
        # 0.5 from one (q = 0.5, 1.5, 2.5, 3.5) are excluded
        q = sign * np.arange(79) / 20.0
        power = np.random.default_rng(5).uniform(0.5, 2.0, q.size)
        trace = dynamics.EvolutionTrace(q / 0.03, q, power, np.empty(0), np.empty(0),
                                        None)
        members: dict[int, list] = {}
        for q_i, p_i in zip(q.tolist(), power):
            nearest_odd = 2.0 * round((q_i - 1.0) / 2.0) + 1.0
            if abs(q_i - nearest_odd) > 0.5:
                members.setdefault(_crossings_between(q[0], q_i), []).append(p_i)
        means = plateau_averages(trace)
        assert list(means) == [0, 1, 2]
        assert means == {n: float(np.mean(v)) for n, v in sorted(members.items())}
        # 21 samples of each window [0.5, 1.5] and [2.5, 3.5] are left out
        assert sum(map(len, members.values())) == 79 - 2 * 21
