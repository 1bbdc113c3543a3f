"""Two-level sweep closed forms, exact identities, and the numerical check."""

import cmath
import math

import numpy as np
import pytest

from ptlattice import (
    IntegratorConfig,
    ParameterError,
    TwoModeParams,
    amplification_ratio,
    anti_critical_limit,
    critical_survival,
    evolve_two_mode,
    lz_probability,
    lz_survival,
    multicross_power,
    two_mode_eigenvalues,
)
from ptlattice import twomode
from ptlattice import dynamics
from ptlattice.dynamics import _NODES, _WEIGHTS, _expm
from ptlattice.lattice import LatticeParams
from ptlattice.twomode import _CHUNK, ground_state


class TestEigenvalues:
    def test_real_gap(self):
        plus, minus = two_mode_eigenvalues(0.0, 0.4, 0.3)
        expected = math.sqrt((0.4**2 - 0.3**2) / 4.0)
        assert plus == pytest.approx(expected, rel=1e-12)
        assert minus == pytest.approx(-expected, rel=1e-12)

    def test_gap_closes_at_matched_amplitudes(self):
        assert two_mode_eigenvalues(0.0, 0.4, 0.4) == (0.0, 0.0)

    def test_imaginary_pair_beyond_criticality(self):
        plus, minus = two_mode_eigenvalues(0.0, 0.4, 0.5)
        assert plus == pytest.approx(0.15j, rel=1e-12)
        assert minus == pytest.approx(-0.15j, rel=1e-12)

    def test_large_detuning_keeps_levels_real(self):
        plus, _ = two_mode_eigenvalues(1.0, 0.4, 0.5)
        assert plus.imag == 0.0


class TestAmplificationRatio:
    def test_values(self):
        assert amplification_ratio(0.4, 0.0) == 1.0
        assert amplification_ratio(0.4, 0.2) == pytest.approx(3.0, rel=1e-14)
        assert amplification_ratio(0.4, -0.2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_singular_at_matched_amplitudes(self):
        with pytest.raises(ParameterError):
            amplification_ratio(0.4, 0.4)


class TestTransitionFormulas:
    def test_symmetric_case_value(self):
        assert lz_probability(0.4, 0.0, 0.12) == pytest.approx(
            math.exp(-math.pi * 0.16 / 0.24), rel=1e-15
        )

    def test_skewed_case_value(self):
        assert lz_probability(0.4, 0.3, 0.12) == pytest.approx(
            math.exp(-math.pi * 0.07 / 0.24), rel=1e-15
        )

    def test_sudden_limit(self):
        assert lz_probability(0.4, 0.0, 1e9) == pytest.approx(1.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            lz_probability(0.4, 0.4, 0.12)
        with pytest.raises(ParameterError):
            lz_probability(0.4, -0.5, 0.12)
        with pytest.raises(ParameterError):
            lz_probability(0.4, 0.0, 0.0)

    def test_reduces_to_classic_form_exactly(self):
        for coupling, rate in ((0.4, 0.12), (0.2, 0.05), (0.7, 2.0)):
            assert lz_probability(coupling, 0.0, rate) == math.exp(
                -math.pi * coupling**2 / (2.0 * rate)
            )

    def test_skew_sign_symmetry_exact(self):
        for skew in (0.1, 0.25, 0.399):
            assert lz_probability(0.4, skew, 0.12) == lz_probability(0.4, -skew, 0.12)

    def test_rate_sign_is_ignored(self):
        assert lz_probability(0.4, 0.3, -0.12) == lz_probability(0.4, 0.3, 0.12)


class TestSurvival:
    def test_symmetric_reduction(self):
        p = lz_probability(0.4, 0.0, 0.12)
        assert lz_survival(0.4, 0.0, 0.12) == pytest.approx(1.0 - p, rel=1e-14)

    def test_skewed_value(self):
        # 7 * (1 - 0.3999956...) computed from the two factors directly
        expected = amplification_ratio(0.4, 0.3) * (1.0 - lz_probability(0.4, 0.3, 0.12))
        assert lz_survival(0.4, 0.3, 0.12) == pytest.approx(expected, rel=1e-12)
        assert lz_survival(0.4, 0.3, 0.12) == pytest.approx(4.2, abs=2e-4)

    def test_adiabatic_limit_is_amplification_ratio(self):
        assert lz_survival(0.4, 0.2, 1e-12) == pytest.approx(3.0, rel=1e-12)

    def test_tiny_gap_stays_accurate(self):
        # expm1 keeps amplification * (1 - P) finite and correct near the gap closure
        skew = 0.4 - 1e-7
        expected = 2.0 * math.pi * 0.4**2 / 0.12  # vanishing-gap limit
        assert lz_survival(0.4, skew, 0.12) == pytest.approx(expected, rel=1e-5)


class TestCriticalLimits:
    def test_critical_survival_values(self):
        assert critical_survival(0.4, 0.12) == pytest.approx(2 * math.pi * 0.16 / 0.12, rel=1e-14)
        assert critical_survival(0.4, 0.12) == pytest.approx(8.3776, abs=1e-4)
        assert critical_survival(0.4, 0.004) == pytest.approx(251.33, abs=1e-2)
        assert critical_survival(0.0, 0.12) == 0.0

    def test_rate_zero_rejected(self):
        with pytest.raises(ParameterError):
            critical_survival(0.4, 0.0)

    def test_anti_critical_limit(self):
        assert anti_critical_limit() == (0.0, 1.0)


class TestMulticross:
    def test_zero_crossings_is_unity(self):
        assert multicross_power(0.4, 0.3, 0.12, 0) == 1.0

    def test_single_crossing_identity_exact(self):
        for skew in (0.0, 0.15, 0.3, -0.3):
            total = multicross_power(0.4, skew, 0.12, 1)
            assert total == lz_survival(0.4, skew, 0.12) + lz_probability(0.4, skew, 0.12)

    def test_values(self):
        assert multicross_power(0.4, 0.3, 0.12, 1) == pytest.approx(4.6, abs=3e-4)
        assert multicross_power(0.4, 0.3, 0.12, 2) == pytest.approx(19.72, abs=2e-3)

    def test_anti_critical_power_is_flat(self):
        for n in (1, 2, 3):
            assert multicross_power(0.4, -0.4 + 1e-12, 0.12, n) == pytest.approx(1.0, abs=1e-6)

    def test_near_critical_matches_geometric_sum(self):
        skew = 0.4 - 1e-7
        lam = critical_survival(0.4, 0.12)
        assert multicross_power(0.4, skew, 0.12, 1) == pytest.approx(1 + lam, rel=1e-4)
        assert multicross_power(0.4, skew, 0.12, 2) == pytest.approx(1 + lam + lam**2, rel=1e-4)

    def test_monotonicity_in_skew(self):
        skews = np.linspace(0.0, 0.39, 14)
        probs = [lz_probability(0.4, s, 0.12) for s in skews]
        survs = [lz_survival(0.4, s, 0.12) for s in skews]
        assert np.all(np.diff(probs) > 0)
        assert np.all(np.diff(survs) > 0)

    def test_negative_crossings_rejected(self):
        for crossings in (-1, 2.0, True):
            with pytest.raises(ParameterError):
                multicross_power(0.4, 0.3, 0.12, crossings)


class TestEvolution:
    def test_decoupled_component_at_matched_amplitudes(self):
        # the lower-at-start component feels no coupling when skew == coupling
        params = TwoModeParams(coupling=0.4, skew=0.4, rate=0.12)
        trace = evolve_two_mode(params, t_span=(-300.0, 300.0))
        mags = np.abs(trace.a2)
        assert abs(mags[0] ** 2 - 1.0) < 1e-3
        # the coupling exponential is upper triangular, so at the default step
        # a2 only picks up unit-modulus phases
        assert np.max(np.abs(mags - mags[0])) < 1e-12

    def test_matched_amplitudes_reach_critical_survival(self):
        params = TwoModeParams(coupling=0.4, skew=0.4, rate=0.12)
        trace = evolve_two_mode(params)
        tail1, _ = trace.tail_intensities()
        assert tail1 == pytest.approx(critical_survival(0.4, 0.12), rel=0.02)

    def test_symmetric_case_reaches_classic_value(self):
        params = TwoModeParams(coupling=0.4, skew=0.0, rate=0.12)
        trace = evolve_two_mode(params)
        _, tail2 = trace.tail_intensities()
        assert tail2 == pytest.approx(lz_probability(0.4, 0.0, 0.12), rel=0.01)

    def test_negative_rate_maps_to_flipped_skew(self):
        trace = evolve_two_mode(TwoModeParams(0.4, 0.3, -0.12))
        tail1, tail2 = trace.tail_intensities()
        assert tail1 == pytest.approx(lz_survival(0.4, -0.3, 0.12), rel=0.02)
        assert tail2 == pytest.approx(lz_probability(0.4, -0.3, 0.12), rel=0.02)

    def test_ground_state_is_instantaneous_eigenvector(self):
        params = TwoModeParams(0.4, 0.3, 0.12)
        t = -250.0
        state = ground_state(params, t)
        eps = -0.12 * t / 2.0
        h = np.array([[eps, (0.4 + 0.3) / 2.0], [(0.4 - 0.3) / 2.0, -eps]], dtype=complex)
        vec = np.array([state.a1, state.a2])
        low = min(np.linalg.eigvals(h).real)
        residual = h @ vec - low * vec
        assert np.linalg.norm(residual) < 1e-10
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-14

    def test_convergence_check_metadata(self):
        trace = evolve_two_mode(
            TwoModeParams(0.4, 0.0, 0.12), t_span=(-50.0, 50.0),
            config=IntegratorConfig(convergence_check=True),
        )
        assert "final_intensity_halving_diff" in trace.metadata
        assert trace.metadata["warnings"] == []

    def test_coarse_step_warns(self):
        trace = evolve_two_mode(
            TwoModeParams(0.4, 0.0, 0.12), t_span=(-50.0, 50.0),
            config=IntegratorConfig(step=1.0, convergence_check=True),
        )
        assert trace.metadata["final_intensity_halving_diff"] > 1e-4
        assert len(trace.metadata["warnings"]) == 1

    @pytest.mark.parametrize("rate", [0.12, 0.5])
    def test_default_trace_samples(self, rate):
        trace = evolve_two_mode(TwoModeParams(0.4, 0.3, rate))
        steps, dt = trace.metadata["steps"], trace.metadata["step"]
        stride = math.ceil(steps / 20000)
        assert trace.t.size == steps // stride + 1 + (steps % stride != 0)
        assert trace.t.size <= 20001
        assert trace.t[0] == -300.0
        assert trace.t[-1] == 300.0
        np.testing.assert_allclose(np.diff(trace.t[:-1]), stride * dt, rtol=1e-9)
        # a table step spans at most min(stride, 3) grid steps, and advances
        # the diagonal phase by at most 1.08 rad where the sweep is farthest out
        assert rate * 300.0 / 2.0 * min(stride, 3) * dt <= 1.08 * (1 + 1e-12)

    @pytest.mark.parametrize("stride", [2, 3, 10])
    def test_default_step_holds_at_any_stride(self, stride):
        # a table step spans up to min(stride, 3) grid steps, so a configured
        # stride shrinks the default grid step and leaves the accuracy as it is
        params = TwoModeParams(0.4, 0.3, 0.12)
        base = evolve_two_mode(params)
        trace = evolve_two_mode(params, config=IntegratorConfig(sample_stride=stride))
        assert base.metadata["steps"] == 10000
        assert trace.metadata["steps"] == 10000 * min(stride, 3)
        assert 0.12 * 300.0 / 2.0 * min(stride, 3) * trace.metadata["step"] <= 1.08 * (1 + 1e-12)
        for got, want in zip((trace.a1, trace.a2), (base.a1, base.a2)):
            assert abs(abs(got[-1]) ** 2 - abs(want[-1]) ** 2) < 1e-5

    def test_sixth_order_convergence(self):
        from scipy.integrate import solve_ivp

        params = TwoModeParams(0.4, 0.3, 0.12)
        span = (-20.0, 20.0)
        start = ground_state(params, span[0])
        cu, cl = (0.4 + 0.3) / 2.0, (0.4 - 0.3) / 2.0

        def deriv(t, a):
            eps = -0.12 * t / 2.0
            return -1j * np.array([eps * a[0] + cu * a[1], cl * a[0] - eps * a[1]])

        ref = solve_ivp(deriv, span, np.array([start.a1, start.a2]), method="DOP853",
                        rtol=1e-13, atol=1e-13).y[:, -1]
        errs = []
        for h in (0.4, 0.2):
            trace = evolve_two_mode(params, t_span=span, config=IntegratorConfig(step=h))
            errs.append(abs(trace.a1[-1] - ref[0]) + abs(trace.a2[-1] - ref[1]))
        assert math.log2(errs[0] / errs[1]) == pytest.approx(6.0, abs=0.3)

    def test_zero_rate_rejected(self):
        # rejected when the parameters are built, before any integration
        with pytest.raises(ParameterError, match="rate must be non-zero"):
            TwoModeParams(0.4, 0.0, 0.0)

    def test_initial_state_must_start_the_span(self):
        # the state is marched from t_span[0], so one prepared at another time
        # is an error, not a silent restart
        params = TwoModeParams(0.4, 0.3, 0.12)
        span = (-40.0, 40.0)
        with pytest.raises(ParameterError, match="span starts"):
            evolve_two_mode(params, t_span=span, initial=ground_state(params, 10.0))
        given = evolve_two_mode(params, t_span=span, initial=ground_state(params, span[0]))
        default = evolve_two_mode(params, t_span=span)
        np.testing.assert_array_equal(given.a1, default.a1)
        np.testing.assert_array_equal(given.a2, default.a2)

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.01])
    def test_invalid_step_rejected(self, step):
        with pytest.raises(ParameterError):
            evolve_two_mode(TwoModeParams(0.4, 0.0, 0.12), config=IntegratorConfig(step=step))

    @pytest.mark.parametrize("field", ["coupling", "skew", "rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, field, bad):
        values = {"coupling": 0.4, "skew": 0.3, "rate": 0.12}
        values[field] = bad
        with pytest.raises(ParameterError):
            TwoModeParams(**values)


def sequential_states(params, t_span, n_steps, stride):
    """States at the grid points 0, stride, 2 stride, ..., n_steps, one sub-step at a time.

    Each interval of L grid steps takes ceil(L/3) equal steps of the weight
    table, each the diagonal flow to a kick node, the kick, and so on to the
    step's end, as one sequential product of 2x2 matrices with no phase folded.
    """
    t0, t1 = t_span
    dt = (t1 - t0) / n_steps
    coupling = np.array([[0.0, params.coupling + params.skew],
                         [params.coupling - params.skew, 0.0]]) / 2.0
    start = ground_state(params, t0)
    a = np.array([start.a1, start.a2])
    states, kicks = [a], {}
    for i in range(0, n_steps, stride):
        length = min(stride, n_steps - i)
        m = math.ceil(length / 3)
        h = length * dt / m
        if h not in kicks:
            kicks[h] = [_expm(-1j * w * h * coupling) for w in _WEIGHTS] + [np.eye(2)]
        for j in range(m):
            t = t0 + i * dt + h * (j + _NODES)
            z = np.exp(0.25j * params.rate * h * np.diff(_NODES) * (t[:-1] + t[1:]))
            for zi, kick in zip(z, kicks[h]):
                a = kick @ (np.array([zi, zi.conjugate()]) * a)
        states.append(a)
    return np.array(states).T, dt


class TestScanKernel:
    # 4000 grid steps of 0.02
    SPAN = (-40.0, 40.0)

    @pytest.mark.parametrize("skew", [-0.3, 0.3, 0.4], ids=["loss", "gain", "critical"])
    def test_matches_sequential_product(self, skew):
        # one table step per grid step: three full chunks and a partial one
        params = TwoModeParams(0.4, skew, 0.12)
        config = IntegratorConfig(step=0.02, sample_stride=1)
        trace = evolve_two_mode(params, t_span=self.SPAN, config=config)
        n_steps = trace.metadata["steps"]
        assert n_steps == 4000 and n_steps % _CHUNK != 0
        ref, _ = sequential_states(params, self.SPAN, n_steps, 1)
        for got, want in zip((trace.a1, trace.a2), ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("stride", [1, 2, 7, 10**6])
    def test_sample_grid(self, stride):
        params = TwoModeParams(0.4, 0.3, 0.12)
        trace = evolve_two_mode(params, t_span=self.SPAN,
                                config=IntegratorConfig(step=0.02, sample_stride=stride))
        n_steps = trace.metadata["steps"]
        ref, dt = sequential_states(params, self.SPAN, n_steps, stride)
        steps = [0, *range(stride, n_steps, stride), n_steps]
        assert trace.t.tolist() == [self.SPAN[0] + i * dt for i in steps[:-1]] + [self.SPAN[1]]
        for got, want in zip((trace.a1, trace.a2), ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_convergence_rerun_uses_twice_the_steps(self, monkeypatch):
        # 4000 grid steps sampled every 22: 181 intervals of 22 grid steps
        # take 8 table steps each and the remaining 18 take 6; the rerun takes
        # 16 and 12, where ceil(2L/3) would give 15 for L = 22
        runs = []

        def spy(*args):
            chunks = list(march(*args))
            runs.append((np.concatenate([t[:, -1] for _, t, _, _ in chunks]),
                         np.concatenate([ends for *_, ends in chunks])))
            return iter(chunks)

        march = twomode._march
        monkeypatch.setattr(twomode, "_march", spy)
        config = IntegratorConfig(step=0.02, sample_stride=22, convergence_check=True)
        trace = evolve_two_mode(TwoModeParams(0.4, 0.3, 0.12), t_span=self.SPAN, config=config)
        assert trace.metadata["steps"] == 4000
        (t, ends), (t_finer, ends_finer) = runs
        # where each table step ends, from the start, and the grid point it
        # ends an interval on
        steps = np.diff(t, prepend=0.0)
        np.testing.assert_allclose(steps, [0.44 / 8] * (181 * 8) + [0.36 / 6] * 6, rtol=1e-9)
        np.testing.assert_allclose(t_finer[1::2], t, rtol=1e-12)
        np.testing.assert_allclose(np.diff(t_finer, prepend=0.0), np.repeat(steps / 2, 2),
                                   rtol=1e-9)
        grid = [*range(22, 4000, 22), 4000]
        assert ends[ends > 0].tolist() == ends_finer[ends_finer > 0].tolist() == grid

    def test_expm_once_per_weight_and_step_length(self, monkeypatch):
        calls = []

        def spy(a):
            calls.append(a)
            return expm(a)

        expm = dynamics._expm
        monkeypatch.setattr(dynamics, "_expm", spy)
        # 4000 grid steps sampled every 7: two step lengths, five distinct weights
        config = IntegratorConfig(step=0.02, sample_stride=7)
        evolve_two_mode(TwoModeParams(0.4, 0.3, 0.12), t_span=self.SPAN, config=config)
        assert len(calls) == 2 * 5


class TestCouplingExponential:
    # unbroken, broken (cu*cl < 0), critical (cl = 0) and no coupling at all
    @pytest.mark.parametrize("coupling, skew", [(0.4, 0.3), (0.4, 0.7), (0.4, 0.4), (0.0, 0.0)])
    def test_matches_scipy(self, coupling, skew):
        from scipy.linalg import expm

        c = np.array([[0.0, coupling + skew], [coupling - skew, 0.0]]) / 2.0
        for tau in (1e-3, 0.02, 1.0, 30.0):
            a = -1j * tau * c
            got, ref = _expm(a), expm(a)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (tau, got, ref)
            if coupling == skew:
                assert got[1, 0] == 0.0


class TestLatticeReduction:
    def test_amplitude_mapping(self):
        two = TwoModeParams.from_lattice(LatticeParams(0.2, 0.15), 0.03)
        assert (two.coupling, two.skew, two.rate) == (0.4, 0.3, 0.12)

    def test_reversed_drive_flips_skew(self):
        two = TwoModeParams.from_lattice(LatticeParams(0.2, 0.15), -0.03)
        assert (two.coupling, two.skew, two.rate) == (0.4, -0.3, 0.12)

    def test_negative_rate_is_the_transposed_problem(self):
        assert TwoModeParams(0.4, 0.3, -0.12) == TwoModeParams(0.4, -0.3, 0.12)


def test_eigenvalue_root_is_principal():
    plus, _ = two_mode_eigenvalues(0.3, 0.4, 0.5)
    assert plus == pytest.approx(cmath.sqrt(0.3**2 + (0.16 - 0.25) / 4), rel=1e-12)
