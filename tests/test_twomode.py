"""Two-level sweep closed forms, exact identities, and the numerical check."""

import math

import numpy as np
import pytest

from ptlattice import (
    IntegratorConfig,
    ParameterError,
    TwoModeParams,
    critical_survival,
    evolve_two_mode,
    lz_probability,
    lz_survival,
    multicross_power,
)
from ptlattice import twomode
from ptlattice import dynamics
from ptlattice.dynamics import _expm
from ptlattice.lattice import LatticeParams
from ptlattice.twomode import _CHUNK, _TABLE, ground_state


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
            lz_probability(0.4, 0.0, 0.0)

    def test_closed_gap_is_a_full_transition(self):
        # x = 0 at |skew| = coupling: nothing rejects the exceptional point
        assert lz_probability(0.4, 0.4, 0.12) == 1.0
        assert lz_probability(0.4, -0.4, 0.12) == 1.0

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        for args in ((bad, 0.3, 0.12), (0.4, bad, 0.12), (0.4, 0.3, bad)):
            for formula in (lz_probability, lz_survival):
                with pytest.raises(ParameterError):
                    formula(*args)
            with pytest.raises(ParameterError):
                multicross_power(*args, 2)
        for args in ((bad, 0.12), (0.4, bad)):
            with pytest.raises(ParameterError):
                critical_survival(*args)

    def test_negative_rate_is_the_transposed_sweep(self):
        # a reversed sweep is the forward one with the skew flipped, as in TwoModeParams
        assert lz_survival(0.4, 0.3, -0.12) == lz_survival(0.4, -0.3, 0.12)
        assert lz_survival(0.4, 0.3, -0.12) == pytest.approx(0.0857, abs=1e-4)
        for n in (1, 2, 3):
            assert multicross_power(0.4, 0.3, -0.12, n) == multicross_power(0.4, -0.3, 0.12, n)


class TestSurvival:
    def test_symmetric_reduction(self):
        p = lz_probability(0.4, 0.0, 0.12)
        assert lz_survival(0.4, 0.0, 0.12) == pytest.approx(1.0 - p, rel=1e-14)

    def test_skewed_value(self):
        # 7 * (1 - 0.3999956...)
        assert lz_survival(0.4, 0.3, 0.12) == pytest.approx(4.2, abs=2e-4)

    @pytest.mark.parametrize("skew, rate", [(0.0, 0.12), (0.15, 0.12), (0.3, 0.12), (-0.3, 0.12),
                                            (0.2, 1e-12), (0.3, -0.12)])
    def test_real_gap_value_is_the_ratio_times_one_minus_p(self, skew, rate):
        # the continued form (c + s)^2 pi/(2 rate) phi(x) is (c + s)/(c - s) (1 - P)
        # wherever the ratio is defined; a negative rate flips the skew
        s = math.copysign(1.0, rate) * skew
        expected = (0.4 + s) / (0.4 - s) * (1.0 - lz_probability(0.4, skew, rate))
        assert lz_survival(0.4, skew, rate) == pytest.approx(expected, rel=1e-14)

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

    def test_reversed_sweep_empties_the_ground_level(self):
        # a negative rate is the transposed sweep, skew = -coupling, which leaves nothing
        for coupling, rate in ((0.4, -0.12), (0.2, -0.004), (0.0, -0.12)):
            assert critical_survival(coupling, rate) == 0.0


class TestPastTheExceptionalPoint:
    @pytest.mark.parametrize("coupling, skew, rate", [(0.4, 0.5, 0.12), (0.4, -0.6, 0.12),
                                                      (0.2, 0.3, 0.05), (0.0, 0.3, 0.5)])
    def test_broken_phase_continues_the_real_gap_forms(self, coupling, skew, rate):
        # x < 0: P > 1, and the ratio and 1 - P are both negative
        x = math.pi * (coupling**2 - skew**2) / (2.0 * rate)
        p = lz_probability(coupling, skew, rate)
        assert x < 0.0 and p == math.exp(-x) > 1.0
        expected = (coupling + skew) / (coupling - skew) * (1.0 - p)
        assert lz_survival(coupling, skew, rate) == pytest.approx(expected, rel=1e-13)
        assert lz_survival(coupling, skew, rate) > 0.0

    def test_critical_survival_is_the_continued_form_at_closed_gap(self):
        for coupling, rate in ((0.4, 0.12), (0.2, 0.004), (0.4, -0.12)):
            assert critical_survival(coupling, rate) == lz_survival(coupling, coupling, rate)

    def test_continuation_is_smooth_through_the_exceptional_point(self):
        # survival and P are analytic in coupling^2 - skew^2: no jump at skew = coupling
        for eps in (1e-6, 1e-9):
            for f in (lz_probability, lz_survival):
                below, at, above = (f(0.4, 0.4 + d, 0.12) for d in (-eps, 0.0, eps))
                assert below < at < above
                assert above - at == pytest.approx(at - below, rel=1e-2)

    @pytest.mark.parametrize("call", [
        lambda: multicross_power(0.4, 0.39, 1e-4, 300),  # 79.0**300
        lambda: lz_probability(0.4, 1.6, 0.004),  # exp(942)
        lambda: lz_survival(0.4, 1.6, 0.004),  # expm1(942)
        lambda: lz_survival(coupling=0.4, skew=1.6, rate=0.004),
        # the factor (c + s)^2 pi/(2 rate) overflows though the survival is about 7 and 19
        lambda: lz_survival(0.4, 0.3, 5e-324),
        lambda: lz_survival(1e154, 9e153, 1.0),
        # S = P - 1 and P = exp(709.5) are finite, but S + P sums to inf
        lambda: multicross_power(0.0, 1.0, math.pi / 1419.0, 1),
    ])
    def test_values_beyond_the_float_range_raise(self, call):
        with pytest.raises(ParameterError, match="leaves the float range"):
            call()

    def test_sum_overflow_case_has_finite_terms(self):
        rate = math.pi / 1419.0
        p = lz_probability(0.0, 1.0, rate)
        assert p > 1e308 and lz_survival(0.0, 1.0, rate) == pytest.approx(p - 1.0, rel=1e-12)


class TestMulticross:
    def test_zero_crossings_is_unity(self):
        assert multicross_power(0.4, 0.3, 0.12, 0) == 1.0
        # even where S and P leave the float range: no crossing, no change
        assert multicross_power(0.4, 1.6, 0.004, 0) == 1.0

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
        # the closed forms take the reversed rate as it is
        assert tail1 == pytest.approx(lz_survival(0.4, 0.3, -0.12), rel=0.02)

    @pytest.mark.parametrize("coupling", [0.2, 0.4])
    @pytest.mark.parametrize("skew", [0.44, 0.5, 0.6, -0.5])
    def test_broken_phase_tails_follow_the_continued_forms(self, coupling, skew):
        # past the exceptional point, at the default step; measured worst 8.5e-4
        for rate in (0.05, 0.12, 0.5):
            tail1, tail2 = evolve_two_mode(TwoModeParams(coupling, skew, rate)).tail_intensities()
            assert tail1 == pytest.approx(lz_survival(coupling, skew, rate), rel=2e-3)
            assert tail2 == pytest.approx(lz_probability(coupling, skew, rate), rel=2e-3)

    def test_reversed_critical_run_empties_the_ground_level(self):
        trace = evolve_two_mode(TwoModeParams(0.4, 0.4, -0.12))
        tail1, _ = trace.tail_intensities()
        assert tail1 == pytest.approx(critical_survival(0.4, -0.12), abs=1e-3)

    def test_tails_beyond_the_float_range_raise(self):
        # amplitudes of 1e200 are finite, their intensities are not
        a = np.full(20, 1e200 + 0j)
        trace = twomode.TwoModeTrace(np.arange(20.0), a, a)
        with pytest.raises(ParameterError, match="leave the float range"):
            trace.tail_intensities()

    def test_ground_state_is_instantaneous_eigenvector(self):
        params = TwoModeParams(0.4, 0.3, 0.12)
        t = -250.0
        vec = ground_state(params, t)
        eps = -0.12 * t / 2.0
        h = np.array([[eps, (0.4 + 0.3) / 2.0], [(0.4 - 0.3) / 2.0, -eps]], dtype=complex)
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
        # a table step spans one grid step, and advances the diagonal phase
        # by at most 1.08 rad where the sweep is farthest out
        assert rate * 300.0 / 2.0 * dt <= 1.08 * (1 + 1e-12)

    @pytest.mark.parametrize("stride", [2, 3, 10])
    def test_default_step_holds_at_any_stride(self, stride):
        # a table step spans one grid step at any stride, so a configured
        # stride keeps the default grid step and the accuracy as they are
        params = TwoModeParams(0.4, 0.3, 0.12)
        base = evolve_two_mode(params)
        trace = evolve_two_mode(params, config=IntegratorConfig(sample_stride=stride))
        assert base.metadata["steps"] == trace.metadata["steps"] == 10000
        assert 0.12 * 300.0 / 2.0 * trace.metadata["step"] <= 1.08 * (1 + 1e-12)
        for got, want in zip((trace.a1, trace.a2), (base.a1, base.a2)):
            assert abs(abs(got[-1]) ** 2 - abs(want[-1]) ** 2) < 1e-5

    @pytest.mark.parametrize("stride", [2, 3, 10])
    def test_stride_only_thins_the_samples(self, stride):
        # the strided run marches the unstrided run's 10000 table steps and
        # samples every stride-th of its grid points
        params = TwoModeParams(0.4, 0.3, 0.12)
        base = evolve_two_mode(params)
        trace = evolve_two_mode(params, config=IntegratorConfig(sample_stride=stride))
        assert trace.metadata["steps"] == base.metadata["steps"] == 10000
        grid = [*range(0, 10000, stride), 10000]
        assert trace.t.tolist() == base.t[grid].tolist()
        for got, want in zip((trace.a1, trace.a2), (base.a1, base.a2)):
            assert np.max(np.abs(got - want[grid])) <= 1e-12
            assert abs(abs(got[-1]) ** 2 - abs(want[-1]) ** 2) <= 1e-12

    @pytest.mark.parametrize("rate, t_span, config, marched", [
        # the default step at rate 0.5 is 1.08/75 = 0.0144 over a span of 600
        (0.5, None, IntegratorConfig(), 41667),
        # a configured step is the table step, whatever the stride
        (0.12, (-40.0, 40.0), IntegratorConfig(step=0.02, sample_stride=7), 4000),
    ])
    def test_one_table_step_per_grid_step(self, monkeypatch, rate, t_span, config, marched):
        runs = record_marches(monkeypatch)
        trace = evolve_two_mode(TwoModeParams(0.4, 0.3, rate), t_span=t_span, config=config)
        assert trace.metadata["steps"] == marched
        assert [t.size for t, _ in runs] == [marched]

    def test_sixth_order_convergence(self):
        from scipy.integrate import solve_ivp

        params = TwoModeParams(0.4, 0.3, 0.12)
        span = (-20.0, 20.0)
        cu, cl = (0.4 + 0.3) / 2.0, (0.4 - 0.3) / 2.0

        def deriv(t, a):
            eps = -0.12 * t / 2.0
            return -1j * np.array([eps * a[0] + cu * a[1], cl * a[0] - eps * a[1]])

        ref = solve_ivp(deriv, span, ground_state(params, span[0]), method="DOP853",
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

    def test_negative_coupling_rejected(self):
        with pytest.raises(ParameterError, match="coupling must be non-negative"):
            TwoModeParams(-0.4, 0.0, 0.12)

    def test_sweep_starts_in_the_ground_level(self):
        # the first sample is the instantaneous ground level at t_span[0]
        params = TwoModeParams(0.4, 0.3, 0.12)
        for span in ((-40.0, 40.0), (-5.0, 60.0)):
            trace = evolve_two_mode(params, t_span=span)
            assert trace.t[0] == span[0]
            assert (trace.a1[0], trace.a2[0]) == tuple(ground_state(params, span[0]))

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


def record_marches(monkeypatch):
    """Spy on twomode._march: per run, where each table step ends and the
    grid point it ends a sample interval on (0 inside an interval)."""
    runs = []
    march = twomode._march

    def spy(*args):
        chunks = list(march(*args))
        runs.append((np.concatenate([t[:, -1] for _, _, t, *_ in chunks]),
                     np.concatenate([ends for *_, ends in chunks])))
        return iter(chunks)

    monkeypatch.setattr(twomode, "_march", spy)
    return runs


def sequential_states(params, t_span, n_steps, stride):
    """States at the grid points 0, stride, 2 stride, ..., n_steps, one sub-step at a time.

    Each grid step is one step of the two-level weight table, the diagonal
    flow to a kick node, the kick, and so on to the step's end, as one
    sequential product of 2x2 matrices with no phase folded.
    """
    weights, nodes, _ = _TABLE
    t0, t1 = t_span
    dt = (t1 - t0) / n_steps
    coupling = np.array([[0.0, params.coupling + params.skew],
                         [params.coupling - params.skew, 0.0]]) / 2.0
    kicks = [_expm(-1j * w * dt * coupling) for w in weights] + [np.eye(2)]
    a = ground_state(params, t0)
    states = [a]
    for i in range(n_steps):
        t = t0 + dt * (i + nodes)
        z = np.exp(0.25j * params.rate * dt * np.diff(nodes) * (t[:-1] + t[1:]))
        for zi, kick in zip(z, kicks):
            a = kick @ (np.array([zi, zi.conjugate()]) * a)
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            states.append(a)
    return np.array(states).T, dt


class TestScanKernel:
    # 4000 grid steps of 0.02
    SPAN = (-40.0, 40.0)

    # skew = -coupling has no upper coupling, so each kick's omega comes from
    # its lower entry; with no coupling at all both entries are 0
    @pytest.mark.parametrize("coupling, skew", [
        (0.4, -0.3), (0.4, 0.3), (0.4, 0.4), (0.4, -0.4), (0.4, 0.6), (0.0, 0.3), (0.0, 0.0),
    ], ids=["loss", "gain", "critical", "anti_critical", "broken", "skew_only", "uncoupled"])
    def test_matches_sequential_product(self, coupling, skew):
        # one table step per grid step: three full chunks and a partial one
        params = TwoModeParams(coupling, skew, 0.12)
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

    def test_folded_steps_of_the_convergence_rerun(self):
        # intervals of 7 grid steps take 7 table steps, and 14 in the rerun,
        # each but the first folded into the one before
        params = TwoModeParams(0.4, 0.3, 0.12)
        config = IntegratorConfig(step=0.02, sample_stride=7, convergence_check=True)
        trace = evolve_two_mode(params, t_span=self.SPAN, config=config)
        ref, _ = sequential_states(params, self.SPAN, 4000, 7)
        finer, _ = sequential_states(params, self.SPAN, 8000, 8000)
        for got, want in zip((trace.a1, trace.a2), ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the rerun's final intensities, through their change from the run's
        want = np.sum(np.abs(np.abs(ref[:, -1]) ** 2 - np.abs(finer[:, -1]) ** 2))
        got = trace.metadata["final_intensity_halving_diff"]
        assert abs(got - want) <= 1e-12 * np.max(np.abs(finer[:, -1]) ** 2)

    def test_remainder_of_another_step_length(self, monkeypatch):
        # 4000 grid steps sampled every 29: the remainder of 27 grid steps
        # takes table steps 27 dt/27, one ulp off 29 dt/29
        lengths = []
        march = twomode._march

        def spy(*args):
            for chunk in march(*args):
                lengths.append(chunk[1])
                yield chunk

        monkeypatch.setattr(twomode, "_march", spy)
        params = TwoModeParams(0.4, 0.3, 0.12)
        trace = evolve_two_mode(params, t_span=self.SPAN,
                                config=IntegratorConfig(step=0.02, sample_stride=29))
        assert len(set(lengths)) == 2
        ref, _ = sequential_states(params, self.SPAN, 4000, 29)
        for got, want in zip((trace.a1, trace.a2), ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("coupling, skew", [
        (0.4, 0.3), (0.4, 0.6), (0.4, 0.4), (0.4, -0.4), (0.0, 0.3), (0.0, 0.0),
    ])
    def test_pair_product_is_the_matrix_product(self, coupling, skew):
        rng = np.random.default_rng(5)
        upper, lower = (coupling + skew) / 2.0, (coupling - skew) / 2.0

        def matrix(p, w):
            return np.array([[p, upper * w], [-lower * np.conj(w), np.conj(p)]])

        # every kick is a pair, its omega read off whichever coupling entry is not 0
        c = np.array([[0.0, upper], [lower, 0.0]])
        for tau in (0.02, 1.0, 30.0):
            kick = _expm(-1j * tau * c)
            got = matrix(*twomode._kick_pair(kick, upper, lower))
            assert np.max(np.abs(got - kick)) <= 1e-15 * np.max(np.abs(kick))
        a, b = (rng.normal(size=(2, 50)) + 1j * rng.normal(size=(2, 50)) for _ in range(2))
        p, w = twomode._product(a, b, upper * lower)
        for j in range(50):
            want = matrix(*a[:, j]) @ matrix(*b[:, j])
            assert np.max(np.abs(matrix(p[j], w[j]) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_convergence_rerun_uses_twice_the_steps(self, monkeypatch):
        # 4000 grid steps sampled every 22: 181 intervals of 22 grid steps
        # take 22 table steps each and the remaining 18 take 18; the rerun
        # takes 44 and 36
        runs = record_marches(monkeypatch)
        config = IntegratorConfig(step=0.02, sample_stride=22, convergence_check=True)
        trace = evolve_two_mode(TwoModeParams(0.4, 0.3, 0.12), t_span=self.SPAN, config=config)
        assert trace.metadata["steps"] == 4000
        (t, ends), (t_finer, ends_finer) = runs
        # where each table step ends, from the start, and the grid point it
        # ends an interval on
        steps = np.diff(t, prepend=0.0)
        np.testing.assert_allclose(steps, [0.02] * 4000, rtol=1e-9)
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
        # 4000 grid steps sampled every 7: intervals of 7 and of 3 grid steps
        # both take table steps of one grid step, one step length for five
        # distinct weights
        config = IntegratorConfig(step=0.02, sample_stride=7)
        evolve_two_mode(TwoModeParams(0.4, 0.3, 0.12), t_span=self.SPAN, config=config)
        assert len(calls) == 5


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

