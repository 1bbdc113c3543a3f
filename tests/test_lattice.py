"""Lattice operators: construction, symmetrization, eigensystem, phase."""

import math

import numpy as np
import pytest

from ptlattice import (
    LatticeParams,
    ParameterError,
    PhaseError,
    PhysicalParams,
    band_structure,
    build_hamiltonian,
    eigensystem,
    physical_to_dimensionless,
    pt_phase,
)
from ptlattice.lattice import band_arrays, band_energies


def dense_oracle(v_real, v_imag, l_max, q):
    """Independent dense construction of the mode operator."""
    n = 2 * l_max + 1
    h = np.zeros((n, n))
    for i, l in enumerate(range(-l_max, l_max + 1)):
        h[i, i] = (2 * l + q) ** 2
        if i + 1 < n:
            h[i, i + 1] = v_real + v_imag
            h[i + 1, i] = v_real - v_imag
    return h


class TestUnitConversion:
    def test_unit_ratio_amplitudes(self):
        p = PhysicalParams(wavelength=1.0, substrate_index=1.0, period=1.0,
                           real_amplitude=0.0, imag_amplitude=0.0)
        energy = p.recoil_energy
        p = PhysicalParams(1.0, 1.0, 1.0, real_amplitude=2 * energy, imag_amplitude=0.0)
        dim = physical_to_dimensionless(p)
        assert dim.v_real == pytest.approx(1.0, abs=1e-15)
        assert dim.v_imag == 0.0
        assert dim.drive_rate == 0.0

    def test_rate_linear_in_gradient(self):
        base = PhysicalParams(1.0, 2.0, 5.0, 0.1, 0.0, gradient=1e-4)
        doubled = PhysicalParams(1.0, 2.0, 5.0, 0.1, 0.0, gradient=2e-4)
        r1 = physical_to_dimensionless(base).drive_rate
        r2 = physical_to_dimensionless(doubled).drive_rate
        assert r2 == pytest.approx(2.0 * r1, rel=1e-15)

    def test_micron_worked_example(self):
        # one-line independent evaluation of the conversion formulas
        lam_bar = 1.0 / (2 * math.pi)
        k = math.pi / 5.0
        energy = lam_bar**2 * k**2 / (2 * 2.0)
        assert energy == pytest.approx(0.0025, rel=1e-12)
        p = PhysicalParams(wavelength=1.0, substrate_index=2.0, period=5.0,
                           real_amplitude=0.4 * energy, imag_amplitude=0.0)
        dim = physical_to_dimensionless(p)
        assert dim.v_real == pytest.approx(0.2, rel=1e-12)
        assert dim.z_scale == pytest.approx(lam_bar / energy, rel=1e-12)

    @pytest.mark.parametrize("bad", [
        dict(wavelength=-1.0), dict(substrate_index=0.0), dict(period=-2.0),
    ])
    def test_invalid_parameters(self, bad):
        fields = dict(wavelength=1.0, substrate_index=1.0, period=1.0,
                      real_amplitude=0.1, imag_amplitude=0.0)
        fields.update(bad)
        with pytest.raises(ParameterError):
            PhysicalParams(**fields)


class TestHamiltonian:
    def test_free_particle_diagonal(self):
        h = build_hamiltonian(LatticeParams(0.0, 0.0), q=0.5)
        l_max = 12
        diag = np.diag(h)
        assert diag[l_max - 1] == pytest.approx(2.25)
        assert diag[l_max] == pytest.approx(0.25)
        assert diag[l_max + 1] == pytest.approx(6.25)
        assert np.all(np.diag(h, 1) == 0.0) and np.all(np.diag(h, -1) == 0.0)

    def test_offdiagonals_are_amplitude_sums(self):
        h = build_hamiltonian(LatticeParams(0.2, 0.15), q=0.0)
        np.testing.assert_allclose(np.diag(h, 1), 0.35)
        np.testing.assert_allclose(np.diag(h, -1), 0.05)

    def test_sign_flip_is_transposition(self):
        a = build_hamiltonian(LatticeParams(0.2, 0.15), 0.3)
        b = build_hamiltonian(LatticeParams(0.2, -0.15), 0.3)
        np.testing.assert_allclose(a, b.T, atol=0)

    def test_matches_dense_oracle(self):
        h = build_hamiltonian(LatticeParams(0.3, -0.1, 6), 1.7)
        np.testing.assert_allclose(h, dense_oracle(0.3, -0.1, 6, 1.7), atol=0)

    def test_momentum_vector_stacks_operators(self):
        params = LatticeParams(0.3, -0.1, 6)
        q = np.array([-0.4, 1.7, 3.0])
        stack = build_hamiltonian(params, q)
        assert stack.shape == (3, 13, 13)
        for h, qi in zip(stack, q):
            np.testing.assert_array_equal(h, build_hamiltonian(params, qi))

    def test_invalid_lattice_params(self):
        with pytest.raises(ParameterError):
            LatticeParams(-0.1, 0.0)
        with pytest.raises(ParameterError):
            LatticeParams(0.2, 0.0, l_max=3)
        with pytest.raises(ParameterError):
            LatticeParams(0.2, 0.1, 4.0)

    @pytest.mark.parametrize("v_real, v_imag", [(math.nan, 0.1), (math.inf, 0.1),
                                                (0.2, math.nan), (0.2, -math.inf)])
    def test_non_finite_lattice_params(self, v_real, v_imag):
        with pytest.raises(ParameterError):
            LatticeParams(v_real, v_imag)

    def test_non_finite_momentum(self):
        with pytest.raises(ParameterError):
            build_hamiltonian(LatticeParams(0.2, 0.0), math.inf)
        with pytest.raises(ParameterError):
            band_arrays(LatticeParams(0.2, 0.0), [0.0, math.nan])


class TestSymmetrize:
    def test_hermitian_case_is_identity_gauge(self):
        # with v_imag = 0 the operator is already symmetric: the gauge weights
        # are 1, so left and right vectors coincide and the spectrum is H's own
        params = LatticeParams(0.2, 0.0)
        h = build_hamiltonian(params, 0.3)
        np.testing.assert_array_equal(h, h.T)
        np.testing.assert_allclose(np.diag(h, 1), 0.2)
        for p in eigensystem(params, 0.3, solver="symmetric"):
            np.testing.assert_allclose(p.right, p.left)
        np.testing.assert_allclose(band_energies(params, 0.3, solver="symmetric").real,
                                   np.linalg.eigvalsh(h))

    def test_offdiagonal_value(self):
        # the symmetrized operator's off-diagonal is the geometric mean of H's
        h = build_hamiltonian(LatticeParams(0.2, 0.15), 0.0)
        assert math.sqrt(h[0, 1] * h[1, 0]) == pytest.approx(math.sqrt(0.04 - 0.0225), rel=1e-14)
        sym = dense_oracle(math.sqrt(0.04 - 0.0225), 0.0, 12, 0.0)
        got = band_energies(LatticeParams(0.2, 0.15), 0.0, solver="symmetric")
        np.testing.assert_allclose(got.real, np.linalg.eigvalsh(sym), atol=1e-10)

    def test_similarity_preserves_spectrum(self):
        # oracle: dense non-symmetric eigensolver on the independent construction
        v1, v2, l_max, q = 0.2, 0.1, 10, 0.3
        reference = np.sort(np.linalg.eigvals(dense_oracle(v1, v2, l_max, q)).real)
        got = band_energies(LatticeParams(v1, v2, l_max), q, solver="symmetric")
        np.testing.assert_allclose(got.real, reference, atol=1e-10)
        assert np.max(np.abs(got.imag)) == 0.0

    def test_gauge_weights_reconstruct_operator(self):
        params = LatticeParams(0.2, 0.1, 5)
        pairs = eigensystem(params, 0.7, solver="symmetric")
        right = np.array([p.right for p in pairs]).T
        left = np.array([p.left for p in pairs]).T
        energies = np.array([p.energy for p in pairs])
        recovered = right @ np.diag(energies) @ left.T
        np.testing.assert_allclose(recovered, build_hamiltonian(params, 0.7), atol=1e-12)

    def test_phase_error_outside_unbroken(self):
        for solve in (eigensystem, band_energies):
            with pytest.raises(PhaseError):
                solve(LatticeParams(0.2, 0.25), 0.0, solver="symmetric")
            with pytest.raises(PhaseError):
                solve(LatticeParams(0.2, 0.2), 0.0, solver="symmetric")
        # the empty lattice is symmetric already and stays allowed
        free = LatticeParams(0.0, 0.0)
        np.testing.assert_allclose(band_energies(free, 0.3, solver="symmetric"),
                                   band_energies(free, 0.3, solver="general"), atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_no_overflow_near_criticality_at_large_basis(self):
        # the gauge weights span r**(+-l_max/2) with r = 2.5e-7, far beyond
        # the float range at l_max 80; the solve must stay finite and silent
        pairs = eigensystem(LatticeParams(0.2, 0.2 - 1e-7, 80), 0.0)
        for p in pairs:
            assert np.all(np.isfinite(p.right)) and np.all(np.isfinite(p.left))
        ground = pairs[0]
        assert not ground.degenerate
        assert np.dot(ground.left, ground.right) == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.norm(ground.right) == pytest.approx(np.linalg.norm(ground.left),
                                                             rel=1e-9)
        small = band_energies(LatticeParams(0.2, 0.2 - 1e-7, 12), 0.0)
        assert ground.energy == pytest.approx(small[0], abs=1e-12)


class TestEigensystem:
    def test_triangular_critical_point(self):
        pairs = eigensystem(LatticeParams(0.2, 0.2), 0.0)
        got = np.array([p.energy for p in pairs])
        expected = np.sort((2.0 * np.arange(-12, 13)) ** 2)
        np.testing.assert_array_equal(got.real, expected)
        np.testing.assert_array_equal(got.imag, 0.0)
        # the duplicated levels are flagged, the isolated ground level is not
        assert not pairs[0].degenerate
        assert pairs[1].degenerate and pairs[2].degenerate

    @pytest.mark.parametrize("v_imag", [0.0, 0.15])
    def test_zone_edge_gap(self, v_imag):
        # degenerate two-mode perturbation theory: gap = 2 sqrt(v1^2 - v2^2)
        pairs = eigensystem(LatticeParams(0.2, v_imag), 1.0)
        gap = (pairs[1].energy - pairs[0].energy).real
        assert gap == pytest.approx(2.0 * math.sqrt(0.2**2 - v_imag**2), rel=0.01)

    def test_biorthonormal_pairs(self):
        params = LatticeParams(0.2, 0.15)
        pairs = eigensystem(params, 0.7)
        h = build_hamiltonian(params, 0.7)
        v = np.array([p.right for p in pairs]).T
        w = np.array([p.left for p in pairs]).T
        gram = w.T @ v
        np.testing.assert_allclose(gram, np.eye(len(pairs)), atol=1e-8)
        for p in pairs:
            assert np.linalg.norm(h @ p.right - p.energy * p.right) < 1e-8
            assert np.linalg.norm(h.T @ p.left - p.energy * p.left) < 1e-8
            assert np.linalg.norm(p.right) == pytest.approx(np.linalg.norm(p.left), rel=1e-9)

    def test_hermitian_limit_left_equals_right(self):
        pairs = eigensystem(LatticeParams(0.2, 0.0), 0.4)
        for p in pairs:
            assert np.linalg.norm(p.right - p.left) < 1e-9

    def test_general_solver_agrees_in_unbroken_phase(self):
        params = LatticeParams(0.2, 0.15)
        sym = band_energies(params, 0.3, solver="symmetric")
        gen = band_energies(params, 0.3, solver="general")
        np.testing.assert_allclose(sym, gen, atol=1e-9)

    @pytest.mark.parametrize("solve", [eigensystem, band_energies])
    def test_unknown_solver_rejected(self, solve):
        with pytest.raises(ParameterError, match="bogus"):
            solve(LatticeParams(0.2, 0.15), 0.3, solver="bogus")

    def test_spectral_reality_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v1 = rng.uniform(0.05, 0.5)
            v2 = rng.uniform(-1.0, 1.0) * v1
            q = rng.uniform(-4.0, 4.0)
            ev = band_energies(LatticeParams(v1, v2), q, solver="general")
            assert np.max(np.abs(ev.imag)) < 1e-9

    def test_transpose_spectrum_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            v1 = rng.uniform(0.05, 0.5)
            v2 = rng.uniform(-1.0, 1.0) * v1
            q = rng.uniform(-4.0, 4.0)
            a = band_energies(LatticeParams(v1, v2), q)
            b = band_energies(LatticeParams(v1, -v2), q)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_truncation_convergence(self):
        for v1, v2 in ((0.3, 0.25), (0.2, 0.15), (0.25, -0.2)):
            for q in np.linspace(-2.0, 2.0, 7):
                small = band_energies(LatticeParams(v1, v2, 10), q)[:2]
                large = band_energies(LatticeParams(v1, v2, 14), q)[:2]
                np.testing.assert_allclose(small, large, atol=1e-8)


class TestBandStructure:
    def test_minimum_gap_sits_at_zone_edge(self):
        grid = np.linspace(-1.0, 1.0, 201)
        bs = band_structure(LatticeParams(0.2, 0.15), grid, band_count=2)
        gap = (bs.energies[1] - bs.energies[0]).real
        edges = {grid[i] for i in np.flatnonzero(gap == gap.min())}
        assert edges <= {-1.0, 1.0} and edges

    def test_bands_touch_at_criticality(self):
        bs = band_structure(LatticeParams(0.2, 0.2), np.array([1.0, -1.0]), band_count=2)
        gap = np.abs(bs.energies[1] - bs.energies[0])
        assert np.all(gap < 1e-8)

    def test_free_particle_folded_parabolas(self):
        grid = np.linspace(-1.0, 1.0, 11)
        bs = band_structure(LatticeParams(0.0, 0.0), grid, band_count=3)
        for iq, q in enumerate(grid):
            expected = np.sort([(2 * l + q) ** 2 for l in range(-12, 13)])[:3]
            np.testing.assert_allclose(bs.energies[:, iq].real, expected, atol=1e-12)

    def test_columns_sorted_and_real_when_unbroken(self):
        grid = np.linspace(-2.0, 2.0, 41)
        bs = band_structure(LatticeParams(0.2, 0.1), grid)
        assert np.all(np.diff(bs.energies.real, axis=0) >= -1e-12)
        assert np.max(np.abs(bs.energies.imag)) < 1e-9

    @pytest.mark.parametrize("v_imag", [0.15, 0.2, 0.3])
    def test_stacked_grid_matches_per_momentum_views(self, v_imag):
        # one stacked solve over the grid against one solve per momentum, on
        # the symmetrized (unbroken) and the general (critical, broken) path
        params = LatticeParams(0.2, v_imag, 6)
        grid = np.linspace(-2.0, 2.0, 17)
        stacked = band_arrays(params, grid)
        energies = band_structure(params, grid).energies
        for iq, q in enumerate(grid):
            np.testing.assert_allclose(energies[:, iq], band_energies(params, q), atol=1e-12)
            pairs = eigensystem(params, q)
            np.testing.assert_allclose(stacked.energies[iq], [p.energy for p in pairs],
                                       atol=1e-12)
            np.testing.assert_allclose(stacked.right[iq], np.array([p.right for p in pairs]).T,
                                       atol=1e-12)
            np.testing.assert_allclose(stacked.left[iq], np.array([p.left for p in pairs]).T,
                                       atol=1e-12)
            assert list(stacked.degenerate[iq]) == [p.degenerate for p in pairs]

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            band_structure(LatticeParams(0.2, 0.1), [])


class TestPhase:
    def test_unbroken(self):
        label, max_imag = pt_phase(LatticeParams(0.2, 0.15), np.linspace(-1, 1, 21))
        assert label == "unbroken" and max_imag < 1e-9

    def test_critical(self):
        label, _ = pt_phase(LatticeParams(0.2, 0.2), np.linspace(-1, 1, 21))
        assert label == "critical"
        label, _ = pt_phase(LatticeParams(0.2, -0.2), np.linspace(-1, 1, 21))
        assert label == "critical"

    def test_broken_with_two_mode_scale(self):
        label, max_imag = pt_phase(LatticeParams(0.2, 0.25), np.linspace(-2, 2, 81))
        assert label == "broken"
        # two-mode estimate at the zone edge: sqrt(skew^2 - coupling^2)/2 = 0.15
        assert max_imag == pytest.approx(0.15, rel=0.05)
