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
    symmetrize,
)
from ptlattice.lattice import band_energies


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
        op = build_hamiltonian(LatticeParams(0.0, 0.0), q=0.5)
        l_max = 12
        assert op.diag[l_max - 1] == pytest.approx(2.25)
        assert op.diag[l_max] == pytest.approx(0.25)
        assert op.diag[l_max + 1] == pytest.approx(6.25)
        assert op.upper == 0.0 and op.lower == 0.0

    def test_offdiagonals_are_amplitude_sums(self):
        op = build_hamiltonian(LatticeParams(0.2, 0.15), q=0.0)
        assert op.upper == pytest.approx(0.35)
        assert op.lower == pytest.approx(0.05)

    def test_sign_flip_is_transposition(self):
        a = build_hamiltonian(LatticeParams(0.2, 0.15), 0.3).dense()
        b = build_hamiltonian(LatticeParams(0.2, -0.15), 0.3).dense()
        np.testing.assert_allclose(a, b.T, atol=0)

    def test_matches_dense_oracle(self):
        op = build_hamiltonian(LatticeParams(0.3, -0.1, 6), 1.7)
        np.testing.assert_allclose(op.dense(), dense_oracle(0.3, -0.1, 6, 1.7), atol=0)

    def test_invalid_lattice_params(self):
        with pytest.raises(ParameterError):
            LatticeParams(-0.1, 0.0)
        with pytest.raises(ParameterError):
            LatticeParams(0.2, 0.0, l_max=3)

    @pytest.mark.parametrize("v_real, v_imag", [(math.nan, 0.1), (math.inf, 0.1),
                                                (0.2, math.nan), (0.2, -math.inf)])
    def test_non_finite_lattice_params(self, v_real, v_imag):
        with pytest.raises(ParameterError):
            LatticeParams(v_real, v_imag)

    def test_non_finite_momentum(self):
        with pytest.raises(ParameterError):
            build_hamiltonian(LatticeParams(0.2, 0.0), math.inf)


class TestSymmetrize:
    def test_hermitian_case_is_identity_gauge(self):
        op = build_hamiltonian(LatticeParams(0.2, 0.0), 0.3)
        sym, weights = symmetrize(op)
        np.testing.assert_allclose(weights, 1.0)
        np.testing.assert_allclose(sym.offdiag, 0.2)
        np.testing.assert_allclose(sym.diag, op.diag)

    def test_offdiagonal_value(self):
        op = build_hamiltonian(LatticeParams(0.2, 0.15), 0.0)
        sym, _ = symmetrize(op)
        assert sym.offdiag[0] == pytest.approx(math.sqrt(0.04 - 0.0225), rel=1e-14)

    def test_similarity_preserves_spectrum(self):
        # oracle: dense non-symmetric eigensolver on the independent construction
        v1, v2, l_max, q = 0.2, 0.1, 10, 0.3
        reference = np.sort(np.linalg.eigvals(dense_oracle(v1, v2, l_max, q)).real)
        got = band_energies(LatticeParams(v1, v2, l_max), q, solver="symmetric")
        np.testing.assert_allclose(got.real, reference, atol=1e-10)
        assert np.max(np.abs(got.imag)) == 0.0

    def test_gauge_weights_reconstruct_operator(self):
        op = build_hamiltonian(LatticeParams(0.2, 0.1, 5), 0.7)
        sym, d = symmetrize(op)
        n = op.size
        s = np.diag(sym.diag)
        idx = np.arange(n - 1)
        s[idx, idx + 1] = sym.offdiag
        s[idx + 1, idx] = sym.offdiag
        recovered = np.diag(d) @ s @ np.diag(1.0 / d)
        np.testing.assert_allclose(recovered, op.dense(), atol=1e-12)

    def test_phase_error_outside_unbroken(self):
        with pytest.raises(PhaseError):
            symmetrize(build_hamiltonian(LatticeParams(0.2, 0.25), 0.0))
        with pytest.raises(PhaseError):
            symmetrize(build_hamiltonian(LatticeParams(0.2, 0.2), 0.0))


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
        h = build_hamiltonian(params, 0.7).dense()
        v = np.array([p.right for p in pairs]).T
        w = np.array([p.left for p in pairs]).T
        gram = w.T @ v
        np.testing.assert_allclose(gram, np.eye(len(pairs)), atol=1e-8)
        for p in pairs:
            assert np.linalg.norm(h @ p.right - p.energy * p.right) < 1e-8
            assert np.linalg.norm(h.T @ p.left - p.energy * p.left) < 1e-8
            assert np.linalg.norm(p.right) == pytest.approx(np.linalg.norm(p.left), rel=1e-9)
            assert p.norm_sign == 1

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
