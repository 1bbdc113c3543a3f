"""Lattice operators: construction, symmetrization, eigensystem, phase."""

import math

import numpy as np
import pytest

from ptlattice import (
    LatticeParams,
    ParameterError,
    PhaseError,
    build_hamiltonian,
)
from ptlattice.lattice import MAX_L_MAX, band_arrays, band_energies, phase_of


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
        # constructing the parameters allocates nothing, at the ceiling or above it
        assert LatticeParams(0.2, 0.1, MAX_L_MAX).size == 2 * MAX_L_MAX + 1
        with pytest.raises(ParameterError, match="MAX_L_MAX"):
            LatticeParams(0.2, 0.1, MAX_L_MAX + 1)

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
        b = band_arrays(params, 0.3, solver="symmetric")
        np.testing.assert_allclose(b.right[0], b.left[0])
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
        b = band_arrays(params, 0.7, solver="symmetric")
        recovered = b.right[0] @ np.diag(b.energies[0]) @ b.left[0].T
        np.testing.assert_allclose(recovered, build_hamiltonian(params, 0.7), atol=1e-12)

    def test_phase_error_outside_unbroken(self):
        for solve in (band_arrays, band_energies):
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
        b = band_arrays(LatticeParams(0.2, 0.2 - 1e-7, 80), 0.0)
        assert np.all(np.isfinite(b.right[0])) and np.all(np.isfinite(b.left[0]))
        right, left = b.right[0][:, 0], b.left[0][:, 0]
        assert not b.degenerate[0][0]
        assert np.dot(left, right) == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.norm(right) == pytest.approx(1.0, rel=1e-9)
        small = band_energies(LatticeParams(0.2, 0.2 - 1e-7, 12), 0.0)
        assert b.energies[0][0] == pytest.approx(small[0], abs=1e-12)


class TestEigensystem:
    def test_triangular_critical_point(self):
        b = band_arrays(LatticeParams(0.2, 0.2), 0.0)
        got = b.energies[0]
        expected = np.sort((2.0 * np.arange(-12, 13)) ** 2)
        np.testing.assert_array_equal(got.real, expected)
        np.testing.assert_array_equal(got.imag, 0.0)
        # the duplicated levels are flagged, the isolated ground level is not
        degenerate = b.degenerate[0]
        assert not degenerate[0]
        assert degenerate[1] and degenerate[2]

    @pytest.mark.parametrize("v_imag", [0.0, 0.15])
    def test_zone_edge_gap(self, v_imag):
        # degenerate two-mode perturbation theory: gap = 2 sqrt(v1^2 - v2^2)
        energies = band_arrays(LatticeParams(0.2, v_imag), 1.0).energies[0]
        gap = (energies[1] - energies[0]).real
        assert gap == pytest.approx(2.0 * math.sqrt(0.2**2 - v_imag**2), rel=0.01)

    def test_biorthonormal_pairs(self):
        params = LatticeParams(0.2, 0.15)
        b = band_arrays(params, 0.7)
        h = build_hamiltonian(params, 0.7)
        v, w = b.right[0], b.left[0]
        gram = w.T @ v
        np.testing.assert_allclose(gram, np.eye(params.size), atol=1e-8)
        for energy, right, left in zip(b.energies[0], v.T, w.T):
            assert np.linalg.norm(h @ right - energy * right) < 1e-8
            assert np.linalg.norm(h.T @ left - energy * left) < 1e-8
            assert np.linalg.norm(right) == pytest.approx(1.0, rel=1e-9)

    def test_hermitian_limit_left_equals_right(self):
        b = band_arrays(LatticeParams(0.2, 0.0), 0.4)
        for right, left in zip(b.right[0].T, b.left[0].T):
            assert np.linalg.norm(right - left) < 1e-9

    def test_general_solver_agrees_in_unbroken_phase(self):
        params = LatticeParams(0.2, 0.15)
        sym = band_energies(params, 0.3, solver="symmetric")
        gen = band_energies(params, 0.3, solver="general")
        np.testing.assert_allclose(sym, gen, atol=1e-9)

    @pytest.mark.parametrize("solve", [band_arrays, band_energies])
    def test_unknown_solver_rejected(self, solve):
        with pytest.raises(ParameterError, match="bogus"):
            solve(LatticeParams(0.2, 0.15), 0.3, solver="bogus")

    def test_left_vectors_by_pseudo_inverse(self, monkeypatch):
        # the general path's fallback when the solve for the left vectors
        # fails; momenta off q = 0, where a near-coalescing pair has left
        # vectors of norm 7e4 that the two solves agree on only to 1e-9
        params, q = LatticeParams(0.2, 0.25, 12), np.array([-0.9, -0.3, 0.3, 0.9])
        solved = band_arrays(params, q)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
        fallback = band_arrays(params, q)
        np.testing.assert_array_equal(fallback.right, solved.right)
        np.testing.assert_array_equal(fallback.degenerate, solved.degenerate)
        np.testing.assert_allclose(fallback.left, solved.left, rtol=0, atol=1e-10)

    def test_singular_eigenvectors_leave_every_band_degenerate(self, monkeypatch):
        # eig's vectors at the middle momentum replaced by unit columns, one
        # repeated: 0/1 entries keep the LU exact, so v is exactly singular
        # and that momentum's bands are unpaired
        params, q = LatticeParams(0.2, 0.25, 12), np.array([-0.4, 0.3, 0.6])
        eig, n = np.linalg.eig, params.size

        def repeated(h):
            energies, v = eig(h)
            v[1] = np.eye(n)[:, [0] + list(range(n - 1))]
            return energies, v
        monkeypatch.setattr(np.linalg, "eig", repeated)
        flagged = band_arrays(params, q).degenerate
        monkeypatch.undo()
        assert flagged[1].all()
        np.testing.assert_array_equal(flagged[[0, 2]], band_arrays(params, q).degenerate[[0, 2]])

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


def energies_on(params, grid):
    """All band energies on a momentum grid, (Q, N), as the bands run reads them."""
    return band_arrays(params, grid, bands=()).energies


class TestBandStructure:
    def test_minimum_gap_sits_at_zone_edge(self):
        grid = np.linspace(-1.0, 1.0, 201)
        energies = energies_on(LatticeParams(0.2, 0.15), grid)
        gap = (energies[:, 1] - energies[:, 0]).real
        edges = {grid[i] for i in np.flatnonzero(gap == gap.min())}
        assert edges <= {-1.0, 1.0} and edges

    def test_bands_touch_at_criticality(self):
        energies = energies_on(LatticeParams(0.2, 0.2), np.array([1.0, -1.0]))
        gap = np.abs(energies[:, 1] - energies[:, 0])
        assert np.all(gap < 1e-8)

    def test_free_particle_folded_parabolas(self):
        grid = np.linspace(-1.0, 1.0, 11)
        energies = energies_on(LatticeParams(0.0, 0.0), grid)
        for q, row in zip(grid, energies):
            expected = np.sort([(2 * l + q) ** 2 for l in range(-12, 13)])[:3]
            np.testing.assert_allclose(row[:3].real, expected, atol=1e-12)

    def test_columns_sorted_and_real_when_unbroken(self):
        grid = np.linspace(-2.0, 2.0, 41)
        energies = energies_on(LatticeParams(0.2, 0.1), grid)
        assert np.all(np.diff(energies.real, axis=1) >= -1e-12)
        assert np.max(np.abs(energies.imag)) < 1e-9

    @pytest.mark.parametrize("v_imag", [0.15, 0.2, 0.3])
    def test_stacked_grid_matches_per_momentum_views(self, v_imag):
        # one stacked solve over the grid against one solve per momentum, on
        # the symmetrized (unbroken) and the general (critical, broken) path
        params = LatticeParams(0.2, v_imag, 6)
        grid = np.linspace(-2.0, 2.0, 17)
        stacked = band_arrays(params, grid)
        energies = energies_on(params, grid)
        for iq, q in enumerate(grid):
            np.testing.assert_allclose(energies[iq], band_energies(params, q), atol=1e-12)
            single = band_arrays(params, q)
            np.testing.assert_allclose(stacked.energies[iq], single.energies[0], atol=1e-12)
            np.testing.assert_allclose(stacked.right[iq], single.right[0], atol=1e-12)
            np.testing.assert_allclose(stacked.left[iq], single.left[0], atol=1e-12)
            np.testing.assert_array_equal(stacked.degenerate[iq], single.degenerate[0])

    @pytest.mark.parametrize(
        "v_imag, l_max",
        [(0.15, 12), (0.2, 12), (0.3, 12), (0.2 - 1e-7, 80)],
        ids=["unbroken", "critical", "broken", "near-critical-l80"],
    )
    def test_unit_power_right_and_paired_left(self, v_imag, l_max):
        # the one scaling of a band vector, on both solver paths: every
        # non-degenerate right vector has unit power and left . right = 1
        params = LatticeParams(0.2, v_imag, l_max)
        stacked = band_arrays(params, np.linspace(-2.0, 2.0, 17))
        kept = ~stacked.degenerate
        # free levels pair up at integer q; most of the others are kept
        assert kept.sum() > kept.size // 2
        norms = np.linalg.norm(stacked.right, axis=1)[kept]
        overlaps = np.einsum("qlb,qlb->qb", stacked.left, stacked.right)[kept]
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(overlaps, 1.0, rtol=0, atol=1e-8)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError, match="momentum grid must be non-empty"):
            band_arrays(LatticeParams(0.2, 0.1), [])


def phase_on(params, grid):
    """Phase label and max |Im energy| over a grid, as the bands run classifies them."""
    return phase_of(params, energies_on(params, grid))


class TestPhase:
    def test_unbroken(self):
        label, max_imag = phase_on(LatticeParams(0.2, 0.15), np.linspace(-1, 1, 21))
        assert label == "unbroken" and max_imag < 1e-9

    def test_critical(self):
        label, _ = phase_on(LatticeParams(0.2, 0.2), np.linspace(-1, 1, 21))
        assert label == "critical"
        label, _ = phase_on(LatticeParams(0.2, -0.2), np.linspace(-1, 1, 21))
        assert label == "critical"

    def test_broken_with_two_mode_scale(self):
        label, max_imag = phase_on(LatticeParams(0.2, 0.25), np.linspace(-2, 2, 81))
        assert label == "broken"
        # two-mode estimate at the zone edge: sqrt(skew^2 - coupling^2)/2 = 0.15
        assert max_imag == pytest.approx(0.15, rel=0.05)
