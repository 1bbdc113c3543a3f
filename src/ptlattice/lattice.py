"""Bloch bands of a complex (gain/loss modulated) lattice.

A monochromatic beam in a periodic medium with modulation
u(x) = u1*cos(2*pi*x/a) + i*u2*sin(2*pi*x/a) couples plane-wave modes
exp(i*(2l + q)*k*x), k = pi/a.  In dimensionless form the mode operator at
Bloch momentum q (in units of k, extended zone) is real tridiagonal but
non-symmetric:

    H[l, l]     = (2l + q)**2
    H[l, l+1]   = v_real + v_imag
    H[l, l-1]   = v_real - v_imag

Its spectrum is entirely real while |v_imag| < v_real (unbroken phase); at
|v_imag| = v_real the two lowest bands touch at odd-integer q, and beyond
that complex-conjugate eigenvalue pairs appear (broken phase).  Flipping the
sign of v_imag transposes H, so left and right eigenvectors swap roles.

In the unbroken phase the similarity transform S = D^-1 H D with
D = diag(r**(l/2)), r = (v_real - v_imag)/(v_real + v_imag), makes the
operator symmetric with constant off-diagonal sqrt(v_real**2 - v_imag**2),
which is what guarantees the real spectrum and gives a robust solver.

One function, band_arrays, solves the operator at a whole vector of momenta
with stacked LAPACK calls: np.linalg.eigh on the symmetrized stack in the
unbroken phase, np.linalg.eig plus the inverse (for the left vectors) at or
beyond criticality.  The momenta go in blocks of at most _BLOCK matrix
elements (419 momenta at l_max 12), or of one momentum once a single
matrix is larger (l_max 256 on), which bounds memory whatever the grid or
sample count.  It returns arrays with the band index last: energies
(Q, N), right and left vectors (Q, N, N) with columns as bands, and
degeneracy flags (Q, N).  It is the one place that scales a band vector:
each right vector has unit power, sum |right_l|^2 = 1, and its left vector
is paired to it, left . right = 1 (no complex conjugate).  band_energies
is a view of it, and so are the state preparation and band projection of
the dynamics module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PhaseError

DEFAULT_L_MAX = 12
# The largest truncation: at l_max 1000 (N = 2001 modes) one dense complex
# N x N matrix takes 64 MB, and a driven run's coupling exponential holds
# about eight of them (0.5 GB); l_max 10**7 would need petabytes.
MAX_L_MAX = 1000

# |Im energy| below this counts as real when classifying the phase.
REALITY_TOL = 1e-9
# ||v_imag| - v_real| below this counts as critical.
CRITICAL_WINDOW = 1e-9
# Eigenvalue spacing below this flags a (near-)degenerate pair.
DEGENERACY_TOL = 1e-8
# Momenta per stacked LAPACK call: max(1, _BLOCK // N**2), so each block's
# (Q, N, N) work arrays stay within 2**18 elements (2 MB as float64) up to
# l_max 255, and hold one N x N matrix beyond, whatever the grid size.
_BLOCK = 2**18


def _is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class LatticeParams:
    """Dimensionless lattice: modulation amplitudes and basis truncation.

    Modes l = -l_max..l_max are kept; v_real >= 0 fixes the sign convention
    while v_imag may take either sign (the two signs are transposes).
    """

    v_real: float
    v_imag: float
    l_max: int = DEFAULT_L_MAX

    def __post_init__(self):
        if not (math.isfinite(self.v_real) and math.isfinite(self.v_imag)):
            raise ParameterError("v_real and v_imag must be finite")
        if self.v_real < 0:
            raise ParameterError("v_real must be non-negative")
        if not (_is_integer(self.l_max) and 4 <= self.l_max <= MAX_L_MAX):
            raise ParameterError(f"l_max must be an integer in 4..{MAX_L_MAX} (MAX_L_MAX)")

    @property
    def size(self) -> int:
        return 2 * self.l_max + 1

    @property
    def mode_indices(self) -> np.ndarray:
        return np.arange(-self.l_max, self.l_max + 1)


@dataclass(frozen=True)
class BandArrays:
    """Eigensystems at Q momenta, bands sorted by Re energy (then Im).

    energies is (Q, N), every band.  For the B bands asked for, right and
    left are (Q, N, B), right[iq, :, j] and left[iq, :, j] being the vectors
    of the j-th band asked for at momentum iq, right of unit power and
    left . right = 1, and degenerate is (Q, B).
    """

    energies: np.ndarray
    right: np.ndarray
    left: np.ndarray
    degenerate: np.ndarray


def build_hamiltonian(params: LatticeParams, q) -> np.ndarray:
    """Dense mode operator at Bloch momentum q (any real value, extended zone).

    A scalar q gives one (N, N) matrix, a vector of Q momenta a (Q, N, N) stack.
    """
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ParameterError("Bloch momentum must be finite")
    n = params.size
    i = np.arange(n)
    h = np.zeros(q.shape + (n, n))
    h[..., i, i] = (2.0 * params.mode_indices + q[..., None]) ** 2
    h[..., i[:-1], i[1:]] = params.v_real + params.v_imag
    h[..., i[1:], i[:-1]] = params.v_real - params.v_imag
    return h


def _solver_path(params: LatticeParams, solver: str) -> str:
    """Resolve a solver name to "symmetric" or "general"; see band_arrays."""
    if solver == "auto":
        return "symmetric" if params.v_real**2 - params.v_imag**2 > 0 else "general"
    if solver not in ("symmetric", "general"):
        raise ParameterError(f"unknown solver {solver!r}")
    upper, lower = params.v_real + params.v_imag, params.v_real - params.v_imag
    if solver == "symmetric" and upper * lower <= 0.0 and (upper, lower) != (0.0, 0.0):
        raise PhaseError(
            "similarity symmetrization needs (v_real + v_imag)*(v_real - v_imag) > 0 "
            "(unbroken phase); use the general solver instead"
        )
    return solver


def _mark_degenerate(energies: np.ndarray) -> np.ndarray:
    """Flag each level within DEGENERACY_TOL of a neighbour in its sorted row."""
    close = np.abs(np.diff(energies, axis=-1)) < DEGENERACY_TOL
    flags = np.zeros(energies.shape, dtype=bool)
    flags[..., :-1] |= close
    flags[..., 1:] |= close
    return flags


def _solve_block(
    params: LatticeParams, q: np.ndarray, symmetric: bool, cols: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """band_arrays on one block of momenta, in one stacked LAPACK call."""
    h = build_hamiltonian(params, q)
    if symmetric:
        upper, lower = params.v_real + params.v_imag, params.v_real - params.v_imag
        i = np.arange(params.size - 1)
        h[:, i, i + 1] = h[:, i + 1, i] = math.sqrt(upper * lower)
    if not cols:
        energies = np.linalg.eigvalsh(h).astype(complex) if symmetric else np.linalg.eigvals(h)
        energies = np.take_along_axis(energies, np.lexsort((energies.imag, energies.real)), -1)
        empty = np.empty(h.shape[:2] + (0,), dtype=complex)
        return energies, empty, empty, np.empty((q.size, 0), dtype=bool)

    unpaired = np.zeros(q.size, dtype=bool)
    if symmetric:
        energies, u = np.linalg.eigh(h)
        energies, u = energies.astype(complex), u[:, :, cols]
        # right = D u and left = D^-1 u with D = diag(r**(l/2)), built from
        # logs with each column's largest component at 1, so that the huge
        # weights near the critical point never meet in one product
        log_d = 0.5 * params.mode_indices[:, None] * (math.log(lower / upper) if upper else 0.0)
        with np.errstate(divide="ignore"):
            log_u = np.log(np.abs(u))
        right, left = (
            np.copysign(np.exp(x - x.max(axis=-2, keepdims=True)), u)
            for x in (log_u + log_d, log_u - log_d)
        )
    else:
        energies, v = np.linalg.eig(h)
        order = np.lexsort((energies.imag, energies.real))
        energies = np.take_along_axis(energies, order, -1)
        v = np.take_along_axis(v, order[:, None, :], -1)
        try:
            w = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            w = np.linalg.pinv(v)
            unpaired = np.linalg.slogdet(v)[0] == 0
        right, left = v[:, :, cols], w.swapaxes(-1, -2)[:, :, cols]

    # the one scaling of a band vector: unit-power right, left . right = 1;
    # a vanishing overlap leaves the pair unpaired (degenerate) and its left
    # vector unscaled
    right = right / np.linalg.norm(right, axis=-2, keepdims=True)
    overlap = np.einsum("qlb,qlb->qb", left, right)
    paired = np.abs(overlap) >= 1e-12 * np.linalg.norm(left, axis=-2)
    left = left / np.where(paired, overlap, 1.0)[:, None, :]
    # phase convention: the largest right component is real positive
    pivot = np.take_along_axis(right, np.argmax(np.abs(right), axis=-2)[:, None, :], -2)
    phase = pivot / np.abs(pivot)
    degenerate = (_mark_degenerate(energies) | unpaired[:, None])[:, cols] | ~paired
    return energies, (right / phase).astype(complex), (left * phase).astype(complex), degenerate


def band_arrays(params: LatticeParams, q, solver: str = "auto", bands=None) -> BandArrays:
    """Eigensystems at every momentum of q (a scalar or a 1-D array) in stacked solves.

    solver: "auto" picks the symmetrized real path in the unbroken phase and
    the dense general eigensolver at or beyond criticality; "symmetric" and
    "general" force one path (the pair is kept as a cross-check of itself),
    and "symmetric" outside the unbroken phase raises PhaseError.  Any other
    name raises ParameterError.  bands: the band numbers (from 1) whose
    vectors and flags are returned, in that order; None means all of them,
    and an empty sequence skips the eigenvectors.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.size == 0:
        raise ParameterError("momentum grid must be non-empty")
    symmetric = _solver_path(params, solver) == "symmetric"
    if bands is None:
        bands = range(1, params.size + 1)
    for band in bands:
        if not (_is_integer(band) and 1 <= band <= params.size):
            raise ParameterError(f"band must be an integer in 1..{params.size}, got {band!r}")
    cols = [int(band) - 1 for band in bands]
    step = max(1, _BLOCK // params.size**2)
    blocks = [_solve_block(params, q[k:k + step], symmetric, cols) for k in range(0, q.size, step)]
    return BandArrays(*(np.concatenate(parts) for parts in zip(*blocks)))


def band_energies(params: LatticeParams, q: float, solver: str = "auto") -> np.ndarray:
    """Sorted eigenvalues at q only (cheaper than full eigenpairs); solver as in band_arrays."""
    return band_arrays(params, q, solver, bands=()).energies[0]


# Kept as a name only, until the benchmark tracer moves to band_arrays (ROADMAP
# item 5): perfbench/tracing.py wraps it, perfbench/test_perfbench.py reads it
# and tests/test_api.py::test_benchmark_surface_resolves pins it.
eigensystem = band_arrays


def phase_of(params: LatticeParams, energies: np.ndarray) -> tuple[str, float]:
    """Classify the symmetry phase from all band energies on a grid: (label, max |Im energy|).

    Labels: "critical" when ||v_imag| - v_real| <= CRITICAL_WINDOW (flipping
    the sign of v_imag only transposes the operator, so -v_real is critical
    too), "unbroken" when |v_imag| < v_real and the spectrum is real on the
    grid, otherwise "broken".
    """
    max_imag = float(np.max(np.abs(energies.imag)))
    if abs(abs(params.v_imag) - params.v_real) <= CRITICAL_WINDOW:
        return "critical", max_imag
    if abs(params.v_imag) < params.v_real and max_imag < REALITY_TOL:
        return "unbroken", max_imag
    return "broken", max_imag
