"""Bloch-basis operators of a complex (gain/loss modulated) lattice.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DegenerateBandError, ParameterError, PhaseError

DEFAULT_L_MAX = 12

# |Im energy| below this counts as real when classifying the phase.
REALITY_TOL = 1e-9
# ||v_imag| - v_real| below this counts as critical.
CRITICAL_WINDOW = 1e-9
# Eigenvalue spacing below this flags a (near-)degenerate pair.
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory parameters of the waveguide lattice.

    Lengths share one unit (wavelength, period); real_amplitude and
    imag_amplitude are refractive-index modulation depths, gradient is the
    transverse index gradient standing in for a DC force (index per length).
    """

    wavelength: float
    substrate_index: float
    period: float
    real_amplitude: float
    imag_amplitude: float
    gradient: float = 0.0

    def __post_init__(self):
        if self.wavelength <= 0 or self.substrate_index <= 0 or self.period <= 0:
            raise ParameterError("wavelength, substrate_index and period must be positive")

    @property
    def recoil_energy(self) -> float:
        """Natural energy scale (lambda/2pi)**2 * (pi/a)**2 / (2 n_s)."""
        lam_bar = self.wavelength / (2.0 * math.pi)
        k = math.pi / self.period
        return lam_bar**2 * k**2 / (2.0 * self.substrate_index)


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
        if int(self.l_max) != self.l_max or self.l_max < 4:
            raise ParameterError("l_max must be an integer >= 4")

    @property
    def size(self) -> int:
        return 2 * self.l_max + 1

    @property
    def mode_indices(self) -> np.ndarray:
        return np.arange(-self.l_max, self.l_max + 1)


@dataclass(frozen=True)
class DimensionlessParams:
    """Result of reducing PhysicalParams to dimensionless form."""

    v_real: float
    v_imag: float
    drive_rate: float   # dq/dz induced by the index gradient
    z_scale: float      # physical propagation length per unit z

    def lattice(self, l_max: int = DEFAULT_L_MAX) -> LatticeParams:
        return LatticeParams(self.v_real, self.v_imag, l_max)


def physical_to_dimensionless(p: PhysicalParams) -> DimensionlessParams:
    """Reduce lab parameters: v_j = u_j/(2 E), rate = F/(k E), z = Z*E/lam_bar."""
    energy = p.recoil_energy
    k = math.pi / p.period
    lam_bar = p.wavelength / (2.0 * math.pi)
    return DimensionlessParams(
        v_real=p.real_amplitude / (2.0 * energy),
        v_imag=p.imag_amplitude / (2.0 * energy),
        drive_rate=p.gradient / (k * energy),
        z_scale=lam_bar / energy,
    )


@dataclass(frozen=True)
class TridiagonalOperator:
    """Real non-symmetric tridiagonal operator with constant off-diagonals."""

    diag: np.ndarray
    upper: float
    lower: float

    @property
    def size(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        idx = np.arange(self.size - 1)
        h[idx, idx + 1] = self.upper
        h[idx + 1, idx] = self.lower
        return h


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Symmetric tridiagonal operator (diagonal plus constant off-diagonal)."""

    diag: np.ndarray
    offdiag: np.ndarray


@dataclass(frozen=True)
class BandEigenpair:
    """One band at one Bloch momentum with biorthogonal partner vectors.

    H right = energy * right and H^T left = energy * left, normalised so
    left . right = norm_sign (+1 here) with equal Euclidean norms.  With a
    real spectrum and v_imag = 0 the two vectors coincide.  Pairs flagged
    degenerate sit within DEGENERACY_TOL of a neighbour (or were impossible
    to pair up) and their vectors should not be trusted.
    """

    energy: complex
    right: np.ndarray
    left: np.ndarray
    norm_sign: int = 1
    degenerate: bool = False


@dataclass(frozen=True)
class BandStructure:
    """Band energies on a momentum grid; energies[band, iq] sorted per column."""

    q_grid: np.ndarray
    energies: np.ndarray
    band_count: int


def build_hamiltonian(params: LatticeParams, q: float) -> TridiagonalOperator:
    """Mode operator at Bloch momentum q (any real value, extended zone)."""
    if not math.isfinite(q):
        raise ParameterError("Bloch momentum must be finite")
    l = params.mode_indices
    return TridiagonalOperator(
        diag=(2.0 * l + q) ** 2,
        upper=params.v_real + params.v_imag,
        lower=params.v_real - params.v_imag,
    )


def symmetrize(op: TridiagonalOperator) -> tuple[SymmetricTridiagonal, np.ndarray]:
    """Similarity-transform to symmetric form; also returns the gauge weights.

    Valid only when upper*lower > 0 (unbroken phase): S = D^-1 H D with
    D = diag(d_l), d_l = (lower/upper)**(l/2), has off-diagonal
    sqrt(upper*lower) and the same spectrum as H.
    """
    n = op.size
    l = np.arange(n) - (n - 1) // 2
    if op.upper == 0.0 and op.lower == 0.0:
        return SymmetricTridiagonal(op.diag.copy(), np.zeros(n - 1)), np.ones(n)
    if op.upper * op.lower <= 0.0:
        raise PhaseError(
            "similarity symmetrization needs upper*lower > 0 "
            "(unbroken phase); use the general solver instead"
        )
    ratio = op.lower / op.upper
    weights = ratio ** (l / 2.0)
    off = np.full(n - 1, math.sqrt(op.upper * op.lower))
    return SymmetricTridiagonal(op.diag.copy(), off), weights


def _fix_pair_phase(right: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate so the largest right component is real positive (keeps left.right)."""
    i = int(np.argmax(np.abs(right)))
    pivot = right[i]
    if pivot == 0:
        return right, left
    phase = pivot / abs(pivot)
    return right / phase, left * phase


def _mark_degenerate(energies: np.ndarray) -> np.ndarray:
    flags = np.zeros(energies.size, dtype=bool)
    gaps = np.abs(np.diff(energies))
    close = gaps < DEGENERACY_TOL
    flags[:-1] |= close
    flags[1:] |= close
    return flags


def _eigensystem_symmetric(params: LatticeParams, q: float) -> list[BandEigenpair]:
    op = build_hamiltonian(params, q)
    sym, weights = symmetrize(op)
    energies, u = eigh_tridiagonal(sym.diag, sym.offdiag)
    right = weights[:, None] * u
    left = u / weights[:, None]
    flags = _mark_degenerate(energies)
    pairs = []
    for i in range(op.size):
        v, w = right[:, i], left[:, i]
        # left.right == u.u == 1 already; equalise the norms
        scale = math.sqrt(np.linalg.norm(v) / np.linalg.norm(w))
        v, w = v / scale, w * scale
        imax = int(np.argmax(np.abs(v)))
        if v[imax] < 0:
            v, w = -v, -w
        pairs.append(
            BandEigenpair(
                energy=complex(energies[i]),
                right=v.astype(complex),
                left=w.astype(complex),
                degenerate=bool(flags[i]),
            )
        )
    return pairs


def _eigensystem_general(params: LatticeParams, q: float) -> list[BandEigenpair]:
    h = build_hamiltonian(params, q).dense()
    energies, v = np.linalg.eig(h)
    order = np.lexsort((energies.imag, energies.real))
    energies, v = energies[order], v[:, order]
    try:
        w = np.linalg.inv(v).T
        paired = True
    except np.linalg.LinAlgError:
        w = np.linalg.pinv(v).T
        paired = False
    flags = _mark_degenerate(energies)
    pairs = []
    for i in range(energies.size):
        vi, wi = v[:, i], w[:, i]
        overlap = np.dot(wi, vi)
        degenerate = bool(flags[i]) or not paired
        if abs(overlap) < 1e-12 * np.linalg.norm(vi) * np.linalg.norm(wi):
            degenerate = True
            vi = vi / np.linalg.norm(vi)
            wi = wi / np.linalg.norm(wi)
        else:
            wi = wi / overlap
            scale = math.sqrt(np.linalg.norm(vi) / np.linalg.norm(wi))
            vi, wi = vi / scale, wi * scale
        vi, wi = _fix_pair_phase(vi, wi)
        pairs.append(
            BandEigenpair(
                energy=complex(energies[i]),
                right=vi,
                left=wi,
                degenerate=degenerate,
            )
        )
    return pairs


def _solver_path(params: LatticeParams, solver: str) -> str:
    """Resolve a solver name to "symmetric" or "general"; see eigensystem."""
    if solver == "auto":
        return "symmetric" if params.v_real**2 - params.v_imag**2 > 0 else "general"
    if solver not in ("symmetric", "general"):
        raise ParameterError(f"unknown solver {solver!r}")
    return solver


def eigensystem(params: LatticeParams, q: float, solver: str = "auto") -> list[BandEigenpair]:
    """All 2*l_max+1 eigenpairs at q, sorted by Re energy (then Im).

    solver: "auto" picks the symmetrized real path in the unbroken phase and
    falls back to a dense general eigensolver at or beyond criticality;
    "symmetric" and "general" force one path (the pair is kept as a
    cross-check of itself).  Any other name raises ParameterError.
    """
    if _solver_path(params, solver) == "symmetric":
        return _eigensystem_symmetric(params, q)
    return _eigensystem_general(params, q)


def band_energies(params: LatticeParams, q: float, solver: str = "auto") -> np.ndarray:
    """Sorted eigenvalues only (cheaper than full eigenpairs); solver as in eigensystem."""
    if _solver_path(params, solver) == "symmetric":
        op = build_hamiltonian(params, q)
        sym, _ = symmetrize(op)
        vals = eigh_tridiagonal(sym.diag, sym.offdiag, eigvals_only=True)
        return vals.astype(complex)
    vals = np.linalg.eigvals(build_hamiltonian(params, q).dense())
    return vals[np.lexsort((vals.imag, vals.real))]


def band_structure(params: LatticeParams, q_grid, band_count: int | None = None) -> BandStructure:
    """Band energies over a momentum grid, lowest band_count bands kept."""
    q_grid = np.asarray(q_grid, dtype=float)
    if q_grid.size == 0:
        raise ParameterError("momentum grid must be non-empty")
    if band_count is None:
        band_count = params.size
    if not 1 <= band_count <= params.size:
        raise ParameterError("band_count out of range")
    energies = np.empty((band_count, q_grid.size), dtype=complex)
    for iq, q in enumerate(q_grid):
        energies[:, iq] = band_energies(params, q)[:band_count]
    return BandStructure(q_grid=q_grid, energies=energies, band_count=band_count)


def pt_phase(params: LatticeParams, q_grid) -> tuple[str, float]:
    """Classify the symmetry phase over a grid: (label, max |Im energy|).

    Labels: "critical" when ||v_imag| - v_real| <= CRITICAL_WINDOW (flipping
    the sign of v_imag only transposes the operator, so -v_real is critical
    too), "unbroken" when |v_imag| < v_real and the spectrum is real on the
    grid, otherwise "broken".
    """
    structure = band_structure(params, q_grid)
    max_imag = float(np.max(np.abs(structure.energies.imag)))
    if abs(abs(params.v_imag) - params.v_real) <= CRITICAL_WINDOW:
        return "critical", max_imag
    if abs(params.v_imag) < params.v_real and max_imag < REALITY_TOL:
        return "unbroken", max_imag
    return "broken", max_imag


def band_pair(params: LatticeParams, q: float, band: int) -> BandEigenpair:
    """The band-th lowest eigenpair (bands counted from 1) at momentum q."""
    if int(band) != band or band < 1 or band > params.size:
        raise ParameterError(f"band must be in 1..{params.size}")
    pair = eigensystem(params, q)[band - 1]
    if pair.degenerate:
        raise DegenerateBandError(
            f"band {band} at q={q} is degenerate; its eigenvectors are unreliable"
        )
    return pair
