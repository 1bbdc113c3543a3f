"""Converged reference solutions, computed independently of the package.

The lattice and the two-level sweep share one form: a diagonal that depends
on the drive coordinate in closed form plus a constant coupling matrix V.
The reference propagator integrates the diagonal exactly and applies the
exact coupling exponential expm(-i V h), combined as Strang splitting and
raised to fourth order by Yoshida's triple jump.  Its step is limited only
by accuracy, so a step several times finer than the package's still costs
little.  Band energies are referenced against a dense eigensolve in a
larger basis, which removes the truncation error of the package's basis.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eig, eigvals, expm

# Yoshida (1990) triple-jump weights: w1, w0, w1 with 2*w1 + w0 = 1
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# phase nodes of one step, as fractions of the step: each Strang sub-step
# splits its diagonal flow in half around the coupling exponential
_NODES = np.array([0.0, _W1 / 2.0, _W1 + _W0 / 2.0, 1.0 - _W1 / 2.0, 1.0])
_CHUNK = 4096


def lattice_matrix(v_real: float, v_imag: float, l_max: int, q: float) -> np.ndarray:
    """Dense mode operator H(q) of the driven lattice."""
    l = np.arange(-l_max, l_max + 1)
    n = l.size
    h = np.diag((2.0 * l + q) ** 2).astype(float)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = v_real + v_imag
    h[idx + 1, idx] = v_real - v_imag
    return h


def _coupling(v_real: float, v_imag: float, l_max: int) -> np.ndarray:
    h = lattice_matrix(v_real, v_imag, l_max, 0.0)
    np.fill_diagonal(h, 0.0)
    return h


def propagate(diag_integral, coupling: np.ndarray, a0: np.ndarray, times, step: float):
    """States at each of the increasing times, starting from a0 at times[0].

    diag_integral(ta, tb) returns the integral of the diagonal from ta to tb
    for arrays of ta and tb (shape (..., n) out).  Each interval between
    consecutive times is cut into equal steps no longer than step.
    """
    times = np.asarray(times, dtype=float)
    a = np.asarray(a0, dtype=complex).copy()
    out = np.empty((times.size, a.size), dtype=complex)
    out[0] = a
    exps: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(1, times.size):
        span = times[i] - times[i - 1]
        m = max(1, math.ceil(span / step - 1e-9))
        tau = span / m
        key = round(tau, 12)
        if key not in exps:
            exps[key] = (expm(-1j * _W1 * tau * coupling), expm(-1j * _W0 * tau * coupling))
        u1, u0 = exps[key]
        for k0 in range(0, m, _CHUNK):
            k = np.arange(k0, min(m, k0 + _CHUNK))
            nodes = times[i - 1] + tau * (k[:, None] + _NODES[None, :])
            phases = np.exp(-1j * diag_integral(nodes[:, :-1], nodes[:, 1:]))
            for p in phases:
                a *= p[0]
                a = u1 @ a
                a *= p[1]
                a = u0 @ a
                a *= p[2]
                a = u1 @ a
                a *= p[3]
        out[i] = a
    return out


def _sorted_pairs(h: np.ndarray):
    """Eigenvalues sorted by (Re, Im) with right and left eigenvectors as columns."""
    w, vl, vr = eig(h, left=True, right=True)
    order = np.lexsort((w.imag, w.real))
    return w[order], vr[:, order], vl[:, order].conj()


def lattice_powers(v_real, v_imag, l_max, q_start, rate, z, step):
    """Power sum |a_l|^2 at each distance z of a drive launched in band 1 at q_start."""
    _, right, _ = _sorted_pairs(lattice_matrix(v_real, v_imag, l_max, q_start))
    a0 = right[:, 0] / np.linalg.norm(right[:, 0])
    states = propagate(_lattice_diag(l_max, q_start, rate), _coupling(v_real, v_imag, l_max),
                       a0, z, step)
    return np.sum(np.abs(states) ** 2, axis=1)


def lattice_transition(v_real, v_imag, l_max, q_start, q_stop, rate, step) -> float:
    """Band-2 occupation at q_stop after launching band 1 at q_start."""
    _, right, _ = _sorted_pairs(lattice_matrix(v_real, v_imag, l_max, q_start))
    a0 = right[:, 0] / np.linalg.norm(right[:, 0])
    duration = (q_stop - q_start) / rate
    final = propagate(_lattice_diag(l_max, q_start, rate), _coupling(v_real, v_imag, l_max),
                      a0, [0.0, duration], step)[-1]
    _, right, left = _sorted_pairs(lattice_matrix(v_real, v_imag, l_max, q_stop))
    r, w = right[:, 1], left[:, 1]
    c = np.linalg.norm(r) * np.dot(w, final) / np.dot(w, r)
    return float(abs(c) ** 2)


def _lattice_diag(l_max: int, q_start: float, rate: float):
    two_l = 2.0 * np.arange(-l_max, l_max + 1)

    def integral(za, zb):
        # (2l + q(z))^2 is quadratic in z: exact integral h (a^2 + ab + b^2) / 3
        a = two_l + (q_start + rate * za)[..., None]
        b = two_l + (q_start + rate * zb)[..., None]
        return (zb - za)[..., None] * (a * a + a * b + b * b) / 3.0

    return integral


def two_mode_intensities(coupling, skew, rate, t, step):
    """(|a1|^2, |a2|^2) at each time t of a sweep launched in the lower level at t[0]."""
    if rate <= 0:
        raise ValueError("the reference sweep takes a positive rate")
    upper, lower = (coupling + skew) / 2.0, (coupling - skew) / 2.0
    coupling_matrix = np.array([[0.0, upper], [lower, 0.0]])
    e0 = rate * t[0] / 2.0
    w, v = np.linalg.eig(np.array([[-e0, upper], [lower, e0]]))
    a0 = v[:, int(np.argmin(w.real))]
    a0 = a0 / np.linalg.norm(a0)
    sign = np.array([-1.0, 1.0])

    def integral(ta, tb):
        # diagonal (-rate t / 2, +rate t / 2)
        return sign * (rate * (tb - ta) * (ta + tb) / 4.0)[..., None]

    states = propagate(integral, coupling_matrix, a0, t, step)
    return np.abs(states[:, 0]) ** 2, np.abs(states[:, 1]) ** 2


def band_energies(v_real, v_imag, l_max, q) -> np.ndarray:
    """All eigenvalues of the mode operator in a basis of the given size."""
    return eigvals(lattice_matrix(v_real, v_imag, l_max, q))
