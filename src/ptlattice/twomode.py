"""Closed forms and numerics for the non-symmetric two-level Landau-Zener sweep.

Near an avoided crossing the lattice reduces to two modes governed by

    i d/dt (a1, a2) = [[ eps(t), (coupling + skew)/2 ],
                       [ (coupling - skew)/2, -eps(t) ]] (a1, a2)

with eps(t) = -rate*t/2.  The reduction from the lattice is
coupling = 2*v_real, skew = 2*v_imag, rate = 4*drive_rate; a reversed drive
maps onto the same problem with the sign of skew flipped (transposition).

Component 2 is the lower level for t -> -inf and component 1 for t -> +inf,
so a sweep prepared in the ground level starts as (0, 1).  After the
crossing the intensities approach

    |a2|^2 -> P = exp(-pi (coupling^2 - skew^2) / (2 rate))      (transition)
    |a1|^2 -> amplification_ratio * (1 - P)                      (survival)

where amplification_ratio = (coupling + skew)/(coupling - skew).  These are
relative intensities: total power is not conserved for skew != 0.  In the
vanishing-gap limit skew -> +coupling the survival tends to the finite value
2*pi*coupling^2/rate while skew -> -coupling empties the ground level
completely.  evolve_two_mode integrates the system directly and is the
independent numerical check of every formula here.

Its scheme is the lattice propagator's (dynamics module): the diagonal is
integrated exactly, the constant coupling C enters through its closed-form
exponential (C^2 is (coupling^2 - skew^2)/4 times the identity), and Strang
steps are composed as Yoshida's fourth-order triple jump.  The 2x2 step
matrices are built with numpy a chunk of steps at a time and applied to the
state in a scalar loop; the step is bounded by the diagonal phase advance
per step, not by stability.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _NODES, _W0, _W1
from .errors import ParameterError
from .lattice import LatticeParams

# steps whose matrices are built at once; bounds the matrix buffers' memory
_CHUNK = 1024


@dataclass(frozen=True)
class TwoModeParams:
    """Reduced two-level problem: couplings and sweep speed."""

    coupling: float
    skew: float
    rate: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.coupling, self.skew, self.rate))):
            raise ParameterError("coupling, skew and rate must be finite")
        if self.coupling < 0:
            raise ParameterError("coupling must be non-negative")

    @classmethod
    def from_lattice(cls, lattice: LatticeParams, drive_rate: float) -> "TwoModeParams":
        """Map lattice amplitudes and drive rate onto the two-level problem.

        A negative drive rate is folded into the sign of skew, matching the
        transposition property of the lattice operator.
        """
        sign = 1.0 if drive_rate >= 0 else -1.0
        return cls(
            coupling=2.0 * lattice.v_real,
            skew=2.0 * lattice.v_imag * sign,
            rate=4.0 * abs(drive_rate),
        )


@dataclass
class TwoModeState:
    a1: complex
    a2: complex
    t: float


@dataclass
class TwoModeTrace:
    """Sampled amplitudes of one two-level sweep."""

    t: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    metadata: dict = field(default_factory=dict)

    def tail_intensities(self, fraction: float = 0.05) -> tuple[float, float]:
        """Mean |a1|^2 and |a2|^2 over the trailing fraction of samples.

        Averaging suppresses the slowly decaying post-crossing oscillations,
        so this is the asymptotic-intensity estimator.
        """
        n = max(1, int(round(fraction * self.t.size)))
        return (
            float(np.mean(np.abs(self.a1[-n:]) ** 2)),
            float(np.mean(np.abs(self.a2[-n:]) ** 2)),
        )


def two_mode_eigenvalues(detuning: float, coupling: float, skew: float) -> tuple[complex, complex]:
    """Instantaneous level pair +-sqrt(detuning^2 + (coupling^2 - skew^2)/4)."""
    root = np.sqrt(complex(detuning**2 + (coupling**2 - skew**2) / 4.0))
    return complex(root), complex(-root)


def amplification_ratio(coupling: float, skew: float) -> float:
    """Survival amplification (coupling + skew)/(coupling - skew)."""
    if skew == coupling:
        raise ParameterError("amplification ratio is singular at skew == coupling")
    return (coupling + skew) / (coupling - skew)


def _exponent(coupling: float, skew: float, rate: float) -> float:
    if rate == 0.0:
        raise ParameterError("rate must be non-zero")
    if abs(skew) >= coupling:
        raise ParameterError("transition formulas require |skew| < coupling (real gap)")
    return math.pi * (coupling * coupling - skew * skew) / (2.0 * abs(rate))


def lz_probability(coupling: float, skew: float, rate: float) -> float:
    """Asymptotic transition intensity exp(-pi (coupling^2 - skew^2)/(2|rate|))."""
    return math.exp(-_exponent(coupling, skew, rate))


def lz_survival(coupling: float, skew: float, rate: float) -> float:
    """Asymptotic ground intensity amplification_ratio * (1 - P)."""
    # expm1 keeps 1 - P accurate when the gap is tiny and P is close to 1
    return amplification_ratio(coupling, skew) * -math.expm1(-_exponent(coupling, skew, rate))


def critical_survival(coupling: float, rate: float) -> float:
    """Ground intensity left per crossing in the vanishing-gap limit, 2 pi c^2/|rate|."""
    if rate == 0.0:
        raise ParameterError("rate must be non-zero")
    return 2.0 * math.pi * coupling * coupling / abs(rate)


def anti_critical_limit() -> tuple[float, float]:
    """(|a1|^2, |a2|^2) for skew -> -coupling: the ground level empties fully."""
    return 0.0, 1.0


def multicross_power(coupling: float, skew: float, rate: float, crossings: int) -> float:
    """Total power after the given number of consecutive avoided crossings.

    survival = lz_survival, P = lz_probability:
    power = survival**n + P * sum(survival**i for i in range(n)); n = 0 gives 1.
    """
    if int(crossings) != crossings or crossings < 0:
        raise ParameterError("crossings must be a non-negative integer")
    if crossings == 0:
        return 1.0
    survival = lz_survival(coupling, skew, rate)
    transition = lz_probability(coupling, skew, rate)
    return survival**crossings + transition * sum(survival**i for i in range(crossings))


def ground_state(params: TwoModeParams, t: float) -> TwoModeState:
    """Instantaneous lower-level right eigenvector at time t, unit power.

    Starting a sweep from this state (rather than from a bare component)
    avoids seeding a spurious coherent admixture of the upper level.
    """
    rate = abs(params.rate)
    skew = params.skew if params.rate >= 0 else -params.skew
    eps = -rate * t / 2.0
    upper_coupling = (params.coupling + skew) / 2.0
    lower_coupling = (params.coupling - skew) / 2.0
    low = -np.sqrt(complex(eps * eps + upper_coupling * lower_coupling))
    a1 = -upper_coupling / (eps - low) if eps != low else 0.0
    norm = math.sqrt(abs(a1) ** 2 + 1.0)
    return TwoModeState(a1=complex(a1 / norm), a2=complex(1.0 / norm), t=t)


def _coupling_exponential(cu: float, cl: float, tau: float) -> tuple[float, complex, complex]:
    """expm(-i C tau) for C = [[0, cu], [cl, 0]] as its (diagonal, upper, lower) entries.

    C^2 = cu*cl, so the exponential is cos(lam tau) I - i sin(lam tau)/lam C
    with lam = sqrt(cu*cl); both factors are even in lam and hence real, also
    for cu*cl < 0 (cosh and sinh) and in the limit lam -> 0 (1 and tau), which
    is the critical case skew == coupling.
    """
    lam = cmath.sqrt(cu * cl)
    cos = cmath.cos(lam * tau).real
    sinc = tau if lam == 0 else (cmath.sin(lam * tau) / lam).real
    return cos, -1j * sinc * cu, -1j * sinc * cl


def _step_matrices(t0: float, dt: float, k: np.ndarray, rate: float, kicks: list) -> tuple:
    """Entries (m11, m12, m21, m22) of the one-step matrices of steps k.

    Each step is the Yoshida composition of three Strang steps: the diagonal
    flow between consecutive phase nodes is the exact phase
    exp(+-i rate (b^2 - a^2)/4), and between them sit the coupling kicks.
    """
    t = t0 + dt * (k[:, None] + _NODES)
    ta, tb = t[:, :-1], t[:, 1:]
    z = np.exp(0.25j * rate * (tb - ta) * (ta + tb)).T
    m = (1.0, 0.0, 0.0, 1.0)
    for zi, (c, u, l) in zip(z, kicks):
        zc = zi.conj()
        x11, x12, x21, x22 = zi * m[0], zi * m[1], zc * m[2], zc * m[3]
        m = (c * x11 + u * x21, c * x12 + u * x22, l * x11 + c * x21, l * x12 + c * x22)
    zc = z[-1].conj()
    return z[-1] * m[0], z[-1] * m[1], zc * m[2], zc * m[3]


def evolve_two_mode(
    params: TwoModeParams,
    t_span: tuple[float, float] | None = None,
    initial: TwoModeState | None = None,
    step: float | None = None,
    sample_stride: int | None = None,
    convergence_check: bool = False,
) -> TwoModeTrace:
    """Integrate the sweep with the module's split-step scheme; sample the amplitudes.

    Defaults: t_span = (-T, T) with T = max(300, 20/sqrt(|rate|)), the
    initial state is the instantaneous ground level at t_span[0], the step
    is min(0.02, 0.36/eps_max) with eps_max = |rate|*max|t|/2 (a bounded
    phase advance per step), and the sample stride is ceil(steps/20000), so
    a default trace holds at most 20001 samples, the last one at t_span[1].
    A negative rate is integrated as the skew-flipped problem.  With
    convergence_check the run is repeated at half the step; a change of the
    final intensities above 1e-4 adds an accuracy warning.
    """
    rate = abs(params.rate)
    if rate == 0.0:
        raise ParameterError("rate must be non-zero")
    skew = params.skew if params.rate >= 0 else -params.skew
    if t_span is None:
        t_max = max(300.0, 20.0 / math.sqrt(rate))
        t_span = (-t_max, t_max)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ParameterError("t_span must be finite and increasing")
    if step is None:
        # at most 0.36 rad of diagonal phase per step where the sweep is farthest out
        step = min(0.02, 0.36 / (rate * max(abs(t0), abs(t1)) / 2.0))
    elif not (math.isfinite(step) and step > 0):
        raise ParameterError(f"step must be finite and positive, got {step}")
    if initial is None:
        initial = ground_state(params, t0)
    cu = (params.coupling + skew) / 2.0
    cl = (params.coupling - skew) / 2.0

    def run(n_steps: int, stride: int):
        dt = (t1 - t0) / n_steps
        kicks = [_coupling_exponential(cu, cl, w * dt) for w in (_W1, _W0, _W1)]
        a1, a2 = complex(initial.a1), complex(initial.a2)
        ts, s1, s2 = [t0], [a1], [a2]
        i = 0
        for k0 in range(0, n_steps, _CHUNK):
            k = np.arange(k0, min(n_steps, k0 + _CHUNK))
            m = _step_matrices(t0, dt, k, rate, kicks)
            for m11, m12, m21, m22 in zip(*(x.tolist() for x in m)):
                a1, a2 = m11 * a1 + m12 * a2, m21 * a1 + m22 * a2
                i += 1
                if i % stride == 0 and i < n_steps:
                    ts.append(t0 + i * dt), s1.append(a1), s2.append(a2)
        ts.append(t1), s1.append(a1), s2.append(a2)
        return a1, a2, ts, s1, s2, dt

    n_steps = max(1, math.ceil((t1 - t0) / step))
    stride = sample_stride if sample_stride is not None else math.ceil(n_steps / 20000)
    a1, a2, ts, s1, s2, dt = run(n_steps, stride)
    trace = TwoModeTrace(
        t=np.array(ts),
        a1=np.array(s1, dtype=complex),
        a2=np.array(s2, dtype=complex),
        metadata={"step": dt, "steps": n_steps, "warnings": []},
    )
    if convergence_check:
        b1, b2, *_ = run(2 * n_steps, 2 * n_steps)  # samples only the two ends
        diff = abs(abs(a1) ** 2 - abs(b1) ** 2) + abs(abs(a2) ** 2 - abs(b2) ** 2)
        trace.metadata["final_intensity_halving_diff"] = diff
        if diff > 1e-4:
            trace.metadata["warnings"].append(
                f"step too large: halving it changes final intensities by {diff:.3e}"
            )
    return trace
