"""Closed forms and numerics for the non-symmetric two-level Landau-Zener sweep.

Near an avoided crossing the lattice reduces to two modes governed by

    i d/dt (a1, a2) = [[ eps(t), (coupling + skew)/2 ],
                       [ (coupling - skew)/2, -eps(t) ]] (a1, a2)

with eps(t) = -rate*t/2.  The reduction from the lattice is
coupling = 2*v_real, skew = 2*v_imag, rate = 4*drive_rate; a reversed drive
maps onto the same problem with the sign of skew flipped (transposition),
and TwoModeParams stores a negative rate that way, so every function here
sees rate >= 0.

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
integrated exactly, the constant coupling C enters through the same
exponential dynamics._expm, and Strang steps are composed by the same table
of weights into one sixth-order step, marched over the same grid of sample
intervals.  evolve_two_mode takes the lattice propagator's IntegratorConfig.
The 2x2 step matrices are built with numpy a chunk of steps at a time, and
the chunk's states come from their prefix products (a doubling scan)
applied to the state carried into it, with no loop over steps; the step is
bounded by the diagonal phase advance per step, not by stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import IntegratorConfig, _grid, _march
from .errors import ParameterError
from .lattice import LatticeParams, _is_integer

# steps whose matrices are built at once; bounds the matrix buffers' memory
_CHUNK = 1024


@dataclass(frozen=True)
class TwoModeParams:
    """Reduced two-level problem, rate non-zero; a negative rate is stored as (-skew, |rate|)."""

    coupling: float
    skew: float
    rate: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.coupling, self.skew, self.rate))):
            raise ParameterError("coupling, skew and rate must be finite")
        if self.coupling < 0:
            raise ParameterError("coupling must be non-negative")
        if self.rate == 0.0:
            raise ParameterError("rate must be non-zero")
        if self.rate < 0:
            object.__setattr__(self, "skew", -self.skew)
            object.__setattr__(self, "rate", -self.rate)

    @classmethod
    def from_lattice(cls, lattice: LatticeParams, drive_rate: float) -> "TwoModeParams":
        """Map lattice amplitudes and drive rate onto the two-level problem."""
        return cls(coupling=2.0 * lattice.v_real, skew=2.0 * lattice.v_imag, rate=4.0 * drive_rate)


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
    if not _is_integer(crossings) or crossings < 0:
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
    eps = -params.rate * t / 2.0
    upper_coupling = (params.coupling + params.skew) / 2.0
    lower_coupling = (params.coupling - params.skew) / 2.0
    low = -np.sqrt(complex(eps * eps + upper_coupling * lower_coupling))
    a1 = -upper_coupling / (eps - low) if eps != low else 0.0
    norm = math.sqrt(abs(a1) ** 2 + 1.0)
    return TwoModeState(a1=complex(a1 / norm), a2=complex(1.0 / norm), t=t)


def _step_matrices(t: np.ndarray, widths: np.ndarray, ends: np.ndarray, rate: float,
                   kicks: list) -> tuple:
    """Entries (m11, m12, m21, m22) of the matrices of table steps with phase nodes t.

    Each row of t and of their spacings is one step (dynamics._march): the
    exact diagonal flow diag(z, conj z), z = exp(i rate (b^2 - a^2)/4), runs
    between consecutive nodes a and b, and the coupling kicks, given as their
    four entries (k11, k12, k21, k22), sit at the inner nodes.  The flow from
    the last kick to the last node applies only where the step ends a sample
    interval.
    """
    z = np.exp(0.25j * rate * widths * (t[:, :-1] + t[:, 1:])).T
    m = (1.0, 0.0, 0.0, 1.0)
    for zi, (k11, k12, k21, k22) in zip(z, kicks):
        zc = zi.conj()
        x11, x12, x21, x22 = zi * m[0], zi * m[1], zc * m[2], zc * m[3]
        m = (k11 * x11 + k12 * x21, k11 * x12 + k12 * x22,
             k21 * x11 + k22 * x21, k21 * x12 + k22 * x22)
    z = np.where(ends, z[-1], 1.0)
    zc = z.conj()
    return z * m[0], z * m[1], zc * m[2], zc * m[3]


def _prefix_products(m: tuple) -> np.ndarray:
    """Prefix products m[j] @ ... @ m[0] of the 2x2 matrices with entries m, shape (2, 2, len).

    A Hillis-Steele doubling scan: after the pass with offset d, column j
    holds the product of the min(j + 1, 2d) matrices ending at j.
    """
    p = np.array(m, dtype=complex).reshape(2, 2, -1)
    d = 1
    while d < p.shape[-1]:
        a, b = p[..., d:], p[..., :-d]
        # the right side is evaluated in full before the overlapping write
        p[..., d:] = a[:, :1] * b[0] + a[:, 1:] * b[1]
        d *= 2
    return p


def evolve_two_mode(
    params: TwoModeParams,
    t_span: tuple[float, float] | None = None,
    initial: TwoModeState | None = None,
    config: IntegratorConfig = IntegratorConfig(),
) -> TwoModeTrace:
    """Integrate the sweep with the module's split-step scheme; sample the amplitudes.

    Defaults: t_span = (-T, T) with T = max(300, 20/sqrt(rate)), the initial
    state is the instantaneous ground level at t_span[0] (a given one must
    be at t_span[0], else ParameterError), the table step is
    at most min(0.06, 1.08/eps_max) with eps_max = rate*max|t|/2 (a bounded
    phase advance per step), so the grid step is that over the most grid
    steps a table step spans, min(stride, 3) (dynamics._grid), and the
    sample stride is ceil(steps/20000), so a default trace holds at most
    20001 samples, the last one at t_span[1].
    The state at grid point i is sampled at t_span[0] + i*dt; each sample
    interval of L grid steps is marched in ceil(L/3) table steps
    (dynamics._march), a chunk at a time, which bounds the working memory.
    With config.convergence_check the run is repeated with twice the steps;
    a change of the final intensities above 1e-4 adds an accuracy warning.
    """
    if t_span is None:
        t_max = max(300.0, 20.0 / math.sqrt(params.rate))
        t_span = (-t_max, t_max)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ParameterError("t_span must be finite and increasing")
    if config.step is None:
        # at most 1.08 rad of diagonal phase per table step where the sweep is
        # farthest out
        bound = min(0.06, 1.08 / (params.rate * max(abs(t0), abs(t1)) / 2.0))
        n_steps, stride = _grid(t1 - t0, bound, config.sample_stride, 20000, table_step=True)
    else:
        n_steps, stride = _grid(t1 - t0, config.step, config.sample_stride, 20000)
    if initial is None:
        initial = ground_state(params, t0)
    elif abs(initial.t - t0) > 1e-9:
        raise ParameterError(f"initial state is at t={initial.t}, the span starts at t={t0}")
    coupling = np.array([[0.0, params.coupling + params.skew],
                         [params.coupling - params.skew, 0.0]]) / 2.0

    def run(n_steps: int, stride: int, refine: int = 1):
        dt = (t1 - t0) / n_steps
        a = np.array([initial.a1, initial.a2], dtype=complex)
        ts, amps = [[t0]], [a[:, None]]
        for kicks, t, widths, ends in _march(coupling, n_steps, stride, refine, dt, _CHUNK):
            entries = [kick.ravel().tolist() for kick in kicks]
            p = _prefix_products(_step_matrices(t0 + t, widths, ends, params.rate, entries))
            # states after the chunk's steps, from the state carried into it
            b = p[:, 0] * a[0] + p[:, 1] * a[1]
            take = (ends > 0) & (ends < n_steps)
            ts.append(t0 + ends[take] * dt), amps.append(b[:, take])
            a = b[:, -1]
        ts.append([t1]), amps.append(a[:, None])
        return np.concatenate(ts), np.concatenate(amps, axis=1), dt

    t, amps, dt = run(n_steps, stride)
    trace = TwoModeTrace(
        t=t, a1=amps[0], a2=amps[1], metadata={"step": dt, "steps": n_steps, "warnings": []}
    )
    if config.convergence_check:
        _, finer, _ = run(n_steps, stride, refine=2)
        diff = float(np.sum(np.abs(np.abs(amps[:, -1]) ** 2 - np.abs(finer[:, -1]) ** 2)))
        trace.metadata["final_intensity_halving_diff"] = diff
        if diff > 1e-4:
            trace.metadata["warnings"].append(
                f"step too large: halving it changes final intensities by {diff:.3e}"
            )
    return trace
