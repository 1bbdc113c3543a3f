"""Closed forms and numerics for the non-symmetric two-level Landau-Zener sweep.

Near an avoided crossing the lattice reduces to two modes governed by

    i d/dt (a1, a2) = [[ eps(t), (coupling + skew)/2 ],
                       [ (coupling - skew)/2, -eps(t) ]] (a1, a2)

with eps(t) = -rate*t/2.  The reduction from the lattice is
coupling = 2*v_real, skew = 2*v_imag, rate = 4*drive_rate; a reversed drive
maps onto the same problem with the sign of skew flipped (transposition).
TwoModeParams stores a negative rate that way, and the closed forms build
one from their arguments, so every formula here sees rate > 0.

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
A chunk of steps is one complex (2, 2, steps) array of 2x2 step matrices,
built with numpy from the kicks as dynamics._march yields them and turned
in place into its prefix products (a doubling scan), which applied to the
state carried into the chunk give its states, with no loop over steps; the
step is bounded by the diagonal phase advance per step, not by stability.
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
# trailing share of a trace's samples that tail_intensities averages over
_TAIL_FRACTION = 0.05


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
class TwoModeTrace:
    """Sampled amplitudes of one two-level sweep."""

    t: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    metadata: dict = field(default_factory=dict)

    def tail_intensities(self) -> tuple[float, float]:
        """Mean |a1|^2 and |a2|^2 over the trailing _TAIL_FRACTION of samples.

        Averaging suppresses the slowly decaying post-crossing oscillations,
        so this is the asymptotic-intensity estimator.
        """
        n = max(1, int(round(_TAIL_FRACTION * self.t.size)))
        return tuple(float(np.mean(np.abs(a[-n:]) ** 2)) for a in (self.a1, self.a2))


def amplification_ratio(coupling: float, skew: float) -> float:
    """Survival amplification (coupling + skew)/(coupling - skew)."""
    if skew == coupling:
        raise ParameterError("amplification ratio is singular at skew == coupling")
    return (coupling + skew) / (coupling - skew)


def _exponent(coupling: float, skew: float, rate: float) -> tuple[TwoModeParams, float]:
    """The checked TwoModeParams and pi (coupling^2 - skew^2)/(2|rate|)."""
    p = TwoModeParams(coupling, skew, rate)
    if abs(p.skew) >= p.coupling:
        raise ParameterError("transition formulas require |skew| < coupling (real gap)")
    return p, math.pi * (p.coupling * p.coupling - p.skew * p.skew) / (2.0 * p.rate)


def lz_probability(coupling: float, skew: float, rate: float) -> float:
    """Asymptotic transition intensity exp(-pi (coupling^2 - skew^2)/(2|rate|))."""
    return math.exp(-_exponent(coupling, skew, rate)[1])


def lz_survival(coupling: float, skew: float, rate: float) -> float:
    """Asymptotic ground intensity amplification_ratio * (1 - P); rate < 0 flips the skew."""
    p, exponent = _exponent(coupling, skew, rate)
    # expm1 keeps 1 - P accurate when the gap is tiny and P is close to 1
    return amplification_ratio(p.coupling, p.skew) * -math.expm1(-exponent)


def critical_survival(coupling: float, rate: float) -> float:
    """Ground intensity left per crossing at skew = +coupling, 2 pi c^2/rate; 0 for rate < 0."""
    p = TwoModeParams(coupling, coupling, rate)
    if p.skew < 0:  # the reversed sweep has skew = -coupling: the ground level empties
        return 0.0
    return 2.0 * math.pi * p.coupling * p.coupling / p.rate


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


def ground_state(params: TwoModeParams, t: float) -> np.ndarray:
    """Instantaneous lower-level right eigenvector (a1, a2) at time t, unit power.

    Starting a sweep from this state (rather than from a bare component)
    avoids seeding a spurious coherent admixture of the upper level.
    """
    eps = -params.rate * t / 2.0
    upper_coupling = (params.coupling + params.skew) / 2.0
    lower_coupling = (params.coupling - params.skew) / 2.0
    low = -np.sqrt(complex(eps * eps + upper_coupling * lower_coupling))
    a1 = -upper_coupling / (eps - low) if eps != low else 0.0
    norm = math.sqrt(abs(a1) ** 2 + 1.0)
    return np.array([a1 / norm, 1.0 / norm], dtype=complex)


def _step_matrices(t: np.ndarray, widths: np.ndarray, ends: np.ndarray, rate: float,
                   kicks: list) -> np.ndarray:
    """Matrices of table steps with phase nodes t, shape (2, 2, steps).

    Each row of t and of their spacings is one step (dynamics._march): the
    exact diagonal flow diag(z, conj z), z = exp(i rate (b^2 - a^2)/4), runs
    between consecutive nodes a and b, and the 2x2 coupling kicks sit at the
    inner nodes.  The flow from the last kick to the last node applies only
    where the step ends a sample interval.
    """
    z = np.exp(0.25j * rate * widths * (t[:, :-1] + t[:, 1:])).T
    m = np.eye(2)[:, :, None]
    for zi, kick in zip(z, kicks):
        x = np.stack((zi, zi.conj()))[:, None] * m
        m = kick[:, :1, None] * x[0] + kick[:, 1:, None] * x[1]
    z = np.where(ends, z[-1], 1.0)
    return np.stack((z, z.conj()))[:, None] * m


def _prefix_products(p: np.ndarray) -> np.ndarray:
    """Prefix products p[..., j] @ ... @ p[..., 0] of 2x2 matrices (2, 2, len), in place.

    A Hillis-Steele doubling scan: after the pass with offset d, column j
    holds the product of the min(j + 1, 2d) matrices ending at j.
    """
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
    config: IntegratorConfig = IntegratorConfig(),
) -> TwoModeTrace:
    """Integrate the sweep from the ground level at t_span[0] (split-step); sample the amplitudes.

    Defaults: t_span = (-T, T) with T = max(300, 20/sqrt(rate)), the table
    step is at most min(0.06, 1.08/eps_max) with eps_max = rate*max|t|/2 (a
    bounded phase advance per step), so the grid step is that over the most
    grid steps a table step spans, min(stride, 3) (dynamics._grid), and the
    sample stride is ceil(steps/20000), so a default trace holds at most
    20001 samples, the last one at t_span[1].  An eps_max that underflows to
    0 or a grid above dynamics.MAX_GRID_STEPS raises ParameterError.  Grid
    point i is sampled at t_span[0] + i*dt; a sample interval of L grid
    steps takes ceil(L/3) table steps (dynamics._march), a chunk at a time.
    With config.convergence_check the run is repeated with twice the steps;
    a change of the final intensities above 1e-4 adds an accuracy warning.
    """
    if t_span is None:
        t_max = max(300.0, 20.0 / math.sqrt(params.rate))
        t_span = (-t_max, t_max)
    t0, t1 = float(t_span[0]), float(t_span[1])
    # at most 1.08 rad of diagonal phase per table step where the sweep is farthest out
    eps_max = params.rate * max(abs(t0), abs(t1)) / 2.0
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0 and eps_max > 0.0):
        raise ParameterError("t_span must be finite and increasing, and the detuning "
                             "rate*max|t|/2 at its far end must not underflow to 0")
    bound = min(0.06, 1.08 / eps_max)
    step = config.step if config.step is not None else bound
    n_steps, stride = _grid(t1 - t0, step, config.sample_stride, 20000,
                            table_step=config.step is None)
    dt = (t1 - t0) / n_steps
    coupling = np.array([[0.0, params.coupling + params.skew],
                         [params.coupling - params.skew, 0.0]]) / 2.0

    def run(refine: int):
        a = ground_state(params, t0)
        ts, amps = [[t0]], [a[:, None]]
        for kicks, _, t, widths, _, ends in _march(coupling, n_steps, stride, refine, dt, _CHUNK):
            p = _prefix_products(_step_matrices(t0 + t, widths, ends, params.rate, kicks))
            # states after the chunk's steps, from the state carried into it
            b = p[:, 0] * a[0] + p[:, 1] * a[1]
            take = (ends > 0) & (ends < n_steps)
            ts.append(t0 + ends[take] * dt), amps.append(b[:, take])
            a = b[:, -1]
        ts.append([t1]), amps.append(a[:, None])
        return np.concatenate(ts), np.concatenate(amps, axis=1)

    t, amps = run(1)
    trace = TwoModeTrace(
        t=t, a1=amps[0], a2=amps[1], metadata={"step": dt, "steps": n_steps, "warnings": []}
    )
    if config.convergence_check:
        _, finer = run(2)
        diff = float(np.sum(np.abs(np.abs(amps[:, -1]) ** 2 - np.abs(finer[:, -1]) ** 2)))
        trace.metadata["final_intensity_halving_diff"] = diff
        if diff > 1e-4:
            trace.metadata["warnings"].append(
                f"step too large: halving it changes final intensities by {diff:.3e}"
            )
    return trace
