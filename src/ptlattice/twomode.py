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
crossing the intensities approach, with x = pi (coupling^2 - skew^2)/(2 rate),

    |a2|^2 -> P = exp(-x)                                        (transition)
    |a1|^2 -> (coupling + skew)^2 pi/(2 rate) phi(x)             (survival)

where phi(x) = (1 - exp(-x))/x, phi(0) = 1.  Both are analytic in
coupling^2 - skew^2.  For |skew| < coupling the survival is
(coupling + skew)/(coupling - skew) * (1 - P); at skew = +coupling it is
2*pi*coupling^2/rate (critical_survival), at -coupling 0.  Past the
exceptional point, |skew| > coupling, x < 0 and P > 1: the ratio and 1 - P
are both negative, and phi > 0 keeps the survival positive.  These are
relative intensities: power is not conserved for skew != 0, and a value
beyond the float range raises ParameterError.  evolve_two_mode integrates
the system directly and is the independent check of every formula here.

Its scheme is the lattice propagator's (dynamics module): the diagonal is
integrated exactly, the constant coupling C enters through the same
exponential dynamics._expm, and Strang steps are composed by a table of
weights built by the same dynamics._table into one step per grid step,
marched by the same dynamics._march over the same grid of sample intervals
with the same IntegratorConfig.  The table is Kahan & Li's sixth-order
s9odr6a, not the lattice's eighth-order s15odr8: a default run of up to
20000 grid steps samples every one of them, so its table steps cannot span
more grid steps, and nine kicks a step cost less than fifteen.

Every matrix of the scheme is a pair (p, omega) of complex numbers,
M = [[p, u omega], [-l conj(omega), conj(p)]] with u, l = (coupling +- skew)/2:
a flow diag(z, conj z) is (z, 0), and a kick kappa I - i sigma C that
dynamics._expm returns is (kappa, -i sigma), since C^2 = u l I and kappa,
sigma are real.  The pairs are closed under products:

    (p1, omega1) (p2, omega2) = (p1 p2 - u l omega1 conj(omega2),
                                 p1 omega2 + omega1 conj(p2)).

A chunk of steps is two complex arrays, the p and omega of its steps, built
from the kicks as dynamics._march yields them and turned in place into
their prefix products (a doubling scan), which applied to the state carried
into the chunk give its states, with no loop over steps.  The flow phases
z = exp(i rate w (t_a + t_b)/4) are built as the lattice kernel builds its
own: within a run of equal steps h a folded column keeps its width w and
its t_a + t_b grows by 2h a step, so its z is a table over a chunk's steps,
built once per run, times an anchor, once per chunk.  Column 0 of an
interval's first step and the flow that closes an interval take their
exponentials directly.  The step is bounded by the diagonal phase advance
per step, not by stability.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import IntegratorConfig, _grid, _halving_warnings, _march, _overflow_raises, _table
from .errors import ParameterError
from .lattice import LatticeParams, _is_integer

# Kahan & Li (1997) s9odr6a: the nine Strang sub-steps of one sixth-order
# two-level step
_TABLE = _table([0.39216144400731413928, 0.33259913678935943860, -0.70624617255763935981,
                 0.08221359629355080023, 0.79854399093482996340])
# steps whose pairs are built at once; bounds the pair and phase buffers' memory
_CHUNK = 1024
# the flow widths of a folded step's columns, each followed by a kick, as
# fractions of the table step; columns 1 onwards are palindromic, so the
# first five widths serve all nine
_FOLDED = _TABLE[2]
_COLUMNS = [min(j, 9 - j) for j in range(9)]
_WIDTHS = np.diff(_FOLDED)[:5]
# trailing share of a trace's samples that tail_intensities averages over
_TAIL_FRACTION = 0.05
# the advice of a run past the exceptional point that leaves the float range
_OVERFLOW_REMEDY = "lower |skew| or raise the rate"


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

    @_overflow_raises(_OVERFLOW_REMEDY)
    def tail_intensities(self) -> tuple[float, float]:
        """Mean |a1|^2 and |a2|^2 over the trailing _TAIL_FRACTION of samples.

        Averaging suppresses the slowly decaying post-crossing oscillations,
        so this is the asymptotic-intensity estimator.  An intensity beyond
        the float range raises ParameterError.
        """
        n = max(1, int(round(_TAIL_FRACTION * self.t.size)))
        return tuple(float(np.mean(np.abs(a[-n:]) ** 2)) for a in (self.a1, self.a2))


def _in_float_range(formula):
    """formula, raising ParameterError where a value it returns overflows or is not finite."""
    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            value = formula(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if np.isfinite(value).all():
            return value
        inputs = args + tuple(kwargs.values())
        raise ParameterError(f"{formula.__name__.lstrip('_')}{inputs} leaves the float range")
    return checked


def _exponent(coupling: float, skew: float, rate: float) -> tuple[TwoModeParams, float]:
    """The checked TwoModeParams and x = pi (coupling^2 - skew^2)/(2|rate|), < 0 past the EP."""
    p = TwoModeParams(coupling, skew, rate)
    return p, math.pi * (p.coupling * p.coupling - p.skew * p.skew) / (2.0 * p.rate)


@_in_float_range
def lz_probability(coupling: float, skew: float, rate: float) -> float:
    """Asymptotic transition intensity P = exp(-x); rate < 0 flips the skew."""
    return math.exp(-_exponent(coupling, skew, rate)[1])


@_in_float_range
def lz_survival(coupling: float, skew: float, rate: float) -> float:
    """Asymptotic ground intensity (c + s)^2 pi/(2|rate|) phi(x), c = coupling, s = skew."""
    p, x = _exponent(coupling, skew, rate)
    phi = -math.expm1(-x) / x if x else 1.0  # expm1 keeps phi accurate as x -> 0
    return (p.coupling + p.skew) ** 2 * math.pi / (2.0 * p.rate) * phi


def critical_survival(coupling: float, rate: float) -> float:
    """lz_survival at skew = +coupling, 2 pi c^2/rate; 0 for rate < 0 (skew = -coupling)."""
    return lz_survival(coupling, coupling, rate)


@_in_float_range
def _multicross_powers(coupling: float, skew: float, rate: float, crossings: int) -> list[float]:
    """multicross_power for n = 1..crossings in one pass; no crossing evaluates no closed form.

    Each partial sum adds the terms S**i for i < n one at a time in order of
    i, so the pass costs time linear in crossings.
    """
    if not crossings:
        return []
    survival, transition = lz_survival(coupling, skew, rate), lz_probability(coupling, skew, rate)
    partials = itertools.accumulate(survival**i for i in range(crossings))
    return [survival**n + transition * partial for n, partial in enumerate(partials, 1)]


def multicross_power(coupling: float, skew: float, rate: float, crossings: int) -> float:
    """Total power after n isolated crossings, S**n + P * sum(S**i for i < n).

    S is lz_survival and P lz_probability; n = 0 gives 1.  It is the last
    value of _multicross_powers.
    """
    if not _is_integer(crossings) or crossings < 0:
        raise ParameterError("crossings must be a non-negative integer")
    return _multicross_powers(coupling, skew, rate, crossings)[-1] if crossings else 1.0


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


def _kick_pair(kick: np.ndarray, upper: float, lower: float) -> tuple[complex, complex]:
    """(p, omega) of a kick [[p, upper omega], [-lower conj(omega), conj(p)]].

    omega is fitted to both coupling entries by least squares, so it comes
    from whichever is non-zero; with both 0 the kick is I and omega 0.
    """
    fit = upper * kick[0, 1] - lower * np.conj(kick[1, 0])
    return kick[0, 0], fit / ((upper * upper + lower * lower) or 1.0)


def _product(a: tuple, b: tuple, ul: float) -> tuple:
    """The pair of the matrix product a b of pairs (p, omega), scalars or arrays (module docstring).

    ul is the product u l of the coupling entries.
    """
    (pa, wa), (pb, wb) = a, b
    return pa * pb - ul * wa * np.conj(wb), pa * wb + wa * np.conj(pb)


def _prefix_products(p: np.ndarray, w: np.ndarray, ul: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix products of the pairs (p[j], w[j]), step j's matrix on the left, in place.

    A Hillis-Steele doubling scan: after the pass with offset d, column j
    holds the product of the min(j + 1, 2d) matrices ending at j.
    """
    d = 1
    while d < p.size:
        # the right side is evaluated in full before the overlapping write
        p[d:], w[d:] = _product((p[d:], w[d:]), (p[:-d], w[:-d]), ul)
        d *= 2
    return p, w


@_overflow_raises(_OVERFLOW_REMEDY)
def evolve_two_mode(
    params: TwoModeParams,
    t_span: tuple[float, float] | None = None,
    config: IntegratorConfig = IntegratorConfig(),
) -> TwoModeTrace:
    """Integrate the sweep from the ground level at t_span[0] (split-step); sample the amplitudes.

    config.step, default or configured, is the table step of s9odr6a, and
    each grid step is one table step (dynamics._march).  Defaults: t_span =
    (-T, T) with T = max(300, 20/sqrt(rate)), a step of at most
    min(0.06, 1.08/eps_max) with eps_max = rate*max|t|/2 (a bounded phase
    advance per step), and a sample stride of ceil(steps/20000), so a
    default trace holds at most 20001 samples, the last one at t_span[1].
    An eps_max that underflows to 0 or a grid above dynamics.MAX_GRID_STEPS
    raises ParameterError, as do amplitudes that leave the float range.
    Grid point i is sampled at t_span[0] + i*dt.  With
    config.convergence_check the run is repeated with twice the steps; a
    change of the final intensities above 1e-4 adds an accuracy warning.
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
    step = config.step if config.step is not None else min(0.06, 1.08 / eps_max)
    n_steps, stride = _grid(t1 - t0, step, config.sample_stride, 20000)
    dt = (t1 - t0) / n_steps
    upper, lower = (params.coupling + params.skew) / 2.0, (params.coupling - params.skew) / 2.0
    ul, rate = upper * lower, params.rate
    coupling = np.array([[0.0, upper], [lower, 0.0]])

    def flow(width, s):
        """The phase z of the flow over width whose end times sum to s."""
        return np.exp(0.25j * rate * width * s)

    def run(refine: int):
        a = ground_state(params, t0)
        ts, amps = [[t0]], [a[:, None]]
        march = _march(coupling, n_steps, stride, 1, _TABLE, refine, dt, _CHUNK)
        table_h = None
        for kicks, h, t, widths, first, ends in march:
            if h != table_h:  # a later run of the same h is a shorter remainder
                pairs = [_kick_pair(kick, upper, lower) for kick in kicks]
                # z of a folded column over the steps of a chunk, times its anchor
                table = flow(h * _WIDTHS[:, None], 2.0 * h * np.arange(len(t)))[_COLUMNS]
                table_h = h
            t = t0 + t
            s = t[0, :-2] + t[0, 1:-1]
            if first[0]:  # the chunk's first step opens an interval: its folded column 0
                s[0] += h * _FOLDED[0]
            z = table[:, :len(t)] * flow(h * _WIDTHS[_COLUMNS], s)[:, None]
            # column 0 of an interval's first step spans half a sub-step from
            # its start, and the closing flow runs from the last kick to an
            # interval's end
            z[0][first] = flow(widths[:, 0][first], (t[:, 0] + t[:, 1])[first])
            # each step: per kick, its flow, which multiplies p and omega by z, then the kick
            p, w = _product(pairs[0], (z[0], 0.0), ul)
            for zj, kick in zip(z[1:], pairs[1:]):
                p, w = _product(kick, (p * zj, w * zj), ul)
            close = ends > 0
            zc = flow(widths[:, -1][close], (t[:, -2] + t[:, -1])[close])
            p[close], w[close] = p[close] * zc, w[close] * zc
            p, w = _prefix_products(p, w, ul)
            # states at the chunk's samples and its last step, from the state
            # carried into it
            take = close & (ends < n_steps)
            i = np.append(np.flatnonzero(take), -1)
            p, w = p[i], w[i]
            b = np.stack((p * a[0] + upper * a[1] * w, a[1] * p.conj() - lower * a[0] * w.conj()))
            ts.append(t0 + ends[take] * dt), amps.append(b[:, :-1])
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
        trace.metadata["warnings"] = _halving_warnings("final intensities", diff, 1e-4)
    return trace
