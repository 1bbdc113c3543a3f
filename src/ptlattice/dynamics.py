"""Driven mode dynamics: preparation, propagation, power and band occupation.

The drive tilts the lattice so the Bloch momentum grows linearly with the
propagation distance, q(z) = q_start + rate*z, and the mode amplitudes obey

    i da_l/dz = (2l + q(z))**2 a_l + (v_real + v_imag) a_{l+1}
                + (v_real - v_imag) a_{l-1}

with out-of-range neighbours treated as zero.  Power sum(|a_l|^2) is
conserved only for v_imag = 0; each sweep through an odd-integer momentum is
an interband transition that can amplify or attenuate the beam.

Propagation is the split-step (beam-propagation) method in the mode basis:
the diagonal is integrated exactly, since q is linear in z, and the constant
coupling V is applied through its exponential expm(-i w V h), computed once
per run and weight by scaling and squaring a Taylor series, evaluated by
Paterson-Stockmeyer, which needs no eigenbasis (at v_imag = v_real the
coupling is a Jordan block).  A palindromic table of weights composes
Strang sub-steps into one table step (_table).  The lattice's is Kahan &
Li's fifteen sub-steps s15odr8, one eighth-order step of fifteen coupling
kicks; within a run each step's last diagonal phase folds into the next
step's first.  The twomode module's two-level kernel builds its own table,
Kahan & Li's sixth-order s9odr6a, with the same _table, and shares _march,
_expm and IntegratorConfig.

The diagonal phase of mode l over a sub-step of width w from qa to qb is
w (4l^2 + 2l s + c), s = qa + qb, c = (qa^2 + qa qb + qb^2)/3.  The part
w c, the same for every mode, telescopes to (zb - za) c over a sample
interval from za to zb (qa, qb its end momenta): one scalar per interval.
Within a run every folded sub-step keeps its width and its s grows by
2 rate h per table step of length h, so the rest of each factor is a table
over the steps of a chunk, built once per run, times an anchor in l, once
per chunk, written into one phase buffer whose row views are taken once per
run.  A kick is then two numpy calls on preallocated arrays, about 1.2 us at
l_max 6 and 1.4 us at l_max 12 (2 CPUs).  The half sub-step that opens a
sample interval and the one that closes it take their per-mode
exponentials directly.  No factor is a recurrence: each is an exponential
of its own exact argument, not a product of earlier factors.  Rounding
still adds up on a long drive: fig3's final power moves by up to 1.2e-10
relative between runs at n, 2n and 4n grid steps (BENCH_23.json,
fig3_power_floor).  The cause is the rounding of the double kick matrices
U, at most 16 distinct ones (eight weights, two step lengths) applied about
5e5 times on fig3, so that their errors add coherently; neither the
state's precision nor the phase tables matter.  Kicks stored as E = U - I,
y <- y + E y, remove that error at 40-50% more _integrate time (ROADMAP
item 15).

A run of either model is a grid of n = ceil(duration/step) steps, sampled
every stride of them.  The two-level model takes one table step per grid
step, the lattice one per eight: a sample interval of L grid steps takes
ceil(L/8) equal table steps, 1.875 kicks per grid step where L is a
multiple of 8, up to fifteen at L = 1, since a table step cannot end
between samples.  The lattice step defaults to 0.03/max(1, q_max^2); for
v_imag = 0 every factor is unitary, so power is conserved to roundoff at
any step, which is limited by accuracy only.  The convergence check reruns
the grid with exactly twice the table steps in every interval.

Band occupations are biorthogonal projections |left . a|^2 onto the band
eigenvectors of lattice.band_arrays, by one formula (_occupations).  evolve
projects all of its samples with one call of band_arrays, or none with
project=False (a multicross run, which writes no band column);
prepare_band_state, project_onto_band and transition_probability, which
projects a sweep point's end state onto band 2 at q_stop, are its
one-momentum views.

Public functions that compute numbers raise ParameterError where a value
leaves the float range (the _overflow_raises decorator); the private
helpers they call carry no guard.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBandError, ParameterError
from .lattice import LatticeParams, _is_integer, band_arrays, build_hamiltonian

POWER_HALVING_TOL = 1e-6
# The finest grid a run may take, 40 minutes at l_max 6-12 and 2.2-2.6 us
# a grid step; a rate near 0 that needs more fails before any step.
MAX_GRID_STEPS = 10**9


def _table(gamma: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, phase nodes and folded phase nodes of a palindromic table.

    gamma is the first half of the Strang sub-steps of one table step, as
    fractions of it, up to and including the middle one; the weights mirror
    it and sum to 1.  Each sub-step splits its diagonal flow in half around
    its coupling kick, so the kicks sit at cumsum(w) - w/2, between the
    nodes 0 and 1.  A step inside a sample interval starts from the last
    kick of the step before, which folds that step's last phase into its
    own first: its folded nodes start at that kick's offset, minus 1.
    """
    weights = np.array(gamma + gamma[-2::-1])
    nodes = np.concatenate([[0.0], np.cumsum(weights) - weights / 2.0, [1.0]])
    return weights, nodes, np.concatenate([[nodes[-2] - 1.0], nodes[1:]])


# Kahan & Li (1997) s15odr8: the fifteen Strang sub-steps of one
# eighth-order lattice step
_TABLE = _table([0.74167036435061295345, -0.40910082580003159400, 0.19075471029623837995,
                 -0.57386247111608226666, 0.29906418130365592384, 0.33462491824529818378,
                 0.31529309239676659663, -0.79688793935291635402])
_SUBSTEPS = len(_TABLE[0])
# grid steps per lattice table step: fifteen kicks, 1.875 per grid step
_GRID_STEPS = 8
# the phase widths of a folded step's columns, each followed by a kick, and
# before its closing column; columns 1 onwards are palindromic, so the first
# _SUBSTEPS // 2 + 1 widths serve all of them
_FOLDED = _TABLE[2]
_FOLDED_WIDTHS = np.diff(_FOLDED)[:-1]
_TABLE_COLUMNS = [min(j, _SUBSTEPS - j) for j in range(_SUBSTEPS)]
# table steps whose phases are computed at once, which bounds the phase
# buffer and the per-run table, (_CHUNK, 15, N) each; 64 beat 128 and 256
_CHUNK = 64


@dataclass
class ModeVector:
    """Complex amplitudes over modes l = -l_max..l_max, tagged with their momentum."""

    amplitudes: np.ndarray
    q_ref: float


@dataclass(frozen=True)
class DriveParams:
    """Linear momentum sweep q(z) = q_start + rate*z ending at q_stop; finite, rate non-zero."""

    rate: float
    q_start: float
    q_stop: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rate, self.q_start, self.q_stop))):
            raise ParameterError("rate, q_start and q_stop must be finite")
        if self.rate == 0.0:
            raise ParameterError("rate must be non-zero")
        if self.duration <= 0.0:
            raise ParameterError("q_stop must lie ahead of q_start along the drive direction")
        if math.isinf(self.duration):
            raise ParameterError("the drive's duration (q_stop - q_start)/rate overflows")

    @property
    def duration(self) -> float:
        return (self.q_stop - self.q_start) / self.rate

    @property
    def q_extreme(self) -> float:
        return max(abs(self.q_start), abs(self.q_stop))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator knobs; None picks the documented defaults."""

    # the grid step: an eighth of a lattice table step, a whole two-level one
    step: float | None = None
    sample_stride: int | None = None
    convergence_check: bool = False

    def __post_init__(self):
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0):
            raise ParameterError(f"step must be finite and positive, got {self.step}")
        stride = self.sample_stride
        if not (stride is None or _is_integer(stride) and stride >= 1):
            raise ParameterError(f"sample_stride must be an integer >= 1, got {stride}")


@dataclass
class EvolutionTrace:
    """Sampled history of one driven run plus the final state."""

    z: np.ndarray
    q: np.ndarray
    power: np.ndarray
    band1_prob: np.ndarray
    band2_prob: np.ndarray
    final_state: ModeVector
    metadata: dict = field(default_factory=dict)


def _check_state(state: ModeVector, params: LatticeParams, q: float) -> None:
    """Raise ParameterError unless the state holds params.size finite amplitudes at momentum q."""
    if abs(state.q_ref - q) > 1e-9:
        raise ParameterError(f"state carries q_ref={state.q_ref}, asked for q={q}")
    a = np.asarray(state.amplitudes)
    if a.shape != (params.size,) or a.dtype.kind not in "iufc" or not np.isfinite(a).all():
        raise ParameterError(
            f"state must hold {params.size} finite amplitudes (l_max {params.l_max})"
        )


@contextmanager
def _overflow_raises(remedy: str = "shorten the drive or lower |v_imag|"):
    """Turn a numpy overflow or invalid value into ParameterError that ends with remedy.

    A long drive deep in the broken phase amplifies the beam past the float
    range; the run then fails before any row is written instead of
    returning NaN.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ParameterError(
            f"the beam's amplitudes leave the float range ({exc}); {remedy}"
        ) from exc


def _halving_warnings(what: str, diff: float, tol: float = POWER_HALVING_TOL) -> list[str]:
    """The step-halving verdict of every run: one warning if halving changed what by diff > tol."""
    return [f"step too large: halving it changes {what} by {diff:.3e}"] if diff > tol else []


def _one_band(params: LatticeParams, q: float, band: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-power right vector and paired left vector of one band at q."""
    solved = band_arrays(params, q, bands=[band])
    if solved.degenerate[0, 0]:
        raise DegenerateBandError(
            f"band {band} at q={q} is degenerate; its eigenvectors are unreliable"
        )
    return solved.right[0, :, 0], solved.left[0, :, 0]


def _occupations(left: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band amplitudes c = left . a and occupations |c|^2, (Q, B) each, of states a (Q, N)."""
    c = np.einsum("qlb,ql->qb", left, states)
    return c, np.abs(c) ** 2


def prepare_band_state(params: LatticeParams, q: float, band: int) -> ModeVector:
    """Unit-power right eigenvector of the requested band (lattice.band_arrays)."""
    right, _ = _one_band(params, q, band)
    return ModeVector(amplitudes=right, q_ref=q)


@_overflow_raises()
def project_onto_band(
    state: ModeVector, params: LatticeParams, q: float, band: int
) -> tuple[complex, float]:
    """Band amplitude c and occupation |c|^2 of the state at momentum q.

    c = left . amplitudes is the coefficient of the band's unit-power right
    vector in the biorthogonal expansion of the state (lattice.band_arrays
    pairs left . right = 1), so a freshly prepared band state projects onto
    its own band with |c|^2 = 1 and onto any other band with |c|^2 = 0.
    With v_imag = 0 this is the ordinary overlap squared.  An occupation
    past the float range raises ParameterError.
    """
    _check_state(state, params, q)
    _, left = _one_band(params, q, band)
    c, occupation = _occupations(left[None, :, None], [state.amplitudes])
    return c.item(), occupation.item()


def default_step(drive: DriveParams) -> float:
    qm = drive.q_extreme
    return 0.03 / max(1.0, qm * qm)


def _lattice_grid(drive: DriveParams, config: IntegratorConfig) -> tuple[int, int]:
    """Grid steps and sample stride of a run at the configured or default step."""
    step = config.step if config.step is not None else default_step(drive)
    return _grid(drive.duration, step, config.sample_stride, 2000)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-18 Taylor series.

    a is halved until its 1-norm is at most 0.5, where the series' truncation
    error is below 0.5**19/19! ~ 2e-23, and the sum is squared back.  The
    polynomial is evaluated by Paterson-Stockmeyer: from a^2, a^3 and a^4,
    a Horner scheme in a^4 over blocks of four terms, seven matrix products.
    Each block adds its identity term last, so the sum's diagonal, near 1
    for a small a, is rounded once, as in a Horner scheme in a.
    """
    norm = np.linalg.norm(a, 1)
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    a = a / 2.0**squarings
    n = a.shape[0]
    a2 = a @ a
    a4 = a2 @ a2
    powers = np.stack((a, a2, a2 @ a)).reshape(3, n * n)
    for start in (16, 12, 8, 4, 0):
        # the terms a^k/k! for start < k < start + 4, k <= 18, then k = start
        coeffs = [1.0 / math.factorial(k) for k in range(start + 1, min(start + 4, 19))]
        block = (np.array(coeffs) @ powers[:len(coeffs)]).reshape(n, n)
        result = block + a4 @ result if start < 16 else block
        result.flat[::n + 1] += 1.0 / math.factorial(start)
    for _ in range(squarings):
        result = result @ result
    return result


def _grid(duration: float, step: float, stride: int | None, samples: int) -> tuple[int, int]:
    """Grid steps n and sample stride of a run over duration.

    n is the fewest grid steps no longer than step, and the stride defaults
    to ceil(n/samples): at most samples + 1 samples, the last at the end.
    A step that is not > 0 (a default step that rounds to 0 far out) or an
    n above MAX_GRID_STEPS raises ParameterError.
    """
    if not step > 0.0:
        raise ParameterError(f"the grid step {step:.3g} is not positive: a default step "
                             "rounds to 0 this far out; shorten the drive")
    steps = duration / step
    if not steps <= MAX_GRID_STEPS:
        raise ParameterError(f"the run needs {steps:.3g} grid steps, over MAX_GRID_STEPS")
    n_steps = max(1, math.ceil(steps))
    return n_steps, stride or math.ceil(n_steps / samples)


def _march(coupling: np.ndarray, n_steps: int, stride: int, span: int, table: tuple,
           refine: int, dz: float, chunk: int):
    """Chunks of the table steps that march a grid of n_steps steps dz sampled every stride.

    span is the model's grid steps per table step, _GRID_STEPS for the
    lattice and 1 for the two-level model, and table its (weights, nodes,
    folded nodes) from _table: a sample interval of L grid steps
    takes ceil(L/span) equal table steps, refine times as many for a
    convergence rerun: at most two step lengths, for the whole intervals and
    the remainder, and one _expm per distinct weight and step length.  A step
    inside an interval starts from the last kick of the step before, which
    folds that step's last phase into its own first; a step that ends an
    interval ends at the interval's end.  Yields per chunk the steps' kicks,
    their phase nodes as offsets from the grid's start and the spacings
    between them, one row per step, and the grid point each step ends on, 0
    for a step inside an interval, with the run's table-step length h and
    which steps start an interval: (kicks, h, nodes, spacings, first, ends).
    """
    whole, rest = divmod(n_steps, stride)
    runs = [(count, length, refine * -(-length // span))
            for count, length in ((whole, stride), (1, rest)) if count and length]
    steps = {length * dz / m for _, length, m in runs}
    weights, nodes, folded = table
    exps = {(w, h): _expm(-1j * w * h * coupling) for w in set(weights) for h in steps}
    i0 = 0  # grid point of the run's start
    for count, length, m in runs:
        h = length * dz / m
        kicks = [exps[w, h] for w in weights]
        for k0 in range(0, count * m, chunk):
            k = np.arange(k0, min(count * m, k0 + chunk))
            first = k % m == 0
            rel = np.where(first[:, None], nodes, folded)
            ends = np.where((k + 1) % m == 0, i0 + (k + 1) // m * length, 0)
            yield kicks, h, i0 * dz + h * (k[:, None] + rel), h * np.diff(rel, axis=1), first, ends
        i0 += count * length


def _integrate(
    a0: np.ndarray,
    params: LatticeParams,
    drive: DriveParams,
    n_steps: int,
    stride: int | None = None,
    refine: int = 1,
):
    """March a0 through the drive on a grid of n_steps; sample (z, q, a) every stride grid steps.

    The samples are the start, every stride-th grid point and the end; with
    no stride only the ends.  refine multiplies the table steps (_march).
    """
    dz = drive.duration / n_steps
    rate, q0 = drive.rate, drive.q_start
    two_l = 2.0 * params.mode_indices
    ham = build_hamiltonian(params, 0.0)
    coupling = ham - np.diag(np.diag(ham))
    y = a0.astype(complex)

    def direct(w, s):
        """Phase factors exp(-i w 2l (2l + s)), one row per sub-step."""
        return np.exp(-1j * w[:, None] * two_l * (two_l + s[:, None]))

    samples = [(0.0, q0, y.copy())]
    march = _march(coupling, n_steps, stride or n_steps, _GRID_STEPS, _TABLE, refine, dz, _CHUNK)
    table_h, t, z_open, multiply = None, np.empty_like(y), 0.0, np.multiply
    for kicks, h, z, widths, first, ends in march:
        # (2l + q(z))^2 is quadratic in z: its integral over a sub-step is
        # w (4l^2 + 2l s) plus a part free of l that sums to one scalar per
        # sample interval (module docstring)
        qz = q0 + rate * z
        s = qz[:, :-1] + qz[:, 1:]
        w = h * _FOLDED_WIDTHS
        if h != table_h:  # a later run of the same h is a shorter remainder
            k = np.arange(len(z))[:, None, None]
            table = np.exp(-2j * rate * h * k * (w[:_SUBSTEPS // 2 + 1, None] * two_l))
            table = table[:, _TABLE_COLUMNS]
            table_h, buffer = h, np.empty_like(table)
            rows = [list(row) for row in buffer]
        s0 = s[0, :-1].copy()
        if first[0]:  # the chunk's first step starts an interval: fold its column 0
            s0[0] += rate * h * _FOLDED[0]
        np.multiply(table[:len(z)], direct(w, s0), out=buffer[:len(z)])
        # column 0 of an interval's first step spans half a sub-step from its
        # start, and the closing column runs from the last kick to an
        # interval's end, where the interval's scalar phase joins it
        buffer[np.flatnonzero(first), 0] = direct(widths[first, 0], s[first, 0])
        zs = np.append(z_open, z[ends > 0, -1])
        z_open, qa, qb = zs[-1], q0 + rate * zs[:-1], q0 + rate * zs[1:]
        scalar = np.exp(-1j / 3.0 * np.diff(zs) * (qa * qa + qa * qb + qb * qb))
        last = iter(direct(widths[ends > 0, -1], s[ends > 0, -1]) * scalar[:, None])
        dots = [u.dot for u in kicks]
        for row, i in zip(rows, ends.tolist()):
            # outs given positionally to a local multiply: 6-7% less a kick
            for p, dot in zip(row, dots):
                multiply(y, p, t)
                dot(t, y)
            if i:
                y *= next(last)
                if i < n_steps:
                    samples.append((i * dz, q0 + rate * i * dz, y.copy()))
    samples.append((drive.duration, drive.q_stop, y.copy()))
    return y, samples


@_overflow_raises()
def evolve(
    state: ModeVector,
    params: LatticeParams,
    drive: DriveParams,
    config: IntegratorConfig = IntegratorConfig(),
    project: bool = True,
) -> EvolutionTrace:
    """Propagate a state through the drive and sample (z, q, power, bands 1-2).

    The grid has n = ceil(duration/step) steps and is sampled at its start,
    every sample_stride steps and its end; the default stride is
    ceil(n/2000), at most 2001 samples, the last at q_stop.
    With convergence_check enabled the run is repeated with twice the steps and
    the final-state and final-power differences go into the metadata; a power
    difference above 1e-6 adds an accuracy warning.  With project, all
    samples are projected onto bands 1 and 2 with one band_arrays call; a
    sample whose band is degenerate gets NaN in that band's column and is
    counted in metadata["projection_failures"].  Without it both band
    columns are empty and the metadata has no projection_failures.  A state
    that is not params.size finite amplitudes, or a beam amplified past the
    float range, raises ParameterError.
    """
    _check_state(state, params, drive.q_start)
    n_steps, stride = _lattice_grid(drive, config)

    y, samples = _integrate(state.amplitudes, params, drive, n_steps, stride)

    zs, qs, amplitudes = (np.array(column) for column in zip(*samples))
    rho = np.sum(np.abs(amplitudes) ** 2, axis=1)
    metadata = {"step": drive.duration / n_steps, "steps": n_steps, "sample_stride": stride,
                "warnings": []}
    p1 = p2 = np.empty(0)
    if project:
        bands = band_arrays(params, qs, bands=(1, 2))
        p1, p2 = np.where(bands.degenerate, math.nan, _occupations(bands.left, amplitudes)[1]).T
        metadata["projection_failures"] = int(bands.degenerate.sum())
    if config.convergence_check:
        y_half, _ = _integrate(state.amplitudes, params, drive, n_steps, stride, refine=2)
        state_diff = float(np.linalg.norm(y - y_half))
        power_diff = abs(float(rho[-1]) - float(np.sum(np.abs(y_half) ** 2)))
        metadata["final_state_halving_diff"] = state_diff
        metadata["final_power_halving_diff"] = power_diff
        metadata["warnings"] = _halving_warnings("the final power", power_diff)
    return EvolutionTrace(
        z=zs,
        q=qs,
        power=rho,
        band1_prob=p1,
        band2_prob=p2,
        final_state=ModeVector(y, drive.q_stop),
        metadata=metadata,
    )


def _crossings_between(q_from: float, q_to: float) -> int:
    """Number of odd-integer momenta strictly between q_from and q_to."""
    lo, hi = sorted((q_from, q_to))
    # 2j + 1 lies in (lo, hi) for floor((lo-1)/2) < j < ceil((hi-1)/2)
    return max(0, math.ceil((hi - 1.0) / 2.0) - math.floor((lo - 1.0) / 2.0) - 1)


@_overflow_raises()
def transition_probability(params: LatticeParams, drive: DriveParams,
                           step: float | None = None, refine: int = 1) -> float:
    """Occupation of the second band after sweeping through one Bragg point.

    Launches band 1 at q_start, marches the drive's grid at step (default
    default_step) as one sample interval, refine times the table steps
    (2 is the convergence rerun of experiments.run_sweep), and projects the
    end state onto band 2 of the eigensystem solved directly at the
    extended-zone q_stop (bands indexed by sorted real energy).  The
    sorted band-2 index coincides with the swept-through mode only until the
    free-mode parabolas reorder, so q_stop should stay within one unit past
    the crossing (the standard protocol uses 0 -> 1.8).  A degenerate band 2
    at q_stop raises DegenerateBandError; a refine that is not an integer
    >= 1, or a beam amplified past the float range, raises ParameterError.
    """
    if not (_is_integer(refine) and refine >= 1):
        raise ParameterError(f"refine must be an integer >= 1, got {refine}")
    if _crossings_between(drive.q_start, drive.q_stop) != 1:
        raise ParameterError("drive must cross exactly one odd-integer Bragg point")
    state = prepare_band_state(params, drive.q_start, 1)
    _, left = _one_band(params, drive.q_stop, 2)
    n_steps, _ = _lattice_grid(drive, IntegratorConfig(step=step))
    y, _ = _integrate(state.amplitudes, params, drive, n_steps, refine=refine)
    return _occupations(left[None, :, None], [y])[1].item()


@_overflow_raises()
def plateau_averages(trace: EvolutionTrace) -> dict[int, float]:
    """Mean power per plateau, keyed by the number of crossings passed.

    A sample belongs to a plateau when its momentum is more than 0.5 away
    from every odd integer, which excludes the oscillatory transition
    regions around the Bragg points.  A mean past the float range raises
    ParameterError.
    """
    q_start = trace.q[0]
    means: dict[int, list] = {}
    for q, rho in zip(trace.q, trace.power):
        nearest_odd = 2.0 * round((q - 1.0) / 2.0) + 1.0
        if abs(q - nearest_odd) <= 0.5:
            continue
        n = _crossings_between(q_start, q)
        means.setdefault(n, []).append(rho)
    return {n: float(np.mean(vals)) for n, vals in sorted(means.items())}
