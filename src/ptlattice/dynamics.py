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
per run and weight by scaling and squaring a Taylor series, which needs no
eigenbasis (at v_imag = v_real the coupling is a Jordan block).  One table
of weights, Kahan & Li's nine Strang sub-steps (s9odr6a), composes them into
one sixth-order step of nine coupling kicks; within a run each step's last
diagonal phase folds into the next step's first.  The twomode module's
two-level kernel uses the same table, _expm and IntegratorConfig.

A run is a grid of n = ceil(duration/step) steps, sampled every stride of
them.  Each sample interval of L grid steps is marched in ceil(L/3) equal
table steps: three kicks per grid step where L is a multiple of 3, up to
nine at L = 1, since a table step cannot end between samples.  The
step defaults to 0.03/max(1, q_max^2); for v_imag = 0 every factor is
unitary, so power is conserved to roundoff at any step, which is limited by
accuracy only.  The convergence check reruns the grid with exactly twice
the table steps in every interval.

Band occupations are biorthogonal projections onto the band eigenvectors of
lattice.band_arrays.  evolve projects all of its samples with one call of
it; prepare_band_state and project_onto_band are its one-momentum views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBandError, ParameterError
from .lattice import LatticeParams, _is_integer, band_arrays, build_hamiltonian

POWER_HALVING_TOL = 1e-6

# Kahan & Li (1997) s9odr6a: the Strang sub-steps of one sixth-order step,
# as fractions of it; the table is palindromic and sums to 1
_GAMMA = [0.39216144400731413928, 0.33259913678935943860, -0.70624617255763935981,
          0.08221359629355080023, 0.79854399093482996340]
_WEIGHTS = np.array(_GAMMA + _GAMMA[-2::-1])
# phase nodes of one step: each sub-step splits its diagonal flow in half
# around its coupling kick, so the kicks sit at cumsum(w) - w/2
_NODES = np.concatenate([[0.0], np.cumsum(_WEIGHTS) - _WEIGHTS / 2.0, [1.0]])
# the nodes of a step inside a sample interval: it starts from the last kick
# of the step before, which folds that step's last phase into its own first
_FOLDED = np.concatenate([[_NODES[-2] - 1.0], _NODES[1:]])
# grid steps per table step: nine kicks, at a budget of three per grid step
_GRID_STEPS = 3
# steps whose phases are computed at once; bounds the phase buffer's memory
_CHUNK = 256


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


def power(state: ModeVector) -> float:
    """Total intensity sum(|a_l|^2)."""
    return float(np.sum(np.abs(state.amplitudes) ** 2))


def _unit_bands(params: LatticeParams, q, bands) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band vectors at every momentum of q from band_arrays.

    Returns the unit-power right vectors and the left vectors rescaled to
    pair with them, each (Q, N, len(bands)), and the degeneracy flags
    (Q, len(bands)).
    """
    solved = band_arrays(params, q, bands=bands)
    norm = np.linalg.norm(solved.right, axis=1, keepdims=True)
    return solved.right / norm, solved.left * norm, solved.degenerate


def _one_band(params: LatticeParams, q: float, band: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-power right vector and paired left vector of one band at q."""
    right, left, degenerate = _unit_bands(params, [q], [band])
    if degenerate[0, 0]:
        raise DegenerateBandError(
            f"band {band} at q={q} is degenerate; its eigenvectors are unreliable"
        )
    return right[0, :, 0], left[0, :, 0]


def prepare_band_state(params: LatticeParams, q: float, band: int) -> ModeVector:
    """Right eigenvector of the requested band, scaled to unit power."""
    right, _ = _one_band(params, q, band)
    return ModeVector(amplitudes=right, q_ref=q)


def project_onto_band(
    state: ModeVector, params: LatticeParams, q: float, band: int
) -> tuple[complex, float]:
    """Band amplitude c and occupation |c|^2 of the state at momentum q.

    c is the coefficient of the unit-power band eigenvector in the
    biorthogonal expansion of the state: the stored left vector is rescaled
    to pair with the unit-power right vector, so a freshly prepared band
    state projects onto its own band with |c|^2 = 1 and onto any other band
    with |c|^2 = 0.  With v_imag = 0 this is the ordinary overlap squared.
    """
    if abs(q - state.q_ref) > 1e-9:
        raise ParameterError(f"state carries q_ref={state.q_ref}, asked to project at q={q}")
    _, left = _one_band(params, q, band)
    c = complex(left @ state.amplitudes)
    return c, abs(c) ** 2


def default_step(params: LatticeParams, drive: DriveParams) -> float:
    qm = drive.q_extreme
    return 0.03 / max(1.0, qm * qm)


def _lattice_grid(params: LatticeParams, drive: DriveParams,
                  config: IntegratorConfig) -> tuple[int, int]:
    """Grid steps and sample stride of a run at the configured or default step."""
    step = config.step if config.step is not None else default_step(params, drive)
    return _grid(drive.duration, step, config.sample_stride, 2000)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-18 Taylor series.

    a is halved until its 1-norm is at most 0.5, where the series' truncation
    error is below 0.5**19/19! ~ 2e-23, and the sum is squared back.
    """
    norm = np.linalg.norm(a, 1)
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    a = a / 2.0**squarings
    eye = np.eye(a.shape[0], dtype=a.dtype)
    result = eye
    for k in range(18, 0, -1):
        result = eye + (a @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


def _grid(duration: float, step: float, stride: int | None, samples: int,
          table_step: bool = False) -> tuple[int, int]:
    """Grid steps n and sample stride of a run over duration.

    n is the fewest grid steps no longer than step, and the stride defaults
    to ceil(n/samples): at most samples + 1 samples, the last at the end.
    With table_step, step bounds the table steps of _march instead: one
    spans min(stride, 3) grid steps, so the grid step is step over that
    span.  A default stride spans 1 when ceil(duration/step) <= samples;
    above that the stride on the finer grid is at least 3.
    """
    span = 1
    if table_step:
        default = 1 if math.ceil(duration / step) <= samples else _GRID_STEPS
        span = min(stride or default, _GRID_STEPS)
    n_steps = max(1, math.ceil(duration / (step / span)))
    return n_steps, stride or math.ceil(n_steps / samples)


def _march(coupling: np.ndarray, n_steps: int, stride: int, refine: int, dz: float,
           chunk: int):
    """Chunks of the table steps that march a grid of n_steps steps dz sampled every stride.

    Each sample interval of L grid steps takes ceil(L/3) equal table steps,
    refine times as many for a convergence rerun: at most two step lengths,
    for the whole intervals and the remainder, and one _expm per distinct
    weight and step length.  A step inside an interval starts from the last
    kick of the step before, which folds that step's last phase into its own
    first; a step that ends an interval ends at the interval's end.  Yields
    per chunk the steps' kicks, their phase nodes as offsets from the grid's
    start and the spacings between them, one row per step, and the grid
    point each step ends on, 0 for a step inside an interval.
    """
    whole, rest = divmod(n_steps, stride)
    runs = [(count, length, refine * -(-length // _GRID_STEPS))
            for count, length in ((whole, stride), (1, rest)) if count and length]
    steps = {length * dz / m for _, length, m in runs}
    exps = {(w, h): _expm(-1j * w * h * coupling) for w in set(_WEIGHTS) for h in steps}
    i0 = 0  # grid point of the run's start
    for count, length, m in runs:
        h = length * dz / m
        kicks = [exps[w, h] for w in _WEIGHTS]
        for k0 in range(0, count * m, chunk):
            k = np.arange(k0, min(count * m, k0 + chunk))
            rel = np.where((k % m == 0)[:, None], _NODES, _FOLDED)
            ends = np.where((k + 1) % m == 0, i0 + (k + 1) // m * length, 0)
            yield kicks, i0 * dz + h * (k[:, None] + rel), h * np.diff(rel, axis=1), ends
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
    h = build_hamiltonian(params, 0.0)
    coupling = h - np.diag(np.diag(h))
    y = a0.astype(complex)

    samples = [(0.0, q0, y)]
    march = _march(coupling, n_steps, stride or n_steps, refine, dz, _CHUNK)
    for kicks, z, widths, ends in march:
        # (2l + q(z))^2 is quadratic in z: its integral over [a, b] in terms
        # of the end values is (b - a)(qa^2 + qa qb + qb^2)/3
        qn = two_l + (q0 + rate * z)[:, :, None]
        qa, qb = qn[:, :-1], qn[:, 1:]
        phases = np.exp(-1j / 3.0 * widths[:, :, None] * (qa * qa + qa * qb + qb * qb))
        dots = [u.dot for u in kicks]
        for row, i in zip(phases, ends.tolist()):
            for p, dot in zip(row, dots):
                y = dot(y * p)
            if i:
                y = y * row[-1]
                if i < n_steps:
                    samples.append((i * dz, q0 + rate * i * dz, y))
    samples.append((drive.duration, drive.q_stop, y))
    return y, samples


def evolve(
    state: ModeVector,
    params: LatticeParams,
    drive: DriveParams,
    config: IntegratorConfig = IntegratorConfig(),
) -> EvolutionTrace:
    """Propagate a state through the drive and sample (z, q, power, bands 1-2).

    The grid has n = ceil(duration/step) steps and is sampled at its start,
    every sample_stride steps and its end; the default stride is
    ceil(n/2000), at most 2001 samples, the last at q_stop.
    With convergence_check enabled the run is repeated with twice the steps and
    the final-state and final-power differences go into the metadata; a power
    difference above 1e-6 adds an accuracy warning.  All samples are
    projected onto bands 1 and 2 with one band_arrays call; a sample whose
    band is degenerate gets NaN in that band's column and is counted in
    metadata["projection_failures"].
    """
    if abs(state.q_ref - drive.q_start) > 1e-9:
        raise ParameterError("state q_ref must match the drive's q_start")
    n_steps, stride = _lattice_grid(params, drive, config)

    y, samples = _integrate(state.amplitudes, params, drive, n_steps, stride)

    zs = np.array([s[0] for s in samples])
    qs = np.array([s[1] for s in samples])
    rho = np.array([float(np.sum(np.abs(s[2]) ** 2)) for s in samples])
    _, left, degenerate = _unit_bands(params, qs, (1, 2))
    c = np.einsum("qlb,ql->qb", left, np.array([s[2] for s in samples]))
    p1, p2 = np.where(degenerate, math.nan, np.abs(c) ** 2).T

    metadata = {
        "step": drive.duration / n_steps,
        "steps": n_steps,
        "sample_stride": stride,
        "projection_failures": int(degenerate.sum()),
        "warnings": [],
    }
    if config.convergence_check:
        y_half, _ = _integrate(state.amplitudes, params, drive, n_steps, stride, refine=2)
        state_diff = float(np.linalg.norm(y - y_half))
        power_diff = abs(float(np.sum(np.abs(y) ** 2)) - float(np.sum(np.abs(y_half) ** 2)))
        metadata["final_state_halving_diff"] = state_diff
        metadata["final_power_halving_diff"] = power_diff
        if power_diff > POWER_HALVING_TOL:
            metadata["warnings"].append(
                f"step too large: halving it changes the final power by {power_diff:.3e}"
            )
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


def transition_probability(
    params: LatticeParams,
    drive: DriveParams,
    config: IntegratorConfig = IntegratorConfig(),
) -> float:
    """Occupation of the second band after sweeping through one Bragg point.

    Prepares the lowest band at q_start, evolves, and reads the final
    sample's projection onto band 2 of the eigensystem solved directly at
    the extended-zone q_stop (bands indexed by sorted real energy).  The
    sorted band-2 index coincides with the swept-through mode only until the
    free-mode parabolas reorder, so q_stop should stay within one unit past
    the crossing (the standard protocol uses 0 -> 1.8).  A degenerate band 2
    at q_stop raises DegenerateBandError.  config.convergence_check raises
    ParameterError: a bare probability cannot carry the check, and
    experiments.run_sweep reruns each point with twice the steps instead.
    config.sample_stride raises ParameterError too: only the ends are sampled.
    """
    if config.convergence_check:
        raise ParameterError(
            "transition_probability cannot check convergence; run_sweep with "
            "integrator.convergence_check reruns each rate with twice the steps"
        )
    if config.sample_stride is not None:
        raise ParameterError("transition_probability samples only the drive's ends; "
                             "it takes no sample_stride")
    if _crossings_between(drive.q_start, drive.q_stop) != 1:
        raise ParameterError("drive must cross exactly one odd-integer Bragg point")
    state = prepare_band_state(params, drive.q_start, 1)
    # band tracking along the way is not needed here; sample endpoints only
    trace = evolve(state, params, drive, IntegratorConfig(step=config.step, sample_stride=10**9))
    prob = float(trace.band2_prob[-1])
    if math.isnan(prob):
        raise DegenerateBandError(
            f"band 2 at q={drive.q_stop} is degenerate; its eigenvectors are unreliable"
        )
    return prob


def _refined_probability(params: LatticeParams, drive: DriveParams, step: float | None) -> float:
    """transition_probability at step, rerun with twice the table steps in its one interval."""
    state = prepare_band_state(params, drive.q_start, 1)
    n_steps, _ = _lattice_grid(params, drive, IntegratorConfig(step=step))
    y, _ = _integrate(state.amplitudes, params, drive, n_steps, refine=2)
    return project_onto_band(ModeVector(y, drive.q_stop), params, drive.q_stop, 2)[1]


def plateau_averages(trace: EvolutionTrace) -> dict[int, float]:
    """Mean power per plateau, keyed by the number of crossings passed.

    A sample belongs to a plateau when its momentum is more than 0.5 away
    from every odd integer, which excludes the oscillatory transition
    regions around the Bragg points.
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
