"""Steady states, time propagation, and switched-field transient generation.

Two independent propagation paths are provided on purpose: a modal
(eigen-decomposition) solver that evaluates the exact solution

    y(t) = y_ss + sum_i a_i v_i exp(lambda_i t),    y_ss = -M^{-1} p0,

and a fixed-step fourth-order Runge-Kutta integrator that knows nothing
about the spectrum.  Their agreement is used as a correctness oracle in the
test suite.

For constant M, s classic RK4 steps of size h are exactly an affine map
y <- R y + r, with R = sum_{k<=4} (hM)^k/k! (RK4's stability polynomial)
and r = h sum_{k<=3} (hM)^k/(k+1)! p0 composed s times.  The integrator
counts how often each sample interval occurs.  An interval that occurs
often enough to repay it gets that map, built from powers of hM on the full
M with the s steps composed by binary powering, and applied with one
matrix-vector product per sample; any other interval is stepped with
matrix-vector products.  A uniform sample grid needs only a handful of
maps.  It uses neither an eigendecomposition nor the invariant block below.

The modal solver works on an invariant block of M: the Liouville indices
reachable from the supports of p0 and of the initial state along the
nonzero pattern of M.  M maps nothing from the block to the rest of the
space, so outside the block the state stays exactly zero, and only
M[block, block] needs an eigendecomposition.  The block is exact for any
polarization; with linear light it holds about half of the indices.  One
decomposition of the block (eigenpairs, steady state, eigenvector condition
number and the absorption weight of each mode, with one solve for the mode
amplitudes of a start state) serves every sample and every hand-off that
uses its Liouvillian, and the spectra of ``spectral.eigenmodes``.  When the
eigenvectors are too ill-conditioned to trust, the integrator computes both
the samples and the hand-off instead: this is the only fallback path.

A square-wave switched magnetic field is simulated phase by phase: the field
is piecewise constant, switching is instantaneous, and the state at the start
of the record is the steady state of the phase preceding it, which is where a
periodically driven system settles after a few transit times.  The Zeeman
terms are diagonal, so both fields share one block, and each field is
decomposed once per transient whatever the number of periods.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from math import ceil, isfinite, log2, sqrt

import numpy as np

from .liouvillian import (
    Liouvillian,
    TransitionSpec,
    build_liouvillian,
    devectorize,
    spec_meta,
    vectorize,
)

__all__ = [
    "SwitchSchedule",
    "TransientTrace",
    "steady_state",
    "propagate_modal",
    "propagate_integrated",
    "switched_transient",
    "split_phases",
    "trajectory_physicality",
    "transit_time",
]

#: Largest step accepted by the fixed-step integrator (units of 1/decay rate).
MAX_INTEGRATOR_STEP = 0.05

#: Eigenvector condition number beyond which the modal solver defers to the integrator.
MODAL_CONDITION_LIMIT = 1e10

#: Boltzmann constant in J/K (exact in the 2019 SI).
_BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class SwitchSchedule:
    """Square-wave magnetic-field schedule.

    One period holds the field at ``b0`` for ``duty * period`` and then at
    ``b1`` for the rest.  ``samples_per_period`` sampling points are split
    between the two phases in proportion to their durations.
    """

    b1: float
    b0: float = 0.0
    period: float = 5000.0
    duty: float = 0.5
    n_periods: int = 1
    samples_per_period: int = 4000

    def __post_init__(self):
        for name in ("b1", "b0", "period", "duty"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError(f"duty must lie in [0, 1], got {self.duty}")
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods}")
        if self.samples_per_period < 2:
            raise ValueError(f"samples_per_period must be >= 2, got {self.samples_per_period}")

    def phases(self) -> list[tuple[float, float, int]]:
        """(field, duration, sample count) for the phases of one period."""
        n_first = round(self.samples_per_period * self.duty)
        return [
            (self.b0, self.period * self.duty, n_first),
            (self.b1, self.period * (1.0 - self.duty), self.samples_per_period - n_first),
        ]


@dataclass
class TransientTrace:
    """Sampled absorption signal with the field value at each sample.

    Attributes
    ----------
    times : ndarray
        Strictly increasing sample times (units of 1/decay rate).
    w : ndarray
        Absorption samples.
    b : ndarray
        Magnetic field at each sample.
    meta : dict
        Free-form provenance (transition parameters, schedule, solver kind).
    """

    times: np.ndarray
    w: np.ndarray
    b: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if not (self.times.shape == self.w.shape == self.b.shape) or self.times.ndim != 1:
            raise ValueError("times, w and b must be 1-d arrays of equal length")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


def _as_vector(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 2:
        return vectorize(state)
    return state.copy()


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """Unique steady state sigma_ss = devec(-M^{-1} p0), validated physical.

    Raises
    ------
    numpy.linalg.LinAlgError
        If M is (numerically) singular; the message reports the condition
        number, since a singular M means the relaxation floor is absent.
    """
    try:
        y_ss = np.linalg.solve(liouv.matrix, -liouv.pump)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(liouv.matrix)
        raise np.linalg.LinAlgError(
            f"steady-state solve failed (condition number {cond:.3e}); "
            "a positive transit rate should forbid a null space"
        ) from exc
    residual = np.linalg.norm(liouv.matrix @ y_ss + liouv.pump)
    if residual > 1e-10:
        raise np.linalg.LinAlgError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    sigma = devectorize(y_ss)
    trace = np.trace(sigma).real
    if abs(trace - 1.0) > 1e-9:
        raise np.linalg.LinAlgError(f"steady-state trace {trace!r} is not 1")
    if np.abs(sigma - sigma.conj().T).max() > 1e-10:
        raise np.linalg.LinAlgError("steady state is not Hermitian")
    smallest = np.linalg.eigvalsh((sigma + sigma.conj().T) / 2.0).min()
    if smallest < -1e-10:
        raise np.linalg.LinAlgError(f"steady state has negative population {smallest:.3e}")
    return sigma


def _invariant_block(matrices, seeds) -> np.ndarray:
    """Sorted Liouville indices reachable from the seeds' supports.

    Index j is reached from index i when some matrix has a nonzero entry
    (j, i).  Every matrix therefore maps a vector supported on the block to
    one supported on it, and a state that starts on the block never leaves.
    """
    pattern = np.zeros(matrices[0].shape, dtype=bool)
    for matrix in matrices:
        pattern |= matrix != 0
    reached = np.zeros(pattern.shape[0], dtype=bool)
    for seed in seeds:
        reached |= seed != 0
    frontier = reached.copy()
    while frontier.any():
        frontier = pattern[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return np.flatnonzero(reached)


@dataclass(frozen=True)
class _Modes:
    """One eigendecomposition of M on an invariant block, with absorption weights.

    ``y_ss`` is full-size and zero outside ``block``; ``w_modes[k]`` is the
    absorption functional of eigenvector k and ``w_ss`` that of ``y_ss``.
    """

    block: np.ndarray
    lam: np.ndarray
    vecs: np.ndarray
    y_ss: np.ndarray
    cond: float
    w_modes: np.ndarray
    w_ss: float

    def amplitudes(self, y0: np.ndarray) -> np.ndarray:
        """Coefficients of y0 - y_ss over the eigenvectors, on the block only."""
        return np.linalg.solve(self.vecs, y0[self.block] - self.y_ss[self.block])


def _decompose(liouv: Liouvillian, block: np.ndarray) -> _Modes:
    """M decomposed on an invariant block, with -M^{-1} p0 solved there (zero outside it)."""
    sub = liouv.matrix[np.ix_(block, block)]
    y_ss = np.zeros(liouv.size, dtype=complex)
    y_ss[block] = np.linalg.solve(sub, -liouv.pump[block])
    lam, vecs = np.linalg.eig(sub)
    row = liouv.absorption_row[block]
    return _Modes(
        block, lam, vecs, y_ss, np.linalg.cond(vecs), row @ vecs, (row @ y_ss[block]).real
    )


def _modal_trusted(modes: _Modes) -> bool:
    """False, with a warning, when the eigenvectors are too ill-conditioned to use."""
    if modes.cond <= MODAL_CONDITION_LIMIT:
        return True
    warnings.warn(
        f"eigenvector condition number {modes.cond:.3e} too large for the modal "
        "solver; falling back to step integration",
        stacklevel=3,
    )
    return False


def _modal_run(modes: _Modes, y0: np.ndarray, times: np.ndarray, end=None, keep_states=False):
    """(absorption at ``times``, states there or None, state at ``end`` or None) from y0.

    ``y0`` must vanish outside ``modes.block``.
    """
    block = modes.block
    amps = modes.amplitudes(y0)
    phases = np.exp(np.outer(modes.lam, times))  # (block size, n_samples)
    # complex parts cancel in the sum over modes
    w_t = modes.w_ss + (amps * modes.w_modes) @ phases
    stray = np.abs(w_t.imag).max() if w_t.size else 0.0
    if stray > 1e-9:
        warnings.warn(f"modal absorption has stray imaginary part {stray:.3e}", stacklevel=3)
    states = None
    if keep_states:
        states = np.tile(modes.y_ss, (times.size, 1))
        states[:, block] += (modes.vecs @ (amps[:, None] * phases)).T
    y_end = None
    if end is not None:
        y_end = modes.y_ss.copy()
        y_end[block] += modes.vecs @ (amps * np.exp(modes.lam * end))
    return w_t.real, states, y_end


def propagate_modal(liouv: Liouvillian, y0, times, keep_states: bool = False):
    """Sample the exact modal solution at the requested times.

    Parameters
    ----------
    liouv : Liouvillian
    y0 : ndarray
        Initial state, as a density matrix or its Liouville vector.
    times : array_like
        Strictly increasing sample times, starting anywhere >= 0.
    keep_states : bool
        When true, also return the Liouville vectors at each sample as an
        (n_samples, size) array.

    Notes
    -----
    Only the invariant block of M reachable from the supports of p0 and y0
    is decomposed; the state is exactly zero outside it, and returned
    states are full-size.  If the block's eigenvector matrix is too
    ill-conditioned to trust (condition number above
    ``MODAL_CONDITION_LIMIT``, possible at exceptional points), the routine
    falls back to the fixed-step RK4 integrator on the full M, which
    applies a recurring sample interval as one exact RK4 step map and
    steps any other interval with matrix-vector products, and records
    ``meta["modal_fallback"] = True``.
    """
    times = np.asarray(times, dtype=float)
    y0 = _as_vector(y0)
    modes = _decompose(liouv, _invariant_block([liouv.matrix], [liouv.pump, y0]))
    if not _modal_trusted(modes):
        result = _integrate_at_times(liouv, y0, times, keep_states=keep_states)
        trace = result[0] if keep_states else result
        trace.meta["modal_fallback"] = True
        return result

    w_t, states, _ = _modal_run(modes, y0, times, keep_states=keep_states)
    return _sampled(liouv, times, w_t, states, "modal")


def _sampled(liouv: Liouvillian, times, w, states, solver: str):
    """The trace of one constant-field run, with its states when they were kept."""
    meta = liouv.meta | {"solver": solver, "b_field": liouv.b_field}
    trace = TransientTrace(times, w, np.full(times.shape, liouv.b_field), meta)
    return trace if states is None else (trace, states)


def _rk4_series(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """S v with S = I + a/2 + a^2/6 + a^3/24, for a vector or a matrix v.

    One classic RK4 step of size h on dy/dt = M y + p0 is exactly
    y <- y + S (h M y + h p0) with a = hM: its matrix I + a S is RK4's
    stability polynomial.
    """
    return v + a @ (v / 2.0 + a @ (v / 6.0 + a @ (v / 24.0)))


def _rk4_map(m: np.ndarray, p0: np.ndarray, h: float, steps: int):
    """Affine map (R, r) of ``steps`` classic RK4 steps of size h on dy/dt = M y + p0.

    One step is y <- R1 y + r1 with R1 = I + S(hM) and r1 = S(h p0) (see
    ``_rk4_series``).  The steps are composed by binary powering of the
    affine pair, (R, r) o (R, r) = (R^2, R r + r).
    """
    a = h * m
    base = (np.eye(m.shape[0]) + _rk4_series(a, a), _rk4_series(a, h * p0))
    total = None
    while True:
        if steps & 1:
            total = base if total is None else (base[0] @ total[0], base[0] @ total[1] + base[1])
        steps >>= 1
        if not steps:
            return total
        base = (base[0] @ base[0], base[0] @ base[1] + base[1])


def _integrate_at_times(liouv: Liouvillian, y0, times, keep_states: bool = False):
    """Runge-Kutta integration recording the state at each requested time.

    Each sample interval is split into the fewest equal steps that do not
    exceed ``MAX_INTEGRATOR_STEP``.  Every interval is counted over the whole
    grid first.  Building the RK4 map of an interval's s steps costs about
    (3 + 2 log2 s) N^3 (N = size of M), after which each occurrence costs
    one matrix-vector product; stepping costs 4 s N^2 per occurrence.  So
    an interval that occurs c times gets a map when c * 4 s N^2 exceeds its
    build cost, and is stepped otherwise: a uniform grid builds a handful of
    maps, and a grid whose intervals are all distinct, or each occur only a
    few times, builds none.  One N x N map is held per mapped interval.
    """
    times = np.asarray(times, dtype=float)
    y = _as_vector(y0)
    m, p0 = liouv.matrix, liouv.pump
    row = liouv.absorption_row
    keys, t_prev = [], 0.0
    for t in times.tolist():
        span = t - t_prev
        if span < 0:
            raise ValueError("sample times must not decrease")
        steps = ceil(span / MAX_INTEGRATOR_STEP)
        keys.append((steps, span / steps) if steps else None)
        t_prev = t
    size = m.shape[0]
    maps = {
        key: _rk4_map(m, p0, key[1], key[0]) for key, count in Counter(keys).items()
        if key is not None and count * key[0] * 4 > (3 + 2 * log2(key[0])) * size
    }
    w_out = np.empty(times.size)
    states = np.empty((times.size, y.size), dtype=complex) if keep_states else None
    for i, key in enumerate(keys):
        step_map = maps.get(key)
        if step_map is not None:
            y = step_map[0] @ y + step_map[1]
        elif key is not None:
            a, shift = key[1] * m, key[1] * p0
            for _ in range(key[0]):
                y = y + _rk4_series(a, a @ y + shift)
        w_out[i] = (row @ y).real
        if keep_states:
            states[i] = y
    return _sampled(liouv, times, w_out, states, "integrated")


def propagate_integrated(liouv: Liouvillian, y0, dt: float, t_end: float, keep_states: bool = False):
    """Fixed-step fourth-order integration of dy/dt = M y + p0.

    Independent of the modal solver and of the spectrum of M; serves as the
    modal solver's ground-truth oracle.
    Samples at 0, dt, 2*dt, ..., t_end (the last point is included when
    ``t_end`` is an exact multiple of ``dt``).

    Raises
    ------
    ValueError
        If ``dt`` is not in (0, 0.05]: the fixed-step scheme is only
        accurate with steps well below the fastest decay time, 1.
    """
    if not 0.0 < dt <= MAX_INTEGRATOR_STEP:
        raise ValueError(f"dt must lie in (0, {MAX_INTEGRATOR_STEP}], got {dt}")
    if t_end < 0:
        raise ValueError(f"t_end must be >= 0, got {t_end}")
    n_steps = int(round(t_end / dt))
    times = np.arange(n_steps + 1) * dt
    return _integrate_at_times(liouv, y0, times, keep_states=keep_states)


def switched_transient(spec: TransitionSpec, schedule: SwitchSchedule, keep_states: bool = False):
    """Absorption transient under a square-wave switched magnetic field.

    The record starts at the switch into the first (``b0``) phase, with the
    atom prepared in the steady state of the last phase of a period that has
    a nonzero duration (the ``b1`` phase unless ``duty`` is 1, so a field
    that never switches gives a flat record); phases then alternate with
    instantaneous switching.  Sample times are uniform inside each phase and
    exclude each phase's right endpoint, so the concatenated grid is
    strictly increasing.

    Each field is decomposed once; a field whose eigenvectors are too
    ill-conditioned is integrated instead, samples and hand-off alike.
    ``meta["solver"]`` is ``"modal"`` when no phase fell back, and otherwise
    a tuple naming the solver of each phase of a period that has a nonzero
    duration (``"modal"`` or ``"integrated"``).

    Returns
    -------
    TransientTrace, or (TransientTrace, ndarray) with ``keep_states``.
    """
    phases = [phase for phase in schedule.phases() if phase[1] > 0]
    # one entry when b0 == b1 or when a phase has no duration
    liouvs = {b: build_liouvillian(spec.with_field(b)) for b, _, _ in phases}
    previous = liouvs[phases[-1][0]]  # the record starts mid-train
    y = vectorize(steady_state(previous))
    block = _invariant_block([liouv.matrix for liouv in liouvs.values()], [previous.pump, y])
    modes = {b: _decompose(liouv, block) for b, liouv in liouvs.items()}
    modal = {b: _modal_trusted(m) for b, m in modes.items()}

    all_t, all_w, all_b = [], [], []
    states = [] if keep_states else None
    t_offset = 0.0
    for _ in range(schedule.n_periods):
        for b_val, duration, n_samples in phases:
            local = np.linspace(0.0, duration, n_samples, endpoint=False)
            if modal[b_val]:
                w, phase_states, y = _modal_run(modes[b_val], y, local, duration, keep_states)
            else:
                trace, run = _integrate_at_times(
                    liouvs[b_val], y, np.append(local, duration), keep_states=True
                )
                w, phase_states, y = trace.w[:-1], run[:-1], run[-1]
            all_t.append(local + t_offset)
            all_w.append(w)
            all_b.append(np.full(n_samples, b_val))
            if keep_states:
                states.append(phase_states)
            t_offset += duration

    solvers = tuple("modal" if modal[b] else "integrated" for b, _, _ in phases)
    meta = spec_meta(spec) | {
        "solver": "modal" if all(modal.values()) else solvers,
        "b0": schedule.b0,
        "b1": schedule.b1,
        "period": schedule.period,
        "duty": schedule.duty,
        "n_periods": schedule.n_periods,
        "samples_per_period": schedule.samples_per_period,
    }
    trace = TransientTrace(
        np.concatenate(all_t), np.concatenate(all_w), np.concatenate(all_b), meta
    )
    if keep_states:
        return trace, np.concatenate(states, axis=0)
    return trace


def split_phases(trace: TransientTrace) -> list[TransientTrace]:
    """Cut a switched trace at field changes, re-zeroing each phase's clock.

    Each returned phase carries ``meta["phase_b"]`` (its field value) and
    ``meta["phase_start"]`` (the global time its clock was re-zeroed from).
    """
    if trace.times.size == 0:
        return []
    boundaries = [0] + list(np.flatnonzero(np.diff(trace.b) != 0) + 1) + [trace.times.size]
    phases = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        meta = dict(trace.meta)
        meta["phase_b"] = float(trace.b[lo])
        meta["phase_start"] = float(trace.times[lo])
        phases.append(
            TransientTrace(
                trace.times[lo:hi] - trace.times[lo],
                trace.w[lo:hi].copy(),
                trace.b[lo:hi].copy(),
                meta,
            )
        )
    return phases


def trajectory_physicality(states: np.ndarray) -> dict:
    """Physicality diagnostics of a sampled trajectory of Liouville vectors.

    Returns the worst trace drift ``max |Tr sigma - 1|``, the most negative
    population eigenvalue, and the worst Hermiticity defect over the samples.
    """
    states = np.asarray(states)
    if states.shape[0] == 0:
        return {"trace_drift": 0.0, "min_eigenvalue": np.inf, "hermiticity_defect": 0.0}
    dim = round(sqrt(states.shape[1]))
    sigmas = states.reshape(-1, dim, dim).astype(complex)
    adjoints = sigmas.conj().transpose(0, 2, 1)
    worst_drift = float(np.abs(np.trace(sigmas, axis1=1, axis2=2).real - 1.0).max())
    worst_defect = float(np.abs(sigmas - adjoints).max())
    min_eig = float(np.linalg.eigvalsh((sigmas + adjoints) / 2.0).min())
    return {
        "trace_drift": worst_drift,
        "min_eigenvalue": min_eig,
        "hermiticity_defect": worst_defect,
    }


def transit_time(diameter: float, temperature: float, mass: float) -> float:
    """Mean transverse transit time of thermal atoms across a beam.

    tau = D / sqrt(2 k_B T / m), with everything in SI units: diameter in
    meters, temperature in kelvin, mass in kilograms; the result is seconds.
    """
    if not all(isfinite(v) and v > 0 for v in (diameter, temperature, mass)):
        raise ValueError("diameter, temperature and mass must all be finite and positive")
    return diameter / sqrt(2.0 * _BOLTZMANN * temperature / mass)
