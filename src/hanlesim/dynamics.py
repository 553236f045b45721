"""Steady states, time propagation, and switched-field transient generation.

Two independent propagation paths are provided on purpose: a modal
(eigen-decomposition) solver that evaluates the exact solution

    y(t) = y_ss + sum_i a_i v_i exp(lambda_i t),    y_ss = -M^{-1} p0,

and a fixed-step fourth-order Runge-Kutta integrator that knows nothing
about the spectrum.  Their agreement is used as a correctness oracle in the
test suite.

The modal solver works on an invariant block of M: the Liouville indices
reachable from the supports of p0 and of the initial state along the
nonzero pattern of M.  M maps nothing from the block to the rest of the
space, so outside the block the state stays exactly zero, and only
M[block, block] needs an eigendecomposition.  The block is exact for any
polarization; with linear light it holds about half of the indices.  One
decomposition of the block (eigenpairs, steady state, eigenvector condition
number and the absorption weight of each mode) serves every sample and
every hand-off that uses its Liouvillian.  When the eigenvectors are too
ill-conditioned to trust, the integrator computes both the samples and the
hand-off instead: this is the only fallback path.

A square-wave switched magnetic field is simulated phase by phase: the field
is piecewise constant, switching is instantaneous, and the state at the start
of the record is the steady state of the phase preceding it, which is where a
periodically driven system settles after a few transit times.  The Zeeman
terms are diagonal, so both fields share one block, and each field is
decomposed once per transient whatever the number of periods.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import ceil, isfinite, sqrt

import numpy as np
from scipy.constants import k as _BOLTZMANN

from .liouvillian import (
    Liouvillian,
    TransitionSpec,
    build_liouvillian,
    devectorize,
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


def _spec_meta(spec) -> dict:
    if isinstance(spec, TransitionSpec):
        return {
            "fg": spec.fg.f,
            "fe": spec.fe.f,
            "intensity": spec.rabi**2,
            "detuning": spec.detuning,
            "gamma": spec.gamma,
            "zeeman_g": spec.zeeman_g,
            "zeeman_e": spec.zeeman_e,
            "pol": tuple(spec.pol),
            "dipole_scale": spec.dipole_scale,
        }
    return {"model": type(spec).__name__}


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


def _decompose(liouv: Liouvillian, block: np.ndarray) -> _Modes:
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
    amps = np.linalg.solve(modes.vecs, y0[block] - modes.y_ss[block])
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
    falls back to the fixed-step integrator and records
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
    b_val = getattr(liouv.spec, "b_field", 0.0)
    meta = _spec_meta(liouv.spec) | {"solver": "modal", "b_field": b_val}
    trace = TransientTrace(times, w_t, np.full(times.shape, b_val), meta)
    if keep_states:
        return trace, states
    return trace


def _rk4(m: np.ndarray, p0: np.ndarray, y: np.ndarray, dt: float, steps: int) -> np.ndarray:
    y = y.copy()
    for _ in range(steps):
        k1 = m @ y + p0
        k2 = m @ (y + 0.5 * dt * k1) + p0
        k3 = m @ (y + 0.5 * dt * k2) + p0
        k4 = m @ (y + dt * k3) + p0
        y += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _integrate_at_times(liouv: Liouvillian, y0, times, keep_states: bool = False):
    """Runge-Kutta integration recording the state at each requested time.

    Consecutive sample intervals are subdivided so no internal step exceeds
    ``MAX_INTEGRATOR_STEP``.
    """
    times = np.asarray(times, dtype=float)
    y = _as_vector(y0)
    row = liouv.absorption_row
    w_out = np.empty(times.size)
    states = np.empty((times.size, y.size), dtype=complex) if keep_states else None
    t_prev = 0.0
    for i, t in enumerate(times):
        span = t - t_prev
        if span < 0:
            raise ValueError("sample times must not decrease")
        if span > 0:
            steps = ceil(span / MAX_INTEGRATOR_STEP)
            y = _rk4(liouv.matrix, liouv.pump, y, span / steps, steps)
        t_prev = t
        w_out[i] = (row @ y).real
        if keep_states:
            states[i] = y
    b_val = getattr(liouv.spec, "b_field", 0.0)
    meta = _spec_meta(liouv.spec) | {"solver": "integrated", "b_field": b_val}
    trace = TransientTrace(times, w_out, np.full(times.shape, b_val), meta)
    if keep_states:
        return trace, states
    return trace


def propagate_integrated(liouv: Liouvillian, y0, dt: float, t_end: float, keep_states: bool = False):
    """Fixed-step fourth-order integration of dy/dt = M y + p0.

    Independent of the modal solver; serves as its ground-truth oracle.
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
    atom prepared in the steady state of the ``b1`` phase that preceded it;
    phases then alternate with instantaneous switching.  Sample times are
    uniform inside each phase and exclude each phase's right endpoint, so the
    concatenated grid is strictly increasing.

    Each field is decomposed once; a field whose eigenvectors are too
    ill-conditioned is integrated instead, samples and hand-off alike.
    ``meta["solver"]`` is ``"modal"`` when no phase fell back, and otherwise
    a tuple naming the solver of each phase of a period that has a nonzero
    duration (``"modal"`` or ``"integrated"``).

    Returns
    -------
    TransientTrace, or (TransientTrace, ndarray) with ``keep_states``.
    """
    liouvs = {b: build_liouvillian(spec.with_field(b)) for b in (schedule.b0, schedule.b1)}
    all_phases = schedule.phases()
    phases = [phase for phase in all_phases if phase[1] > 0]
    previous = liouvs[all_phases[-1][0]]  # the record starts mid-train
    y = vectorize(steady_state(previous))
    block = _invariant_block([liouv.matrix for liouv in liouvs.values()], [previous.pump, y])
    active = {b for b, _, _ in phases}  # one entry when b0 == b1
    modes = {b: _decompose(liouvs[b], block) for b in active}
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
    meta = _spec_meta(spec) | {
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
    worst_drift = 0.0
    min_eig = np.inf
    worst_defect = 0.0
    for y in states:
        sigma = devectorize(y)
        worst_drift = max(worst_drift, abs(np.trace(sigma).real - 1.0))
        worst_defect = max(worst_defect, float(np.abs(sigma - sigma.conj().T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh((sigma + sigma.conj().T) / 2.0).min()))
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
    if diameter <= 0 or temperature <= 0 or mass <= 0:
        raise ValueError("diameter, temperature and mass must all be positive")
    return diameter / sqrt(2.0 * _BOLTZMANN * temperature / mass)
