"""Steady states, time propagation, and switched-field transient generation.

Each propagator has one path.  ``switched_transient`` steps every
constant-field phase exactly: with z = [y; 1], dy/dt = M y + p0 becomes
dz/dt = G z for the augmented generator G = [[M, p0], [0, 0]], so one
E = exp(hG) advances the state by a sample step h (Van Loan, IEEE TAC 23,
395 (1978)); G is taken in real coordinates (see below), and E's last row is
set to [0 ... 0 1], as the exact exponential's is, so z keeps its 1 exactly.
A phase's n absorption samples c E^j z (c the absorption row) are baby rows
c E^b, b < m for m the power of two nearest sqrt(n), times giant states
E^(am) z, each set formed by doubling (Paterson & Stockmeyer, SIAM J.
Comput. 2, 60 (1973)).
The exponential is numpy scaling and squaring with a [13/13] Pade
approximant (Higham, SIMAX 26, 1179 (2005)).  ``propagate_modal`` evaluates
the exact modal solution

    y(t) = y_ss + sum_i a_i v_i exp(lambda_i t),    y_ss = -M^{-1} p0,

from one eigendecomposition, the one ``spectral.eigenmodes`` also uses;
when the eigenvectors are too ill-conditioned to trust, it exponentiates the
complex G instead.  ``propagate_integrated`` is a fixed-step classic RK4
integrator that uses no spectrum and no exponential, the test suite's oracle
for the modal solver.  One RK4 step of size h is exactly the affine map
y <- R y + r, R = sum_{k<=4} (hM)^k/k! and r = h sum_{k<=3} (hM)^k/(k+1)! p0,
built once on the full M as S = [[R, r], [0, 1]] on [y; 1]; its samples
come from S as above.

The modal solver and the exponential work on an invariant block of M: the
Liouville indices reachable from the supports of p0 and of the initial
state along the nonzero pattern of M.  Outside it the state stays exactly
zero, so only M[block, block] is decomposed, exponentiated or solved.
``_steady`` solves a bare Liouvillian on its pump's block, ``_sector_steady``
an affine family (transients, steady scans, sweeps) on its sector (see
below), a grid's points stacked into one solve, and ``_checked``, shared by
every steady state, checks each one's residual (on the full M), trace,
Hermiticity and PSD.

Transients are stepped in real arithmetic, in the coordinates of their
affine family's ``sector``: M preserves Hermiticity (Lindblad, CMP 48, 119
(1976)), so it is real in the Hermitian basis of ``_frame_entries``, and with
linear light at zero detuning only the coordinates even under its symmetry
Theta are kept (see :class:`hanlesim.liouvillian.AffineLiouvillian`).  The
states rebuilt from real coordinates are exactly Hermitian.

A square-wave switched magnetic field is simulated phase by phase: the field
is piecewise constant, switching is instantaneous, and the state at the start
of the record is the steady state of the phase preceding it, which is where a
periodically driven system settles after a few transit times.  Each field's
real generator is base + rabi * drive + b * field, and each pair of field and
sample step is exponentiated once per transient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import ceil, factorial, floor, isfinite, log2, sqrt
from numbers import Integral

import numpy as np

from .liouvillian import (
    AffineLiouvillian,
    Liouvillian,
    TransitionSpec,
    _invariant_block,
    affine_liouvillian,
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

#: Eigenvector condition number beyond which the modal solver uses the matrix exponential.
MODAL_CONDITION_LIMIT = 1e10

#: Grid points per stacked solve or eig of a steady scan or sweep: bounds its memory on long grids.
STACK_CHUNK = 32

#: Coefficients b_k = (26 - k)! / (k! (13 - k)!) of the [13/13] Pade approximant to exp.
_PADE13 = tuple(float(factorial(26 - k) // (factorial(k) * factorial(13 - k))) for k in range(14))
#: Largest 1-norm for which the [13/13] Pade approximant is exp to double precision.
_THETA13 = 5.371920351148152

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
        for name, least in (("n_periods", 1), ("samples_per_period", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

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


def _as_vector(state, size: int) -> np.ndarray:
    """A copy of a start state (density matrix or Liouville vector) as a vector of ``size``."""
    state = np.array(state, dtype=complex)
    vector = vectorize(state) if state.ndim == 2 else state.reshape(-1)
    if vector.size != size:
        raise ValueError(f"initial state has {vector.size} Liouville entries; the model has {size}")
    return vector


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """Unique steady state sigma_ss = devec(-M^{-1} p0), by the one checked solve on the pump block.

    Raises
    ------
    numpy.linalg.LinAlgError
        If M is (numerically) singular on the block (the message reports its
        condition number), or a residual, trace, Hermiticity or PSD check fails.
    """
    return devectorize(_steady(liouv, _invariant_block(np.nonzero(liouv.matrix), [liouv.pump])))


def _chunks(count: int):
    """Slices that cover range(count) in runs of ``STACK_CHUNK``, the points of one stack."""
    return (slice(start, start + STACK_CHUNK) for start in range(0, count, STACK_CHUNK))


def _failure(message: str, points, k: int) -> np.linalg.LinAlgError:
    """The error of the first failing point k, named by its row (intensity, field) of ``points``."""
    if points is not None:
        message += f" at intensity {points[k][0]:.6g}, field {points[k][1]:.6g}"
    return np.linalg.LinAlgError(message)


def _steady(liouv: Liouvillian, block: np.ndarray) -> np.ndarray:
    """-M^{-1} p0 on an invariant block holding the pump, zero outside it, checked physical.

    The residual is taken on the full M, so it also proves the block invariant.
    """
    y_ss = np.zeros(liouv.size, dtype=complex)
    y_ss[block] = _solved(liouv.matrix[np.ix_(block, block)], -liouv.pump[block])
    _checked(y_ss[None], (liouv.matrix @ y_ss + liouv.pump)[None])
    return y_ss


def _sector_steady(affine: AffineLiouvillian, rabi, b_field) -> np.ndarray:
    """The steady state at each (rabi, b_field) of their broadcast, in coordinates on ``affine.sector``,
    solved there ``STACK_CHUNK`` points to a stack and checked full-size, the residual from the family's
    nonzeros (:meth:`AffineLiouvillian.product`)."""
    real, block = affine.sector, affine.block
    rabi, b_field = np.broadcast_arrays(rabi, b_field)
    shape, rabi, b_field = rabi.shape, rabi.ravel(), b_field.ravel()
    points = np.column_stack((rabi**2, b_field))
    x = np.empty((rabi.size, real.pump.size))
    for part in _chunks(rabi.size):
        r, b = rabi[part, None], b_field[part, None]
        x[part] = _solved(real.base + r[..., None] * real.drive + b[..., None] * real.field,
                          -real.pump, points[part])
        y = np.zeros((r.size, affine.pump.size), dtype=complex)
        y[:, block] = x[part] @ real.frame.T
        _checked(y, affine.product(y, r, b) + affine.pump, points[part])
    return x.reshape(shape + x.shape[1:])


def _solved(sub: np.ndarray, rhs: np.ndarray, points=None) -> np.ndarray:
    """sub^-1 rhs for a steady state, or for each matrix of a stack ``sub``; a singular matrix
    raises with its condition number, named by its row of ``points``."""
    try:
        return np.linalg.solve(sub, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(sub).reshape(-1)
        k = int(np.argmax(cond))
        raise _failure(f"steady-state solve failed (condition number {cond[k]:.3e}); "
                       "a positive transit rate should forbid a null space", points, k) from exc


def _checked(y_ss: np.ndarray, residual: np.ndarray, points=None) -> None:
    """Check full-size steady states, rows of ``y_ss``: each one's residual M y_ss + p0 (a row of
    ``residual``), trace, Hermiticity and PSD; the first that fails raises, named by ``points``."""
    trace, defect, smallest = _state_checks(y_ss)
    residual = np.linalg.norm(residual, axis=1)
    # each check is written so that NaN fails it
    failed = np.stack((~(residual <= 1e-10), ~(np.abs(trace - 1.0) <= 1e-9), ~(defect <= 1e-10),
                       ~(smallest >= -1e-10)))
    if failed.any():
        k = int(failed.any(axis=0).argmax())
        messages = (f"steady-state residual {residual[k]:.3e} exceeds 1e-10",
                    f"steady-state trace {float(trace[k])!r} is not 1", "steady state is not Hermitian",
                    f"steady state has negative population {smallest[k]:.3e}")
        raise _failure(messages[failed[:, k].argmax()], points, k)


def _state_checks(states: np.ndarray):
    """(trace, Hermiticity defect, least eigenvalue of the Hermitian part) of the density matrix of
    each Liouville vector, a row of ``states``; the eigenvalue is NaN where one is not finite."""
    dim = round(sqrt(states.shape[1]))
    sigma = states.reshape(-1, dim, dim)
    adjoint = sigma.conj().transpose(0, 2, 1)
    finite = np.isfinite(sigma).all(axis=(1, 2))
    # eigvalsh may return finite values for a matrix that is not finite, or fail on it
    hermitian = np.where(finite[:, None, None], sigma + adjoint, 0.0) / 2.0
    smallest = np.where(finite, np.linalg.eigvalsh(hermitian).min(axis=1), np.nan)
    return np.trace(sigma, axis1=1, axis2=2).real, np.abs(sigma - adjoint).max(axis=(1, 2)), smallest


def _decompose(sub: np.ndarray, row: np.ndarray):
    """(eigenvalues, eigenvectors, absorption weights row @ vectors) of ``sub``, M on an invariant
    subspace with ``row`` the absorption row there, or of each matrix of a stack; complex always."""
    lam, vecs = np.linalg.eig(sub)
    vecs = vecs.astype(complex, copy=False)
    return lam.astype(complex, copy=False), vecs, row @ vecs


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a): a scaled by 2^-s to 1-norm <= ``_THETA13``, the [13/13] Pade
    approximant (V - U)^-1 (V + U) from its odd (U) and even (V) powers, squared s times.
    Raises numpy.linalg.LinAlgError if the result is not finite.
    """
    norm = np.abs(a).sum(axis=0).max()
    squarings = ceil(log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    if not np.isfinite(r).all():
        raise np.linalg.LinAlgError(f"matrix exponential is not finite (argument 1-norm {norm:.3e})")
    return r


def _augmented_map(a: np.ndarray, pump: np.ndarray, h: float) -> np.ndarray:
    """exp(h G) for the augmented generator G = [[a, pump], [0, 0]] of dy/dt = a y + pump, its last
    row set to exactly [0 ... 0 1], as that of the exact exponential is: a product of such maps then
    keeps the trailing 1 of [y; 1] exactly."""
    step = _expm(h * np.vstack((np.column_stack((a, pump)), np.zeros(pump.size + 1))))
    step[-1] = 0.0
    step[-1, -1] = 1.0
    return step


def _stepped(step: np.ndarray, z0: np.ndarray, n_steps: int) -> np.ndarray:
    """Rows k = 0 .. n_steps hold step^k z0, filled by doubling: rows [m, 2m) are
    step^m times rows [0, m), then step^m is squared."""
    rows = np.empty((n_steps + 1, z0.size), dtype=np.result_type(step, z0))
    rows[0] = z0
    power, filled = step, 1
    while True:
        count = min(filled, rows.shape[0] - filled)
        np.matmul(rows[:count], power.T, out=rows[filled:filled + count])
        filled += count
        if filled == rows.shape[0]:
            return rows
        power = power @ power


def _sampled_steps(step: np.ndarray, z0: np.ndarray, n_samples: int, row):
    """(samples, hand-off) by the baby and giant steps of the module notes: row @ step^j z0 for j < n,
    or with no ``row`` (m is then 1) the states y of step^j z0 = [y; 1], and step^max(n, 1) z0, the
    last giant state times the powers step^(2^i) kept for the set bits of n mod m; n is n_samples."""
    count, baby, powers = max(n_samples, 1), row, [step]
    m = 1 if row is None else 1 << round(log2(count) / 2)
    for i in range(m.bit_length() - 1):  # baby rows [2^i, 2^(i+1)) are rows [0, 2^i) times step^(2^i)
        baby = np.vstack((baby, baby @ powers[i]))
        powers.append(powers[i] @ powers[i])
    giants = _stepped(powers[-1], z0, count // m)
    samples = giants[:n_samples, :-1] if row is None else (giants @ baby.T).reshape(-1)[:n_samples]
    z = giants[count // m]
    for i, power in enumerate(powers[:-1]):
        if count >> i & 1:
            z = power @ z
    return samples, z


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
    warns and evaluates exp(t0 G) [y0; 1] on the block at the first sample
    time t0, with G the complex augmented generator [[M, p0], [0, 0]], then
    steps from sample to sample by exp(d G), one exponential per distinct
    gap d; ``meta["solver"]`` is then ``"expm"`` instead of ``"modal"``.
    """
    times = np.asarray(times, dtype=float)
    y0 = _as_vector(y0, liouv.size)
    block = _invariant_block(np.nonzero(liouv.matrix), [liouv.pump, y0])
    y_ss = _steady(liouv, block) if liouv.pump.any() else np.zeros(liouv.size, dtype=complex)
    sub, row = liouv.matrix[np.ix_(block, block)], liouv.absorption_row[block]
    lam, vecs, w_modes = _decompose(sub, row)
    if (cond := np.linalg.cond(vecs)) <= MODAL_CONDITION_LIMIT:
        offset = y0[block] - y_ss[block]
        amps = np.linalg.solve(vecs, offset) if offset.any() else offset
        phases = np.exp(np.outer(lam, times))  # (block size, n_samples)
        # complex parts cancel in the sum over modes
        w_t = (row @ y_ss[block]).real + (amps * w_modes) @ phases
        if (stray := np.abs(w_t.imag).max(initial=0.0)) > 1e-9:
            warnings.warn(f"modal absorption has stray imaginary part {stray:.3e}", stacklevel=2)
        states = None
        if keep_states:
            states = np.tile(y_ss, (times.size, 1))
            states[:, block] += (vecs @ (amps[:, None] * phases)).T
        return _sampled(liouv, times, w_t.real, states, "modal")

    warnings.warn(
        f"eigenvector condition number {cond:.3e} too large for the modal "
        "solver; using the matrix exponential",
        stacklevel=2,
    )
    pump = liouv.pump[block]
    rows = np.empty((times.size, block.size + 1), dtype=complex)
    if times.size:
        rows[0] = _augmented_map(sub, pump, times[0]) @ np.append(y0[block], 1.0)
    steps = {}  # then one exponential per distinct gap between samples
    for k, gap in enumerate(np.diff(times).tolist(), start=1):
        if gap not in steps:
            steps[gap] = _augmented_map(sub, pump, gap)
        rows[k] = steps[gap] @ rows[k - 1]
    states = None
    if keep_states:
        states = np.zeros((times.size, liouv.size), dtype=complex)
        states[:, block] = rows[:, :-1]
    w_t = (rows[:, :-1] @ liouv.absorption_row[block]).real
    return _sampled(liouv, times, w_t, states, "expm")


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


def propagate_integrated(liouv: Liouvillian, y0, dt: float, t_end: float, keep_states: bool = False):
    """Fixed-step fourth-order integration of dy/dt = M y + p0.

    Independent of the modal solver, of the spectrum of M and of the matrix
    exponential; serves as the modal solver's ground-truth oracle.
    Samples at 0, dt, 2*dt, ..., n*dt for the largest n with n*dt <= t_end up
    to rounding, so at ``t_end`` last when it is a multiple of ``dt``.  The
    classic RK4 step of size ``dt`` is built once on the full M as the
    augmented map S = [[R, r], [0, 1]] of y <- R y + r; the whole record comes
    from S by one baby- and giant-step call, as in the module notes.  With
    ``keep_states`` the states are a view of that call's rows, which have one
    more row and column (the hand-off and the trailing 1), so the states are
    held once, not copied.

    Raises
    ------
    ValueError
        If ``t_end`` is negative, ``t_end`` or ``t_end / dt`` is not finite, or ``dt`` is not in (0, 0.05]:
        the scheme is only accurate with steps well below the fastest decay time, 1.
    """
    if not 0.0 < dt <= MAX_INTEGRATOR_STEP:
        raise ValueError(f"dt must lie in (0, {MAX_INTEGRATOR_STEP}], got {dt}")
    if not (isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if not isfinite(n_steps := t_end / dt * (1.0 + 1e-12)):
        raise ValueError(f"t_end / dt must be finite, got t_end={t_end!r}, dt={dt!r}")
    times = np.arange(floor(n_steps) + 1) * dt
    z = np.append(_as_vector(y0, liouv.size), 1.0)
    a = dt * liouv.matrix
    step = np.eye(z.size, dtype=complex)  # [R - I, r] is the RK4 series of hM times [hM, h p0]
    step[:-1] += _rk4_series(a, np.column_stack((a, dt * liouv.pump)))
    row = None if keep_states else np.append(liouv.absorption_row, 0.0)
    samples = _sampled_steps(step, z, times.size, row)[0]
    states = samples if keep_states else None
    w = (samples @ liouv.absorption_row if keep_states else samples).real.copy()
    del samples  # without keep_states the complex samples are freed before the trace is built
    return _sampled(liouv, times, w, states, "integrated")


def switched_transient(spec: TransitionSpec, schedule: SwitchSchedule, keep_states: bool = False):
    """Absorption transient under a square-wave switched magnetic field.

    The record starts at the switch into the first (``b0``) phase, with the
    atom prepared in the steady state of the last phase of a period that has
    a nonzero duration (the ``b1`` phase unless ``duty`` is 1, so a field
    that never switches gives a flat record); phases then alternate with
    instantaneous switching.  Sample times are uniform inside each phase and
    exclude each phase's right endpoint, so the concatenated grid is
    strictly increasing.

    A phase of duration d with n samples is stepped exactly with
    h = d / max(n, 1): one matrix exponential per pair of field and step,
    whatever the number of periods, then the samples and the hand-off state
    by baby and giant steps (see the module notes).  ``meta["solver"]`` is
    ``"expm"``.  The record is built and its times checked before the steady
    solve, so a record too large for memory (MemoryError) or times that do
    not increase (ValueError; phase starts that overflow) fail at once.

    Returns
    -------
    TransientTrace, or (TransientTrace, ndarray) with ``keep_states``.
    """
    phases = [phase for phase in schedule.phases() if phase[1] > 0]
    fields, durations, counts = zip(*phases)
    n_periods = schedule.n_periods
    # each phase's times are offset by its start, the sequential sum of the durations before it
    starts = np.cumsum(np.concatenate(([0.0], np.tile(durations, n_periods)[:-1])))
    grid = np.concatenate([np.linspace(0.0, d, n, endpoint=False) for _, d, n in phases])
    names = ("b0", "b1", "period", "duty", "n_periods", "samples_per_period")
    meta = spec_meta(spec) | {"solver": "expm"} | {name: getattr(schedule, name) for name in names}
    times = np.repeat(starts, np.tile(counts, n_periods)) + np.tile(grid, n_periods)
    b = np.tile(np.repeat(fields, counts), n_periods)
    trace = TransientTrace(times, np.empty(times.size), b, meta)  # its w is filled in place
    states = np.zeros((trace.times.size, spec.dim**2), dtype=complex) if keep_states else None

    affine = affine_liouvillian(spec)
    real, block = affine.sector, affine.block
    # one entry when b0 == b1 or when a phase has no duration
    gens = {b: real.base + spec.rabi * real.drive + b * real.field for b in fields}
    # the record starts mid-train, in the steady state of the last phase's field
    x = _sector_steady(affine, spec.rabi, fields[-1])
    keys = [(b, duration / max(n, 1)) for b, duration, n in phases]
    steps = {(b, h): _augmented_map(gens[b], real.pump, h) for b, h in dict.fromkeys(keys)}

    row = None if keep_states else np.append(real.weights, 0.0)  # with keep_states, the states
    start, z = 0, np.append(x, 1.0)
    for _ in range(n_periods):
        for key, n_samples in zip(keys, counts):
            samples, z = _sampled_steps(steps[key], z, n_samples, row)
            if keep_states:
                states[start:start + n_samples, block] = samples @ real.frame.T
            trace.w[start:start + n_samples] = samples @ real.weights if keep_states else samples
            start += n_samples

    return (trace, states) if keep_states else trace


def split_phases(trace: TransientTrace) -> list[TransientTrace]:
    """Cut a switched trace at field changes, re-zeroing each phase's clock.

    Each returned phase carries ``meta["phase_b"]`` (its field value) and
    ``meta["phase_start"]`` (the global time its clock was re-zeroed from).
    """
    if trace.times.size == 0:
        return []
    boundaries = [0] + list(np.flatnonzero(np.diff(trace.b) != 0) + 1) + [trace.times.size]
    return [
        TransientTrace(
            trace.times[lo:hi] - trace.times[lo], trace.w[lo:hi].copy(), trace.b[lo:hi].copy(),
            trace.meta | {"phase_b": float(trace.b[lo]), "phase_start": float(trace.times[lo])},
        )
        for lo, hi in zip(boundaries[:-1], boundaries[1:])
    ]


def trajectory_physicality(states: np.ndarray) -> dict:
    """Physicality diagnostics of a sampled trajectory of Liouville vectors.

    Returns the worst trace drift ``max |Tr sigma - 1|``, the most negative
    population eigenvalue, and the worst Hermiticity defect over the samples.
    """
    trace, defect, smallest = _state_checks(np.asarray(states, dtype=complex))
    return {
        "trace_drift": float(np.abs(trace - 1.0).max(initial=0.0)),
        "min_eigenvalue": float(smallest.min(initial=np.inf)),
        "hermiticity_defect": float(defect.max(initial=0.0)),
    }


def transit_time(diameter: float, temperature: float, mass: float) -> float:
    """Mean transverse transit time of thermal atoms across a beam.

    tau = D / sqrt(2 k_B T / m), with everything in SI units: diameter in
    meters, temperature in kelvin, mass in kilograms; the result is seconds.
    A thermal speed that underflows to 0 raises ZeroDivisionError, a time
    that is inf or 0 FloatingPointError.
    """
    if not all(isfinite(v) and v > 0 for v in (diameter, temperature, mass)):
        raise ValueError("diameter, temperature and mass must all be finite and positive")
    tau = diameter / sqrt(2.0 * _BOLTZMANN * temperature / mass)
    if not (isfinite(tau) and tau > 0):
        raise FloatingPointError(f"transit time {tau!r} s overflowed or underflowed")
    return tau
