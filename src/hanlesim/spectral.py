"""Eigenmode analysis of the evolution matrix.

The full spectrum of M is computed one invariant subspace at a time (the
blocks M splits into, :attr:`hanlesim.liouvillian.Liouvillian.parts`; in sweeps
their halves under the symmetry Theta, at zero field split on m -> -m, which
:attr:`hanlesim.liouvillian.AffineLiouvillian.sectors` derives once per family),
labelled into three rate groups (slow ground-state modes of order the
transit rate, optical-coherence modes near half the decay rate,
excited-population modes near the decay rate), and tested for
observability in a switched-field experiment: a decay mode shows up in the
absorption signal only if (a) the initial condition actually excites it and
(b) its density-matrix component couples to the light.

Also provided: the dark/bright ground-state superpositions of a 1 -> 0
transition, an open three-level (two driven ground states, one excited
state, one uncoupled sink state) reduction that reproduces the slow
observable spectrum of the full 1 -> 0 system when exactly one third of the
spontaneous decay is branched to the sink, and intensity sweeps tabulating
the observable eigenvalues.  The reduction builds only its operators; its
generator comes from the same Lindblad assembler as the full model.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .dynamics import _as_vector, _chunks, _decompose, _failure, _sector_steady, _steady
from .liouvillian import (
    Liouvillian,
    TransitionSpec,
    _lindblad,
    affine_liouvillian,
    coupling_matrix,
)

__all__ = [
    "EigenMode",
    "OpenLambdaSpec",
    "eigenmodes",
    "classify_groups",
    "dark_state",
    "open_lambda_liouvillian",
    "sweep_modes",
    "intensity_sweep",
    "SWEEP_COLUMNS",
]

#: Relative tolerance below which a mode amplitude / absorption weight counts as zero.
OBSERVABILITY_TOL = 1e-8

#: Fractional distance to a group threshold that flags a label as ambiguous.
GROUP_AMBIGUITY_BAND = 0.2


@dataclass
class EigenMode:
    """One eigenpair of the evolution matrix, with analysis annotations.

    Attributes
    ----------
    value : complex
        Eigenvalue (units of the decay rate); real parts are non-positive.
    vector : ndarray
        Unit-norm Liouville eigenvector.
    group : int or None
        1 for slow ground-state modes, 2 near half the decay rate, 3 near
        the full decay rate; None before classification.
    ambiguous_group : bool
        True when |Re value| falls within ``GROUP_AMBIGUITY_BAND`` of a
        threshold, where the three-group picture is heuristic.
    amplitude : complex or None
        Coefficient of this mode in the expansion of y0 - y_ss; None when no
        initial state was given.
    weight : complex or None
        Absorption functional of the eigenvector's matrix form; only its
        magnitude is physically meaningful for a single mode.
    observable : bool or None
        True when both |amplitude| and |weight| are resolvably nonzero; None
        when no initial state was given.
    """

    value: complex
    vector: np.ndarray
    group: int | None = None
    ambiguous_group: bool = False
    amplitude: complex | None = None
    weight: complex | None = None
    observable: bool | None = None


def eigenmodes(liouv: Liouvillian, y0=None) -> list[EigenMode]:
    """Complete spectrum of M as EigenMode records, with absorption weights.

    Modes are sorted by descending real part (slowest decay first), then by
    ascending imaginary part, making the order deterministic.  Residuals
    ``|M v - lambda v|`` are verified to be below 1e-9.

    With an initial state ``y0`` (density matrix or Liouville vector) each
    mode also gets its amplitude in y0 - y_ss and its observability: a mode
    contributes to the absorption transient from y0 only when its amplitude
    and its weight are both nonzero, relative to the largest mode of each
    kind (``OBSERVABILITY_TOL``).  The amplitudes are verified to rebuild
    y0 - y_ss.
    """
    blocks = liouv.parts
    y_ss = _steady(liouv, blocks[0])
    parts = [(liouv.matrix[np.ix_(block, block)][None], liouv.absorption_row[block]) for block in blocks]
    offsets = None if y0 is None else [(_as_vector(y0, liouv.size) - y_ss)[b][None] for b in blocks]
    return _records(_spectrum(parts, offsets), 0, [(block, None) for block in blocks], liouv.size)


#: Sorted modes of M at each point of a stack, each (points, modes): eigenvalues, absorption
#: weights, amplitudes and observability flags (None without start states), and each mode's column
#: in the eigenvectors of M's parts side by side; then those eigenvectors, a stack per part, if kept.
_Spectrum = namedtuple("_Spectrum", "values weights amplitudes observable order vecs")


def _spectrum(parts, offsets=None, points=None, vectors=True) -> _Spectrum:
    """The modes of M at each point of a stack, from ``parts``, pairs of a stack of M on an invariant
    subspace and the absorption row there, taken one at a time; the subspaces cover M.

    ``offsets`` holds per part a stack of y0 - y_ss, or None where it is zero by structure.  Each
    eigenpair and the amplitudes are checked at every point, and the first point that fails raises,
    named by its row of ``points``.  Eigenvectors are kept with ``vectors``.
    """
    lam, weights, amps, vecs, misfit, length = [], [], [], [], 0.0, 0.0
    for (subs, row), offset in zip(parts, offsets or itertools.repeat(None)):
        part_lam, part_vecs, part_weights = _decompose(subs, row)
        residual = np.linalg.norm(subs @ part_vecs - part_vecs * part_lam[:, None, :], axis=1).max(axis=1)
        if (failed := np.flatnonzero(residual > 1e-9)).size:
            k = failed[0]
            raise _failure(f"eigen residual {residual[k]:.3e} exceeds 1e-9 "
                           f"(matrix condition number {np.linalg.cond(subs[k]):.3e})", points, k)
        part_amps = np.zeros(part_lam.shape, dtype=complex)
        if offset is not None:
            moved = offset.any(axis=1)
            part_amps[moved] = np.linalg.solve(part_vecs[moved], offset[moved][..., None])[..., 0]
            rebuilt = (part_vecs @ part_amps[..., None])[..., 0]
            misfit = misfit + np.linalg.norm(rebuilt - offset, axis=1)**2
            length = length + np.linalg.norm(offset, axis=1)**2
        lam.append(part_lam), weights.append(part_weights), amps.append(part_amps)
        if vectors:
            vecs.append(part_vecs)
    lam, weights = np.concatenate(lam, axis=1), np.concatenate(weights, axis=1)
    order = np.lexsort((lam.imag, -lam.real), axis=1)
    values, weights = np.take_along_axis(lam, order, 1), np.take_along_axis(weights, order, 1)
    if offsets is None:
        return _Spectrum(values, weights, None, None, order, vecs)
    residual = np.sqrt(misfit)
    if (failed := np.flatnonzero(residual > 1e-9 * np.maximum(1.0, np.sqrt(length)))).size:
        k = failed[0]
        raise _failure(f"amplitude reconstruction residual {residual[k]:.3e}", points, k)
    amps = np.take_along_axis(np.concatenate(amps, axis=1), order, 1)
    tiny = np.finfo(float).tiny
    amp_floor = OBSERVABILITY_TOL * np.maximum(np.abs(amps).max(axis=1, keepdims=True), tiny)
    weight_floor = OBSERVABILITY_TOL * np.maximum(np.abs(weights).max(axis=1, keepdims=True), tiny)
    observable = (np.abs(amps) > amp_floor) & (np.abs(weights) > weight_floor)
    return _Spectrum(values, weights, amps, observable, order, vecs)


def _records(spectrum: _Spectrum, point: int, embeddings, size: int) -> list[EigenMode]:
    """EigenMode records of one point of ``spectrum``, with full-size eigenvectors, zero off their
    part: ``embeddings`` holds each part's (block, frame), y[block] = frame @ x, frame None for 1."""
    vecs = np.zeros((size, spectrum.order.shape[1]), dtype=complex)
    start = 0
    for (block, frame), part_vecs in zip(embeddings, spectrum.vecs):
        part_vecs = part_vecs[point]
        vecs[block, start:start + part_vecs.shape[1]] = part_vecs if frame is None else frame @ part_vecs
        start += part_vecs.shape[1]
    none = [None] * vecs.shape[1]
    amps = none if spectrum.amplitudes is None else spectrum.amplitudes[point]
    flags = none if spectrum.observable is None else spectrum.observable[point].tolist()
    return [EigenMode(value, vecs[:, column], amplitude=amplitude, weight=weight, observable=flag)
            for value, weight, amplitude, flag, column in zip(
                spectrum.values[point], spectrum.weights[point], amps, flags, spectrum.order[point])]


def _groups(rates: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Group labels and ambiguity flags of decay rates |Re lambda| (see :func:`classify_groups`)."""
    t12, t23 = sqrt(gamma * 0.5), sqrt(0.5)
    groups = np.where(rates < t12, 1, np.where(rates < t23, 2, 3))
    ambiguous = np.zeros(rates.shape, dtype=bool)
    for thr in (t12, t23):
        low, high = thr * (1 - GROUP_AMBIGUITY_BAND), thr * (1 + GROUP_AMBIGUITY_BAND)
        ambiguous |= (low <= rates) & (rates <= high)
    return groups, ambiguous


def classify_groups(modes: list[EigenMode], gamma: float) -> list[EigenMode]:
    """Label modes into the three decay-rate groups (in place; also returned).

    Thresholds are the geometric midpoints between the three anchor rates
    gamma, 1/2 and 1: sqrt(gamma/2) separates groups 1|2 and sqrt(1/2)
    separates groups 2|3.  Near saturation the grouping loses meaning; modes
    within ``GROUP_AMBIGUITY_BAND`` of a threshold are flagged.
    """
    groups, ambiguous = _groups(np.abs([mode.value.real for mode in modes]), gamma)
    for mode, group, flag in zip(modes, groups.tolist(), ambiguous.tolist()):
        mode.group, mode.ambiguous_group = group, flag
    return modes


def dark_state(spec: TransitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dark and bright ground-superposition projectors of a 1 -> 0 transition.

    For linearly polarized light the two m = +/-1 ground states couple to the
    single excited state through one amplitude each; the combination that
    interferes destructively is dark (it neither absorbs nor couples to the
    excited state), the orthogonal one carries all the coupling.  With the
    default ``linear-y`` polarization the dark state is
    (|m=-1> - |m=+1>)/sqrt(2); for ``linear-x`` it is the ``+`` combination.

    Returns
    -------
    (sigma_dark, sigma_bright)
        Pure-state density matrices in the full 4-dimensional basis, phases
        fixed so the first nonzero coefficient is real positive.

    Raises
    ------
    ValueError
        If the spec is not a 1 -> 0 transition or the polarization leaves no
        dark superposition of the m = +/-1 pair (e.g. pure circular light).
    """
    if spec.fg.twice_f != 2 or spec.fe.twice_f != 0:
        raise ValueError(
            f"dark/bright pair is defined for the 1 -> 0 transition, got {spec.fg.f} -> {spec.fe.f}"
        )
    w = coupling_matrix(spec)
    # coupling amplitudes <e| V |g,m> for m = -1, +1 (V ~ W + Wdag; only Wdag reaches e<-g)
    c_minus, c_plus = w.conj().T[3, 0], w.conj().T[3, 2]
    if abs(c_minus) < 1e-14 or abs(c_plus) < 1e-14:
        raise ValueError("polarization couples at most one of m=-1, m=+1; no dark superposition")

    def _pure(full_coeffs):
        vec = np.asarray(full_coeffs, dtype=complex)
        vec = vec / np.linalg.norm(vec)
        lead = vec[np.flatnonzero(np.abs(vec) > 1e-14)[0]]
        vec = vec * (abs(lead) / lead)
        return np.outer(vec, vec.conj())

    dark = _pure([c_plus, 0.0, -c_minus, 0.0])
    bright = _pure([np.conj(c_minus), 0.0, np.conj(c_plus), 0.0])
    return dark, bright


@dataclass(frozen=True)
class OpenLambdaSpec:
    """Open three-level reduction: two driven ground states, one excited, one sink.

    Basis order: ground -, ground +, sink, excited.  The two driven ground
    states sit at energies -/+ ``zeeman`` (the same splitting a field gives
    the m = -/+1 pair of the full system), each couples to the excited state
    with strength ``rabi / (2*sqrt(6))`` — exactly the per-arm coupling of a
    1 -> 0 transition driven at reduced Rabi frequency ``rabi`` — and the
    excited state branches a fraction ``sink_fraction`` of its decay into the
    sink and the rest equally into the two arms.  Transit relaxation at rate
    ``gamma`` drives all three ground levels toward equal population, as in
    the full model.
    """

    rabi: float
    gamma: float
    detuning: float = 0.0
    zeeman: float = 0.0
    sink_fraction: float = 1.0 / 3.0

    def __post_init__(self):
        for name in ("rabi", "gamma", "detuning", "zeeman", "sink_fraction"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not 0.0 <= self.sink_fraction <= 1.0:
            raise ValueError(f"sink_fraction must lie in [0, 1], got {self.sink_fraction}")


def open_lambda_liouvillian(spec: OpenLambdaSpec) -> Liouvillian:
    """Evolution matrix of the open three-level system (same conventions as the full model).

    Its traces record ``{"model": "OpenLambdaSpec"}`` and the splitting
    ``zeeman`` as their field.
    """
    dim = 4
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 0] = -spec.zeeman
    h[1, 1] = +spec.zeeman
    h[3, 3] = spec.detuning
    arm = spec.rabi / (2.0 * sqrt(6.0))
    h[0, 3] = h[3, 0] = arm
    h[1, 3] = h[3, 1] = arm

    p_e = np.zeros((dim, dim))
    p_e[3, 3] = 1.0
    arm_fraction = (1.0 - spec.sink_fraction) / 2.0
    jumps = []
    for target, fraction in ((0, arm_fraction), (1, arm_fraction), (2, spec.sink_fraction)):
        feed = np.zeros((dim, dim))
        feed[target, 3] = 1.0
        jumps.append((fraction, feed))
    ground_mix = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex) / 3.0

    coupling = np.zeros((dim, dim), dtype=complex)
    coupling[0, 3] = coupling[1, 3] = 1.0 / sqrt(6.0)
    return _lindblad(
        h, p_e, jumps, ground_mix, spec.gamma, coupling, spec.zeeman,
        {"model": type(spec).__name__},
    )


#: Names of the columns of :func:`intensity_sweep`, in order.
SWEEP_COLUMNS = ("intensity", "b_case", "re_lambda", "im_lambda", "group", "observable", "w_mode")


#: The field cases of a sweep, in the order of its table: field 0, then ``b1``.
CASES = ("B0", "B1")


def sweep_modes(spec: TransitionSpec, intensities, b1: float) -> dict:
    """Annotated eigenmodes for every (intensity, field case) of a sweep.

    For each squared Rabi frequency in ``intensities`` the evolution matrix
    is analyzed at fields 0 ("B0") and ``b1`` ("B1"); observability uses the
    switched-field initial condition (the steady state of the other case).
    M is assembled once for the sweep (see :func:`affine_liouvillian`), and each
    case's points are decomposed on its parts (see :func:`_sweep`), one eig per
    part for a stack of them, with the eigenvectors mapped back.  Returns
    {(intensity, case): list of EigenMode}, intensity-major with "B0" before "B1".
    """
    return {(intensity, case): classify_groups(_records(spectrum, point, embeddings, spec.dim**2), spec.gamma)
            for grid, cases in _sweep(spec, intensities, b1, vectors=True)
            for point, intensity in enumerate(grid) for case, (spectrum, embeddings) in zip(CASES, cases)}


def _sweep(spec: TransitionSpec, intensities, b1: float, vectors=False):
    """Yield (intensities, a (spectrum, each part's (block, frame)) per case) per slice of the grid.

    At ``b1`` the parts are the Theta-even and Theta-odd sectors of M's invariant blocks, and at
    field 0, where M also commutes with m -> -m, each sector's principal submatrices on its
    components: both from :attr:`AffineLiouvillian.sectors`, derived on a family's first sweep.
    The start states are Theta-even and lie on the pump block, so only its even sector, the first,
    sees them: elsewhere the amplitudes and the weights are zero by structure.  Both cases' stacks
    of a slice are evaluated, and a check that fails names the first failing point in table order
    (intensity-major, cases in ``CASES`` order), the order the steady solve walks.
    """
    if (grid := np.asarray(intensities, dtype=float)).ndim != 1:
        raise ValueError(f"intensity grid must be 1-d, got shape {grid.shape}")
    if not (grid := grid.tolist()):
        raise ValueError("intensity grid is empty")
    for intensity in grid:  # the first that is negative or not finite raises as in with_intensity
        if not 0.0 <= intensity < np.inf:
            spec.with_intensity(intensity)
    if repeated := [intensity for intensity, count in Counter(grid).items() if count > 1]:
        raise ValueError(f"intensity {repeated[0]!r} is repeated in the grid")
    if not isfinite(b1 if hasattr(b1, "__float__") else np.nan):  # refuses what is not a real number
        raise ValueError(f"b1 must be finite, got {b1!r}")
    affine = affine_liouvillian(spec)
    rabi = np.sqrt(grid)  # as with_intensity takes it
    # the steady states on the family's sector, in table order; each point starts in the other case's
    x = _sector_steady(affine, np.repeat(rabi, 2), np.tile([0.0, b1], len(grid))).reshape(len(grid), 2, -1)
    seen = affine.sectors[0][0]  # the pump block's even sector, or all of M's when M does not split
    to_seen = (seen.frame[np.searchsorted(seen.block, affine.block)].conj().T @ affine.sector.frame).real
    # each case's field and parts, a part the principal submatrices of a sector on some of its columns
    cases = [(0.0, [(sector, c) for sector, components in affine.sectors for c in components]),
             (b1, [(sector, np.arange(sector.pump.size)) for sector, _ in affine.sectors])]
    for part in _chunks(len(grid), max(sector.pump.size for sector, _ in affine.sectors)):
        r, offset, spectra, failures = rabi[part, None, None], (x[part, ::-1] - x[part]) @ to_seen.T, [], []
        for case, (b, pieces) in enumerate(cases):
            stack = (((sector.base + r * sector.drive + b * sector.field)[:, c[:, None], c],
                      sector.weights[c]) for sector, c in pieces)
            offsets = [offset[:, case, c] if sector is seen else None for sector, c in pieces]
            points = np.column_stack((grid[part], np.full(r.size, b)))
            try:
                spectra.append((_spectrum(stack, offsets, points, vectors),
                                [(sector.block, sector.frame[:, c]) for sector, c in pieces]))
            except np.linalg.LinAlgError as exc:  # first, one that names no point
                failures.append((getattr(exc, "point", -1), case, exc))
        if failures:
            raise min(failures, key=lambda failure: failure[:2])[2]
        yield grid[part], spectra


def intensity_sweep(spec: TransitionSpec, intensities, b1: float) -> dict:
    """Observable-eigenvalue table over an intensity grid, at field 0 and ``b1``.

    Returns columns, {name: 1-D ndarray} in ``SWEEP_COLUMNS`` order, one
    entry per mode: by the intensity grid, then field case ("B0" before "B1"),
    then the eigenmode order.  Every mode is listed with its group label and
    its observability flag (0 or 1), so consumers can filter.  ``w_mode`` is
    the magnitude of the mode's absorption weight.
    """
    chunks = [(grid, *(np.stack([getattr(spectrum, name) for spectrum, _ in cases], axis=1)
                       for name in ("values", "weights", "observable")))
              for grid, cases in _sweep(spec, intensities, b1)]
    # (intensity, case, mode) stacks, flattened in table order
    grid, values, weights, observable = map(np.concatenate, zip(*chunks))
    cases = np.repeat(np.array(CASES, dtype=object), values.shape[2])
    # hypot is what abs() of a complex scalar computes, to the last bit
    return dict(zip(SWEEP_COLUMNS, (
        np.repeat(grid, cases.size), np.tile(cases, grid.size), values.real.ravel(), values.imag.ravel(),
        _groups(np.abs(values.real), spec.gamma)[0].ravel(), observable.ravel().astype(int),
        np.hypot(weights.real, weights.imag).ravel())))
