"""Eigenmode analysis of the evolution matrix.

The full spectrum of M is computed (one invariant block at a time where M
splits into two), labelled into three rate groups (slow ground-state modes
of order the transit rate, optical-coherence modes near half the decay
rate, excited-population modes near the decay rate), and tested for
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

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .dynamics import _as_vector, _decompose, _Modes
from .liouvillian import (
    Liouvillian,
    TransitionSpec,
    _invariant_block,
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
    parts = _parts([liouv.matrix], _invariant_block([liouv.matrix], [liouv.pump]))
    return _annotated(liouv, [_decompose(liouv, part) for part in parts], y0)


def _parts(matrices, block) -> tuple[np.ndarray, ...]:
    """Invariant blocks splitting every M with the pattern of ``matrices``, pump ``block`` first.

    M maps nothing from the pump's block to its complement.  When it maps
    nothing back either (linear light), those are the two parts; otherwise,
    as with circular light on most transitions, the one part is all of M.
    """
    size = matrices[0].shape[0]
    rest = np.setdiff1d(np.arange(size), block)
    if rest.size and not any(matrix[np.ix_(block, rest)].any() for matrix in matrices):
        return block, rest
    return (np.arange(size),)


def _annotated(liouv: Liouvillian, parts: list[_Modes], y0=None) -> list[EigenMode]:
    """Sorted EigenMode records of the decompositions ``parts`` of M, pump block first."""
    lam = np.concatenate([part.lam for part in parts])
    weights = np.concatenate([part.w_modes for part in parts])
    vecs = np.zeros((liouv.size, liouv.size), dtype=complex)
    start = 0
    for part in parts:
        vecs[part.block, start:start + part.block.size] = part.vecs
        start += part.block.size
    residuals = np.linalg.norm(liouv.matrix @ vecs - vecs * lam, axis=0)
    if residuals.max() > 1e-9:
        raise np.linalg.LinAlgError(
            f"eigen residual {residuals.max():.3e} exceeds 1e-9 "
            f"(matrix condition number {np.linalg.cond(liouv.matrix):.3e})"
        )
    amps = observable = [None] * lam.size
    if y0 is not None:
        y0 = _as_vector(y0, liouv.size)
        offset = y0 - parts[0].y_ss
        amps = np.concatenate([part.amplitudes(y0) for part in parts])
        residual = np.linalg.norm(vecs @ amps - offset)
        if residual > 1e-9 * max(1.0, np.linalg.norm(offset)):
            raise np.linalg.LinAlgError(f"amplitude reconstruction residual {residual:.3e}")
        amp_floor = OBSERVABILITY_TOL * max(np.abs(amps).max(), np.finfo(float).tiny)
        weight_floor = OBSERVABILITY_TOL * max(np.abs(weights).max(), np.finfo(float).tiny)
        observable = ((np.abs(amps) > amp_floor) & (np.abs(weights) > weight_floor)).tolist()
    return [
        EigenMode(value=lam[k], vector=vecs[:, k], amplitude=amps[k], weight=weights[k],
                  observable=observable[k])
        for k in np.lexsort((lam.imag, -lam.real))
    ]


def classify_groups(modes: list[EigenMode], gamma: float) -> list[EigenMode]:
    """Label modes into the three decay-rate groups (in place; also returned).

    Thresholds are the geometric midpoints between the three anchor rates
    gamma, 1/2 and 1: sqrt(gamma/2) separates groups 1|2 and sqrt(1/2)
    separates groups 2|3.  Near saturation the grouping loses meaning; modes
    within ``GROUP_AMBIGUITY_BAND`` of a threshold are flagged.
    """
    t12 = sqrt(gamma * 0.5)
    t23 = sqrt(0.5)
    for mode in modes:
        rate = abs(mode.value.real)
        mode.group = 1 if rate < t12 else (2 if rate < t23 else 3)
        mode.ambiguous_group = any(
            thr * (1 - GROUP_AMBIGUITY_BAND) <= rate <= thr * (1 + GROUP_AMBIGUITY_BAND)
            for thr in (t12, t23)
        )
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


#: Column order of the rows produced by :func:`intensity_sweep`.
SWEEP_COLUMNS = ("intensity", "b_case", "re_lambda", "im_lambda", "group", "observable", "w_mode")


def sweep_modes(spec: TransitionSpec, intensities, b1: float) -> dict:
    """Annotated eigenmodes for every (intensity, field case) of a sweep.

    For each squared Rabi frequency in ``intensities`` the evolution matrix
    is analyzed at fields 0 ("B0") and ``b1`` ("B1"); observability uses the
    switched-field initial condition (the steady state of the other case).
    M is assembled once for the sweep (see :func:`affine_liouvillian`), and
    its pump block and split are found once, from the pattern of its parts.
    Each case is decomposed once; its steady state comes from the one
    checked steady solve on the pump block, outside which it vanishes.
    Returns {(intensity, case): list of EigenMode}.
    """
    return {(intensity, case): modes for intensity, case, modes in _sweep(spec, intensities, b1)}


def _sweep(spec: TransitionSpec, intensities, b1: float):
    """Yield (intensity, case, modes) of :func:`sweep_modes` in grid order, B0 before B1."""
    affine = affine_liouvillian(spec)
    parts = _parts([affine.base, affine.drive], affine.block)
    for intensity in intensities:
        rabi = spec.with_intensity(intensity).rabi
        liouvs = {"B0": affine.at(rabi, 0.0), "B1": affine.at(rabi, b1)}
        decomposed = {case: [_decompose(m, part) for part in parts] for case, m in liouvs.items()}
        for case, other in (("B0", "B1"), ("B1", "B0")):
            # initial condition: the system was sitting in the other phase's steady state
            modes = _annotated(liouvs[case], decomposed[case], decomposed[other][0].y_ss)
            yield float(intensity), case, classify_groups(modes, spec.gamma)


def intensity_sweep(spec: TransitionSpec, intensities, b1: float) -> list[dict]:
    """Observable-eigenvalue table over an intensity grid, at field 0 and ``b1``.

    Rows are ordered by the intensity grid, then field case ("B0" before
    "B1"), then by the deterministic eigenmode order; every mode is emitted
    with its group label and observability flag so consumers can filter.
    Row keys are ``SWEEP_COLUMNS``; ``w_mode`` is the magnitude of the mode's
    absorption weight.
    """
    rows = []
    # one point's modes at a time, so the sweep never holds every eigenvector
    for intensity, case, modes in _sweep(spec, intensities, b1):
        for mode in modes:
            rows.append(
                {
                    "intensity": intensity,
                    "b_case": case,
                    "re_lambda": float(mode.value.real),
                    "im_lambda": float(mode.value.imag),
                    "group": int(mode.group),
                    "observable": int(bool(mode.observable)),
                    "w_mode": float(abs(mode.weight)),
                }
            )
    return rows
