"""Eigenmode analysis of the evolution matrix.

The full spectrum of M is computed, labelled into three rate groups (slow
ground-state modes of order the transit rate, optical-coherence modes near
half the decay rate, excited-population modes near the decay rate), and
tested for observability in a switched-field experiment: a decay mode shows
up in the absorption signal only if (a) the initial condition actually
excites it and (b) its density-matrix component couples to the light.

Also provided: the dark/bright ground-state superpositions of a 1 -> 0
transition, an open three-level (two driven ground states, one excited
state, one uncoupled sink state) reduction that reproduces the slow
observable spectrum of the full 1 -> 0 system when exactly one third of the
spontaneous decay is branched to the sink, and intensity sweeps tabulating
the observable eigenvalues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .liouvillian import (
    Liouvillian,
    TransitionSpec,
    build_liouvillian,
    coupling_matrix,
    vectorize,
)

__all__ = [
    "EigenMode",
    "OpenLambdaSpec",
    "eigenmodes",
    "classify_groups",
    "mode_amplitudes",
    "observability",
    "dark_state",
    "open_lambda_liouvillian",
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
        Coefficient of this mode in the expansion of y0 - y_ss.
    weight : complex or None
        Absorption functional of the eigenvector's matrix form; only its
        magnitude is physically meaningful for a single mode.
    observable : bool or None
        True when both |amplitude| and |weight| are resolvably nonzero.
    """

    value: complex
    vector: np.ndarray
    group: int | None = None
    ambiguous_group: bool = False
    amplitude: complex | None = None
    weight: complex | None = None
    observable: bool | None = None


def eigenmodes(liouv: Liouvillian) -> list[EigenMode]:
    """Complete spectrum of M as EigenMode records.

    Modes are sorted by descending real part (slowest decay first), then by
    ascending imaginary part, making the order deterministic.  Residuals
    ``|M v - lambda v|`` are verified to be below 1e-9.
    """
    lam, vecs = np.linalg.eig(liouv.matrix)
    order = np.lexsort((lam.imag, -lam.real))
    lam, vecs = lam[order], vecs[:, order]
    residuals = np.linalg.norm(liouv.matrix @ vecs - vecs * lam, axis=0)
    if residuals.max() > 1e-9:
        raise np.linalg.LinAlgError(
            f"eigen residual {residuals.max():.3e} exceeds 1e-9 "
            f"(matrix condition number {np.linalg.cond(liouv.matrix):.3e})"
        )
    return [EigenMode(value=lam[k], vector=vecs[:, k]) for k in range(lam.size)]


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


def mode_amplitudes(modes: list[EigenMode], y0, y_ss) -> np.ndarray:
    """Expansion coefficients of y0 - y_ss over the eigenvectors (stored on the modes).

    Solves V a = y0 - y_ss; warns if the eigenvector matrix condition number
    exceeds 1e10, and verifies the reconstruction residual.
    """
    y0 = np.asarray(y0, dtype=complex).reshape(-1)
    y_ss = np.asarray(y_ss, dtype=complex).reshape(-1)
    vecs = np.column_stack([m.vector for m in modes])
    cond = np.linalg.cond(vecs)
    if cond > 1e10:
        warnings.warn(
            f"eigenvector matrix condition number {cond:.3e}; amplitudes may be inaccurate",
            stacklevel=2,
        )
    amps = np.linalg.solve(vecs, y0 - y_ss)
    residual = np.linalg.norm(vecs @ amps - (y0 - y_ss))
    scale = max(1.0, np.linalg.norm(y0 - y_ss))
    if residual > 1e-9 * scale:
        raise np.linalg.LinAlgError(f"amplitude reconstruction residual {residual:.3e}")
    for mode, a in zip(modes, amps):
        mode.amplitude = a
    return amps


def observability(
    modes: list[EigenMode],
    liouv: Liouvillian,
    y0,
    y_ss=None,
    tol_amplitude: float = OBSERVABILITY_TOL,
    tol_weight: float = OBSERVABILITY_TOL,
) -> list[EigenMode]:
    """Mark each mode observable or not for the given initial condition.

    A mode contributes to the measured absorption transient only when its
    amplitude in y0 - y_ss and the absorption weight of its eigenvector are
    both nonzero; the tolerances are relative to the largest mode of each
    kind.  Annotates ``amplitude``, ``weight`` and ``observable`` in place.
    """
    if y_ss is None:
        y_ss = np.linalg.solve(liouv.matrix, -liouv.pump)
    amps = mode_amplitudes(modes, y0, y_ss)
    weights = liouv.absorption_row @ np.column_stack([m.vector for m in modes])
    amp_floor = tol_amplitude * max(np.abs(amps).max(), np.finfo(float).tiny)
    weight_floor = tol_weight * max(np.abs(weights).max(), np.finfo(float).tiny)
    for mode, a, w in zip(modes, amps, weights):
        mode.weight = w
        mode.observable = bool(abs(a) > amp_floor and abs(w) > weight_floor)
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
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not 0.0 <= self.sink_fraction <= 1.0:
            raise ValueError(f"sink_fraction must lie in [0, 1], got {self.sink_fraction}")

    @property
    def dim(self) -> int:
        return 4

    @property
    def n_ground(self) -> int:
        return 3

    @property
    def b_field(self) -> float:
        """Zeeman splitting parameter, mirroring TransitionSpec's field attribute."""
        return self.zeeman


def open_lambda_liouvillian(spec: OpenLambdaSpec) -> Liouvillian:
    """Evolution matrix of the open three-level system (same conventions as the full model)."""
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
    eye = np.eye(dim)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    m -= 0.5 * (np.kron(p_e, eye) + np.kron(eye, p_e))
    arm_fraction = (1.0 - spec.sink_fraction) / 2.0
    for target, fraction in ((0, arm_fraction), (1, arm_fraction), (2, spec.sink_fraction)):
        feed = np.zeros((dim, dim))
        feed[target, 3] = 1.0
        m += fraction * np.kron(feed, feed.conj())
    m -= spec.gamma * np.eye(dim * dim)

    ground_mix = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex) / 3.0
    pump = spec.gamma * vectorize(ground_mix)

    coupling = np.zeros((dim, dim), dtype=complex)
    coupling[0, 3] = coupling[1, 3] = 1.0 / sqrt(6.0)
    return Liouvillian(matrix=m, pump=pump, coupling=coupling, n_ground=3, spec=spec)


#: Column order of the rows produced by :func:`intensity_sweep`.
SWEEP_COLUMNS = ("intensity", "b_case", "re_lambda", "im_lambda", "group", "observable", "w_mode")


def _sweep_pair(build, gamma: float):
    """Annotated eigenmodes of the field-off/field-on pair built by ``build(b)``."""
    out = {}
    liouvs = {case: build(case) for case in ("B0", "B1")}
    steadies = {
        case: np.linalg.solve(liouv.matrix, -liouv.pump) for case, liouv in liouvs.items()
    }
    other = {"B0": "B1", "B1": "B0"}
    for case, liouv in liouvs.items():
        modes = classify_groups(eigenmodes(liouv), gamma)
        # initial condition: the system was sitting in the other phase's steady state
        observability(modes, liouv, steadies[other[case]], steadies[case])
        out[case] = modes
    return out


def sweep_modes(spec: TransitionSpec, intensities, b1: float) -> dict:
    """Annotated eigenmodes for every (intensity, field case) of a sweep.

    For each squared Rabi frequency in ``intensities`` the evolution matrix
    is analyzed at fields 0 ("B0") and ``b1`` ("B1"); observability uses the
    switched-field initial condition (the steady state of the other case).
    Returns {(intensity, case): list of EigenMode}.
    """
    out = {}
    for intensity in intensities:
        spec_i = spec.with_intensity(intensity)
        fields = {"B0": 0.0, "B1": b1}
        pair = _sweep_pair(
            lambda case: build_liouvillian(spec_i.with_field(fields[case])), spec.gamma
        )
        for case, modes in pair.items():
            out[(float(intensity), case)] = modes
    return out


def intensity_sweep(spec: TransitionSpec, intensities, b1: float) -> list[dict]:
    """Observable-eigenvalue table over an intensity grid, at field 0 and ``b1``.

    Rows are ordered by the intensity grid, then field case ("B0" before
    "B1"), then by the deterministic eigenmode order; every mode is emitted
    with its group label and observability flag so consumers can filter.
    Row keys are ``SWEEP_COLUMNS``; ``w_mode`` is the magnitude of the mode's
    absorption weight.
    """
    rows = []
    modes_by_key = sweep_modes(spec, intensities, b1)
    for intensity in intensities:
        for case in ("B0", "B1"):
            for mode in modes_by_key[(float(intensity), case)]:
                rows.append(
                    {
                        "intensity": float(intensity),
                        "b_case": case,
                        "re_lambda": float(mode.value.real),
                        "im_lambda": float(mode.value.imag),
                        "group": int(mode.group),
                        "observable": int(bool(mode.observable)),
                        "w_mode": float(abs(mode.weight)),
                    }
                )
    return rows
