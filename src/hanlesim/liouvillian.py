"""Bloch-equation generator for a driven, Zeeman-degenerate two-level transition.

The density matrix sigma of a closed Fg -> Fe transition, written in the
rotating frame and in units where the excited-state decay rate and hbar are
both 1, evolves as

    dsigma/dt = -i [H, sigma] - (1/2) {P_e, sigma}
                + (2*Fe+1) * sum_q  Q_q sigma Q_q^dag
                - gamma * (sigma - sigma0)

with H the Zeeman + detuning + optical-coupling Hamiltonian, P_e the excited
projector, Q_q the normalized lowering dipole components (see
:mod:`hanlesim.angular`), gamma the transit relaxation rate of atoms crossing
the beam, and sigma0 = P_g/(2*Fg+1) the isotropic ground mixture that fresh
atoms arrive in.  Vectorizing sigma row-major turns this into the affine
linear system

    dy/dt = M y + p0,      y = vec(sigma),  p0 = gamma * vec(sigma0),

whose matrix M and pump vector p0 this module assembles.  Every model is a
Lindblad generator of the same shape: -i[H, .], -(1/2){P_e, .}, a weighted
sum of jumps L . L^dag, and relaxation at gamma toward a rest state.  One
private assembler writes those superoperator terms; :func:`build_liouvillian`
and the open three-level reduction in :mod:`hanlesim.spectral` only build
their operators and call it.  M is affine in the Rabi frequency and in the
field, which enters only on its diagonal; :func:`affine_liouvillian` takes
those parts from one assembly, and transients, scans and spectra evaluate M,
its pump block and its absorption row from them.  :func:`spec_meta` is the
one set of provenance keys that every output recording a transition writes.

The absorption rate observable is

    w(sigma) = i * Tr[sigma W - sigma W^dag],

where W = sum_q e_q Q_q is the polarization-contracted lowering block.  The
sign is fixed so that w >= 0 for physical states (w is proportional to the
rate at which population is driven into the excited manifold); with this
convention a dark resonance lowers w and an enhanced-absorption resonance
raises it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import isfinite, sqrt

import numpy as np

from .angular import AngMom, fz_matrix, polarization, projectors, q_matrix

__all__ = [
    "TransitionSpec",
    "Liouvillian",
    "hamiltonian",
    "coupling_matrix",
    "isotropic_ground",
    "build_liouvillian",
    "AffineLiouvillian",
    "affine_liouvillian",
    "spec_meta",
    "vectorize",
    "devectorize",
    "absorption",
    "coupling_absorption",
]


def _coerce_pol(pol) -> tuple:
    return tuple(polarization(pol) if isinstance(pol, str) else polarization("general", pol))


@dataclass(frozen=True)
class TransitionSpec:
    """All parameters defining one driven transition, rates in units of the decay rate.

    Parameters
    ----------
    fg, fe : AngMom or number
        Ground and excited angular momenta, ``|Fg - Fe| <= 1``, not both 0.
    rabi : float
        Reduced Rabi frequency Omega >= 0.  The driving strength enters only
        through ``dipole_scale * rabi**2``, exposed as :attr:`intensity`.
    gamma : float
        Transit relaxation rate (> 0); also the repumping rate into the
        isotropic ground mixture.
    detuning : float
        Optical detuning of the field from the transition.
    zeeman_g, zeeman_e : float
        Ground/excited Zeeman shift per sublevel per unit magnetic field.
        The field only ever enters through the products ``zeeman_* * b_field``.
    b_field : float
        Static longitudinal magnetic field (arbitrary units, see above).
    pol : str or sequence
        Polarization: a named kind from :func:`hanlesim.angular.polarization`
        or explicit spherical components.  Default ``linear-y``, for which
        the ground superposition (|m=-1> - |m=+1>)/sqrt(2) is dark on a
        Fg=1 -> Fe=0 transition.  ``linear-x`` makes the orthogonal ``+``
        combination dark instead; all observables are identical for the two
        choices (they differ by a rotation about the field axis).
    dipole_scale : float
        Multiplies the squared reduced dipole element, i.e. the intensity.
    """

    fg: AngMom
    fe: AngMom
    rabi: float
    gamma: float
    detuning: float = 0.0
    zeeman_g: float = 1.0
    zeeman_e: float = 0.0
    b_field: float = 0.0
    pol: tuple = field(default_factory=lambda: _coerce_pol("linear-y"))
    dipole_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "fg", AngMom.coerce(self.fg))
        object.__setattr__(self, "fe", AngMom.coerce(self.fe))
        object.__setattr__(self, "pol", _coerce_pol(self.pol))
        for name in ("rabi", "gamma", "detuning", "zeeman_g", "zeeman_e", "b_field", "dipole_scale"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if abs(self.fg.twice_f - self.fe.twice_f) > 2:
            raise ValueError(f"|Fg - Fe| must be <= 1, got Fg={self.fg.f}, Fe={self.fe.f}")
        if self.fg.twice_f == self.fe.twice_f == 0:
            raise ValueError("0 -> 0 has no dipole: its excited state decays into no ground level")
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.gamma > 0.1:
            warnings.warn(
                f"gamma={self.gamma} is not small compared to the decay rate; "
                "the transit-relaxation model is meant for gamma << 1",
                stacklevel=2,
            )
        if self.dipole_scale <= 0:
            raise ValueError(f"dipole_scale must be > 0, got {self.dipole_scale}")

    @property
    def n_ground(self) -> int:
        return self.fg.multiplicity

    @property
    def n_excited(self) -> int:
        return self.fe.multiplicity

    @property
    def dim(self) -> int:
        """Dimension of the atomic Hilbert space, (2Fg+1) + (2Fe+1)."""
        return self.n_ground + self.n_excited

    @property
    def intensity(self) -> float:
        """Effective squared Rabi frequency, dipole_scale * rabi**2."""
        return self.dipole_scale * self.rabi**2

    def with_field(self, b_field: float) -> "TransitionSpec":
        """Copy of this spec at a different magnetic field."""
        return replace(self, b_field=b_field)

    def with_intensity(self, intensity: float) -> "TransitionSpec":
        """Copy of this spec with rabi set so that rabi**2 = intensity.

        ``dipole_scale`` is left untouched, so the effective intensity is
        ``dipole_scale * intensity``.
        """
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        return replace(self, rabi=sqrt(intensity))


@dataclass(frozen=True)
class Liouvillian:
    """Evolution matrix and pump vector of one model, with what its outputs record.

    Attributes
    ----------
    matrix : ndarray
        The size x size complex evolution matrix M.
    pump : ndarray
        The pump vector p0 = gamma * vec(sigma0).
    coupling : ndarray
        The polarization-contracted lowering block W (dim x dim), used by the
        absorption observable.
    b_field : float
        The magnetic field (or Zeeman splitting) M was built at; traces
        record it at every sample.
    meta : dict
        Provenance of the model, written into every trace of it: the
        :func:`spec_meta` keys of a transition, or ``{"model": name}``.
    """

    matrix: np.ndarray
    pump: np.ndarray
    coupling: np.ndarray
    b_field: float
    meta: dict

    @property
    def dim(self) -> int:
        """Atomic Hilbert-space dimension."""
        return self.coupling.shape[0]

    @property
    def size(self) -> int:
        """Liouville-space dimension, dim**2."""
        return self.matrix.shape[0]

    @cached_property
    def absorption_row(self) -> np.ndarray:
        """The absorption functional as a row c, so that w(y) = c @ y; built once.

        c = i * vec((W - W^dag)^T), because Tr[sigma A] = vec(sigma) . vec(A^T)
        under row-major vectorization; this is :func:`coupling_absorption`
        applied to devec(y), for any Liouville vector y.
        """
        return 1j * vectorize((self.coupling - self.coupling.conj().T).T)


def coupling_matrix(spec: TransitionSpec) -> np.ndarray:
    """Polarization-contracted lowering block W = sum_q e_q Q_q."""
    e = np.asarray(spec.pol, dtype=complex)
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for idx, q in enumerate((-1, 0, 1)):
        if e[idx] != 0:
            out += e[idx] * q_matrix(spec.fg, spec.fe, q)
    return out


def hamiltonian(spec: TransitionSpec) -> np.ndarray:
    """Rotating-frame Hamiltonian: Zeeman shifts, detuning, optical coupling."""
    p_g, p_e = projectors(spec.fg, spec.fe)
    f_z = fz_matrix(spec.fg, spec.fe)
    w = coupling_matrix(spec)
    h = (spec.zeeman_g * p_g + spec.zeeman_e * p_e) @ f_z * spec.b_field
    h = h.astype(complex)
    h += spec.detuning * p_e
    h += (spec.rabi * sqrt(spec.dipole_scale) / 2.0) * (w + w.conj().T)
    return h


def isotropic_ground(spec: TransitionSpec) -> np.ndarray:
    """The isotropic ground mixture sigma0 = P_g / (2Fg+1) that fresh atoms carry."""
    p_g, _ = projectors(spec.fg, spec.fe)
    return p_g.astype(complex) / spec.n_ground


def spec_meta(spec: TransitionSpec) -> dict:
    """Provenance keys of a transition, shared by every output that records one.

    ``intensity`` is rabi**2, which can differ in its last digits from the
    value given to ``with_intensity`` (the CLI's ``--intensity``), since rabi
    is its square root; the effective strength is that times ``dipole_scale``,
    which is recorded too.
    """
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


def _lindblad(h, p_e, jumps, rest, gamma, coupling, b_field, meta) -> Liouvillian:
    """Assemble M and p0 of a Lindblad generator (row-major vectorization).

    dsigma/dt = -i[H, sigma] - (1/2){P_e, sigma} + sum_k w_k L_k sigma L_k^dag
    - gamma (sigma - rest), for ``jumps`` = [(w_k, L_k), ...].  With
    M[(i, j), (k, l)] the entry taking sigma_kl to dsigma_ij/dt, A sigma adds
    A_ik where j = l, sigma B adds B_lj where i = k, and L sigma L^dag adds
    L_ik conj(L_jl), for A = -iH - P_e/2 and B = iH - P_e/2.  Where both
    one-sided actions meet, on the diagonal of M, the entry is formed as in
    the Kronecker form -i(H kron I - I kron H^T) - (P_e kron I + I kron P_e^T)/2,
    as -i(H_ii - H_jj) - (P_ii + P_jj)/2, so M is the same to the last bit.
    The inhomogeneous part of the relaxation becomes p0 = gamma * vec(rest).
    """
    dim = h.shape[0]
    diag_h, diag_p = np.diagonal(h), np.diagonal(p_e)
    every = np.arange(dim)
    m4 = np.zeros((dim, dim, dim, dim), dtype=complex)
    m4[:, every, :, every] = -1j * h - 0.5 * p_e
    m4[every, :, every, :] = 1j * h.T - 0.5 * p_e.T
    m = m4.reshape(dim * dim, dim * dim)
    m.flat[:: dim * dim + 1] = (-1j * (diag_h[:, None] - diag_h[None, :])
                                - 0.5 * (diag_p[:, None] + diag_p[None, :])).reshape(-1)
    for weight, jump in jumps:
        m4 += weight * (jump[:, None, :, None] * jump.conj()[None, :, None, :])
    m.flat[:: dim * dim + 1] -= gamma
    return Liouvillian(m, gamma * vectorize(rest), coupling, b_field, meta)


def build_liouvillian(spec: TransitionSpec) -> Liouvillian:
    """Assemble M and p0 for ``dy/dt = M y + p0`` of a transition.

    The jumps are the three dipole components Q_q, each weighted 2Fe+1
    (spontaneous emission feeding the ground manifold), and the rest state
    is the isotropic ground mixture.
    """
    _, p_e = projectors(spec.fg, spec.fe)
    jumps = [(spec.fe.multiplicity, q_matrix(spec.fg, spec.fe, q)) for q in (-1, 0, 1)]
    return _lindblad(
        hamiltonian(spec), p_e, jumps, isotropic_ground(spec), spec.gamma,
        coupling_matrix(spec), spec.b_field, spec_meta(spec),
    )


@dataclass(frozen=True)
class AffineLiouvillian:
    """M(rabi, b) = base + rabi * drive + b * diag(field) of one transition.

    The Rabi frequency enters M only through the optical coupling in H, and
    the field only through the diagonal Zeeman terms, so only on the diagonal
    of M; p0, W and the other parameters depend on neither.  Build it with
    :func:`affine_liouvillian`; ``meta`` holds the :func:`spec_meta` keys.
    """

    base: np.ndarray
    drive: np.ndarray
    field: np.ndarray
    pump: np.ndarray
    coupling: np.ndarray
    meta: dict

    absorption_row = Liouvillian.absorption_row  # W, so c, depends on neither rabi nor b

    @cached_property
    def block(self) -> np.ndarray:
        """The pump's invariant block of M(rabi, b) at every rabi and b, found once: the
        field term is diagonal, so it reaches nothing that ``base`` and ``drive`` do not."""
        return _invariant_block([self.base, self.drive], [self.pump])

    def at(self, rabi: float, b_field: float) -> Liouvillian:
        """The Liouvillian at Rabi frequency ``rabi`` and field ``b_field``."""
        matrix = self.base + rabi * self.drive
        matrix.flat[:: matrix.shape[0] + 1] += b_field * self.field
        meta = self.meta | {"intensity": rabi**2}
        return Liouvillian(matrix, self.pump, self.coupling, b_field, meta)


def affine_liouvillian(spec: TransitionSpec) -> AffineLiouvillian:
    """The affine parts of M: ``base`` from one :func:`build_liouvillian` at (rabi, b) = (0, 0),
    ``drive`` the assembler's -i[H, .] for H the optical coupling at unit Rabi frequency, and
    ``field`` -i(z_i - z_j) at index (i, j), for z the Zeeman diagonal of H at unit field.

    Raises
    ------
    ValueError
        If the Zeeman terms have an entry off the diagonal: M would not be affine in the field.
    """
    base = build_liouvillian(replace(spec, rabi=0.0, b_field=0.0))
    zeeman = hamiltonian(replace(spec, rabi=0.0, b_field=1.0, detuning=0.0))
    z = np.diagonal(zeeman)
    if np.any(zeeman - np.diag(z)):
        raise ValueError("the magnetic field enters M off its diagonal; M is not affine in it")
    optical = hamiltonian(replace(spec, rabi=1.0, b_field=0.0, detuning=0.0))
    no_decay = np.zeros((spec.dim, spec.dim))
    drive = _lindblad(optical, no_decay, [], no_decay, 0.0, base.coupling, 0.0, {}).matrix
    shifts = -1j * (z[:, None] - z[None, :]).reshape(-1)
    return AffineLiouvillian(base.matrix, drive, shifts, base.pump, base.coupling, spec_meta(spec))


def _invariant_block(matrices, seeds) -> np.ndarray:
    """Sorted Liouville indices reachable from the seeds' supports.

    Index j is reached from index i when some matrix has a nonzero entry
    (j, i).  Every matrix therefore maps a vector supported on the block to
    one supported on it, and a state that starts on the block never leaves.
    A block seeded by Hermitian vectors, such as the pump, is closed under
    (i, j) <-> (j, i), since a Lindblad generator has M(sigma^dag) = M(sigma)^dag.
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


def vectorize(sigma: np.ndarray) -> np.ndarray:
    """Row-major vector form of a square matrix (copy)."""
    sigma = np.asarray(sigma)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {sigma.shape}")
    return sigma.reshape(-1).astype(complex)


def devectorize(y: np.ndarray) -> np.ndarray:
    """Square-matrix form of a row-major Liouville vector (copy)."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {y.shape}")
    dim = round(sqrt(y.size))
    if dim * dim != y.size:
        raise ValueError(f"vector length {y.size} is not a perfect square")
    return y.reshape(dim, dim).astype(complex)


def coupling_absorption(sigma: np.ndarray, coupling: np.ndarray) -> complex:
    """Absorption functional w = i*Tr[sigma W - sigma W^dag] for a given W.

    Complex in general; real for Hermitian sigma.  Eigenmode matrices are not
    Hermitian, so modal decompositions keep the complex value (conjugate mode
    pairs recombine to a real signal).
    """
    return 1j * (np.trace(sigma @ coupling) - np.trace(sigma @ coupling.conj().T))


def absorption(sigma: np.ndarray, spec: TransitionSpec) -> float:
    """Absorption rate of a state (real part; exact for Hermitian sigma).

    Positive for physical states: it measures the rate at which the optical
    field drives population toward the excited manifold, which is what a
    transmission photodiode sees (up to scale).
    """
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim == 1:
        sigma = devectorize(sigma)
    if sigma.shape != (spec.dim, spec.dim):
        raise ValueError(f"state shape {sigma.shape} does not match spec dimension {spec.dim}")
    return complex(coupling_absorption(sigma, coupling_matrix(spec))).real
