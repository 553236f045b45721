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

whose matrix M and pump vector p0 this module assembles.

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
    "vectorize",
    "devectorize",
    "absorption",
    "coupling_absorption",
]


def _coerce_pol(pol) -> tuple:
    if isinstance(pol, str):
        return tuple(polarization(pol))
    vec = np.asarray(pol, dtype=complex)
    if vec.shape != (3,):
        raise ValueError(f"polarization must be a named kind or 3 spherical components, got {pol!r}")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= 1e-9:  # written so that a NaN norm fails too
        raise ValueError(f"polarization vector must have unit norm, got {norm!r}")
    return tuple(vec)


@dataclass(frozen=True)
class TransitionSpec:
    """All parameters defining one driven transition, rates in units of the decay rate.

    Parameters
    ----------
    fg, fe : AngMom or number
        Ground and excited angular momenta, ``|Fg - Fe| <= 1``.
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
    """Evolution matrix and pump vector of one transition, plus cached operators.

    Attributes
    ----------
    matrix : ndarray
        The size x size complex evolution matrix M.
    pump : ndarray
        The pump vector p0 = gamma * vec(sigma0).
    coupling : ndarray
        The polarization-contracted lowering block W (dim x dim), used by the
        absorption observable.
    n_ground : int
        Ground-manifold dimension (first block of the basis).
    spec : object
        The spec this Liouvillian was built from (immutable snapshot).
    """

    matrix: np.ndarray
    pump: np.ndarray
    coupling: np.ndarray
    n_ground: int
    spec: object

    @property
    def dim(self) -> int:
        """Atomic Hilbert-space dimension."""
        return self.coupling.shape[0]

    @property
    def size(self) -> int:
        """Liouville-space dimension, dim**2."""
        return self.matrix.shape[0]

    @property
    def absorption_row(self) -> np.ndarray:
        """The absorption functional as a row c, so that w(y) = c @ y.

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


def build_liouvillian(spec: TransitionSpec) -> Liouvillian:
    """Assemble M and p0 for ``dy/dt = M y + p0`` (row-major vectorization).

    Uses vec(A X B) = (A kron B^T) vec(X) on each superoperator term: the
    commutator with H, the anticommutator decay of the excited manifold, the
    spontaneous-emission feeding into the ground manifold, and the transit
    relaxation -gamma*(sigma - sigma0) whose inhomogeneous part becomes p0.
    """
    dim = spec.dim
    _, p_e = projectors(spec.fg, spec.fe)
    h = hamiltonian(spec)
    eye = np.eye(dim)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    m -= 0.5 * (np.kron(p_e, eye) + np.kron(eye, p_e.T))
    weight = spec.fe.multiplicity
    for q in (-1, 0, 1):
        q_mat = q_matrix(spec.fg, spec.fe, q)
        m += weight * np.kron(q_mat, q_mat.conj())
    m -= spec.gamma * np.eye(dim * dim)
    pump = spec.gamma * vectorize(isotropic_ground(spec))
    return Liouvillian(
        matrix=m,
        pump=pump,
        coupling=coupling_matrix(spec),
        n_ground=spec.n_ground,
        spec=spec,
    )


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
