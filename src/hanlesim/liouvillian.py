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
their operators and call it; it emits M's nonzeros, and the dense M is
scattered from them.  M is affine in the Rabi frequency and in the field, which
enters only on its diagonal; :func:`affine_liouvillian` takes those parts as
nonzeros from one assembly and keeps them, and their real form where steady
states are solved (:attr:`AffineLiouvillian.sector`), for the last transition.
:func:`spec_meta` is the one set of provenance keys that every output
recording a transition writes.

The absorption rate observable is

    w(sigma) = i * Tr[sigma W - sigma W^dag],

where W = sum_q e_q Q_q is the polarization-contracted lowering block.  The
sign is fixed so that w >= 0 for physical states (w is proportional to the
rate at which population is driven into the excited manifold); with this
convention a dark resonance lowers w and an enhanced-absorption resonance
raises it.
"""

from __future__ import annotations

import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import isfinite, sqrt

import numpy as np

from .angular import AngMom, polarization, projectors, q_matrix

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
            # name the first caller outside this package and dataclasses (__init__, replace)
            frame, level, inner = sys._getframe(), 1, (__package__, "dataclasses")
            while frame and frame.f_globals.get("__name__", "").partition(".")[0] in inner:
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"gamma={self.gamma} is not small compared to the decay rate; "
                "the transit-relaxation model is meant for gamma << 1",
                stacklevel=level,
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


#: Nonzeros of a Liouville-space matrix: M[rows[k], cols[k]] sums values[k] over k, in order.
Entries = namedtuple("Entries", "rows cols values")


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
    return _operators(spec).coupling


def hamiltonian(spec: TransitionSpec) -> np.ndarray:
    """Rotating-frame Hamiltonian: Zeeman shifts, detuning, optical coupling."""
    return _operators(spec).h


def isotropic_ground(spec: TransitionSpec) -> np.ndarray:
    """The isotropic ground mixture sigma0 = P_g / (2Fg+1) that fresh atoms carry."""
    return _operators(spec).rest


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
    """M and p0 of a Lindblad generator: M scattered from its entries (:func:`_lindblad_entries`),
    each summed in their order, and p0 = gamma * vec(rest)."""
    rows, cols, values = _lindblad_entries(h, p_e, jumps, gamma)
    size = h.shape[0] ** 2
    matrix = _summed(rows * size + cols, values, size * size).reshape(size, size)
    return Liouvillian(matrix, gamma * vectorize(rest), coupling, b_field, meta)


def _lindblad_entries(h, p_e, jumps, gamma) -> Entries:
    """The nonzeros of M for a Lindblad generator (row-major vectorization).

    dsigma/dt = -i[H, sigma] - (1/2){P_e, sigma} + sum_k w_k L_k sigma L_k^dag
    - gamma (sigma - rest), for ``jumps`` = [(w_k, L_k), ...].  With
    M[(i, j), (k, l)] the entry taking sigma_kl to dsigma_ij/dt, A sigma adds
    A_ik where j = l, sigma B adds B_lj where i = k, and L sigma L^dag adds
    L_ik conj(L_jl), for A = -iH - P_e/2 and B = iH - P_e/2.  Where both
    one-sided actions meet, on the diagonal of M, the entry is formed as in
    the Kronecker form -i(H kron I - I kron H^T) - (P_e kron I + I kron P_e^T)/2,
    as -i(H_ii - H_jj) - (P_ii + P_jj)/2.  The entries come in the Kronecker
    form's order: A sigma and sigma B off the diagonal, the diagonal, each jump,
    then -gamma on the diagonal; summed in that order (``_lindblad``), they give
    that form to the last bit.
    """
    dim = h.shape[0]
    every = np.arange(dim * dim)
    index = every.reshape(dim, dim)  # of (i, j) in vec(sigma)
    left, right = -1j * h - 0.5 * p_e, 1j * h.T - 0.5 * p_e.T  # A, and B^T
    off = ~np.eye(dim, dtype=bool)
    (i, k), (j, l) = np.nonzero(off & (left != 0)), np.nonzero(off & (right != 0))
    diag_h, diag_p = np.diagonal(h), np.diagonal(p_e)
    terms = [(index[i].ravel(), index[k].ravel(), np.repeat(left[i, k], dim)),  # (i, j) <- (k, j)
             (index[:, j].ravel(), index[:, l].ravel(), np.tile(right[j, l], dim)),  # (i, j) <- (i, l)
             (every, every, (-1j * (diag_h[:, None] - diag_h[None, :])
                             - 0.5 * (diag_p[:, None] + diag_p[None, :])).reshape(-1))]
    for weight, jump in jumps:  # L_ik conj(L_jl) over the nonzero (i, k) and (j, l) only
        (rows, cols), values = np.nonzero(jump), jump[jump != 0]
        terms.append((index[rows[:, None], rows].ravel(), index[cols[:, None], cols].ravel(),
                      (weight * (values[:, None] * values.conj())).ravel()))
    terms.append((every, every, np.full(dim * dim, -gamma, dtype=complex)))
    rows, cols, values = (np.concatenate(part) for part in zip(*terms))
    nonzero = values != 0
    return Entries(rows[nonzero], cols[nonzero], values[nonzero])


#: The operators of a transition, each formed once by :func:`_operators`.
Operators = namedtuple("Operators", "h p_e jumps rest coupling zeeman optical")


def _operators(spec: TransitionSpec) -> Operators:
    """H, P_e, the jumps, the rest state and W of a transition, with the parts H is composed of.

    The jumps are the three dipole components Q_q, each weighted 2Fe+1
    (spontaneous emission feeding the ground manifold), W = sum_q e_q Q_q is
    contracted from the same Q_q, and the rest state is the isotropic ground
    mixture P_g/(2Fg+1).  H = b diag(z) + detuning P_e + rabi V, with
    ``zeeman`` the diagonal z of the Zeeman terms at unit field (the level's
    zeeman_* times m) and ``optical`` the coupling at unit Rabi frequency,
    V = (sqrt(dipole_scale)/2) (W + W^dag).
    """
    p_g, p_e = projectors(spec.fg, spec.fe)
    jumps = [(spec.fe.multiplicity, q_matrix(spec.fg, spec.fe, q)) for q in (-1, 0, 1)]
    coupling = np.tensordot(spec.pol, [q_q for _, q_q in jumps], axes=1)
    levels = np.repeat([spec.zeeman_g, spec.zeeman_e], [spec.n_ground, spec.n_excited])
    zeeman = levels * np.concatenate((spec.fg.m_values(), spec.fe.m_values()))
    optical = (sqrt(spec.dipole_scale) / 2.0) * (coupling + coupling.conj().T)
    h = np.diag(spec.b_field * zeeman) + spec.detuning * p_e + spec.rabi * optical
    return Operators(h, p_e, jumps, p_g.astype(complex) / spec.n_ground, coupling, zeeman, optical)


def build_liouvillian(spec: TransitionSpec) -> Liouvillian:
    """Assemble M and p0 for ``dy/dt = M y + p0`` of a transition (see :func:`_operators`)."""
    ops = _operators(spec)
    return _lindblad(ops.h, ops.p_e, ops.jumps, ops.rest, spec.gamma, ops.coupling, spec.b_field,
                     spec_meta(spec))


#: An affine family in the real coordinates x of one sector, y[block] = frame @ x: M acts on x as
#: base + rabi * drive + b * field, and p0 and the absorption row are ``pump`` and ``weights``.
RealSector = namedtuple("RealSector", "base drive field pump weights frame block")
_MEMO = {}  # {spec at (rabi, b) = (0, 0): family} of the last family affine_liouvillian built


@dataclass(frozen=True)
class AffineLiouvillian:
    """M(rabi, b) = base + rabi * drive + b * diag(field) of one transition.

    The Rabi frequency enters M only through the optical coupling in H, and
    the field only through the diagonal Zeeman terms, so only on the diagonal
    of M; p0, W and the other parameters depend on neither, and nor do
    :attr:`block` and :attr:`sector`: build it with :func:`affine_liouvillian`,
    which keeps the whole family for the last transition it built.  It holds
    ``base`` and ``drive`` as the entries the assembler emitted, ``base_entries``
    and ``drive_entries``: the block, the sectors and :meth:`product` come from
    those.

    :meth:`real_sector` holds the parts in real coordinates, formed from the
    nonzeros.  M preserves Hermiticity, so in the Hermitian basis T of
    ``_frame_entries`` its parts, p0 and the row are real.  With linear light at
    zero detuning M also commutes with Theta(sigma) = S P sigma^* P S, a pi
    rotation about x with complex conjugation: P reverses m -> -m inside each
    manifold and S = diag((-1)^(F - m)); in T's coordinates Theta is one signed
    permutation (:func:`_reflection`).  Theta fixes p0 and the absorption row, so
    every transient state is Theta-even, and :attr:`sector` keeps the pump block's
    even combinations (73 of its 130 indices on 3 -> 4).  Where Theta maps a block
    outside itself, or changes a part, p0 or the row in T's coordinates (circular
    or general light, nonzero detuning), the whole block is kept, through the
    same code.
    """

    base_entries: Entries
    drive_entries: Entries
    field: np.ndarray
    pump: np.ndarray
    coupling: np.ndarray

    absorption_row = Liouvillian.absorption_row  # W, so c, depends on neither rabi nor b

    @cached_property
    def block(self) -> np.ndarray:
        """The pump's invariant block of M(rabi, b) at every rabi and b, found once over the nonzeros
        of ``base`` and ``drive``: the field term is diagonal, so it reaches nothing they do not."""
        return _invariant_block(self.edges, [self.pump])

    @cached_property
    def edges(self) -> tuple:
        """(rows, cols) of the nonzeros of ``base`` and ``drive``, M's pattern off its diagonal."""
        return tuple(np.concatenate(pair) for pair in zip(self.base_entries[:2], self.drive_entries[:2]))

    @cached_property
    def sector(self) -> RealSector:
        """The parts on the pump block's Theta-even sector, or on the whole block."""
        return self.real_sector(self.block, 1)

    def product(self, y: np.ndarray, rabi, b_field) -> np.ndarray:
        """M(rabi, b) y for each row of the stack ``y``, with ``rabi`` and ``b_field`` one per row,
        by one scatter of each part's nonzeros."""
        out = b_field * self.field * y
        offsets = y.shape[1] * np.arange(y.shape[0])[:, None]
        for (rows, cols, values), scale in ((self.base_entries, 1.0), (self.drive_entries, rabi)):
            np.add.at(out.reshape(-1), (rows + offsets).ravel(), (y[:, cols] * (scale * values)).ravel())
        return out

    def real_sector(self, block: np.ndarray, parity: int) -> RealSector:
        """The parts on the Theta-even (``parity`` 1) or Theta-odd (-1) sector of an invariant
        ``block`` closed under (i, j) <-> (j, i): where Theta fails, the whole block or nothing.
        The row is even, so the odd sector's ``weights`` are zero.

        In the Hermitian basis T, two entries in each row, each part R = T^H A T comes from the
        nonzeros on the block by one scatter, and T^H p0 and the row times T by one gather each.
        These must be real; Theta holds where its signed permutation (:func:`_reflection`) leaves
        them unchanged, each to 1e-13 of its largest entry.  The sector's parts then come from R's
        nonzeros by one scatter through S, the Theta combinations, and the frame is T S.

        Raises ValueError if a part, p0 or the row is not real to rounding in the Hermitian basis
        (M does not preserve Hermiticity), numpy.linalg.LinAlgError, a subclass, if one is not finite.
        """
        dim, size = self.coupling.shape[0], block.size
        position = np.arange(size)
        local = np.full(self.pump.size, -1)
        local[block] = position
        # the nonzeros of base, drive and diag(field) on the block, each with the index of its part
        base, drive = self.base_entries, self.drive_entries
        rows, cols = (local[np.concatenate((base[k], drive[k], block))] for k in (0, 1))
        inside = (rows >= 0) & (cols >= 0)
        rows, cols = rows[inside], cols[inside]
        values = np.concatenate((base.values, drive.values, self.field[block]))[inside]
        part = np.repeat([0, 1, 2], [base.values.size, drive.values.size, size])[inside]
        pump, row = self.pump[block], self.absorption_row[block]
        if not all(np.isfinite(vector).all() for vector in (values, pump, row)):
            raise np.linalg.LinAlgError("the generator in the real frame is not finite")
        # T by rows: row r holds coefs[0, r] in column r and coefs[1, r'] in column r' = t_rows[1, r];
        # entry (p, q) of R for part k sums at key (k * size + p) * size + q
        t_rows, coefs = _frame_entries(block, dim)
        by_row = np.stack((coefs[0], coefs[1][t_rows[1]]))
        keys = ((part * size + t_rows[:, None, rows]) * size + t_rows[None, :, cols]).ravel()
        terms = (by_row[:, None, rows].conj() * values * by_row[None, :, cols]).ravel()
        keys, inverse = np.unique(keys[terms != 0], return_inverse=True)
        # R's nonzeros, then T^H p0 and the row times T, each tested in its own group
        summed = np.concatenate((_summed(inverse, terms[terms != 0], keys.size),
                                 (coefs.conj() * pump[t_rows]).sum(0), (coefs * row[t_rows]).sum(0)))
        group = np.concatenate((keys // size**2, np.repeat([3, 4], size)))
        if not _negligible(summed.imag, summed, group):
            raise ValueError("M does not preserve Hermiticity: it is not real in a Hermitian basis")
        summed, (p, q) = summed.real, np.divmod(keys % size**2, size)
        entries, vectors = summed[: keys.size], summed[keys.size:].reshape(2, size)
        n_ground = np.count_nonzero(self.pump[:: dim + 1])  # p0 holds the isotropic ground mixture
        if (theta := _reflection(block, n_ground, dim)) is not None:
            source, sign = theta
            mirror = keys + (source[p] - p) * size + source[q] - q
            at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
            image = np.where(keys[at] == mirror, entries[at], 0.0) * sign[p] * sign[q]
            if not _negligible(summed - np.append(image, sign * vectors[:, source]), summed, group):
                theta = None
        source, sign = theta or (position, np.ones(size))
        # S: a column per orbit of this parity, e_k for a fixed point of sign parity,
        # (e_k + parity sign_k e_source_k) / sqrt 2 for a pair, k the lower of the two
        pair = source != position
        keep = (position <= source) & (pair | (parity * sign > 0))
        owner = np.where(keep, position, source)  # where the column holding position k starts
        weight = np.where(keep, np.where(pair, sqrt(0.5), 1.0), parity * sign[source] * sqrt(0.5))
        weight = np.where(keep[owner], weight, 0.0)  # a position in no column of this parity
        column, count = np.maximum(np.cumsum(keep) - 1, 0)[owner], np.count_nonzero(keep)
        parts = _summed((keys // size**2 * count + column[p]) * count + column[q],
                        weight[p] * entries * weight[q], 3 * count * count)
        base, drive, field = parts.reshape(3, count, count)
        pump, row = (_summed(column, weight * vector, count) for vector in vectors)
        frame = _summed(t_rows * count + column, coefs * weight, size * count).reshape(size, count)
        return RealSector(base, drive, field, pump, row if parity > 0 else np.zeros(count), frame, block)


def affine_liouvillian(spec: TransitionSpec) -> AffineLiouvillian:
    """The affine parts of M: ``base`` from one assembly at (rabi, b) = (0, 0), ``drive`` the
    assembler's -i[H, .] for H the optical coupling at unit Rabi frequency, and ``field``
    -i(z_i - z_j) at index (i, j), for z the Zeeman diagonal of H at unit field.

    ``block`` and ``sector`` are derived here, raising as :meth:`AffineLiouvillian.real_sector` does.
    None of the family depends on rabi or b: the last transition's, its arrays read-only, is returned
    to every later call whose spec differs from it only in those two, which assembles nothing.
    """
    if (key := replace(spec, rabi=0.0, b_field=0.0)) in _MEMO:
        return _MEMO[key]
    _MEMO.clear()  # frees the last family before this one's temporaries, for a lower peak RSS
    ops = _operators(key)
    z = ops.zeeman
    family = AffineLiouvillian(
        _lindblad_entries(ops.h, ops.p_e, ops.jumps, key.gamma),
        _lindblad_entries(ops.optical, np.zeros((spec.dim, spec.dim)), [], 0.0),
        -1j * (z[:, None] - z[None, :]).reshape(-1), key.gamma * vectorize(ops.rest), ops.coupling,
    )
    family.sector  # derives the block, the sector and the absorption row, or raises
    for value in vars(family).values():
        for array in value if isinstance(value, tuple) else [value]:
            array.flags.writeable = False
    _MEMO[key] = family
    return family


def _invariant_block(edges, seeds) -> np.ndarray:
    """Sorted Liouville indices reachable from the seeds' supports over ``edges`` = (rows, cols).

    Index rows[k] is reached from index cols[k].  With the edges a matrix's nonzeros, it
    maps a vector supported on the block to one supported on it, and a state that starts
    on the block never leaves.  A block seeded by Hermitian vectors, such as the pump, is
    closed under (i, j) <-> (j, i), since a Lindblad generator has M(sigma^dag) = M(sigma)^dag.
    """
    rows, cols = edges
    reached = np.logical_or.reduce([seed != 0 for seed in seeds])
    frontier = reached
    while frontier.any():
        step = np.zeros_like(reached)
        step[rows[frontier[cols]]] = True
        frontier = step & ~reached
        reached = reached | frontier
    return np.flatnonzero(reached)


def _frame_entries(block: np.ndarray, dim: int):
    """(rows, coefs), each (2, block size): column k of the Hermitian basis T holds coefs[:, k] at rows[:, k].

    T is unitary, with y[block] = T x for x the real Hermitian coordinates of a state; ``block``
    must be closed under (i, j) <-> (j, i).  sigma_ii maps to itself, and each pair i < j to
    sqrt(2) Re sigma_ij at the position of (i, j) and sqrt(2) Im sigma_ij at that of (j, i), rows[1].
    """
    rows, cols = np.divmod(block, dim)
    partner = np.searchsorted(block, cols * dim + rows)  # position of (j, i)
    upper, lower = rows < cols, rows > cols
    half = sqrt(0.5)
    coefs = (np.where(upper, half, np.where(lower, -1j * half, 1.0)),
             np.where(upper, half, np.where(lower, 1j * half, 0.0)))
    return np.stack((np.arange(block.size), partner)), np.stack(coefs)


def _reflection(block: np.ndarray, n_ground: int, dim: int):
    """(source, sign) with (Theta x)[k] = sign[k] x[source[k]] in the real coordinates of T, or
    None when Theta maps the block outside itself.  On Hermitian sigma, Theta(sigma)_ij =
    s_i s_j sigma_p(j)p(i) for p: m -> -m and s_i = (-1)^(F - m_i), so a coordinate keeps its
    kind (diagonal, Re or Im), and an Im coordinate changes sign where p flips its pair's order.
    """
    flip = np.concatenate((np.arange(n_ground)[::-1], np.arange(n_ground, dim)[::-1]))
    s = 1 - 2 * (np.concatenate((flip[:n_ground], flip[n_ground:] - n_ground)) % 2)  # m ascends
    rows, cols = np.divmod(block, dim)
    u, v = flip[rows], flip[cols]
    image = np.where(rows > cols, np.maximum(u, v) * dim + np.minimum(u, v),
                     np.minimum(u, v) * dim + np.maximum(u, v))
    source = np.minimum(np.searchsorted(block, image), block.size - 1)
    if not (block[source] == image).all():
        return None
    return source, s[rows] * s[cols] * np.where((rows > cols) & (u > v), -1.0, 1.0)


def _negligible(defect: np.ndarray, values: np.ndarray, group: np.ndarray) -> bool:
    """Whether in each of five groups the largest |defect| is within 1e-13 of the largest |values|."""
    worst, largest = np.zeros(5), np.zeros(5)
    np.maximum.at(worst, group, np.abs(defect))
    np.maximum.at(largest, group, np.abs(values))
    return bool((worst <= 1e-13 * largest).all())


def _summed(keys: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """The sums of ``values`` by key in 0..length-1, each in the order given, by one scatter;
    a zero value adds nothing, so its key may lie outside that range."""
    kept = values != 0
    out = np.zeros(length, dtype=values.dtype)
    np.add.at(out, keys[kept], values[kept])
    return out


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
