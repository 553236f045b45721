"""Angular-momentum algebra for Zeeman-degenerate dipole transitions.

Wigner 3-j coefficients evaluated from the Racah closed-form sum in exact
rational arithmetic, the normalized dipole coupling blocks between two
Zeeman manifolds, diagonal angular-momentum / projector matrices, and the
spherical-basis polarization vectors used to contract the dipole blocks.

Basis convention shared by every matrix in this package: ground manifold
first, excited manifold second, magnetic quantum number ascending inside
each manifold.  For ground angular momentum Fg and excited Fe the full
dimension is (2*Fg+1) + (2*Fe+1).

Spherical basis: unit vectors e_{+1} = -(x + i*y)/sqrt(2), e_0 = z,
e_{-1} = (x - i*y)/sqrt(2) (Condon-Shortley), with the magnetic field
along z.  Polarization vectors are reported as (e_{-1}, e_0, e_{+1})
components in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

__all__ = [
    "AngMom",
    "wigner3j",
    "q_matrix",
    "fz_matrix",
    "projectors",
    "polarization",
]


@dataclass(frozen=True, order=True)
class AngMom:
    """Angular-momentum magnitude, stored as 2F so half-integers stay exact.

    Parameters
    ----------
    twice_f : int
        Twice the angular momentum quantum number (2F >= 0).
    """

    twice_f: int

    def __post_init__(self):
        if isinstance(self.twice_f, bool) or not isinstance(self.twice_f, (int, np.integer)):
            raise TypeError(f"twice_f must be an integer, got {self.twice_f!r}")
        if self.twice_f < 0:
            raise ValueError(f"twice_f must be non-negative, got {self.twice_f}")
        object.__setattr__(self, "twice_f", int(self.twice_f))

    @classmethod
    def coerce(cls, f) -> "AngMom":
        """Build from an AngMom, an integer F, or an exact half-integer float."""
        if isinstance(f, cls):
            return f
        if isinstance(f, bool):
            raise TypeError("angular momentum cannot be a bool")
        if not isinstance(f, (int, float, np.integer, np.floating)):
            raise TypeError(f"cannot interpret {f!r} as an angular momentum")
        if not f >= 0:
            raise ValueError(f"F must be non-negative, got {f:g}")
        return cls(_twice(f, "F"))

    @property
    def f(self) -> float:
        return self.twice_f / 2.0

    @property
    def multiplicity(self) -> int:
        """Number of magnetic sublevels, 2F+1."""
        return self.twice_f + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers -F..F ascending (floats)."""
        return np.arange(self.twice_f + 1) - self.twice_f / 2.0

    def twice_m_values(self) -> range:
        """Twice the magnetic quantum numbers, as exact integers."""
        return range(-self.twice_f, self.twice_f + 1, 2)


def _twice(value, what: str) -> int:
    """Twice a quantum number as an exact integer, rejecting malformed input."""
    doubled = 2.0 * float(value)
    if doubled != round(doubled):
        raise ValueError(f"{what}={value} is not an integer or half-integer")
    return int(round(doubled))


def _fact(twice_int: int) -> int:
    # factorial of a twice-integer that must be even and non-negative
    if twice_int % 2 != 0 or twice_int < 0:
        raise ValueError("internal: factorial argument must be a non-negative integer")
    return factorial(twice_int // 2)


@lru_cache(maxsize=None)
def _wigner3j_twice(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    """3-j symbol on doubled arguments via the Racah sum in exact rationals."""
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not (abs(tj1 - tj2) <= tj3 <= tj1 + tj2):
        return 0.0
    if (tj1 + tj2 + tj3) % 2 != 0:
        return 0.0
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj - tm) % 2 != 0:
            return 0.0
    delta = Fraction(
        _fact(tj1 + tj2 - tj3) * _fact(tj1 - tj2 + tj3) * _fact(-tj1 + tj2 + tj3),
        _fact(tj1 + tj2 + tj3 + 2),
    )
    pref = (
        delta
        * _fact(tj1 + tm1) * _fact(tj1 - tm1)
        * _fact(tj2 + tm2) * _fact(tj2 - tm2)
        * _fact(tj3 + tm3) * _fact(tj3 - tm3)
    )
    kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    kmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            factorial(k)
            * _fact(tj1 + tj2 - tj3 - 2 * k)
            * _fact(tj1 - tm1 - 2 * k)
            * _fact(tj2 + tm2 - 2 * k)
            * _fact(tj3 - tj2 + tm1 + 2 * k)
            * _fact(tj3 - tj1 - tm2 + 2 * k)
        )
        total += Fraction((-1) ** k, den)
    sign = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    # the sum enters squared under the root; restore its sign afterwards
    magnitude = sqrt(float(pref * total * total))
    return sign * (magnitude if total >= 0 else -magnitude)


def wigner3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3-j symbol (j1 j2 j3; m1 m2 m3).

    Arguments may be integers, exact half-integer floats, or AngMom values
    for the j's.  Selection-rule violations (m1+m2+m3 != 0, triangle rule,
    |m| > j, mismatched j/m parity) return 0; arguments that do not denote
    any quantum number at all (e.g. j = 0.3) are rejected.
    """
    tj = tuple(AngMom.coerce(j).twice_f for j in (j1, j2, j3))
    tm = tuple(_twice(m, "m") for m in (m1, m2, m3))
    return _wigner3j_twice(tj[0], tj[1], tj[2], tm[0], tm[1], tm[2])


def q_matrix(fg, fe, q: int) -> np.ndarray:
    """Spherical component q of the normalized lowering (ground<-excited) dipole block.

    Entry (m_g, m_e) is (-1)**(Fe-1+m_g) * wigner3j(Fe, 1, Fg; m_e, q, -m_g),
    nonzero only when m_g = m_e + q, placed in the ground-row/excited-column
    block of the full (Ng+Ne)-dimensional matrix.  The bare-3j normalization
    makes the sum rule (2Fe+1) * sum_q Qdag_q Q_q = P_e hold exactly, which is
    what conservation of total population under spontaneous decay requires.

    Parameters
    ----------
    fg, fe : AngMom or number
        Ground and excited angular momenta with ``|Fg - Fe| <= 1``.
    q : int
        Spherical component, one of -1, 0, +1.
    """
    a_g = AngMom.coerce(fg)
    a_e = AngMom.coerce(fe)
    if q not in (-1, 0, 1):
        raise ValueError(f"q must be -1, 0 or +1, got {q}")
    if abs(a_g.twice_f - a_e.twice_f) > 2:
        raise ValueError(
            f"no dipole coupling between F={a_g.f} and F={a_e.f}: |Fg-Fe| must be <= 1"
        )
    n_g, n_e = a_g.multiplicity, a_e.multiplicity
    out = np.zeros((n_g + n_e, n_g + n_e), dtype=complex)
    for j, tme in enumerate(a_e.twice_m_values()):
        tmg = tme + 2 * q  # the one ground level m_e couples to, if it exists
        if abs(tmg) > a_g.twice_f:
            continue
        # (-1)**(Fe - 1 + m_g); the exponent is always an integer here
        phase = -1.0 if ((a_e.twice_f - 2 + tmg) // 2) % 2 else 1.0
        out[(tmg + a_g.twice_f) // 2, n_g + j] = phase * _wigner3j_twice(
            a_e.twice_f, 2, a_g.twice_f, tme, 2 * q, -tmg
        )
    return out


def fz_matrix(fg, fe) -> np.ndarray:
    """Diagonal matrix of magnetic quantum numbers over the full basis."""
    a_g = AngMom.coerce(fg)
    a_e = AngMom.coerce(fe)
    return np.diag(np.concatenate([a_g.m_values(), a_e.m_values()])).astype(float)


def projectors(fg, fe) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (P_g, P_e) onto the ground and excited manifolds."""
    a_g = AngMom.coerce(fg)
    a_e = AngMom.coerce(fe)
    diag_g = np.concatenate([np.ones(a_g.multiplicity), np.zeros(a_e.multiplicity)])
    p_g = np.diag(diag_g)
    p_e = np.eye(a_g.multiplicity + a_e.multiplicity) - p_g
    return p_g, p_e


_SQ2 = sqrt(2.0)

_POLARIZATIONS = {
    # (e_{-1}, e_0, e_{+1}) spherical components of the named unit vector
    "linear-x": (1.0 / _SQ2, 0.0, -1.0 / _SQ2),
    "linear-y": (1j / _SQ2, 0.0, 1j / _SQ2),
    "sigma+": (0.0, 0.0, 1.0),
    "sigma-": (1.0, 0.0, 0.0),
}


def polarization(kind: str, components=None) -> np.ndarray:
    """Unit polarization vector in spherical components (e_{-1}, e_0, e_{+1}).

    Parameters
    ----------
    kind : str
        One of ``linear-x``, ``linear-y``, ``sigma+``, ``sigma-`` or
        ``general`` (the latter takes explicit ``components``).
    components : sequence of 3 complex, optional
        Spherical components for ``kind="general"``; must have unit norm.
    """
    if kind == "general":
        if components is None:
            raise ValueError("kind='general' requires explicit components")
        vec = np.asarray(components, dtype=complex)
        if vec.shape != (3,):
            raise ValueError(f"polarization components must have length 3, got shape {vec.shape}")
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= 1e-9:  # written so that a NaN norm fails too
            raise ValueError(f"polarization vector must have unit norm, got {float(norm)!r}")
        return vec
    if components is not None:
        raise ValueError("components are only accepted with kind='general'")
    try:
        return np.array(_POLARIZATIONS[kind], dtype=complex)
    except KeyError:
        known = ", ".join(sorted(_POLARIZATIONS) + ["general"])
        raise ValueError(f"unknown polarization {kind!r}; known kinds: {known}") from None
