"""Shared helpers for the test suite."""

import inspect
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import hanlesim.liouvillian as liouvillian
from hanlesim import TransitionSpec, build_liouvillian, hamiltonian, propagate_integrated, steady_state
from hanlesim.angular import projectors, q_matrix
from hanlesim.liouvillian import vectorize

#: the five standard pump intensities (squared Rabi frequencies), weakest first
PRESET_INTENSITIES = (0.002, 0.006, 0.02, 0.06, 2.0)
GAMMA = 0.002
B1 = 0.03


def subprocess_env() -> dict:
    """``os.environ`` with the package's ``src`` first on ``PYTHONPATH``, for a child interpreter.

    pytest puts ``src`` on its own import path only, so a child started as
    ``python -m hanlesim`` from an uninstalled checkout needs it passed on.
    """
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    return os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, paths))}


def eit_spec(intensity=0.02, **kwargs) -> TransitionSpec:
    """Dark-resonance transition Fg=1 -> Fe=0 at the standard gamma."""
    base = dict(fg=1, fe=0, rabi=0.0, gamma=GAMMA)
    base.update(kwargs)
    return TransitionSpec(**base).with_intensity(intensity)


def eia_spec(intensity=0.02, **kwargs) -> TransitionSpec:
    """Enhanced-absorption transition Fg=1 -> Fe=2 at the standard gamma."""
    base = dict(fg=1, fe=2, rabi=0.0, gamma=GAMMA)
    base.update(kwargs)
    return TransitionSpec(**base).with_intensity(intensity)


def steady_vector(spec: TransitionSpec, b_field: float) -> np.ndarray:
    """Vectorized steady state of the spec at the given static field."""
    return vectorize(steady_state(build_liouvillian(spec.with_field(b_field))))


def rk4_phases(spec: TransitionSpec, schedule) -> tuple[np.ndarray, np.ndarray]:
    """(w, states) of every switched period by RK4 at dt = 0.05, phase by phase.

    Starts from the steady state at ``spec``'s field and keeps every other
    RK4 point, so each phase must be sampled 0.1 apart; each phase's last
    RK4 state hands off to the next.  Uses no exponential and no spectrum.
    """
    y = vectorize(steady_state(build_liouvillian(spec)))
    w_ref, states_ref = [], []
    for b_val, duration, _ in schedule.phases() * schedule.n_periods:
        liouv = build_liouvillian(spec.with_field(b_val))
        run, run_states = propagate_integrated(liouv, y, dt=0.05, t_end=duration, keep_states=True)
        w_ref.append(run.w[:-1:2])
        states_ref.append(run_states[:-1:2])
        y = run_states[-1]
    return np.concatenate(w_ref), np.concatenate(states_ref)


# The dense route that the family's nonzeros replaced, kept as the reference: reachability over a
# dense pattern, the Hermitian basis as a matrix, and the sector parts by gathers from dense parts.


def kron_generator(h, p_e, jumps, gamma):
    """M in the Kronecker form vec(A X B) = (A kron B^T) vec(X), term by term."""
    eye = np.eye(h.shape[0])
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    m -= 0.5 * (np.kron(p_e, eye) + np.kron(eye, p_e.T))
    for weight, jump in jumps:
        m += weight * np.kron(jump, jump.conj())
    m -= gamma * np.eye(m.shape[0])
    return m


def dense_family(spec: TransitionSpec) -> SimpleNamespace:
    """The dense parts of ``spec``'s affine family in the Kronecker form, from the Hamiltonians
    at (rabi, b) = (0, 0), at unit Rabi frequency and at unit field: no nonzeros involved."""
    key = replace(spec, rabi=0.0, b_field=0.0)
    _, p_e = projectors(spec.fg, spec.fe)
    jumps = [(spec.fe.multiplicity, q_matrix(spec.fg, spec.fe, q)) for q in (-1, 0, 1)]
    none = np.zeros((spec.dim, spec.dim))
    z = np.diagonal(hamiltonian(replace(key, b_field=1.0, detuning=0.0))).real
    liouv = build_liouvillian(key)
    return SimpleNamespace(
        base=kron_generator(hamiltonian(key), p_e, jumps, spec.gamma),
        drive=kron_generator(hamiltonian(replace(key, rabi=1.0, detuning=0.0)), none, [], 0.0),
        field=-1j * (z[:, None] - z[None, :]).reshape(-1), pump=liouv.pump, coupling=liouv.coupling,
        absorption_row=liouv.absorption_row)


def dense_block(matrices, seeds) -> np.ndarray:
    """Sorted Liouville indices reachable from the seeds' supports: j from i where some matrix
    has a nonzero entry (j, i)."""
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


def real_frame(block: np.ndarray, dim: int) -> np.ndarray:
    """The unitary T with y[block] = T x, for x the real Hermitian coordinates of a state."""
    rows, coefs = liouvillian._frame_entries(block, dim)
    frame = np.zeros((block.size, block.size), dtype=complex)
    np.add.at(frame, (rows, np.arange(block.size)), coefs)
    return frame


def congruence(a: np.ndarray, rows: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """C^H a C, for the C whose column k holds coefs[:, k] at rows rows[:, k]: four gathers."""
    a = (a[:, rows] * coefs).sum(axis=1)
    return (coefs.conj()[:, :, None] * a[rows]).sum(axis=0)


def dense_parts(affine) -> tuple:
    """The dense base and drive of a family, each scattered from its entries in their order."""
    parts = []
    for rows, cols, values in (affine.base_entries, affine.drive_entries):
        part = np.zeros((affine.pump.size, affine.pump.size), dtype=complex)
        np.add.at(part, (rows, cols), values)
        parts.append(part)
    return tuple(parts)


def dense_real_sector(affine, block: np.ndarray, parity: int) -> liouvillian.RealSector:
    """``affine.real_sector(block, parity)`` from the dense parts of ``dense_family``: the parts in
    the Hermitian basis by gathers, tested for Theta there (by ``liouvillian._reflection``), then
    combined by gathers."""
    dim = affine.coupling.shape[0]
    rows, coefs = liouvillian._frame_entries(block, dim)
    basis = real_frame(block, dim)
    parts = [congruence(part[block][:, block], rows, coefs) for part in (affine.base, affine.drive)]
    parts.append((coefs.conj()[:, :, None] * (affine.field[block, None] * basis)[rows]).sum(axis=0))
    parts.append((coefs.conj() * affine.pump[block][rows]).sum(axis=0))
    parts.append((coefs * affine.absorption_row[block][rows]).sum(axis=0))
    assert all(np.isfinite(part).all() for part in parts)
    scale = max(np.abs(part.real).max() for part in parts)
    assert max(np.abs(part.imag).max() for part in parts) <= 1e-13 * scale
    parts = [part.real for part in parts]
    theta = liouvillian._reflection(block, np.count_nonzero(affine.pump[:: dim + 1]), dim)
    if theta is not None:
        source, sign = theta
        images = [sign[:, None] * part[source][:, source] * sign for part in parts[:3]]
        if any(np.abs(image - part).max() > 1e-13 * np.abs(part).max()
               for image, part in zip(images + [sign * part[source] for part in parts[3:]], parts)):
            theta = None
    position = np.arange(block.size)
    source, sign = theta or (position, np.ones(block.size))
    pair = source != position
    keep = (position <= source) & (pair | (parity * sign > 0))
    rows = np.stack((position, source))[:, keep]
    coefs = np.stack((np.where(pair, np.sqrt(0.5), 1.0),
                      np.where(pair, parity * sign * np.sqrt(0.5), 0.0)))[:, keep]
    frame = (basis[:, rows] * coefs).sum(axis=1)
    base, drive, field = (congruence(part, rows, coefs) for part in parts[:3])
    pump = (coefs * parts[3][rows]).sum(axis=0)
    weights = (affine.absorption_row[block] @ frame).real if parity > 0 else np.zeros(frame.shape[1])
    return liouvillian.RealSector(base, drive, field, pump, weights, frame, block)


def entries_of(matrix: np.ndarray) -> liouvillian.Entries:
    """The nonzeros of a dense matrix, row by row."""
    rows, cols = np.nonzero(matrix)
    return liouvillian.Entries(rows, cols, matrix[rows, cols])


def nearest_match_distance(values_a, values_b) -> float:
    """Greatest distance when greedily pairing two complex multisets.

    Conjugate eigenvalue pairs make lexicographic sorting unstable when real
    parts tie only to machine precision, so multiset comparisons pair each
    element with its nearest unused partner instead.
    """
    remaining = list(values_b)
    worst = 0.0
    for value in values_a:
        index = int(np.argmin([abs(value - other) for other in remaining]))
        worst = max(worst, abs(value - remaining[index]))
        remaining.pop(index)
    return worst


def count_assemblies(monkeypatch) -> list:
    """A list that grows by one entry each time the nonzeros of any Liouvillian are assembled."""
    calls = []
    assemble = liouvillian._lindblad_entries
    monkeypatch.setattr(liouvillian, "_lindblad_entries", lambda *args: calls.append(1) or assemble(*args))
    return calls


def record_shapes(monkeypatch, name) -> list:
    """A list that grows by the shape of the first argument of each np.linalg.<name> call.

    Calls from inside numpy.linalg (the SVD in ``cond``) are recorded too.
    """
    shapes = []
    kernel = getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return kernel(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    monkeypatch.setitem(inspect.unwrap(np.linalg.cond).__globals__, name, recorded)
    return shapes
