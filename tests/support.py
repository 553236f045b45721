"""Shared helpers for the test suite."""

import inspect
import os
from pathlib import Path

import numpy as np

import hanlesim.liouvillian as liouvillian
from hanlesim import TransitionSpec, build_liouvillian, propagate_integrated, steady_state
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
    """A list that grows by one entry each time any Liouvillian is assembled."""
    calls = []
    lindblad = liouvillian._lindblad
    monkeypatch.setattr(liouvillian, "_lindblad", lambda *args: calls.append(1) or lindblad(*args))
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
