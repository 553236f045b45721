"""Seeded inputs of the four workloads: the same seed gives the same pass.

This module imports only numpy and hanlesim.presets, so the set-up probe
(probe.py) that generates inputs loads nothing beyond what ``hanlesim.cli``
itself loads.
"""

from __future__ import annotations

import math

import numpy as np

from hanlesim.presets import INTENSITIES

#: the ten transient presets in paper order; fig6e stays in, failing or not
TRANSIENT_PRESETS = ("fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
                     "fig6a", "fig6b", "fig6c", "fig6d", "fig6e")
#: scaling ladder, Liouville sizes 144 / 196 / 256
LADDER = ((2, 3), (3, 3), (3, 4))
#: seeded intensities and fields stay inside the ranges the presets use
INTENSITY_RANGE = (min(INTENSITIES), max(INTENSITIES))
FIELD_RANGE = (0.01, 0.03)
#: transients per ladder size in a pass.  A transient's cost grows by about
#: 15% from the lowest to the highest intensity, so each size draws one
#: intensity from each of this many equal slices of the log range (and one
#: field from each slice of FIELD_RANGE, paired at random): every pass then
#: spans the range and its cost hardly depends on the seed.
LADDER_DRAWS = 4


def _log_uniform(rng, low, high):
    return float(math.exp(rng.uniform(math.log(low), math.log(high))))


def _stratified(rng, low, high, n):
    """One uniform draw from each of ``n`` equal slices of [low, high], in a random order."""
    edges = np.linspace(low, high, n + 1)
    return rng.permutation(rng.uniform(edges[:-1], edges[1:]))


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The pass of a workload: a fixed list of op descriptions drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "presets":
        return [{"preset": name} for name in TRANSIENT_PRESETS]
    if workload == "ladder":
        ops = []
        for fg, fe in LADDER:
            log_i = _stratified(rng, *np.log(INTENSITY_RANGE), LADDER_DRAWS)
            fields = _stratified(rng, *FIELD_RANGE, LADDER_DRAWS)
            ops += [{"fg": fg, "fe": fe, "intensity": float(np.exp(x)), "b1": float(b)}
                    for x, b in zip(log_i, fields)]
        return ops
    if workload == "spectra":
        return [{"kind": "spectrum", "preset": "fig7a"},
                {"kind": "spectrum", "preset": "fig7b"},
                {"kind": "steady", "fg": 1, "fe": 0,
                 "intensity": _log_uniform(rng, *INTENSITY_RANGE)},
                {"kind": "steady", "fg": 1, "fe": 2,
                 "intensity": _log_uniform(rng, *INTENSITY_RANGE)}]
    if workload == "oracle":
        return [{"intensity": _log_uniform(rng, *INTENSITY_RANGE)}]
    raise ValueError(f"unknown workload {workload!r}")
