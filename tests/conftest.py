"""Fixtures that every test in this directory uses."""

import pytest

import hanlesim.liouvillian as liouvillian


@pytest.fixture(autouse=True)
def fresh_family_memo():
    """Start each test with no memoized family, so that a test patching a helper that builds it
    (``_operators``, ``_lindblad_entries``, ``_invariant_block``, ``_reflection``, ``_frame_entries``,
    ``real_sector``) sees it built afresh, its ``parts`` and the sweep's ``sectors`` included: those
    are derived on a family's first sweep and kept with it."""
    liouvillian._MEMO.clear()
