"""Fixtures that every test in this directory uses."""

import pytest

import hanlesim.liouvillian as liouvillian


@pytest.fixture(autouse=True)
def fresh_family_memo():
    """Start each test with no memoized block or sector, so that a test patching a helper that
    builds them (``_invariant_block``, ``_reflection``, ``_frame_entries``, ``real_sector``)
    sees them built afresh."""
    liouvillian._MEMO.clear()
