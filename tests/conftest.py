"""Fixtures shared by the test modules."""

from functools import lru_cache

import pytest

from sgplab import groups


@pytest.fixture
def fresh_builds(monkeypatch):
    """Build and order caches of the test's own: every group is built anew,
    and dropped when the test ends."""
    for name in ("_build_cached", "_closed_order"):
        monkeypatch.setattr(groups, name, lru_cache(maxsize=None)(getattr(groups, name).__wrapped__))
