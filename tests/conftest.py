"""Fixtures shared across test modules."""

import pytest

from binomid.verify import sweep


@pytest.fixture(scope="session")
def pooled_sweep():
    """``sweep(3, jobs=2)``: every lemma suite at its full range, built in a
    process pool once for the whole session."""
    return sweep(3, jobs=2)
