"""Fixtures shared across test modules."""

import pytest

from binomid.verify import sweep


@pytest.fixture(scope="session")
def serial_sweep():
    """``sweep(3)``: every lemma suite at its full range, built in this
    process once for the whole session.  The acceptance criteria read
    their reports from it, and it is the reference for ``pooled_sweep``."""
    return sweep(3)


@pytest.fixture(scope="session")
def pooled_sweep():
    """``sweep(3, jobs=2)``: every lemma suite at its full range, built in a
    process pool once for the whole session."""
    return sweep(3, jobs=2)
