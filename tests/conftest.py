"""Suite-wide test isolation."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_the_heap():
    """A started daemon freezes the heap once its checker is built; thaw
    it after each test so one test's objects never outlive it uncollected."""
    yield
    if gc.get_freeze_count():
        gc.unfreeze()
