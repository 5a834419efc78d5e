"""Suite-wide fixtures."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _thawed_heap():
    """Thaw what a test froze, so no later test runs on a frozen heap.

    A ``repro serve`` daemon run in process (``main(["serve", "--stdio"])``)
    freezes the whole host heap after its requests; a frozen object that
    later becomes cyclic garbage is never freed.
    """
    yield
    gc.unfreeze()
