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


@pytest.fixture
def evaluated_databases(monkeypatch):
    """The databases evaluated while the test runs, one fact set per evaluation.

    Counts every least-model computation that goes through
    :func:`repro.datalog.engine.evaluate`, whichever module calls it and
    under either engine or method.
    """
    from repro.datalog import engine

    seen = []
    for name in ("evaluate_seminaive_compiled", "_evaluate_seminaive", "_evaluate_naive"):
        real = getattr(engine, name)

        def counting(program, database, *args, _real=real, **kwargs):
            seen.append(frozenset(database))
            return _real(program, database, *args, **kwargs)

        monkeypatch.setattr(engine, name, counting)
    return seen
