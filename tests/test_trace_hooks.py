"""The traced daemon benchmark finds every entry point it wraps.

``perfbench/launcher.py``'s ``install()`` replaces functions and methods
of the package — ``grounding.gri_maps_from_instances`` and
``incremental.maintain_evaluation`` among them — with span recorders,
looked up by name. Renaming or deleting one makes
``perfbench/run.py --trace 1`` die at start-up; changing what one
returns or takes can break the span's counts instead, as the store
wrappers read ``put_snapshot``'s result and encode ``append_wal``'s
arguments with ``SnapshotStore._encode_wal_record``. The hooks are
installed in a subprocess so the wrappers never leak into other tests.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile
    sys.path.insert(0, "perfbench")
    import launcher

    launcher.install()

    from repro.core.session import ProvenanceSession
    from repro.datalog.database import Database
    from repro.datalog.io import delta_from_lines
    from repro.datalog.parser import parse_database, parse_program
    from repro.datalog.program import DatalogQuery
    from repro.service.registry import SessionRegistry
    from repro.service.store import SnapshotStore

    program = parse_program("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).")
    database = Database(parse_database("e(a, b). e(b, c)."))
    session = ProvenanceSession(DatalogQuery(program, "tc"), database)
    assert session.why(("a", "c"))
    names = {span[1] for span in launcher.RECORDER.spans}
    # A session's cold GRI build must pass through the wrapped module
    # attribute, or the trace reports no GRI work at all.
    assert "grounding.gri_build" in names, sorted(names)
    # A why's SAT calls must pass through the wrapped CDCLSolver.solve,
    # and solve must keep stats.propagations current when it returns, or
    # traced sat.solve_s and sat.propagations read 0. (The database above
    # is solved by root-level propagation while loading, so this one has
    # several members.)
    paths = Database(parse_database("e(a, b). e(b, c). e(a, c). e(c, d). e(b, d)."))
    assert len(ProvenanceSession(DatalogQuery(program, "tc"), paths).why(("a", "d"))) == 3
    solves = [span[6] for span in launcher.RECORDER.spans if span[1] == "sat.solve"]
    assert solves, sorted(names)
    assert sum(extra["propagations"] for extra in solves) > 0, solves
    # Updating an evaluated session must pass through the wrapped
    # maintain_evaluation too, or traced engine.maintain_s reads 0.
    session.update(delta_from_lines(["+e(c, d)."]))
    maintains = [
        span[6] for span in launcher.RECORDER.spans if span[1] == "engine.maintain"
    ]
    assert maintains, sorted(names)
    assert all(
        extra["model"] > 0 and extra["trace"] > 0 for extra in maintains
    ), maintains

    # The store-backed registry as the daemon drives it: admit, commit an
    # update, evict, re-admit from the log.
    tc = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)."
    with tempfile.TemporaryDirectory() as state_dir:
        registry = SessionRegistry(max_sessions=1, store=SnapshotStore(state_dir))
        entry, _ = registry.acquire(tc, "e(a, b). e(b, c).", "tc")
        with entry.lock:
            receipt = entry.session.update(delta_from_lines(["+e(c, d)."]))
            registry.record_update(entry, receipt)
        registry.refresh_cost(entry)
        registry.acquire(tc, "e(x, y).", "tc")  # evicts the first
        revived, _ = registry.acquire(tc, "e(a, b). e(b, c).", "tc")
        assert revived.rehydrated and revived.session.version == 1
    counts = {}
    for span in launcher.RECORDER.spans:
        counts.setdefault(span[1], []).append(span[6])
    for name in ("store.put_snapshot", "store.append_wal"):
        extras = counts.get(name)
        assert extras and all(extra["bytes"] > 0 for extra in extras), (name, extras)
    for name in ("store.rehydrate", "registry.refresh_cost"):
        assert name in counts, sorted(counts)
    """
)


def test_launcher_hooks_install_and_see_the_gri_build():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
