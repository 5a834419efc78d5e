"""The traced daemon benchmark finds every entry point it wraps.

``perfbench/launcher.py``'s ``install()`` replaces functions and methods
of the package — ``grounding.gri_maps_from_instances`` among them — with
span recorders, looked up by name. Renaming or deleting one makes
``perfbench/run.py --trace 1`` die at start-up. The hooks are installed
in a subprocess so the wrappers never leak into other tests.
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
    sys.path.insert(0, "perfbench")
    import launcher

    launcher.install()

    from repro.core.session import ProvenanceSession
    from repro.datalog.database import Database
    from repro.datalog.parser import parse_database, parse_program
    from repro.datalog.program import DatalogQuery

    program = parse_program("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).")
    database = Database(parse_database("e(a, b). e(b, c)."))
    session = ProvenanceSession(DatalogQuery(program, "tc"), database)
    assert session.why(("a", "c"))
    names = {span[1] for span in launcher.RECORDER.spans}
    # A session's cold GRI build must pass through the wrapped module
    # attribute, or the trace reports no GRI work at all.
    assert "grounding.gri_build" in names, sorted(names)
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
