"""The daemon starts and serves without loading what serving never uses.

``python -m repro serve`` imports the CLI, builds its parser and
constructs a :class:`~repro.service.server.ProvenanceService` before it
listens. None of that, nor an ``open`` and a ``why``, may load the
baselines, the semirings, the experiment harness, the scenarios or
``multiprocessing``: the package's exports resolve on first access, the
offline commands import their dependencies when they run, and the batch
pool imports ``multiprocessing`` where it forks. Each check runs in a fresh interpreter, since this test process
has long since loaded everything.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_daemon_start_and_serving_load_no_offline_package():
    run_script(
        """
        import sys

        import repro.cli, repro.service.server, repro.service.registry, repro.service.store

        OFFLINE = (
            "repro.baselines",
            "repro.semiring",
            "multiprocessing",
            "repro.harness",
            "repro.scenarios",
        )

        def loaded():
            return [name for name in OFFLINE if name in sys.modules]

        assert not loaded(), loaded()
        repro.cli.build_parser().parse_args(["serve", "--port", "0"])
        service = repro.service.server.ProvenanceService()
        opened = service.handle_request({
            "op": "open",
            "program": "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).",
            "database": "e(a, b). e(b, c).",
            "answer": "tc",
        })
        why = service.handle_request(
            {"op": "why", "session": opened["session"], "tuple": ["a", "c"]}
        )
        assert why["ok"] and why["result"]["members"], why
        service.close()
        assert not loaded(), loaded()
        """
    )


def test_star_import_resolves_every_exported_name():
    run_script(
        """
        import repro

        namespace = {}
        exec("from repro import *", namespace)
        missing = [name for name in repro.__all__ if name not in namespace]
        assert not missing, missing
        assert namespace["__version__"] == repro.__version__
        assert namespace["CDCLSolver"].__module__ == "repro.sat.solver"
        assert set(dir(repro)) >= set(repro.__all__)
        """
    )
