"""Shared infrastructure for the paper-figure benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 5.3 / Appendix D.4-D.5) and prints it in tabular form. Scenario
runs are cached per process so that Figures 1-4 share work.

Scale: the paper samples 5 tuples per database, caps enumeration at 10K
members and 5 minutes. Those budgets target a C++/Glucose stack on
multi-million-fact databases; this pure-Python reproduction defaults to
3 tuples, 60 members and 4 seconds per tuple (override with the
``REPRO_BENCH_TUPLES`` / ``REPRO_BENCH_MEMBERS`` / ``REPRO_BENCH_TIMEOUT``
environment variables to run closer to paper scale).

Experiments run through a :class:`~repro.core.session.ProvenanceSession`
(one instrumented evaluation per database, closures by GRI restriction).
Two additions on top of the figure tables:

* every figure benchmark can dump a machine-readable ``BENCH_<name>.json``
  via :func:`write_bench_json` (directory: ``REPRO_BENCH_JSON_DIR``,
  default ``benchmarks/out``) so future PRs can track build-time trends
  without scraping stdout;
* ``REPRO_BENCH_ENGINE`` selects the evaluation-engine ablation axis:
  ``compiled`` or ``interpreted`` pins every engine-bound measurement to
  one engine, while ``both`` (the default) makes the engine benchmarks
  emit interpreted-vs-compiled pairs in their envelopes — the raw points
  of the perf trajectory. Ordinary figure runs use
  :data:`BENCH_PRIMARY_ENGINE` (compiled, unless pinned).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional, Tuple

from repro import __version__
from repro.harness.runner import DatabaseRun, run_database
from repro.scenarios import get_scenario

BENCH_TUPLES = int(os.environ.get("REPRO_BENCH_TUPLES", "3"))
BENCH_MEMBERS = int(os.environ.get("REPRO_BENCH_MEMBERS", "60"))
BENCH_TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "4.0"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
BENCH_JSON_DIR = os.environ.get(
    "REPRO_BENCH_JSON_DIR", os.path.join(os.path.dirname(__file__), "out")
)
BENCH_ENGINE = os.environ.get("REPRO_BENCH_ENGINE", "both")
if BENCH_ENGINE not in ("compiled", "interpreted", "both"):
    raise ValueError(
        f"REPRO_BENCH_ENGINE={BENCH_ENGINE!r}: expected compiled, interpreted or both"
    )
#: The engine ordinary (non-ablation) measurements run under.
BENCH_PRIMARY_ENGINE = "compiled" if BENCH_ENGINE == "both" else BENCH_ENGINE

_CACHE: Dict[Tuple[str, str, int, str], DatabaseRun] = {}


def engines_under_test() -> List[str]:
    """The engines the ablation benchmarks should measure."""
    if BENCH_ENGINE == "both":
        return ["compiled", "interpreted"]
    return [BENCH_ENGINE]


def git_commit() -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def cached_run(
    scenario_name: str,
    database_name: str,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> DatabaseRun:
    """Run (or reuse) the standard experiment for one scenario database."""
    if workers is None:
        workers = BENCH_WORKERS
    if engine is None:
        engine = BENCH_PRIMARY_ENGINE
    key = (scenario_name, database_name, workers, engine)
    if key not in _CACHE:
        scenario = get_scenario(scenario_name)
        _CACHE[key] = run_database(
            scenario,
            database_name,
            tuples_per_database=BENCH_TUPLES,
            member_limit=BENCH_MEMBERS,
            timeout_seconds=BENCH_TIMEOUT,
            seed=7,
            workers=workers,
            engine=engine,
        )
    return _CACHE[key]


def scenario_runs(
    scenario_name: str,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> List[DatabaseRun]:
    """Run (or reuse) the standard experiment for every scenario database."""
    scenario = get_scenario(scenario_name)
    return [
        cached_run(scenario_name, name, workers=workers, engine=engine)
        for name in scenario.database_names()
    ]


def run_payload(run: DatabaseRun) -> Dict:
    """A JSON-serializable record of one database run."""
    return {
        "scenario": run.scenario,
        "database": run.database,
        "fact_count": run.fact_count,
        "tuples": [
            {
                "tuple": list(map(str, r.tuple_value)),
                "closure_seconds": r.closure_seconds,
                "formula_seconds": r.formula_seconds,
                "build_seconds": r.build_seconds,
                "members": len(r.members),
                "exhausted": r.exhausted,
            }
            for r in run.tuple_runs
        ],
    }


def write_bench_json(name: str, payload: Dict) -> str:
    """Dump *payload* as ``BENCH_<name>.json`` under :data:`BENCH_JSON_DIR`.

    The envelope records the benchmark configuration *and* the machine /
    checkout identity (git commit, Python version, platform, CPU count,
    worker count) so that perf trajectories are comparable across
    machines and never compared blind. Returns the path written.
    """
    os.makedirs(BENCH_JSON_DIR, exist_ok=True)
    path = os.path.join(BENCH_JSON_DIR, f"BENCH_{name}.json")
    envelope = {
        "benchmark": name,
        "repro_version": __version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
        "config": {
            "tuples_per_database": BENCH_TUPLES,
            "member_limit": BENCH_MEMBERS,
            "timeout_seconds": BENCH_TIMEOUT,
            "workers": BENCH_WORKERS,
            "engine": BENCH_ENGINE,
            "primary_engine": BENCH_PRIMARY_ENGINE,
        },
        "data": payload,
    }
    with open(path, "w") as handle:
        json.dump(envelope, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def print_banner(title: str) -> None:
    print()
    print("=" * len(title))
    print(title)
    print("=" * len(title))


def run_once(benchmark, fn):
    """Execute *fn* exactly once under the benchmark timer.

    The figure-printing "benchmarks" regenerate a whole table; a single
    timed round keeps them honest in ``--benchmark-only`` runs without
    re-running multi-second experiments dozens of times.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
