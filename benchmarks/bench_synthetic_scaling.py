"""Build/delay scaling over the synthetic workload families.

The paper scenarios pin each benchmark to a handful of fixed database
sizes; the synthetic families (:mod:`repro.scenarios.synthetic`) open a
*scale axis*: one family, one seed, a geometric ladder of sizes, and the
standard per-database experiment at each rung. The emitted curve — facts,
evaluation time, per-tuple build times, enumeration delays versus family
size — is the trend the fixed scenarios cannot show.

Knobs (environment):

* ``REPRO_BENCH_SYN_FAMILIES`` — comma list (default
  :data:`repro.scenarios.synthetic.DEFAULT_BENCH_FAMILIES`:
  ``chain,grid,tree,widejoin,dag,deps``);
* ``REPRO_BENCH_SYN_SIZES`` — comma list of sizes (default ``8,16,32,64``);
* ``REPRO_BENCH_SYN_SEED`` — generator seed (default ``0``);
* plus the standard ``REPRO_BENCH_TUPLES`` / ``REPRO_BENCH_MEMBERS`` /
  ``REPRO_BENCH_TIMEOUT`` experiment budgets.

Emits ``BENCH_synthetic_scaling.json`` with the standard envelope.
"""

import os
import time

from repro.core.session import ProvenanceSession
from repro.datalog.engine import evaluate
from repro.scenarios.synthetic import (
    DEFAULT_BENCH_FAMILIES,
    FAMILIES,
    generate_instance,
)

from _common import (
    BENCH_MEMBERS,
    BENCH_PRIMARY_ENGINE,
    BENCH_TIMEOUT,
    BENCH_TUPLES,
    engines_under_test,
    print_banner,
    run_once,
    write_bench_json,
)
from repro.harness.runner import run_database

SYN_FAMILIES = [
    part.strip()
    for part in os.environ.get(
        "REPRO_BENCH_SYN_FAMILIES", ",".join(DEFAULT_BENCH_FAMILIES)
    ).split(",")
    if part.strip()
]
SYN_SIZES = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_SYN_SIZES", "8,16,32,64").split(",")
    if part.strip()
]
SYN_SEED = int(os.environ.get("REPRO_BENCH_SYN_SEED", "0"))


def _run_curves():
    unknown = [f for f in SYN_FAMILIES if f not in FAMILIES]
    if unknown:
        raise SystemExit(f"unknown synthetic families {unknown}; known: {list(FAMILIES)}")
    curves = {}
    for family in SYN_FAMILIES:
        rows = []
        for size in sorted(SYN_SIZES):
            instance = generate_instance(family, size=size, seed=SYN_SEED)
            scenario = instance.scenario()
            # The evaluation cost is measured separately from the
            # experiment, on a private session, so the build/delay
            # numbers below stay comparable with the paper-figure
            # benchmarks (which amortize evaluation the same way).
            session = ProvenanceSession(
                instance.query, instance.database.copy(),
                engine=BENCH_PRIMARY_ENGINE,
            )
            started = time.perf_counter()
            session.evaluation
            evaluation_seconds = time.perf_counter() - started
            # Engine ablation at this rung: the same instrumented
            # evaluation per engine under test (fresh plan caches, so
            # compiled numbers include compilation).
            seconds_by_engine = {}
            for engine in engines_under_test():
                started = time.perf_counter()
                evaluate(
                    instance.query.program, instance.database,
                    record_instances=True, engine=engine,
                )
                seconds_by_engine[engine] = time.perf_counter() - started
            run = run_database(
                scenario,
                "gen",
                tuples_per_database=BENCH_TUPLES,
                member_limit=BENCH_MEMBERS,
                timeout_seconds=BENCH_TIMEOUT,
                seed=7,
            )
            delays = run.pooled_delays()
            rows.append(
                {
                    "size": size,
                    "fact_count": run.fact_count,
                    "model_facts": len(session.model),
                    "answers": len(session.answers()),
                    "evaluation_seconds": evaluation_seconds,
                    "evaluation_seconds_by_engine": seconds_by_engine,
                    "engine_speedup": (
                        seconds_by_engine["interpreted"]
                        / seconds_by_engine["compiled"]
                        if len(seconds_by_engine) == 2
                        and seconds_by_engine["compiled"]
                        else None
                    ),
                    "build_seconds": run.build_times(),
                    "mean_delay": (sum(delays) / len(delays)) if delays else None,
                    "members": sum(len(r.members) for r in run.tuple_runs),
                }
            )
        curves[family] = rows
    return curves


def _print_curves(curves) -> None:
    print_banner("Synthetic workload scaling (build / delay vs family size)")
    header = (
        f"{'family':>9} {'size':>5} {'facts':>6} {'model':>6} {'answers':>7} "
        f"{'eval(s)':>8} {'build(s)':>9} {'delay(ms)':>10} {'eng-spd':>8}"
    )
    print(header)
    for family, rows in curves.items():
        for row in rows:
            builds = row["build_seconds"]
            mean_build = sum(builds) / len(builds) if builds else 0.0
            delay = row["mean_delay"]
            speedup = row.get("engine_speedup")
            print(
                f"{family:>9} {row['size']:>5} {row['fact_count']:>6} "
                f"{row['model_facts']:>6} {row['answers']:>7} "
                f"{row['evaluation_seconds']:>8.3f} {mean_build:>9.3f} "
                f"{(delay * 1000 if delay is not None else float('nan')):>10.2f} "
                f"{(f'{speedup:.2f}x' if speedup is not None else '-'):>8}"
            )


def test_synthetic_scaling(benchmark):
    """Regenerate the scaling curves once under the benchmark timer."""
    curves = run_once(benchmark, _run_curves)
    _print_curves(curves)
    path = write_bench_json(
        "synthetic_scaling",
        {
            "families": curves,
            "sizes": sorted(SYN_SIZES),
            "seed": SYN_SEED,
        },
    )
    print(f"\nwrote {path}")
    for rows in curves.values():
        assert all(row["fact_count"] > 0 for row in rows)


if __name__ == "__main__":
    curves = _run_curves()
    _print_curves(curves)
    print(f"\nwrote {write_bench_json('synthetic_scaling', {'families': curves, 'sizes': sorted(SYN_SIZES), 'seed': SYN_SEED})}")
