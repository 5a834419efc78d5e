"""Figure 1: building the downward closure and the Boolean formula
(Andersen scenario, five databases, random tuples each).

Paper shape to reproduce: total build time grows with database size,
dominated by the downward-closure construction, with formula construction
negligible.

Closures come from :class:`~repro.core.session.ProvenanceSession`, which
builds the GRI once from the engine's recorded instance trace and serves
every closure by reachability restriction. On top of the paper's figure,
this module ablates the evaluation engine on the same input.
"""

import time

from repro.core.session import ProvenanceSession
from repro.datalog.engine import evaluate
from repro.harness.runner import sample_answer_tuples
from repro.harness.tables import figure_build_times
from repro.core.enumerator import WhyProvenanceEnumerator
from repro.scenarios import get_scenario

from _common import (
    engines_under_test,
    print_banner,
    run_once,
    run_payload,
    scenario_runs,
    write_bench_json,
)


def test_print_figure1(benchmark, capsys):
    runs = run_once(benchmark, lambda: scenario_runs("Andersen"))
    with capsys.disabled():
        print_banner("Figure 1: downward closure + formula build time (Andersen)")
        print(figure_build_times(runs, ""))
        closure = sum(r.closure_seconds for run in runs for r in run.tuple_runs)
        formula = sum(r.formula_seconds for run in runs for r in run.tuple_runs)
        print(f"\ntotals: closure {closure:.2f}s vs formula {formula:.2f}s")
        if closure > formula:
            print("shape check OK: closure construction dominates (paper: 'almost "
                  "all the time is spent for computing the downward closure')")
        else:
            print("shape note: instrumented grounding has inverted the paper's "
                  "shape — closures no longer dominate.")
        path = write_bench_json("figure1_andersen_build", [run_payload(r) for r in runs])
        print(f"machine-readable record: {path}")


def test_compiled_vs_interpreted_evaluation(benchmark, capsys):
    """Engine ablation on the Figure 1 build input: Andersen evaluation.

    Times the instrumented evaluation (``record_instances=True`` — the
    session's cold-admission cost) per engine over every Andersen
    database. With ``REPRO_BENCH_ENGINE=both`` (default) this emits the
    interpreted-vs-compiled pair; a pinned engine measures just one side.
    """
    scenario = get_scenario("Andersen")
    query = scenario.query()
    engines = engines_under_test()

    def measure():
        rows = []
        for name in scenario.database_names():
            database = scenario.database(name).restrict(query.program.edb)
            row = {"database": name, "facts": len(database), "seconds": {}}
            for engine in engines:
                started = time.perf_counter()
                result = evaluate(
                    query.program, database, record_instances=True, engine=engine
                )
                row["seconds"][engine] = time.perf_counter() - started
                row["model_facts"] = len(result.model)
                row["instances"] = len(result.instances)
            if len(row["seconds"]) == 2:
                row["speedup"] = (
                    row["seconds"]["interpreted"] / row["seconds"]["compiled"]
                    if row["seconds"]["compiled"]
                    else 0.0
                )
            rows.append(row)
        return rows

    rows = run_once(benchmark, measure)
    with capsys.disabled():
        print_banner("Evaluation engine ablation (Andersen, record_instances=True)")
        header = f"{'db':>4} {'facts':>7}"
        for engine in engines:
            header += f" {engine + ' (s)':>16}"
        if len(engines) == 2:
            header += f" {'speedup':>8}"
        print(header)
        for row in rows:
            line = f"{row['database']:>4} {row['facts']:>7}"
            for engine in engines:
                line += f" {row['seconds'][engine]:>16.3f}"
            if "speedup" in row:
                line += f" {row['speedup']:>7.2f}x"
            print(line)
        path = write_bench_json(
            "figure1_engine_ablation", {"engines": engines, "rows": rows}
        )
        print(f"machine-readable record: {path}")
    if len(engines) == 2:
        # The compiled engine must not lose overall; the headline >= 2x
        # margin is tracked through the emitted JSON, while the in-test
        # bar stays noise-proof.
        total_compiled = sum(r["seconds"]["compiled"] for r in rows)
        total_interpreted = sum(r["seconds"]["interpreted"] for r in rows)
        assert total_compiled <= total_interpreted, (
            f"compiled evaluation ({total_compiled:.3f}s) slower than "
            f"interpreted ({total_interpreted:.3f}s) on the Andersen build"
        )


def test_build_kernel_session(benchmark):
    """Timed kernel: closure+formula builds through a fresh session.

    Each round forks the session (new caches) so the benchmark times the
    GRI restriction honestly instead of a dictionary lookup; the
    evaluation and its instance trace are shared across rounds, exactly
    the amortization the session exists to provide.
    """
    scenario = get_scenario("Andersen")
    query = scenario.query()
    database = scenario.database("D2").restrict(query.program.edb)
    base = ProvenanceSession(query, database)
    base.evaluation  # force the one-time instrumented evaluation
    tup = sample_answer_tuples(
        query, database, count=1, seed=7, evaluation=base.evaluation
    )[0]

    def build():
        session = base.fork()
        # Share the already-computed evaluation; caches start empty.
        session._evaluation = base.evaluation
        return WhyProvenanceEnumerator(query, database, tup, session=session)

    enumerator = benchmark(build)
    assert enumerator.closure.nodes
