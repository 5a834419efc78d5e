"""Figure 2: incremental computation of the why-provenance (Andersen).

Paper shape to reproduce: once the formula is built, the delay between
consecutive members is orders of magnitude below the build time, with the
median delay far below the maximum (most members arrive almost for free,
a few require real SAT search).
"""

from repro.core.enumerator import WhyProvenanceEnumerator
from repro.core.session import ProvenanceSession
from repro.harness.runner import sample_answer_tuples
from repro.harness.stats import box_stats
from repro.harness.tables import figure_delays
from repro.scenarios import get_scenario

from _common import print_banner, run_once, scenario_runs


def test_print_figure2(benchmark, capsys):
    runs = run_once(benchmark, lambda: scenario_runs("Andersen"))
    with capsys.disabled():
        print_banner("Figure 2: enumeration delays in ms (Andersen)")
        print(figure_delays(runs, ""))
        delays = [d for run in runs for r in run.tuple_runs for d in r.delays]
        builds = [r.build_seconds for run in runs for r in run.tuple_runs]
        if delays and builds:
            median_delay = box_stats(delays).median
            mean_build = sum(builds) / len(builds)
            print(f"\nmedian delay {median_delay * 1000:.3f} ms vs "
                  f"mean build {mean_build * 1000:.1f} ms")
            if median_delay < mean_build:
                print("shape check OK: delays are far below construction time")


def _enumerate_members(enumerator, limit):
    return enumerator.members(limit=limit, timeout_seconds=10)


def test_delay_kernel(benchmark):
    """Timed kernel: enumerate 10 members on Andersen/D2 (fresh solver).

    The rounds share one session whose evaluation, closure and encoding
    are built before the timer.
    """
    scenario = get_scenario("Andersen")
    query = scenario.query()
    database = scenario.database("D2").restrict(query.program.edb)
    session = ProvenanceSession(query, database)
    tup = sample_answer_tuples(
        query, database, count=1, seed=7, evaluation=session.evaluation
    )[0]
    session.encoding(tup)

    def run():
        enumerator = WhyProvenanceEnumerator(query, database, tup, session=session)
        return _enumerate_members(enumerator, 10)

    members = benchmark(run)
    assert members
