"""The CDCL search is pinned: counters and member streams are exact.

A change to the solver's hot path (value lookup, watch lists, the VSIDS
heap) may make each step cheaper, but it must not move the search: the
same decisions, conflicts, learned clauses and members, in the same
order. The expected values below were recorded from the plain
per-variable solver; any change that alters the search fails here.

Pigeonhole 8/7 learns more than 1,000 clauses, so it covers restarts and
learned-clause database reduction (``removed > 0``); 7/6 stops short of
the reduction threshold. The Andersen/D1 stream covers the enumerator's
pattern: phase hints, blocking clauses and incremental re-solves. Its
variable numbering follows the iteration order of string sets, so it
runs in a subprocess with a fixed ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.sat.solver import CDCLSolver
from strategies import pigeonhole

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "holes,expected",
    [
        (6, dict(conflicts=893, decisions=1112, propagations=12187,
                 restarts=8, learned=890, removed=0)),
        (7, dict(conflicts=4281, decisions=5383, propagations=59863,
                 restarts=30, learned=4277, removed=3040)),
    ],
    ids=["7-pigeons-6-holes", "8-pigeons-7-holes"],
)
def test_pigeonhole_counters_are_pinned(holes, expected):
    solver = CDCLSolver()
    solver.add_cnf(pigeonhole(holes + 1, holes))
    assert solver.solve() is False
    assert solver.stats.as_dict() == expected


ANDERSEN_SCRIPT = textwrap.dedent(
    """
    import hashlib
    import json

    from repro.core.enumerator import WhyProvenanceEnumerator
    from repro.datalog.engine import evaluate
    from repro.scenarios import get_scenario

    scenario = get_scenario("Andersen")
    query = scenario.query()
    database = scenario.database("D1").restrict(query.program.edb)
    evaluation = evaluate(query.program, database)
    answers = sorted(
        fact.args for fact in evaluation.model.relation(query.answer_predicate)
    )
    totals = {}
    rows = []
    for tup in answers[:20]:
        enumerator = WhyProvenanceEnumerator(query, database, tup, evaluation=evaluation)
        members = [sorted(map(str, member)) for member in enumerator.members(limit=20)]
        digest = hashlib.sha256(json.dumps(members).encode()).hexdigest()[:16]
        rows.append([list(tup), len(members), digest])
        for name, count in enumerator._solver.stats.as_dict().items():
            totals[name] = totals.get(name, 0) + count
    print(json.dumps({"totals": totals, "rows": rows}))
    """
)

#: (answer tuple, members found at limit 20, sha256 prefix of the member
#: list in enumeration order, each member a sorted list of fact texts).
ANDERSEN_D1_ROWS = [
    (("obj0", "obj0"), 20, "12d325bf553e0a95"),
    (("obj0", "obj1"), 20, "12897af3f7d36247"),
    (("obj0", "obj4"), 20, "362aeb2984b4b4d5"),
    (("obj0", "obj5"), 20, "54ad0d9b75d588b1"),
    (("obj1", "obj0"), 20, "f091b75271bc6592"),
    (("obj1", "obj1"), 20, "fb1a9d6ee80444e5"),
    (("obj1", "obj4"), 20, "3735e5b3d15c39fe"),
    (("obj1", "obj5"), 20, "51e74c29b1559b90"),
    (("obj4", "obj0"), 20, "f492eab52691f297"),
    (("obj4", "obj1"), 20, "aae2842d1f252e36"),
    (("obj4", "obj4"), 20, "a4cb1d6258d260d4"),
    (("obj4", "obj5"), 20, "54578623a8124bb9"),
    (("obj5", "obj0"), 20, "93b93aca30c7d05f"),
    (("obj5", "obj1"), 20, "b5e29d99d0afd541"),
    (("obj5", "obj4"), 20, "6cc4f4df1ad0556d"),
    (("obj5", "obj5"), 20, "e54f5f49e34cb899"),
    (("x0", "obj1"), 1, "b7d00c6a0b0230a6"),
    (("x0", "obj5"), 1, "c0ac0097ef4759c1"),
    (("x1", "obj1"), 1, "e3ab8875f44332cb"),
    (("x1", "obj5"), 1, "562ee71ed04b67eb"),
]

ANDERSEN_D1_TOTALS = dict(
    conflicts=2846, decisions=82102, propagations=491438,
    restarts=7, learned=2828, removed=0,
)


def test_andersen_d1_member_streams_are_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    result = subprocess.run(
        [sys.executable, "-c", ANDERSEN_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    rows = [(tuple(tup), count, digest) for tup, count, digest in report["rows"]]
    assert rows == ANDERSEN_D1_ROWS
    assert report["totals"] == ANDERSEN_D1_TOTALS
