"""The CDCL search is pinned: counters and member streams are exact.

A change to the solver's hot path (value lookup, watch lists, the VSIDS
heap) may make each step cheaper, but it must not move the search: the
same decisions, conflicts, learned clauses and members, in the same
order. The expected values below were recorded from the plain
per-variable solver; any change that alters the search fails here.

Pigeonhole 8/7 learns more than 1,000 clauses, so it covers restarts and
learned-clause database reduction (``removed > 0``); 7/6 stops short of
the reduction threshold. The Andersen/D1 stream covers the enumerator's
pattern: phase hints, blocking clauses and incremental re-solves. It runs
in subprocesses under two ``PYTHONHASHSEED`` values, and both must match
the same pins: variable numbering and member order may not depend on the
string-hash seed.
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
    from repro.core.session import ProvenanceSession
    from repro.scenarios import get_scenario

    scenario = get_scenario("Andersen")
    query = scenario.query()
    database = scenario.database("D1").restrict(query.program.edb)
    session = ProvenanceSession(query, database)
    totals = {}
    rows = []
    for tup in session.answers()[:20]:
        enumerator = WhyProvenanceEnumerator(query, database, tup, session=session)
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
    (("obj0", "obj0"), 20, "d1df165626af1ec4"),
    (("obj0", "obj1"), 20, "deaf2ce27ba8a67c"),
    (("obj0", "obj4"), 20, "8f832acc8ba7dd54"),
    (("obj0", "obj5"), 20, "fef3109a09c0c3e6"),
    (("obj1", "obj0"), 20, "b8136751cebd464e"),
    (("obj1", "obj1"), 20, "6ba347bb0f148c3b"),
    (("obj1", "obj4"), 20, "28fa9f34b8ca1027"),
    (("obj1", "obj5"), 20, "110e86d8dc530a89"),
    (("obj4", "obj0"), 20, "b5e9ac5a8871648a"),
    (("obj4", "obj1"), 20, "2f34d72cbc01a476"),
    (("obj4", "obj4"), 20, "9f9eeeaf0527cdf1"),
    (("obj4", "obj5"), 20, "cb6de2a0b2d7c138"),
    (("obj5", "obj0"), 20, "c973e9d5acf8c265"),
    (("obj5", "obj1"), 20, "002291cf1656670a"),
    (("obj5", "obj4"), 20, "cce27efbd51ec706"),
    (("obj5", "obj5"), 20, "e25c9d0c0b6e5f47"),
    (("x0", "obj1"), 1, "b7d00c6a0b0230a6"),
    (("x0", "obj5"), 1, "c0ac0097ef4759c1"),
    (("x1", "obj1"), 1, "e3ab8875f44332cb"),
    (("x1", "obj5"), 1, "562ee71ed04b67eb"),
]

ANDERSEN_D1_TOTALS = dict(
    conflicts=2841, decisions=81871, propagations=495700,
    restarts=4, learned=2821, removed=0,
)


def test_andersen_d1_member_streams_are_pinned():
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
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
        assert rows == ANDERSEN_D1_ROWS, hash_seed
        assert report["totals"] == ANDERSEN_D1_TOTALS, hash_seed
