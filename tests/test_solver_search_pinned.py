"""The CDCL search is pinned: counters and member streams are exact.

A change to the solver's hot path (value lookup, watch lists, the VSIDS
heap) may make each step cheaper, but it must not move the search: the
same decisions, conflicts, learned clauses and members, in the same
order. The pigeonhole values were recorded from the plain per-variable
solver; any change that alters a search from level 0 fails here.

Pigeonhole 8/7 learns more than 1,000 clauses, so it covers restarts and
learned-clause database reduction (``removed > 0``); 7/6 stops short of
the reduction threshold. The Andersen/D1 stream covers the enumerator's
pattern: phase hints, incremental re-solves and the blocking step, where
``CDCLSolver.block_model`` backjumps to the level at which the blocking
clause asserts and the next solve resumes there; its values were
recorded when that backjump replaced a restart from level 0, so a change
to where the solver resumes, to the watches of the blocking clause or to
its tie rule fails here too. They were re-recorded when
``phi_acyclic`` was restricted to the arcs inside a strongly connected
component of the closure, which renumbers the formula's variables. It
runs in subprocesses under two ``PYTHONHASHSEED`` values, and both must
match the same pins: variable numbering and member order may not depend
on the string-hash seed.
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
    (("obj0", "obj0"), 20, "a1b43c3379d628b1"),
    (("obj0", "obj1"), 20, "6769aa14ffe49f00"),
    (("obj0", "obj4"), 20, "c08c4ad5c30679ec"),
    (("obj0", "obj5"), 20, "282dc15807f3814a"),
    (("obj1", "obj0"), 20, "e76296d70cd04e7f"),
    (("obj1", "obj1"), 20, "c7787ce0d8e742d9"),
    (("obj1", "obj4"), 20, "4c4304cf97196315"),
    (("obj1", "obj5"), 20, "8a71056f3054bc3b"),
    (("obj4", "obj0"), 20, "10e75a4d8b1d9c3f"),
    (("obj4", "obj1"), 20, "9b36ba5b19a558b2"),
    (("obj4", "obj4"), 20, "7a2a7d8c4a096f7a"),
    (("obj4", "obj5"), 20, "f54dd47f782043f7"),
    (("obj5", "obj0"), 20, "468fc7b952be7de4"),
    (("obj5", "obj1"), 20, "bdde12e67d89ff64"),
    (("obj5", "obj4"), 20, "54d42d24b2a317ce"),
    (("obj5", "obj5"), 20, "dd6901a0ea88dc4e"),
    (("x0", "obj1"), 1, "b7d00c6a0b0230a6"),
    (("x0", "obj5"), 1, "c0ac0097ef4759c1"),
    (("x1", "obj1"), 1, "e3ab8875f44332cb"),
    (("x1", "obj5"), 1, "562ee71ed04b67eb"),
]

ANDERSEN_D1_TOTALS = dict(
    conflicts=1534, decisions=30216, propagations=171921,
    restarts=5, learned=1519, removed=0,
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
