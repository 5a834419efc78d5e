"""Seeded request lists for the daemon benchmark, with expected outputs.

Two kinds of files live under this directory:

* ``data/*.json`` - seed-independent inputs, committed: the program and
  database texts each workload sends to the daemon, the Andersen/D4
  candidate tuples with their solver-independent facts, and the tenant
  roster. ``python3 perfbench/workloads.py --build-data`` rebuilds them
  from the library (a few minutes; the candidate table enumerates every
  candidate once).
* ``requests/<workload>-s<seed>.json`` - one request list per seed, with
  the value every response must carry. Committed for a band of seeds, so
  the parent and a change replay the same bytes; any other seed's list is
  generated on first use and kept under ``.cache/requests/``.

Nothing a request carries comes from a SAT call: ``decide`` subsets are
canonical members built by walking minimal-rank derivations through the
graph of rule instances, so a solver change cannot change the requests.
Expected values (member counts, verdicts, update counts, LRU flags) are
properties of the instance, not of the solver that computes them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, "data")
REQUESTS_DIR = os.path.join(HERE, "requests")
CACHE_DIR = os.path.join(HERE, ".cache")

#: Member limit of every explain ``why``.
WHY_LIMIT = 20
#: Closures below this many hyperedges are a single copy step away from
#: an ``addressof`` fact; they answer in about a millisecond and would put
#: a second latency cluster under the ``why`` median.
MIN_CLOSURE_EDGES = 50
#: Daemon flags shared by every workload: at most this many live sessions.
MAX_SESSIONS = 4

#: A run replays its request list once per timed pass, each pass on a
#: fresh daemon, so the passes repeat identical work.
PASSES = 3
#: The run length the lists are sized for: each pass takes about a
#: third of it on the host the benchmark was built on. A run with
#: ``--seconds s`` replays the first ``ceil(n * s / DESIGN_SECONDS)``
#: visits (or update rounds) in each pass.
DESIGN_SECONDS = 30
EXPLAIN_VISITS = 10
UPDATE_ROUNDS = 4
UPDATE_PROBES = 3
#: Fresh reads after each update: one on every probe, so the read median
#: rests on the same probes whatever the seed.
UPDATE_READS = UPDATE_PROBES
#: Starting points of the seeded window over the fixed upgrade stream,
#: from 1. Windows stay within its first 16 deltas, which cost about the
#: same; later ones grow the trace and cost up to twice as much, and
#: delta 0 costs a third of the others: the two windows of ten that
#: started there ran 13% faster than the rest.
UPDATE_WINDOWS = 12
#: Deltas in the committed upgrade stream (``data/update.json``).
UPDATE_STREAM = 30
TENANT_VISITS = 80
#: Zipf exponent of tenant popularity (rank ``r`` has weight ``r**-s``).
TENANT_ZIPF = 1.0

UPDATE_INSTANCE = ("deps", 128, 0)

#: Tenants as ``(family, size)``, most popular first: cold admissions
#: from a few milliseconds to about 0.3 s, snapshots from 7 KiB to 0.7 MiB.
TENANT_ROSTER: Tuple[Tuple[str, int], ...] = (
    ("deps", 64),
    ("chain", 96),
    ("grid", 64),
    ("mixed", 48),
    ("tree", 128),
    ("deps", 96),
    ("chain", 48),
    ("widejoin", 32),
    ("dag", 64),
    ("grid", 96),
    ("mixed", 64),
    ("chain", 128),
)
TENANT_INSTANCE_SEED = 0


def design_count(total: int, seconds: float) -> int:
    """How many of *total* designed visits a ``seconds``-long run replays."""
    scaled = -(-total * seconds // DESIGN_SECONDS)  # ceiling division
    return max(1, min(total, int(scaled)))


# -- seed-independent data ----------------------------------------------------


def _canonical_member(session, tup) -> List[str]:
    """A member of ``whyUN(t)`` found without SAT, as sorted fact texts.

    Every intensional fact picks its first hyperedge (canonical GRI order)
    whose body facts all have a smaller minimal proof depth, so the chosen
    derivations form an acyclic compressed DAG; its database leaves are
    the support of an unambiguous proof tree.
    """
    gri, ranks, database = session.gri(), session.ranks, session.database
    support, seen, stack = set(), set(), [session.answer_fact(tup)]
    while stack:
        fact = stack.pop()
        if fact in seen:
            continue
        seen.add(fact)
        if fact in database:
            support.add(fact)
            continue
        rank = ranks[fact]
        edge = next(e for e in gri[fact] if all(ranks[b] < rank for b in e.targets))
        stack.extend(edge.targets)
    return sorted(f"{fact}." for fact in support)


def build_explain_data() -> Dict:
    from repro.core.session import ProvenanceSession
    from repro.datalog.io import database_to_text, program_to_text
    from repro.datalog.parser import parse_database
    from repro.scenarios import get_scenario

    scenario = get_scenario("Andersen")
    query, database = scenario.query(), scenario.database("D4")
    session = ProvenanceSession(query, database, sat_mode="fresh")
    candidates = []
    for tup in session.answers():
        closure = session.closure_or_none(session.answer_fact(tup))
        if closure.edge_count() < MIN_CLOSURE_EDGES:
            continue
        member = _canonical_member(session, tup)
        if not session.decide(tup, parse_database(" ".join(member)), "unambiguous"):
            raise AssertionError(f"canonical member of {tup} is not in whyUN")
        found = session.why(tup, limit=WHY_LIMIT + 1)
        candidates.append(
            {
                "tuple": list(tup),
                "edges": closure.edge_count(),
                # |whyUN(t)| capped one past the limit: enough to know
                # min(limit, |whyUN(t)|) and whether the limit binds.
                "members_capped": len(found),
                "member": member,
            }
        )
        print(f"explain candidate {tup}: {len(found)} members", file=sys.stderr)
    return {
        "scenario": "Andersen/D4",
        "program": program_to_text(query.program),
        "database": database_to_text(database),
        "answer": query.answer_predicate,
        "model_facts": len(session.model),
        "trace_instances": len(session.evaluation.instances),
        "candidates": candidates,
    }


def build_update_data() -> Dict:
    """The base instance, one fixed upgrade stream over it, and its probes.

    The stream is the ``deps`` family's own upgrade generator. Probes are
    answers at every state the stream passes through, so a fresh read of
    any probe after any round returns exactly one member.
    """
    from repro.core.session import ProvenanceSession
    from repro.datalog.io import delta_to_lines
    from repro.scenarios.synthetic import DELTA_GENERATORS, generate_instance

    family, size, seed = UPDATE_INSTANCE
    instance = generate_instance(family, size, seed)
    program = instance.query.program
    edb = sorted(program.edb)
    deltas = DELTA_GENERATORS[family](
        family, size, seed, instance.database, edb,
        {pred: program.arity(pred) for pred in edb},
        UPDATE_STREAM,
    )
    session = ProvenanceSession(instance.query, instance.database.copy())
    initial = session.answers()
    stable = set(initial)
    for delta in deltas:
        session.update(delta)
        stable &= set(session.answers())
    candidates = list(initial)
    random.Random("update-probes").shuffle(candidates)
    probes = [tup for tup in candidates if tup in stable][:UPDATE_PROBES]
    return {
        "scenario": instance.name,
        "program": instance.program_text(),
        "database": instance.database_text(),
        "answer": instance.query.answer_predicate,
        "deltas": [delta_to_lines(delta) for delta in deltas],
        "probes": [list(tup) for tup in probes],
    }


def build_tenant_data() -> Dict:
    from repro.core.session import ProvenanceSession
    from repro.scenarios.synthetic import generate_instance

    tenants = []
    for index, (family, size) in enumerate(TENANT_ROSTER):
        instance = generate_instance(family, size, TENANT_INSTANCE_SEED)
        session = ProvenanceSession(instance.query, instance.database.copy())
        answers = session.answers()
        (tup,) = random.Random(f"tenant-{index}").sample(answers, 1)
        tenants.append(
            {
                "name": instance.name,
                "program": instance.program_text(),
                "database": instance.database_text(),
                "answer": instance.query.answer_predicate,
                "tuple": list(tup),
                "snapshot_bytes": len(session.snapshot_bytes()),
                "trace_instances": len(session.evaluation.instances),
            }
        )
    return {"max_sessions": MAX_SESSIONS, "tenants": tenants}


DATA_BUILDERS = {
    "explain": build_explain_data,
    "update": build_update_data,
    "tenants": build_tenant_data,
}


def load_data(workload: str) -> Dict:
    with open(os.path.join(DATA_DIR, f"{workload}.json")) as handle:
        return json.load(handle)


# -- per-seed request lists ---------------------------------------------------


def explain_requests(seed: int) -> Dict:
    """Visits over a fixed systematic sample of the D4 candidates.

    Candidates are ordered by (capped member count, closure size) and
    every ``len/EXPLAIN_VISITS``-th is taken, so the sample keeps the
    candidates' mix of cheap and hard tuples. The seed picks the fact each
    second ``decide`` drops. The tuples and their order stay fixed: the
    SAT pool shares learned clauses across tuples, so on this host the
    visit order alone moved peak RSS between 102 and 145 MB and
    throughput by more than the run-to-run noise.
    """
    from repro.core.session import ProvenanceSession
    from repro.datalog.parser import parse_database, parse_program
    from repro.datalog.program import DatalogQuery
    from repro.datalog.database import Database

    data = load_data("explain")
    ordered = sorted(
        data["candidates"],
        key=lambda c: (c["members_capped"], c["edges"], json.dumps(c["tuple"])),
    )
    step = len(ordered) / EXPLAIN_VISITS
    offset = step / 2
    picked = [ordered[int(offset + i * step)] for i in range(EXPLAIN_VISITS)]
    random.Random("explain-order").shuffle(picked)
    rng = random.Random(f"explain-{seed}")
    query = DatalogQuery(parse_program(data["program"]), data["answer"])
    session = ProvenanceSession(
        query, Database(parse_database(data["database"])), sat_mode="fresh"
    )
    visits = []
    for candidate in picked:
        tup = tuple(candidate["tuple"])
        member = candidate["member"]
        dropped = rng.randrange(len(member))
        minus = member[:dropped] + member[dropped + 1 :]
        verdict = session.decide(tup, parse_database(" ".join(minus)), "unambiguous")
        visits.append(
            {
                "tuple": candidate["tuple"],
                "why_members": min(WHY_LIMIT, candidate["members_capped"]),
                "member": member,
                "minus": minus,
                "minus_verdict": verdict,
            }
        )
    return {"visits": visits}


def update_requests(seed: int) -> Dict:
    """A window of the fixed upgrade stream, starting where the seed says.

    The first ``start`` deltas are applied to the database text the
    ``open`` sends; the next ``UPDATE_ROUNDS`` are the timed updates, each
    followed by ``UPDATE_READS`` fresh reads. One
    stream for every seed keeps the maintenance work comparable: upgrades
    of root packages cost more, and a stream drawn per seed held between
    zero and eight of them. Expected counts follow from set operations on
    fact texts, with versions counted from the ``open``.
    """
    data = load_data("update")
    start = random.Random(f"update-{seed}").randrange(1, UPDATE_WINDOWS + 1)
    facts = set(data["database"].split("\n"))
    rounds = []
    for index, lines in enumerate(data["deltas"][: start + UPDATE_ROUNDS]):
        if index == start:
            database = "\n".join(sorted(facts))
        inserted = {line[1:] for line in lines if line[0] == "+"} - facts
        deleted = {line[1:] for line in lines if line[0] == "-"} & facts
        facts = (facts | inserted) - deleted
        if index >= start:
            rounds.append(
                {
                    "lines": lines,
                    "inserted": len(inserted),
                    "deleted": len(deleted),
                    "version": index - start + 1,
                    "probes": list(range(UPDATE_READS)),
                }
            )
    return {"start": start, "database": database, "rounds": rounds}


def tenant_cycle() -> List[int]:
    """The base visit cycle: the tenant of each visit.

    Tenant ``r`` (0-based popularity rank) has Zipf weight
    ``(r + 1) ** -TENANT_ZIPF``. Drawn once with a constant seed: each
    seed replays the same cycle from its own starting point, so every
    seed visits each tenant equally often and the LRU misses the same
    tenants about as often. Costs per tenant differ by
    two orders of magnitude, so a freshly drawn sequence per seed moved
    throughput and the tail latency by 15-40% between seeds.
    """
    rng = random.Random("tenants-base")
    count = len(TENANT_ROSTER)
    weights = [1.0 / (rank + 1) ** TENANT_ZIPF for rank in range(count)]
    return rng.choices(range(count), weights=weights, k=TENANT_VISITS)


def simulate_lru(order: Sequence[int], capacity: int, live: List[int], stored: set):
    """Predict ``open`` flags for *order* against an LRU of *capacity*.

    *live* (least recent first) and *stored* (tenants with a snapshot on
    disk) are updated in place. Returns ``(admitted, rehydrated)`` per
    visit, the flags the daemon must report.
    """
    rehydrated_live: Dict[int, bool] = {}
    flags = []
    for tenant in order:
        if tenant in live:
            live.remove(tenant)
            live.append(tenant)
            flags.append((False, rehydrated_live.get(tenant, False)))
            continue
        came_back = tenant in stored
        live.append(tenant)
        stored.add(tenant)
        rehydrated_live[tenant] = came_back
        if len(live) > capacity:
            rehydrated_live.pop(live.pop(0), None)
        flags.append((True, came_back))
    return flags


def tenant_requests(seed: int) -> Dict:
    """Set-up admits every tenant once; the visits replay the Zipf cycle.

    The seed picks where in the base cycle the visits start. The set-up
    admits the tenants in an order that leaves the registry as it would
    be at that point of the cycle played over and over: the tenants live
    there are admitted last, least recent first. So the visits of every
    seed hit and miss the same tenants equally often - the LRU pattern of
    the endless cycle, rotated - and only their order differs. Starting
    every seed from the roster order instead moved the median latency of
    a hit by a third between seeds.
    """
    data = load_data("tenants")
    count = len(data["tenants"])
    cycle = tenant_cycle()
    start = random.Random(f"tenants-{seed}").randrange(len(cycle))
    order = cycle[start:] + cycle[:start]
    steady: List[int] = []
    simulate_lru(order, MAX_SESSIONS, steady, set())
    setup_order = [tenant for tenant in range(count) if tenant not in steady] + steady
    live: List[int] = []
    stored: set = set()
    setup_flags = simulate_lru(setup_order, MAX_SESSIONS, live, stored)
    flags = simulate_lru(order, MAX_SESSIONS, live, stored)
    visits = []
    for tenant, (admitted, rehydrated) in zip(order, flags):
        visits.append(
            {
                "tenant": tenant,
                "tuple": data["tenants"][tenant]["tuple"],
                "admitted": admitted,
                "rehydrated": rehydrated,
            }
        )
    return {
        "setup": [
            {"tenant": tenant, "admitted": a, "rehydrated": r}
            for tenant, (a, r) in zip(setup_order, setup_flags)
        ],
        "visits": visits,
    }


REQUEST_BUILDERS = {
    "explain": explain_requests,
    "update": update_requests,
    "tenants": tenant_requests,
}
WORKLOADS = tuple(REQUEST_BUILDERS)


def requests_path(workload: str, seed: int, directory: str = REQUESTS_DIR) -> str:
    return os.path.join(directory, f"{workload}-s{seed}.json")


def load_requests(workload: str, seed: int) -> Dict:
    """The stored request list for *seed*, generated and kept on first use."""
    path = requests_path(workload, seed)
    if not os.path.exists(path):
        path = requests_path(workload, seed, os.path.join(CACHE_DIR, "requests"))
    if not os.path.exists(path):
        write_requests(workload, seed, path)
    with open(path) as handle:
        return json.load(handle)


def write_requests(workload: str, seed: int, path: str) -> None:
    plan = {"workload": workload, "seed": seed, **REQUEST_BUILDERS[workload](seed)}
    write_json(path, plan)


def write_json(path: str, payload: Dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-data", action="store_true",
                        help="rebuild data/*.json from the library")
    parser.add_argument("--seeds", default="",
                        help="write requests/ for a seed range, e.g. 0:20")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    workloads = args.workload or list(WORKLOADS)
    if args.build_data:
        for workload in workloads:
            write_json(os.path.join(DATA_DIR, f"{workload}.json"),
                       DATA_BUILDERS[workload]())
    if args.seeds:
        start, stop = (int(part) for part in args.seeds.split(":"))
        for workload in workloads:
            for seed in range(start, stop):
                path = requests_path(workload, seed)
                write_requests(workload, seed, path)
                print(f"wrote {os.path.relpath(path, HERE)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
