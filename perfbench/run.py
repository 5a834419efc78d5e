"""Daemon benchmark: explain / update / tenants against a real ``repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explain --seed 0 --seconds 30 --trace 0

Each pass starts ``python -m repro serve --port 0 --state-dir <fresh dir>
--max-sessions 4`` as a subprocess, sets it up, and drives it over one
connection in a closed loop with no think time. The requests are the
stored, seeded list of ``workloads.py``; the work is fixed by
``(workload, seed, seconds)``, and every response is checked against its
expected value after the pass. ``--trace 0`` makes three timed passes of
the same list and prints the end-to-end metrics, taking each request's
latency as its median over the passes. Times are in reference seconds:
wall time scaled by the host speed that ``hostspeed.py`` samples on the
daemon's CPU between requests. ``--trace 1`` makes two passes -
untraced, then through ``launcher.py`` with span recorders - and prints
the per-layer metrics. The last line of standard output is one JSON
object; the lines before it repeat each metric with its unit, and the
run's sizes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from daemon import PYTHONHASHSEED, Daemon, DaemonError  # noqa: E402

STATE_DIR = os.path.join(HERE, ".state")
#: The daemon's CPU time over a pass may exceed the time it had a request
#: in hand by this factor plus the CPU clock's tick granularity.
BUSY_SLACK = 1.05
CPU_TICK_SLACK_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "requests/s",
    "members_per_s": "members/s",
    "why_p50_s": "s",
    "op_tail_s": "s",
    "daemon_peak_rss_mb": "MB",
}


def encode(message: Dict) -> bytes:
    return json.dumps(message, separators=(",", ":"), sort_keys=True).encode()


@dataclass
class Request:
    """One timed request: its class, wire line, timing and expectation."""

    kind: str
    line: bytes
    check: Callable[[Dict], Optional[str]]
    visit: int
    sent: float = 0.0
    received: float = 0.0
    response: bytes = b""
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.received - self.sent


def check_ok(response: Dict, op: str) -> Optional[str]:
    if not response.get("ok"):
        return f"{op} failed: {response.get('error')}"
    if response.get("op") != op:
        return f"expected a {op} response, got {response.get('op')}"
    return None


def why_check(expected_members: int):
    def check(response):
        error = check_ok(response, "why")
        if error:
            return error
        members = response["result"]["members"]
        if len(members) != expected_members:
            return f"why returned {len(members)} members, expected {expected_members}"
        if len({tuple(member) for member in members}) != len(members):
            return "why returned a repeated member"
        return None

    return check


def decide_check(verdict: bool):
    def check(response):
        error = check_ok(response, "decide")
        if error:
            return error
        if response["result"]["member"] is not verdict:
            return f"decide said {response['result']['member']}, expected {verdict}"
        return None

    return check


def all_of(*checks):
    def check(response):
        return next((e for e in (c(response) for c in checks) if e), None)

    return check


def fields_check(op: str, expected: Dict):
    def check(response):
        error = check_ok(response, op)
        if error:
            return error
        for field, value in expected.items():
            got = response.get(field, response["result"].get(field))
            if got != value:
                return f"{op} {field} = {got!r}, expected {value!r}"
        return None

    return check


class Session:
    """The run's daemon plus the requests sent to it, in order."""

    def __init__(self, daemon: Daemon, speed: hostspeed.SpeedLog):
        self.daemon = daemon
        self.speed = speed
        self.sent = 0

    def call(self, line: bytes) -> Dict:
        """A set-up or stats request; an error response aborts the run."""
        _, _, raw = self.daemon.request(line)
        self.sent += 1
        response = json.loads(raw)
        if not response.get("ok"):
            raise DaemonError(f"{line[:80]!r} failed: {response.get('error')}")
        return response

    def send(self, request: Request) -> None:
        """A timed request, then a host speed sample while the daemon idles."""
        request.sent, request.received, request.response = self.daemon.request(
            request.line
        )
        self.sent += 1
        self.speed.sample()


# -- workloads ------------------------------------------------------------------


def open_line(data: Dict) -> bytes:
    """An inline-text ``open`` of a (program, database) pair."""
    return encode({"op": "open", "program": data["program"],
                   "database": data["database"], "answer": data["answer"]})


class Workload:
    """Set-up, timed requests and exact counters of one workload.

    Request lines are encoded ahead of the clocks: set-up lines when the
    workload is built, timed lines (which need the set-up's digests)
    between set-up and the timed phase.
    """

    def __init__(self, plan: Dict, seconds: float):
        self.plan = plan

    def setup(self, session: Session) -> None:
        raise NotImplementedError

    def requests(self) -> List[Request]:
        """The timed phase, encoded before the clock starts."""
        raise NotImplementedError

    def expected_registry(self, timed: List[Request]) -> Dict[str, int]:
        """Registry counter deltas over the timed phase."""
        return {"admissions": 0, "rehydrations": 0, "evictions": 0,
                "hits": len(timed)}

    def sessions(self) -> List[str]:
        """Digests whose session counters the run reads after the phase."""
        return [self.digest]


class Explain(Workload):
    """Read-only why / decide traffic on one warm Andersen/D4 session."""

    name = "explain"
    per_visit = 3

    def __init__(self, plan, seconds):
        super().__init__(plan, seconds)
        self.data = workloads.load_data("explain")
        self.open = open_line(self.data)
        total = len(plan["visits"])
        self.visits = plan["visits"][: workloads.design_count(total, seconds)]

    def setup(self, session):
        self.digest = session.call(self.open)["session"]

    def requests(self):
        out = []
        for index, visit in enumerate(self.visits):
            base = {"session": self.digest, "tuple": visit["tuple"]}
            out.append(Request(
                "why", encode({"op": "why", "limit": workloads.WHY_LIMIT, **base}),
                why_check(visit["why_members"]), index))
            out.append(Request(
                "decide", encode({"op": "decide", "subset": visit["member"], **base}),
                decide_check(True), index))
            out.append(Request(
                "decide_minus", encode({"op": "decide", "subset": visit["minus"], **base}),
                decide_check(visit["minus_verdict"]), index))
        return out

    def sizes(self):
        return {"tuples": len(self.visits), "candidates": len(self.data["candidates"]),
                "model_facts": self.data["model_facts"],
                "trace_instances": self.data["trace_instances"]}


class Update(Workload):
    """Upgrade deltas, each followed by fresh reads, on one large session."""

    name = "update"
    per_visit = 1 + workloads.UPDATE_READS

    def __init__(self, plan, seconds):
        super().__init__(plan, seconds)
        self.data = workloads.load_data("update")
        self.open = open_line({**self.data, "database": plan["database"]})
        self.probes = [json.dumps(probe).encode() for probe in self.data["probes"]]
        total = len(plan["rounds"])
        self.visits = plan["rounds"][: workloads.design_count(total, seconds)]

    def setup(self, session):
        self.digest = session.call(self.open)["session"]
        for probe in self.probes:
            primed = session.call(b'{"limit":1,"op":"why","session":"%s","tuple":%s}'
                                  % (self.digest.encode(), probe))
            if len(primed["result"]["members"]) != 1:
                raise DaemonError(f"probe {probe} has no member")

    def requests(self):
        out = []
        for index, entry in enumerate(self.visits):
            out.append(Request(
                "update",
                encode({"op": "update", "session": self.digest, "lines": entry["lines"]}),
                fields_check("update", {"inserted": entry["inserted"],
                                        "deleted": entry["deleted"],
                                        "version": entry["version"]}),
                index))
            for probe in entry["probes"]:
                out.append(Request(
                    "fresh_read",
                    encode({"op": "why", "session": self.digest,
                            "tuple": self.data["probes"][probe], "limit": 1}),
                    all_of(fields_check("why", {"version": entry["version"]}),
                           why_check(1)),
                    index))
        return out

    def sizes(self):
        return {"rounds": len(self.visits), "probes": len(self.data["probes"]),
                "instance": self.data["scenario"], "window_start": self.plan["start"]}


class Tenants(Workload):
    """Zipf-ordered visits over twelve tenants, three times the registry."""

    name = "tenants"
    per_visit = 2

    def __init__(self, plan, seconds):
        super().__init__(plan, seconds)
        self.data = workloads.load_data("tenants")
        self.opens = [open_line(tenant) for tenant in self.data["tenants"]]
        total = len(plan["visits"])
        self.visits = plan["visits"][: workloads.design_count(total, seconds)]

    def why_line(self, tenant: int, tup) -> bytes:
        return encode({"op": "why", "session": self.digests[tenant],
                       "tuple": tup, "limit": 1})

    def setup(self, session):
        """Admit every tenant once, with a ``why`` on its stored tuple."""
        self.digests = {}
        for expected in self.plan["setup"]:
            tenant = self.data["tenants"][expected["tenant"]]
            response = session.call(self.opens[expected["tenant"]])
            result = response["result"]
            if (result["admitted"], result["rehydrated"]) != (
                    expected["admitted"], expected["rehydrated"]):
                raise DaemonError(f"set-up open of {tenant['name']}: {result}")
            self.digests[expected["tenant"]] = response["session"]
            session.call(self.why_line(expected["tenant"], tenant["tuple"]))

    def requests(self):
        out = []
        for index, visit in enumerate(self.visits):
            tenant = visit["tenant"]
            kind = "miss" if visit["admitted"] else "hit"
            out.append(Request(
                f"open_{kind}", self.opens[tenant],
                fields_check("open", {"admitted": visit["admitted"],
                                      "rehydrated": visit["rehydrated"],
                                      "session": self.digests[tenant]}),
                index))
            out.append(Request(f"why_{kind}", self.why_line(tenant, visit["tuple"]),
                               why_check(1), index))
        return out

    def expected_registry(self, timed):
        misses = sum(1 for r in timed if r.kind == "open_miss")
        hits = len(timed) - misses  # every why and every live open hits
        return {"admissions": misses, "rehydrations": misses,
                "evictions": misses, "hits": hits}

    def sessions(self):
        return []

    def sizes(self):
        tenants = self.data["tenants"]
        snapshots = [t["snapshot_bytes"] for t in tenants]
        return {"visits": len(self.visits), "tenants": len(tenants),
                "max_sessions": workloads.MAX_SESSIONS,
                "snapshot_bytes": f"{min(snapshots)}..{max(snapshots)}"}


WORKLOADS = {cls.name: cls for cls in (Explain, Update, Tenants)}


# -- one phase: set-ups, the timed requests, the checks ---------------------------


@dataclass
class Phase:
    """One set-up and the timed pass over the request list after it.

    ``setup_s`` is in reference seconds, ``setup_wall_s`` as measured.
    """

    setup_s: float
    requests: List[Request]
    cpu_s: float
    peak_rss_mb: float
    errors: List[str]
    counters: Dict[str, int]
    first_timed: int
    spans: Optional[Dict] = None
    speed: Optional[hostspeed.SpeedLog] = None
    setup_wall_s: float = 0.0

    def scaled(self, request: Request) -> float:
        """The request's latency in reference seconds."""
        return request.latency * self.speed.scale(request.sent, request.received)

    def by_kind(self, *kinds: str) -> List[float]:
        return [self.scaled(r) for r in self.requests if r.kind in kinds]

    def visit_latencies(self, kind: str) -> List[float]:
        """Visit latency (the sum of its requests') per visit."""
        total: Dict[int, float] = {}
        first: Dict[int, str] = {}
        for request in self.requests:
            first.setdefault(request.visit, request.kind)
            total[request.visit] = total.get(request.visit, 0.0) + self.scaled(request)
        return [total[v] for v in first if first[v] == kind]


class PhaseAborted(Exception):
    """A timed request timed out or lost its daemon; the run has failed."""


def registry_counters(stats: Dict) -> Dict[str, int]:
    return {name: stats["result"][name]
            for name in ("admissions", "hits", "rehydrations", "evictions")}


def run_setup(workload: Workload, spans_path: Optional[str] = None):
    """Spawn a daemon and set the workload up on it.

    Returns ``(session, reference seconds, wall seconds)``; the host
    speed is sampled just before the spawn and just after the set-up.
    """
    os.makedirs(STATE_DIR, exist_ok=True)
    state_dir = os.path.join(STATE_DIR, f"state-{os.getpid()}")
    speed = hostspeed.SpeedLog()
    speed.sample(force=True)
    started = time.perf_counter()
    daemon = Daemon(ROOT, state_dir, workloads.MAX_SESSIONS, spans_path)
    try:
        daemon.connect()
        session = Session(daemon, speed)
        workload.setup(session)
    except BaseException:
        daemon.close()
        raise
    ended = time.perf_counter()
    speed.sample(force=True)
    wall = ended - started
    return session, wall * speed.scale(started, ended), wall


def run_phase(workload: Workload, traced: bool) -> Phase:
    """Set up a fresh daemon, then time one pass over the request list."""
    spans_path = (os.path.join(STATE_DIR, f"spans-{os.getpid()}.json")
                  if traced else None)
    daemon = None
    try:
        session, setup_time, setup_wall = run_setup(workload, spans_path)
        daemon = session.daemon
        timed = workload.requests()
        before = registry_counters(session.call(b'{"op":"stats"}'))
        first_timed = session.sent
        cpu_before = daemon.cpu_seconds()
        session.speed.sample(force=True)
        for request in timed:
            try:
                session.send(request)
            except (OSError, DaemonError) as exc:  # a timeout or a lost daemon
                raise PhaseAborted(f"request {request.visit}/{request.kind}: {exc!r}")
        session.speed.sample(force=True)
        cpu = daemon.cpu_seconds() - cpu_before
        after = registry_counters(session.call(b'{"op":"stats"}'))
        counters = {f"registry.{k}": after[k] - before[k] for k in after}
        for digest in workload.sessions():
            stats = session.call(encode({"op": "stats", "session": digest}))["result"]
            for name, value in stats["session_stats"].items():
                counters[f"session.{name}"] = counters.get(f"session.{name}", 0) + value
        peak = daemon.peak_rss_mb()
        daemon.shutdown()
        daemon = None
        spans = None
        if traced:
            with open(spans_path) as handle:
                spans = json.load(handle)
    finally:
        if daemon is not None:
            daemon.close()
        if spans_path and os.path.exists(spans_path):
            os.remove(spans_path)
    errors = []
    for request in timed:
        request.error = request.check(json.loads(request.response))
        if request.error:
            errors.append(f"request {request.visit}/{request.kind}: {request.error}")
    expected = workload.expected_registry(timed)
    for name, value in expected.items():
        if counters[f"registry.{name}"] != value:
            errors.append(f"registry.{name} = {counters[f'registry.{name}']}, "
                          f"expected {value}")
    if workload.sessions() and counters.get("session.evaluations") != 1:
        errors.append(f"session evaluated {counters.get('session.evaluations')} times")
    busy = sum(r.latency for r in timed)
    if cpu > busy * BUSY_SLACK + CPU_TICK_SLACK_S:
        # Work outside the requests would share the CPU with the speed
        # samples and make the host look slower than it is.
        errors.append(f"daemon used {cpu:.2f} CPU s in {busy:.2f} s of requests")
    return Phase(setup_time, timed, cpu, peak, errors, counters,
                 first_timed, spans, session.speed, setup_wall)


# -- metrics ------------------------------------------------------------------------


def tail(latencies: List[float]) -> float:
    """The latency with exactly ten requests above it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - 11)]


def tail_percentile(count: int) -> float:
    return 100.0 * max(0, count - 10) / count


def members_returned(phase: Phase) -> int:
    total = 0
    for request in phase.requests:
        response = json.loads(request.response)
        if response.get("op") == "why" and response.get("ok"):
            total += len(response["result"]["members"])
    return total


#: The ``why`` requests whose median is ``why_p50_s``, per workload.
WHY_KINDS = {"explain": ("why",), "update": ("fresh_read",), "tenants": ("why_hit",)}


def median_latencies(passes: List[Phase]) -> List[float]:
    """Each request's latency, in reference seconds, as its median over
    passes of identical work.

    A burst of host slowness that one pass's speed samples missed does
    not move the median.
    """
    return [statistics.median(p.scaled(p.requests[index]) for p in passes)
            for index in range(len(passes[0].requests))]


def end_to_end(name: str, passes: List[Phase]) -> Dict[str, float]:
    latencies = median_latencies(passes)
    kinds = [r.kind for r in passes[0].requests]
    busy = sum(latencies)
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "ops_per_s": len(latencies) / busy,
        "members_per_s": members_returned(passes[0]) / busy,
        "why_p50_s": statistics.median(
            [lat for lat, kind in zip(latencies, kinds) if kind in WHY_KINDS[name]]),
        # Over every timed request of every pass: one pass has too few
        # requests for a tail with ten beyond it.
        "op_tail_s": tail([p.scaled(r) for p in passes for r in p.requests]),
        "daemon_peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def wall_metrics(name: str, phase: Phase) -> Dict[str, float]:
    """Set-up, throughput and ``why`` median as measured, unscaled."""
    return {
        "wall.setup_s": phase.setup_wall_s,
        "wall.ops_per_s": len(phase.requests) / sum(r.latency for r in phase.requests),
        "wall.why_p50_s": statistics.median(
            r.latency for r in phase.requests if r.kind in WHY_KINDS[name]),
        "host.kernel_s": phase.speed.median_s(),
    }


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def class_medians(phase: Phase) -> Dict[str, float]:
    """Per-class medians of the untraced phase (zero where a class is absent)."""
    return {
        "decide_p50_s": median_or_zero(phase.by_kind("decide")),
        "decide_minus_p50_s": median_or_zero(phase.by_kind("decide_minus")),
        "update_p50_s": median_or_zero(phase.by_kind("update")),
        "fresh_read_p50_s": median_or_zero(phase.by_kind("fresh_read")),
        "hit_p50_s": median_or_zero(phase.visit_latencies("open_hit")),
        "miss_p50_s": median_or_zero(phase.visit_latencies("open_miss")),
    }


# -- exact counters across runs -------------------------------------------------------


def repeat_check(key: str, counters: Dict[str, int]) -> List[str]:
    """Exact counters must repeat across runs of one seed in a checkout."""
    path = os.path.join(workloads.CACHE_DIR, "counters", f"{key}.json")
    if not os.path.exists(path):
        workloads.write_json(path, counters)
        return []
    with open(path) as handle:
        first = json.load(handle)
    return [f"{name} = {counters.get(name)}, was {value} on an earlier run"
            for name, value in sorted(first.items()) if counters.get(name) != value]


EXACT = ("registry.admissions", "registry.hits", "registry.rehydrations",
         "registry.evictions", "session.evaluations", "session.sat_pooled_verdicts",
         "session.sat_pool_hits", "session.sat_pool_misses")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=workloads.DESIGN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        print(f"no repro sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    cpu = hostspeed.pin_to_one_cpu()
    # The daemon's imports take twice as long without a bytecode cache;
    # compile once, before any clock starts.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    plan = workloads.load_requests(args.workload, args.seed)
    workload = WORKLOADS[args.workload](plan, args.seconds)

    try:
        if args.trace:
            plain = run_phase(workload, traced=False)
            traced = run_phase(workload, traced=True)
            phases = [plain, traced]
        else:
            phases = [run_phase(workload, traced=False)
                      for _ in range(workloads.PASSES)]
            plain = phases[0]
    except (PhaseAborted, DaemonError, OSError) as exc:
        print(f"# ERROR {exc}", file=sys.stderr)
        passes = 2 if args.trace else workloads.PASSES
        attempted = len(workload.visits) * workload.per_visit * passes
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 0
    if args.trace:
        metrics = {**class_medians(plain), **layers.per_layer(plain, traced),
                   **wall_metrics(args.workload, plain)}
        units = layers.UNITS
    else:
        metrics = end_to_end(args.workload, phases)
        units = END_TO_END_UNITS
    errors = [e for phase in phases for e in phase.errors]
    if args.trace:
        errors += layers.accounting_errors(traced)
    key = f"{args.workload}-s{args.seed}-t{args.seconds:g}"
    for phase in phases:
        exact = {name: phase.counters[name] for name in EXACT if name in phase.counters}
        errors += repeat_check(key, exact)
    attempted = sum(len(phase.requests) for phase in phases)
    failed = sum(1 for phase in phases for r in phase.requests if r.error)

    sizes = workload.sizes()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} PYTHONHASHSEED {PYTHONHASHSEED} cpu {cpu} "
          f"reference kernel {hostspeed.REFERENCE_S:g} s, measured "
          + " ".join(f"{phase.speed.median_s():.6f}" for phase in phases))
    print("# sizes " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    timed = sum(len(phase.requests) for phase in phases)
    print(f"# timed requests {len(plain.requests)} per pass, {len(phases)} passes"
          + ("" if args.trace else f"; op_tail_s is the p{tail_percentile(timed):.1f} "
             "latency"))
    for name, value in sorted(plain.counters.items()):
        if name in EXACT:
            print(f"# counter {name} {value}")
    for error in errors[:20]:
        print(f"# ERROR {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
