"""Command-line interface.

Eleven subcommands expose the library to shell users::

    python -m repro eval     program.dl data.dl --answer tc
    python -m repro why      program.dl data.dl --answer tc --tuple a,b
    python -m repro batch    program.dl data.dl --answer tc \
                             --tuples "a,b;b,c"   (or --all-answers)
    python -m repro decide   program.dl data.dl --answer tc --tuple a,b \
                             --subset subset.dl --tree-class unambiguous
    python -m repro dimacs   program.dl data.dl --answer tc --tuple a,b
    python -m repro minimal  program.dl data.dl --answer tc --tuple a,b
    python -m repro semiring program.dl data.dl --answer tc --tuple a,b \
                             --semiring tropical
    python -m repro explain  program.dl data.dl --answer tc --tuple a,b
    python -m repro serve    --port 7463            (or --stdio)
    python -m repro client   --connect localhost:7463 requests.ndjson
    python -m repro fuzz     --seeds 0:50 --family all --json report.json

``batch`` is the session-backed mode: one
:class:`~repro.core.session.ProvenanceSession` evaluates ``(D, Sigma)``
exactly once and serves every target tuple from the shared instrumented
grounding, instead of re-evaluating per tuple like repeated ``why`` calls
would. With ``--workers N`` the tuples are sharded across a forked
worker pool (``--workers 0`` = one per core) after that single
evaluation; results are identical to the serial run, in the same order.
With ``--watch`` the session stays live after the first serve: delta
lines (``+e(a, b).`` / ``-e(a, b).``) read from stdin are applied through
incremental view maintenance (:meth:`ProvenanceSession.update`) on each
blank line, and the batch is re-served — the evaluation is patched, never
redone.

``fuzz`` is the cross-stack differential oracle: seeded synthetic
workload instances (:mod:`repro.scenarios.synthetic`) are run through
every execution path — cold and warm sessions, the forked batch pool,
incremental maintenance, the service daemon over TCP — and the answers,
witnesses, and witness order must match byte for byte
(:mod:`repro.testing.oracle`); a divergence is shrunk to a minimal
failing ``(program, database, deltas)`` repro.

``serve`` runs the provenance service daemon — live sessions keyed by a
``(program, database)`` content digest behind the newline-delimited JSON
protocol of :mod:`repro.service` — over a TCP socket (``--port``, 0 for
ephemeral) or stdin/stdout (``--stdio``). ``client`` is its scripting
counterpart: it reads request objects (one JSON per line) from a file or
stdin, sends each to a running daemon, and prints one response per line.
See ``docs/SERVICE.md`` for the protocol.

Programs and databases use the textual Datalog syntax of
:mod:`repro.datalog.parser`; tuples are comma-separated constants (decimal
literals are read as integers, everything else as strings).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence, Tuple

from .core.decision import TREE_CLASSES
from .core.session import ProvenanceSession
from .datalog.database import Database
from .datalog.parser import parse_database, parse_program
from .datalog.program import DatalogQuery
from .provenance.grounding import FactNotDerivable

#: Appended to a member count when a limit or a timeout stopped the list
#: before a final solve proved it complete.
_INCOMPLETE = ", list may be incomplete"


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _load_query(args: argparse.Namespace) -> Tuple[DatalogQuery, Database]:
    program = parse_program(_read(args.program))
    database = Database(parse_database(_read(args.database)))
    answer = args.answer
    if answer is None:
        intensional = sorted(program.idb)
        if len(intensional) != 1:
            raise SystemExit(
                f"--answer required: program has intensional predicates {intensional}"
            )
        answer = intensional[0]
    return DatalogQuery(program, answer), database


def parse_tuple(text: str) -> Tuple:
    """Parse ``a,b,3`` into ``("a", "b", 3)``."""
    parts = [part.strip() for part in text.split(",")] if text else []
    values: List = []
    for part in parts:
        if part.lstrip("-").isdigit():
            values.append(int(part))
        else:
            values.append(part)
    return tuple(values)


def _load_tuple(args: argparse.Namespace, query: DatalogQuery) -> Tuple:
    """``--tuple``, parsed and checked against the answer predicate's arity."""
    tup = parse_tuple(args.tuple)
    arity = query.answer_arity
    if len(tup) != arity:
        raise SystemExit(
            f"--tuple {args.tuple!r}: {query.answer_predicate}/{arity} "
            f"takes {arity} values, got {len(tup)}"
        )
    return tup


def _cmd_eval(args: argparse.Namespace) -> int:
    from .datalog.engine import answers

    query, database = _load_query(args)
    result = sorted(answers(query, database))
    for tup in result:
        inner = ", ".join(str(t) for t in tup)
        print(f"{query.answer_predicate}({inner})")
    print(f"% {len(result)} answers", file=sys.stderr)
    return 0


def _cmd_why(args: argparse.Namespace) -> int:
    query, database = _load_query(args)
    tup = _load_tuple(args, query)
    if args.order == "size":
        from .core.minimal import members_by_size

        count = 0
        for member, size in members_by_size(query, database, tup, limit=args.limit):
            facts = " ".join(sorted(f"{fact}." for fact in member))
            print(f"member {count} (size {size}): {facts}")
            count += 1
        if count == 0:
            print("% tuple is not an answer: empty why-provenance", file=sys.stderr)
            return 1
        cut = args.limit is not None and count >= args.limit
        print(
            f"% {count} members{_INCOMPLETE if cut else ''} (smallest first)",
            file=sys.stderr,
        )
        return 0
    from .core.enumerator import WhyProvenanceEnumerator

    try:
        enumerator = WhyProvenanceEnumerator(query, database, tup)
    except FactNotDerivable:
        print("% tuple is not an answer: empty why-provenance", file=sys.stderr)
        return 1
    count = 0
    for record in enumerator.enumerate(limit=args.limit, timeout_seconds=args.timeout):
        facts = " ".join(sorted(f"{fact}." for fact in record.support))
        print(f"member {record.index}: {facts}")
        count += 1
    print(
        f"% {count} members{'' if enumerator.exhausted else _INCOMPLETE} "
        f"(closure {enumerator.closure_seconds:.3f}s, "
        f"formula {enumerator.formula_seconds:.3f}s)",
        file=sys.stderr,
    )
    return 0


def _print_fact_result(result, answer_predicate: str) -> bool:
    """Print one batch result; return ``True`` if it counts as a failure."""
    inner = ", ".join(str(t) for t in result.tuple_value)
    label = f"{answer_predicate}({inner})"
    if result.error is not None:
        print(f"{label}: invalid tuple ({result.error})")
        return True
    if not result.is_answer:
        print(f"{label}: not an answer")
        return True
    cut = "" if result.exhausted else _INCOMPLETE
    print(f"{label}: {len(result.members)} members{cut}")
    for index, member in enumerate(result.members):
        facts = " ".join(sorted(f"{fact}." for fact in member))
        print(f"  member {index}: {facts}")
    return False


def _serve_batch(session: ProvenanceSession, tuples, args: argparse.Namespace) -> int:
    """Serve one batch through *session*; return the number of failures."""
    answer_predicate = session.query.answer_predicate
    failures = 0
    if args.workers == 1:
        # Serial: stream each tuple's members as they are enumerated
        # (the same per-fact routine the workers run, printed eagerly)
        # instead of materializing the whole batch before the first line.
        from .core.parallel import explain_fact

        for index, tup in enumerate(tuples):
            result = explain_fact(
                session, tup, index=index,
                limit=args.limit, timeout_seconds=args.timeout,
            )
            failures += _print_fact_result(result, answer_predicate)
        stats = session.stats
        print(
            f"% {len(tuples)} tuples served by {stats.evaluations} evaluation(s), "
            f"{stats.gri_builds} GRI build(s), {stats.closure_builds} closure(s)",
            file=sys.stderr,
        )
        return failures
    batch = session.explain_batch(
        tuples,
        workers=args.workers,  # 0 = one per core (explainer convention)
        limit=args.limit,
        timeout_seconds=args.timeout,
        chunk_size=args.chunk_size,
    )
    for result in batch.results:
        failures += _print_fact_result(result, answer_predicate)
    if batch.parallel:
        print(
            f"% {len(tuples)} tuples sharded over {batch.workers} worker(s) "
            f"(chunk size {batch.chunk_size}, {batch.total_seconds:.3f}s)",
            file=sys.stderr,
        )
    else:
        stats = session.stats
        if batch.fallback_reason is not None:
            print(f"% serial fallback: {batch.fallback_reason}", file=sys.stderr)
        print(
            f"% {len(tuples)} tuples served by {stats.evaluations} evaluation(s), "
            f"{stats.gri_builds} GRI build(s), {stats.closure_builds} closure(s)",
            file=sys.stderr,
        )
    return failures


def _watch_loop(session: ProvenanceSession, tuples, args: argparse.Namespace) -> int:
    """The ``batch --watch`` read-update-reserve loop; returns failures.

    Reads delta lines from stdin — the shared textual delta format of
    :func:`~repro.datalog.io.parse_delta_line`, the same one the service
    daemon's ``update`` requests carry: ``+fact.`` stages an insertion,
    ``-fact.`` a deletion (several facts per line are allowed). A blank
    line commits the staged delta through
    :meth:`~repro.core.session.ProvenanceSession.update` — incremental
    maintenance, not re-evaluation — and re-serves the batch; end of
    input commits any remaining staged facts and exits. Unparsable lines
    are reported on stderr and skipped.
    """
    from .datalog.database import Delta
    from .datalog.io import parse_delta_line

    failures = 0
    inserted: List = []
    deleted: List = []

    def commit() -> int:
        nonlocal inserted, deleted
        if not inserted and not deleted:
            return 0
        try:
            delta = Delta(inserted=frozenset(inserted), deleted=frozenset(deleted))
        except ValueError as exc:
            print(f"% update rejected: {exc}", file=sys.stderr)
            inserted, deleted = [], []
            return 0
        inserted, deleted = [], []
        try:
            # update() validates (schema, types) before touching the
            # database, so a rejection leaves the session untouched and
            # the watch loop alive.
            receipt = session.update(delta)
        except ValueError as exc:
            print(f"% update rejected: {exc}", file=sys.stderr)
            return 0
        print(
            f"% update v{receipt.version}: {len(receipt.effective.inserted)} inserted, "
            f"{len(receipt.effective.deleted)} deleted; "
            f"{receipt.dirty_fact_count()} model facts changed, "
            f"{receipt.invalidated_closures} closure(s) invalidated, "
            f"{receipt.retained_closures} retained ({receipt.seconds:.3f}s)",
            file=sys.stderr,
        )
        targets = session.answers() if args.all_answers else tuples
        return _serve_batch(session, targets, args)

    for raw in sys.stdin:
        try:
            parsed = parse_delta_line(raw)
        except ValueError as exc:
            print(f"% ignored watch line ({exc}): {raw.strip()}", file=sys.stderr)
            continue
        if parsed is None:
            failures += commit()
            continue
        sign, facts = parsed
        (inserted if sign == "+" else deleted).extend(facts)
    failures += commit()
    return failures


def _cmd_batch(args: argparse.Namespace) -> int:
    query, database = _load_query(args)
    session = ProvenanceSession(query, database)
    if args.all_answers:
        tuples = session.answers()
    else:
        tuples = [parse_tuple(part) for part in args.tuples.split(";") if part.strip()]
    failures = _serve_batch(session, tuples, args)
    if args.watch:
        failures += _watch_loop(session, tuples, args)
    return 1 if failures else 0


def _cmd_decide(args: argparse.Namespace) -> int:
    from .core.decision import decide_membership

    query, database = _load_query(args)
    tup = _load_tuple(args, query)
    subset = parse_database(_read(args.subset))
    verdict = decide_membership(query, database, tup, subset, args.tree_class)
    print("MEMBER" if verdict else "NOT-MEMBER")
    return 0 if verdict else 1


def _cmd_dimacs(args: argparse.Namespace) -> int:
    from .core.encoder import encode_why_provenance

    query, database = _load_query(args)
    tup = _load_tuple(args, query)
    try:
        encoding = encode_why_provenance(
            query, database, tup, acyclicity=args.acyclicity
        )
    except FactNotDerivable:
        print("% tuple is not an answer: no formula", file=sys.stderr)
        return 1
    sys.stdout.write(encoding.cnf.to_dimacs())
    projection = " ".join(str(v) for v in encoding.projection_variables())
    print(f"c projection {projection}", file=sys.stderr)
    return 0


def _format_member(member) -> str:
    return " ".join(sorted(f"{fact}." for fact in member))


def _cmd_minimal(args: argparse.Namespace) -> int:
    from .core.minimal import minimal_members, smallest_member

    query, database = _load_query(args)
    tup = _load_tuple(args, query)
    smallest = smallest_member(query, database, tup)
    if smallest is None:
        print("% tuple is not an answer: empty why-provenance", file=sys.stderr)
        return 1
    print(f"smallest ({len(smallest)} facts): {_format_member(smallest)}")
    members = minimal_members(query, database, tup, limit=args.limit)
    for index, member in enumerate(members):
        print(f"minimal {index}: {_format_member(member)}")
    print(f"% {len(members)} subset-minimal members", file=sys.stderr)
    return 0


def _cmd_semiring(args: argparse.Namespace) -> int:
    from .semiring import get_semiring, semiring_provenance

    query, database = _load_query(args)
    tup = _load_tuple(args, query)
    semiring = get_semiring(args.semiring)
    value = semiring_provenance(query, database, tup, semiring)
    if args.semiring in ("why", "min-why"):
        for index, member in enumerate(
            sorted(value, key=lambda m: (len(m), sorted(map(str, m))))
        ):
            print(f"member {index}: {_format_member(member)}")
        print(f"% {len(value)} members", file=sys.stderr)
    elif args.semiring == "lineage":
        rendered = "0" if value is None else " ".join(sorted(f"{f}." for f in value))
        print(rendered)
    else:
        print(value)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .baselines.souffle_style import explain_answer

    query, database = _load_query(args)
    tup = _load_tuple(args, query)
    tree = explain_answer(query, database, tup)
    if tree is None:
        print("% tuple is not an answer: nothing to explain", file=sys.stderr)
        return 1
    print(tree.pretty())
    print(
        f"% depth {tree.depth()}, support size {len(tree.support())}",
        file=sys.stderr,
    )
    return 0


def _parse_seed_range(text: str) -> List[int]:
    """Parse ``--seeds``: ``"A:B"`` is the half-open range, ``"N"`` is ``[N]``."""
    if ":" in text:
        lo_text, _, hi_text = text.partition(":")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise SystemExit(f"bad --seeds {text!r}; expected N or LO:HI")
        if hi <= lo:
            raise SystemExit(f"bad --seeds {text!r}; need LO < HI")
        return list(range(lo, hi))
    try:
        return [int(text)]
    except ValueError:
        raise SystemExit(f"bad --seeds {text!r}; expected N or LO:HI")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from .scenarios.synthetic import FAMILIES, generate_instance
    from .testing.oracle import OracleConfig, run_oracle, shrink

    if args.smoke:
        # CI preset: a small fresh seed band inside a fixed wall budget.
        # Explicit flags still win — --smoke only fills what was not given.
        if args.seeds is None:
            args.seeds = "0:4"
        if args.size is None:
            args.size = 12
        if args.deltas is None:
            args.deltas = 1
        if args.time_budget is None:
            args.time_budget = 55.0
    seeds = _parse_seed_range(args.seeds if args.seeds is not None else "0:8")
    size = args.size if args.size is not None else 16
    delta_rounds = args.deltas if args.deltas is not None else 2
    if args.family == "all":
        families = list(FAMILIES)
    elif args.family in FAMILIES:
        families = [args.family]
    else:
        raise SystemExit(
            f"unknown --family {args.family!r}; known: all, {', '.join(FAMILIES)}"
        )
    paths = tuple(part.strip() for part in args.paths.split(",") if part.strip())
    try:
        config = OracleConfig(
            paths=paths,
            limit=args.limit,
            tuples_per_state=args.tuples,
            workers=args.workers,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))

    started = time.monotonic()
    deadline = None if args.time_budget is None else started + args.time_budget
    runs: List[dict] = []
    failures = 0
    budget_exhausted = False
    for family in families:
        for seed in seeds:
            if deadline is not None and time.monotonic() >= deadline:
                budget_exhausted = True
                break
            record = {"family": family, "seed": seed, "size": size}
            try:
                instance = generate_instance(
                    family, size=size, seed=seed, delta_rounds=delta_rounds
                )
                report = run_oracle(instance, config)
            except Exception as exc:  # an oracle crash is a finding, not an abort
                failures += 1
                record.update(
                    {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                )
                runs.append(record)
                print(f"{family} seed {seed}: CRASHED ({exc})", file=sys.stderr)
                continue
            record.update(
                {
                    "ok": report.ok,
                    "states": report.states,
                    "seconds": round(report.seconds, 3),
                }
            )
            if report.ok:
                if args.verbose:
                    print(f"{family} seed {seed}: ok ({report.seconds:.2f}s)")
            else:
                failures += 1
                print(f"{family} seed {seed}: {report.summary()}", file=sys.stderr)
                record["divergences"] = [
                    {
                        "state": d.state,
                        "paths": [d.path_a, d.path_b],
                        "a": d.text_a,
                        "b": d.text_b,
                    }
                    for d in report.divergences
                ]
                repro_command = (
                    f"python -m repro fuzz --family {family} "
                    f"--seeds {seed} --size {size} --deltas {delta_rounds} "
                    f"--paths {','.join(config.paths)} --limit {config.limit} "
                    f"--tuples {config.tuples_per_state} "
                    f"--workers {config.workers}"
                )
                record["repro"] = repro_command
                if not args.no_shrink:
                    shrunk = shrink(instance, config)
                    print(f"  {shrunk.describe()}", file=sys.stderr)
                    minimal = shrunk.instance
                    record["shrunk"] = {
                        "summary": shrunk.describe(),
                        "program": minimal.program_text(),
                        "database": minimal.database_text(),
                        "deltas": minimal.delta_lines(),
                        "answer": minimal.query.answer_predicate,
                    }
                    print("  minimal program:", file=sys.stderr)
                    for line in minimal.program_text().splitlines():
                        print(f"    {line}", file=sys.stderr)
                    print(
                        f"  minimal database ({len(minimal.database)} facts): "
                        f"{minimal.database_text()}",
                        file=sys.stderr,
                    )
                    for index, lines in enumerate(minimal.delta_lines()):
                        print(f"  delta {index}: {' '.join(lines)}", file=sys.stderr)
            runs.append(record)
        if budget_exhausted:
            break

    elapsed = time.monotonic() - started
    completed = len(runs)
    planned = len(families) * len(seeds)
    summary = (
        f"% fuzz: {completed}/{planned} run(s), {failures} failure(s), "
        f"{elapsed:.1f}s"
        + (" (time budget exhausted)" if budget_exhausted else "")
    )
    print(summary, file=sys.stderr)
    if args.json is not None:
        payload = {
            "fuzz": {
                "families": families,
                "seeds": seeds,
                "size": size,
                "delta_rounds": delta_rounds,
                "paths": list(config.paths),
                "limit": config.limit,
                "tuples_per_state": config.tuples_per_state,
                "workers": config.workers,
                "time_budget": args.time_budget,
            },
            "completed": completed,
            "planned": planned,
            "failures": failures,
            "budget_exhausted": budget_exhausted,
            "elapsed_seconds": round(elapsed, 3),
            "ok": failures == 0,
            "runs": runs,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text)
            print(f"% fuzz report written to {args.json}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import DaemonService, TCPServiceServer, serve_stdio

    if args.workers > 1:
        if args.stdio:
            print(
                "% --stdio serves one client in-process; use --workers 1",
                file=sys.stderr,
            )
            return 2
        from .service.shard import ShardRouter

        service = ShardRouter(
            args.workers,
            state_dir=args.state_dir,
            worker_threads=args.threads,
            batch_workers=args.batch_workers,
            parallel_threshold=args.parallel_threshold,
            max_batch=args.max_batch,
            max_sessions=args.max_sessions,
            max_bytes=args.max_bytes,  # workers map 0 to unbounded themselves
        )
        service.start()
    else:
        from .service.registry import SessionRegistry

        store = None
        if args.state_dir:
            from .service.store import SnapshotStore

            store = SnapshotStore(args.state_dir)
        registry = SessionRegistry(
            max_sessions=args.max_sessions,
            max_bytes=args.max_bytes if args.max_bytes > 0 else None,
            store=store,
        )
        service = DaemonService(
            registry=registry,
            threads=args.threads,
            batch_workers=args.batch_workers,
            parallel_threshold=args.parallel_threshold,
            max_batch_tuples=args.max_batch,
        )
        if args.stdio:
            return serve_stdio(service)
    try:
        server = TCPServiceServer(service, host=args.host, port=args.port)
        # Stderr, flushed: scripts binding port 0 read the ephemeral port here
        # (the shard supervisor discovers its workers' ports the same way).
        print(
            f"% repro service listening on {server.host}:{server.port}",
            file=sys.stderr,
            flush=True,
        )
        try:
            server.serve_forever()  # returns once a client's shutdown is served
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
    finally:
        service.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, parse_address
    from .service.protocol import ServiceError

    host, port = parse_address(args.connect)
    stream = sys.stdin if args.requests in (None, "-") else open(args.requests)
    failures = 0
    with ServiceClient(host=host, port=port) as client:
        for raw in stream:
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                print(f"% bad request line ({exc}): {line}", file=sys.stderr)
                failures += 1
                continue
            try:
                response = client.request(payload)
            except (ServiceError, OSError) as exc:
                # The daemon went away mid-script (e.g. a request after
                # a shutdown): diagnose and stop, don't traceback.
                print(f"% request failed ({exc}): {line}", file=sys.stderr)
                failures += 1
                break
            print(json.dumps(response, sort_keys=True), flush=True)
            if not response.get("ok"):
                failures += 1
    if stream is not sys.stdin:
        stream.close()
    return 1 if failures else 0


class _SemiringNames:
    """The ``--semiring`` choices, read from the registry only when argparse
    checks or lists them, so the other commands never load the semirings."""

    def __contains__(self, name) -> bool:
        from .semiring import SEMIRINGS

        return name in SEMIRINGS

    def __iter__(self):
        from .semiring import SEMIRINGS

        return iter(sorted(SEMIRINGS))


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Why-provenance for Datalog queries via SAT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_tuple: bool = True) -> None:
        p.add_argument("program", help="Datalog program file")
        p.add_argument("database", help="database file (facts)")
        p.add_argument("--answer", help="answer predicate (default: the only idb one)")
        if with_tuple:
            p.add_argument("--tuple", required=True, help="answer tuple, e.g. a,b")

    p_eval = sub.add_parser("eval", help="compute Q(D)")
    common(p_eval, with_tuple=False)
    p_eval.set_defaults(func=_cmd_eval)

    p_why = sub.add_parser("why", help="enumerate whyUN(t, D, Q)")
    common(p_why)
    p_why.add_argument("--limit", type=int, default=None, help="max members")
    p_why.add_argument("--timeout", type=float, default=None, help="seconds")
    p_why.add_argument(
        "--order",
        choices=["discovery", "size"],
        default="discovery",
        help="member order: solver discovery order, or smallest first",
    )
    p_why.set_defaults(func=_cmd_why)

    p_batch = sub.add_parser(
        "batch",
        help="enumerate whyUN for many tuples with one shared evaluation",
    )
    common(p_batch, with_tuple=False)
    targets = p_batch.add_mutually_exclusive_group(required=True)
    targets.add_argument(
        "--tuples", help="semicolon-separated answer tuples, e.g. 'a,b;b,c'"
    )
    targets.add_argument(
        "--all-answers",
        action="store_true",
        help="enumerate the why-provenance of every answer tuple",
    )
    p_batch.add_argument("--limit", type=int, default=None, help="max members per tuple")
    p_batch.add_argument("--timeout", type=float, default=None, help="seconds per tuple")
    p_batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 shards tuples across a pool after one "
        "shared evaluation, 0 means one per core (default: 1, serial)",
    )
    p_batch.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="tuples per parallel work unit (default: ~4 chunks per worker)",
    )
    p_batch.add_argument(
        "--watch",
        action="store_true",
        help="after serving, read '+fact.'/'-fact.' delta lines from stdin; "
        "a blank line (or EOF) applies them via incremental maintenance "
        "and re-serves the batch",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_decide = sub.add_parser("decide", help="decide membership of a subset")
    common(p_decide)
    p_decide.add_argument("--subset", required=True, help="candidate subset file")
    p_decide.add_argument(
        "--tree-class",
        choices=TREE_CLASSES,
        default="unambiguous",
        help="proof-tree class (default: unambiguous)",
    )
    p_decide.set_defaults(func=_cmd_decide)

    p_dimacs = sub.add_parser("dimacs", help="export phi(t, D, Q) as DIMACS")
    common(p_dimacs)
    p_dimacs.add_argument(
        "--acyclicity",
        choices=["vertex-elimination", "transitive-closure"],
        default="vertex-elimination",
    )
    p_dimacs.set_defaults(func=_cmd_dimacs)

    p_minimal = sub.add_parser(
        "minimal", help="smallest and subset-minimal members of whyUN"
    )
    common(p_minimal)
    p_minimal.add_argument("--limit", type=int, default=None, help="max members")
    p_minimal.set_defaults(func=_cmd_minimal)

    p_semiring = sub.add_parser("semiring", help="semiring provenance of a tuple")
    common(p_semiring)
    p_semiring.add_argument(
        "--semiring",
        choices=_SemiringNames(),
        metavar="NAME",  # a choices list in the usage line is built eagerly
        default="why",
        help="which semiring to evaluate in: %(choices)s (default: why)",
    )
    p_semiring.set_defaults(func=_cmd_semiring)

    p_explain = sub.add_parser(
        "explain", help="print one minimal-depth proof tree (single witness)"
    )
    common(p_explain)
    p_explain.set_defaults(func=_cmd_explain)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the stack over synthetic workload families",
        description="Generate seeded synthetic (program, database, delta) "
        "instances and run each through every execution path — cold/warm "
        "sessions, the forked batch pool, incremental maintenance, and the "
        "service daemon over TCP — asserting byte-identical answers, "
        "witnesses, and witness order. On divergence the instance is "
        "shrunk to a minimal failing repro. See docs/TESTING.md.",
    )
    p_fuzz.add_argument(
        "--seeds",
        default=None,
        help="seed band LO:HI (half-open) or one seed N (default: 0:8)",
    )
    p_fuzz.add_argument(
        "--family",
        default="all",
        help="one workload family (an unknown name lists them) or 'all' (default)",
    )
    p_fuzz.add_argument(
        "--size", type=int, default=None, help="family size parameter (default: 16)"
    )
    p_fuzz.add_argument(
        "--deltas",
        type=int,
        default=None,
        help="update rounds replayed per instance (default: 2)",
    )
    p_fuzz.add_argument(
        "--paths",
        default="cold,warm,parallel,incremental,service",
        help="comma-separated execution paths to diff (first is the "
        "reference); 'restart' adds the crash/restart durability path, "
        "'sharded' the multi-process daemon (--workers 2)",
    )
    p_fuzz.add_argument(
        "--limit", type=int, default=4, help="witnesses per tuple (default: 4)"
    )
    p_fuzz.add_argument(
        "--tuples",
        type=int,
        default=3,
        help="answer tuples sampled per database state (default: 3)",
    )
    p_fuzz.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the parallel path (default: 2)",
    )
    p_fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock seconds; remaining seeds are skipped once spent",
    )
    p_fuzz.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write a machine-readable report ('-' for stdout)",
    )
    p_fuzz.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: small instances, seeds 0:4, 1 delta, 55s budget "
        "(explicit flags override)",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences without minimizing the failing instance",
    )
    p_fuzz.add_argument(
        "--verbose", action="store_true", help="print every passing run too"
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    from .core.parallel import PARALLEL_BATCH_THRESHOLD
    from .service.registry import DEFAULT_MAX_BYTES, DEFAULT_MAX_SESSIONS
    from .service.server import DEFAULT_DISPATCH_THREADS, DEFAULT_MAX_BATCH_TUPLES

    p_serve = sub.add_parser(
        "serve",
        help="run the provenance service daemon (NDJSON over TCP or stdio)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port",
        type=int,
        default=7463,
        help="TCP port (0 = ephemeral, printed on stderr; default: 7463)",
    )
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve one client over stdin/stdout instead of TCP",
    )
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        default=DEFAULT_MAX_SESSIONS,
        help="live sessions kept warm before LRU eviction "
        f"(default: {DEFAULT_MAX_SESSIONS})",
    )
    p_serve.add_argument(
        "--max-bytes",
        type=int,
        default=DEFAULT_MAX_BYTES,
        help="byte budget across live sessions, 0 = unbounded "
        f"(default: {DEFAULT_MAX_BYTES // (1024 * 1024)} MiB)",
    )
    p_serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable state directory: each admission starts a crash-safe "
        "log holding the program and database texts, each update appends "
        "its delta, fsync'd, and an evicted session or a restarted daemon "
        "rebuilds the session from its log, evaluating once "
        "(default: no persistence)",
    )
    p_serve.add_argument(
        "--threads",
        type=int,
        default=DEFAULT_DISPATCH_THREADS,
        help="requests executing at once, per daemon process "
        f"(default: {DEFAULT_DISPATCH_THREADS})",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard worker processes: 1 (default) serves single-process, "
        "N > 1 starts the sharded daemon — the same front-end routing "
        "sessions to N supervised worker processes by content digest",
    )
    p_serve.add_argument(
        "--batch-workers",
        type=int,
        default=1,
        help="forked processes per worker for large batch requests "
        "(default: 1, serial; 0 = one per core)",
    )
    p_serve.add_argument(
        "--parallel-threshold",
        type=int,
        default=PARALLEL_BATCH_THRESHOLD,
        help="batch size at which --workers kicks in "
        f"(default: {PARALLEL_BATCH_THRESHOLD})",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=DEFAULT_MAX_BATCH_TUPLES,
        help="max tuples per batch request, larger ones are rejected "
        f"(default: {DEFAULT_MAX_BATCH_TUPLES})",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="send NDJSON requests to a running service daemon",
    )
    p_client.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="daemon address, e.g. localhost:7463",
    )
    p_client.add_argument(
        "requests",
        nargs="?",
        default=None,
        help="file of request lines (default: stdin)",
    )
    p_client.set_defaults(func=_cmd_client)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
