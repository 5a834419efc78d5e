"""The cross-stack differential oracle: seven execution paths, one answer.

The library serves why-provenance through seven distinct machines that
are all contractually byte-identical:

* ``cold`` — a fresh :class:`~repro.core.session.ProvenanceSession` per
  database state, every tuple served through cold caches;
* ``warm`` — the same session serving every tuple **twice**, recording
  the second pass (the memoized closure/encoding path);
* ``parallel`` — :meth:`ProvenanceSession.explain_batch` with a forked
  worker pool over one session that reaches each later state through
  :meth:`ProvenanceSession.update`, so workers inherit a maintained
  session (its trace index, its patched GRI) as the service's ``batch``
  op forks them, and the parent restores the order;
* ``incremental`` — one live session reaching each database state through
  :meth:`ProvenanceSession.update` (delta-semi-naive insertion, deletion
  by rank support, never re-evaluation);
* ``service`` — a real daemon on a TCP socket, states reached through
  wire ``update`` requests, witnesses through wire ``batch`` requests;
* ``restart`` — a daemon with a durable state dir, hard-stopped halfway
  through the delta sequence and restarted on the same directory; the
  second incarnation must rebuild the session from its log (the admitted
  database plus the logged deltas, evaluated once) and keep serving
  byte-identical observations;
* ``sharded`` — the multi-process daemon (``serve --workers 2``): the
  same TCP front-end, its router sending each request by consistent-hashed
  content digest to real worker subprocesses, which must be
  indistinguishable on the wire from the single-process ``service`` path.

:func:`run_oracle` drives one generated instance
(:class:`~repro.scenarios.synthetic.SyntheticInstance`) through every
path and compares *canonical observations* — one key-sorted JSON text per
database state holding the sorted answer list plus, for a seeded sample
of answer tuples, the witness lists in discovery order. Texts must match
byte for byte; any difference is a :class:`Divergence` naming the state,
the paths, and both texts.

:func:`shrink` reduces a failing instance to a minimal one — first the
delta sequence, then the database facts (ddmin), then the program rules —
re-running the oracle on every candidate, so a fuzz failure lands as a
small self-contained ``(program, database, deltas)`` repro.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.session import ProvenanceSession
from ..datalog.database import Database, Delta
from ..datalog.program import DatalogQuery, Program
from ..harness.runner import sample_from_answers
from ..scenarios.synthetic import SyntheticInstance
from ..service.protocol import render_members

#: Every execution path the oracle can drive, in reference order: the
#: first configured path is the baseline the others are diffed against.
ALL_PATHS = (
    "cold",
    "warm",
    "parallel",
    "incremental",
    "service",
    "restart",
    "sharded",
)

#: The default path set: everything but ``restart`` (two daemon
#: incarnations per instance) and ``sharded`` (a pool of worker
#: subprocesses per instance) — both earn their keep in dedicated fuzz
#: steps (``--paths cold,restart`` / ``--paths cold,sharded``) rather
#: than in every quick run.
DEFAULT_PATHS = ("cold", "warm", "parallel", "incremental", "service")


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for one oracle run (shared by every path, by construction).

    ``timeout_seconds`` defaults to ``None`` on purpose: a per-tuple
    timeout can truncate enumeration at different points under different
    schedulers, which would report scheduling noise as divergence. The
    ``limit`` bounds work instead.
    """

    paths: Tuple[str, ...] = DEFAULT_PATHS
    limit: int = 4
    tuples_per_state: int = 3
    sample_seed: int = 7
    workers: int = 2
    #: Worker processes for the ``sharded`` path's daemon (>= 2, so the
    #: router genuinely routes instead of degenerating to one shard).
    shard_workers: int = 2
    timeout_seconds: Optional[float] = None

    def __post_init__(self):
        unknown = [p for p in self.paths if p not in ALL_PATHS]
        if unknown:
            raise ValueError(
                f"unknown oracle paths {unknown}; known: {', '.join(ALL_PATHS)}"
            )
        if len(self.paths) < 2:
            raise ValueError("a differential oracle needs at least two paths")


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two paths at one database state."""

    state: int
    path_a: str
    path_b: str
    text_a: str
    text_b: str

    def describe(self) -> str:
        """A one-line human summary (full texts live in the report)."""
        return (
            f"state {self.state}: {self.path_a} != {self.path_b} "
            f"({len(self.text_a)} vs {len(self.text_b)} bytes)"
        )


@dataclass
class OracleReport:
    """The outcome of one differential run over one instance."""

    instance: SyntheticInstance
    paths: Tuple[str, ...]
    states: int
    observations: Dict[str, List[str]]
    divergences: List[Divergence] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether every path agreed byte-for-byte at every state."""
        return not self.divergences

    def summary(self) -> str:
        """One line: instance, states, paths, verdict."""
        verdict = "ok" if self.ok else f"DIVERGED ({len(self.divergences)})"
        return (
            f"{self.instance.name}: {self.states} state(s) x "
            f"{len(self.paths)} path(s): {verdict}"
        )


# -- observation plumbing -----------------------------------------------------


def _canonical(answers: Sequence[Tuple], witnesses: List[Dict]) -> str:
    """One state's observation as compact, key-sorted JSON text.

    Byte equality of these texts is the oracle's entire comparison — the
    shape mirrors the wire protocol (answers as arrays, witnesses as
    sorted ``"fact."`` strings in discovery order) so in-process and
    service observations are directly comparable.
    """
    payload = {
        "answers": [list(tup) for tup in answers],
        "witnesses": witnesses,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _observe_session_state(
    session: ProvenanceSession, config: OracleConfig, serve_twice: bool = False
) -> str:
    """One state's observation through an in-process session (serial)."""
    answers = session.answers()
    sampled = sample_from_answers(
        answers, count=config.tuples_per_state, seed=config.sample_seed
    )
    if serve_twice:
        for tup in sampled:
            session.why(tup, limit=config.limit, timeout_seconds=config.timeout_seconds)
    witnesses = [
        {
            "tuple": list(tup),
            "members": render_members(
                session.why(
                    tup, limit=config.limit, timeout_seconds=config.timeout_seconds
                )
            ),
        }
        for tup in sampled
    ]
    return _canonical(answers, witnesses)


def _observe_batch_state(session: ProvenanceSession, config: OracleConfig) -> str:
    """One state's observation through the forked batch path."""
    answers = session.answers()
    sampled = sample_from_answers(
        answers, count=config.tuples_per_state, seed=config.sample_seed
    )
    batch = session.explain_batch(
        sampled,
        workers=config.workers,
        limit=config.limit,
        timeout_seconds=config.timeout_seconds,
    )
    witnesses = [
        {
            "tuple": list(result.tuple_value),
            "members": render_members(result.members),
        }
        for result in batch.results
    ]
    return _canonical(answers, witnesses)


def _state_databases(instance: SyntheticInstance) -> List[Database]:
    """Fresh database copies for every state: base, then after each delta."""
    states = [instance.database.copy()]
    current = instance.database.copy()
    for delta in instance.deltas:
        current.apply(delta)
        states.append(current.copy())
    return states


# -- the six paths ------------------------------------------------------------


def _run_cold(instance: SyntheticInstance, config: OracleConfig) -> List[str]:
    return [
        _observe_session_state(ProvenanceSession(instance.query, db), config)
        for db in _state_databases(instance)
    ]


def _run_warm(instance: SyntheticInstance, config: OracleConfig) -> List[str]:
    return [
        _observe_session_state(
            ProvenanceSession(instance.query, db), config, serve_twice=True
        )
        for db in _state_databases(instance)
    ]


def _run_parallel(instance: SyntheticInstance, config: OracleConfig) -> List[str]:
    session = ProvenanceSession(instance.query, instance.database.copy())
    texts = [_observe_batch_state(session, config)]
    for delta in instance.deltas:
        session.update(delta)
        texts.append(_observe_batch_state(session, config))
    return texts


def _run_incremental(instance: SyntheticInstance, config: OracleConfig) -> List[str]:
    session = ProvenanceSession(instance.query, instance.database.copy())
    texts = [_observe_session_state(session, config)]
    for delta in instance.deltas:
        session.update(delta)
        texts.append(_observe_session_state(session, config))
    if session.stats.evaluations != 1:
        # Not an assert: this must fire under ``python -O`` too. A
        # maintenance fallback to re-evaluation would make the path's
        # texts trivially correct while voiding what it claims to test.
        raise RuntimeError(
            "incremental path re-evaluated "
            f"({session.stats.evaluations} evaluations); maintenance must "
            "patch the single original evaluation"
        )
    return texts


def _observe_wire_state(client, digest: str, config: OracleConfig) -> str:
    """One state's observation through a connected service client."""
    answered = client.answers(digest)
    answers = [tuple(values) for values in answered["result"]["answers"]]
    sampled = sample_from_answers(
        answers, count=config.tuples_per_state, seed=config.sample_seed
    )
    witnesses: List[Dict] = []
    if sampled:
        batch = client.batch(
            digest,
            tuples=sampled,
            limit=config.limit,
            timeout=config.timeout_seconds,
            workers=1,
        )
        witnesses = [
            {"tuple": list(entry["tuple"]), "members": entry["members"]}
            for entry in batch["result"]["results"]
        ]
    return _canonical(answers, witnesses)


def _run_service(instance: SyntheticInstance, config: OracleConfig) -> List[str]:
    from ..service.client import local_service

    with local_service() as client:
        opened = client.open(
            instance.program_text(),
            instance.database_text(),
            instance.query.answer_predicate,
        )
        digest = opened["session"]
        texts = [_observe_wire_state(client, digest, config)]
        for lines in instance.delta_lines():
            client.update(digest, lines=lines)
            texts.append(_observe_wire_state(client, digest, config))
    return texts


def _run_restart(instance: SyntheticInstance, config: OracleConfig) -> List[str]:
    """The durable-tier path: crash the daemon mid-sequence, restart, resume.

    The first daemon incarnation admits the session with a
    :class:`~repro.service.store.SnapshotStore` attached and applies the
    first half of the delta sequence; it is then dropped *without* any
    flush — exactly what a crash leaves behind (durability must come
    from the log's base record and its per-update fsyncs, all written
    before each response was sent). The second incarnation, on the same
    state directory, must rehydrate from the log (``rehydrated: true``,
    one evaluation of the replayed database), serve the pre-stop state
    byte-identically, and then absorb the remaining deltas.
    """
    import shutil
    import tempfile

    from ..service.client import local_service
    from ..service.registry import SessionRegistry
    from ..service.store import SnapshotStore

    delta_lines = list(instance.delta_lines())
    half = (len(delta_lines) + 1) // 2
    state_dir = tempfile.mkdtemp(prefix="repro-oracle-restart-")
    try:
        registry = SessionRegistry(store=SnapshotStore(state_dir))
        with local_service(registry=registry) as client:
            opened = client.open(
                instance.program_text(),
                instance.database_text(),
                instance.query.answer_predicate,
            )
            digest = opened["session"]
            texts = [_observe_wire_state(client, digest, config)]
            for lines in delta_lines[:half]:
                client.update(digest, lines=lines)
                texts.append(_observe_wire_state(client, digest, config))
        # Hard stop: the context exit above tears the daemon down without
        # writing anything — the store holds only what was fsync'd at
        # commit time, which is the whole durability claim under test.
        del registry
        registry = SessionRegistry(store=SnapshotStore(state_dir))
        with local_service(registry=registry) as client:
            opened = client.open(
                instance.program_text(),
                instance.database_text(),
                instance.query.answer_predicate,
            )
            if opened["session"] != digest:
                raise RuntimeError(
                    "restart path re-admitted under a different digest "
                    f"({opened['session']} != {digest})"
                )
            # Not asserts: these must fire under ``python -O`` too. A
            # silent cold fallback would make the texts trivially correct
            # while voiding the crash-recovery claim this path tests.
            if not opened["result"]["rehydrated"]:
                raise RuntimeError(
                    "restart path fell back to cold admission; the second "
                    "incarnation must rehydrate from the store's log"
                )
            stats = client.stats(session=digest)
            evaluations = stats["result"]["session_stats"]["evaluations"]
            if evaluations != 1:
                raise RuntimeError(
                    f"rehydrated session reports {evaluations} evaluations; "
                    "log replay must evaluate the replayed database once"
                )
            resumed = _observe_wire_state(client, digest, config)
            if resumed != texts[-1]:
                raise RuntimeError(
                    "restart path lost state across the crash: the "
                    "rehydrated observation differs from the pre-stop one"
                )
            for lines in delta_lines[half:]:
                client.update(digest, lines=lines)
                texts.append(_observe_wire_state(client, digest, config))
        return texts
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def _run_sharded(instance: SyntheticInstance, config: OracleConfig) -> List[str]:
    """The multi-process path: same loop as ``service``, over the router.

    Every request crosses the TCP front-end, gets routed by content
    digest to one of ``config.shard_workers`` worker subprocesses, and
    must come back byte-identical to what the single-process daemon
    would have sent.
    """
    from ..service.client import local_sharded_service

    with local_sharded_service(workers=max(2, config.shard_workers)) as client:
        opened = client.open(
            instance.program_text(),
            instance.database_text(),
            instance.query.answer_predicate,
        )
        digest = opened["session"]
        texts = [_observe_wire_state(client, digest, config)]
        for lines in instance.delta_lines():
            client.update(digest, lines=lines)
            texts.append(_observe_wire_state(client, digest, config))
    return texts


_PATH_RUNNERS: Dict[str, Callable[[SyntheticInstance, OracleConfig], List[str]]] = {
    "cold": _run_cold,
    "warm": _run_warm,
    "parallel": _run_parallel,
    "incremental": _run_incremental,
    "service": _run_service,
    "restart": _run_restart,
    "sharded": _run_sharded,
}


def run_oracle(
    instance: SyntheticInstance, config: Optional[OracleConfig] = None
) -> OracleReport:
    """Drive *instance* through every configured path and diff observations.

    The first configured path is the reference; every other path is
    compared against it state by state, byte for byte. The report's
    :attr:`~OracleReport.ok` is the oracle's verdict; divergences carry
    both texts for debugging and shrinking.
    """
    config = config or OracleConfig()
    started = time.perf_counter()
    observations = {
        path: _PATH_RUNNERS[path](instance, config) for path in config.paths
    }
    reference = config.paths[0]
    divergences: List[Divergence] = []
    for path in config.paths[1:]:
        for state, (text_a, text_b) in enumerate(
            zip(observations[reference], observations[path])
        ):
            if text_a != text_b:
                divergences.append(
                    Divergence(
                        state=state,
                        path_a=reference,
                        path_b=path,
                        text_a=text_a,
                        text_b=text_b,
                    )
                )
        if len(observations[path]) != len(observations[reference]):
            divergences.append(
                Divergence(
                    state=min(
                        len(observations[path]), len(observations[reference])
                    ),
                    path_a=reference,
                    path_b=path,
                    text_a=f"{len(observations[reference])} states",
                    text_b=f"{len(observations[path])} states",
                )
            )
    return OracleReport(
        instance=instance,
        paths=config.paths,
        states=len(observations[reference]),
        observations=observations,
        divergences=divergences,
        seconds=time.perf_counter() - started,
    )


# -- shrinking ----------------------------------------------------------------


@dataclass
class ShrinkResult:
    """A minimized failing instance plus the work it took to find it."""

    instance: SyntheticInstance
    checks: int
    initial_shape: Tuple[int, int, int]  # (rules, facts, deltas)
    final_shape: Tuple[int, int, int]

    def describe(self) -> str:
        """One line: shape before -> after, oracle runs spent."""
        a, b = self.initial_shape, self.final_shape
        return (
            f"shrunk ({a[0]} rules, {a[1]} facts, {a[2]} deltas) -> "
            f"({b[0]} rules, {b[1]} facts, {b[2]} deltas) in {self.checks} runs"
        )


def _shape(instance: SyntheticInstance) -> Tuple[int, int, int]:
    return (
        len(instance.query.program.rules),
        len(instance.database),
        len(instance.deltas),
    )


def _rebuild(
    instance: SyntheticInstance,
    rules=None,
    facts=None,
    deltas=None,
) -> Optional[SyntheticInstance]:
    """A reduced candidate, renormalized to stay a valid oracle input.

    Dropping rules changes the extensional schema, so the database and
    every delta are re-restricted to the new ``edb`` (empty deltas are
    dropped). Returns ``None`` when the reduction is structurally invalid
    (no rules left, answer predicate no longer intensional).
    """
    try:
        program = (
            Program(rules) if rules is not None else instance.query.program
        )
        query = DatalogQuery(program, instance.query.answer_predicate)
    except ValueError:
        return None
    database = Database(
        facts if facts is not None else instance.database.facts()
    ).restrict(program.edb)
    kept_deltas: List[Delta] = []
    for delta in instance.deltas if deltas is None else deltas:
        reduced = Delta(
            inserted=frozenset(f for f in delta.inserted if f.pred in program.edb),
            deleted=frozenset(f for f in delta.deleted if f.pred in program.edb),
        )
        if reduced:
            kept_deltas.append(reduced)
    return replace(
        instance, query=query, database=database, deltas=tuple(kept_deltas)
    )


def shrink(
    instance: SyntheticInstance,
    config: Optional[OracleConfig] = None,
    max_checks: int = 80,
) -> ShrinkResult:
    """Minimize a failing instance while it keeps failing the oracle.

    Three greedy phases — delta sequence, database facts (ddmin), program
    rules — each validated by a full oracle run; a candidate on which the
    oracle *crashes* also counts as failing (a crash is a bug worth a
    minimal repro just as much as a divergence). ``max_checks`` bounds
    the total number of oracle runs.
    """
    config = config or OracleConfig()
    checks = 0

    def fails(candidate: Optional[SyntheticInstance]) -> bool:
        nonlocal checks
        if candidate is None or checks >= max_checks:
            return False
        checks += 1
        try:
            return not run_oracle(candidate, config).ok
        except Exception:
            return True

    initial = _shape(instance)

    # Phase 1: the delta sequence — try dropping it entirely, then one at
    # a time (later deltas first: a divergence at state k usually needs
    # only the first k deltas).
    if instance.deltas:
        candidate = _rebuild(instance, deltas=())
        if fails(candidate):
            instance = candidate
        else:
            index = len(instance.deltas) - 1
            while index >= 0 and checks < max_checks:
                reduced = list(instance.deltas)
                del reduced[index]
                candidate = _rebuild(instance, deltas=reduced)
                if fails(candidate):
                    instance = candidate
                index -= 1

    # Phase 2: database facts, classic ddmin over the sorted fact list.
    facts = sorted(instance.database, key=str)
    granularity = 2
    while len(facts) >= 2 and checks < max_checks:
        chunk = max(1, -(-len(facts) // granularity))
        removed_any = False
        start = 0
        while start < len(facts) and checks < max_checks:
            reduced = facts[:start] + facts[start + chunk:]
            candidate = _rebuild(instance, facts=reduced)
            if reduced and fails(candidate):
                facts = reduced
                instance = candidate
                removed_any = True
            else:
                start += chunk
        if removed_any:
            granularity = max(2, granularity - 1)
        elif chunk == 1:
            break
        else:
            granularity = min(len(facts), granularity * 2)

    # Phase 3: program rules, one at a time (later rules first so the
    # base rules that keep the answer predicate derivable survive).
    index = len(instance.query.program.rules) - 1
    while index >= 0 and checks < max_checks:
        rules = list(instance.query.program.rules)
        if len(rules) <= 1:
            break
        del rules[index]
        candidate = _rebuild(instance, rules=rules)
        if fails(candidate):
            instance = candidate
        index -= 1

    return ShrinkResult(
        instance=instance,
        checks=checks,
        initial_shape=initial,
        final_shape=_shape(instance),
    )
