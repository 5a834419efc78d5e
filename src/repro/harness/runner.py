"""Experiment runner implementing the paper's setup (Section 5.3).

For each scenario and database: compute ``Q(D)``, select five answer
tuples uniformly at random (seeded), and for each tuple build the downward
closure, compile the Boolean formula, and enumerate the members of the
why-provenance (capped by member count and timeout). The records returned
carry the Figure 1/3 build times and the Figure 2/4 delay distributions.

Each database is served through one
:class:`~repro.core.session.ProvenanceSession`: the program is evaluated
once with instance recording on, and every sampled tuple's closure is a
reachability restriction of the shared GRI. The tuples go through
:meth:`~repro.core.session.ProvenanceSession.explain_batch`, and each
tuple's record is the :class:`~repro.core.parallel.FactResult` it
returns. Pass ``workers > 1`` to shard the sampled tuples across the
batch's forked worker pool (one parent evaluation, per-fact grounding,
encoding and solving in the workers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..datalog.database import Database
from ..datalog.engine import EvaluationResult, evaluate
from ..datalog.program import DatalogQuery
from ..core.parallel import FactResult
from ..core.session import ProvenanceSession
from ..scenarios.base import Scenario

#: Paper defaults, scaled: 10K members / 5 min in the paper.
DEFAULT_MEMBER_LIMIT = 500
DEFAULT_TIMEOUT_SECONDS = 20.0
DEFAULT_TUPLES_PER_DATABASE = 5


@dataclass
class DatabaseRun:
    """The sampled tuples of one database (one bar group / box of a figure)."""

    scenario: str
    database: str
    fact_count: int
    tuple_runs: List[FactResult]

    def build_times(self) -> List[float]:
        """Per-tuple build times (one Figure 1/3 bar group)."""
        return [run.build_seconds for run in self.tuple_runs]

    def pooled_delays(self) -> List[float]:
        """All delays of all tuple runs pooled (one Figure 2/4 box)."""
        delays: List[float] = []
        for run in self.tuple_runs:
            delays.extend(run.delays)
        return delays


def sample_from_answers(
    answers: Sequence[Tuple],
    count: int = DEFAULT_TUPLES_PER_DATABASE,
    seed: int = 7,
) -> List[Tuple]:
    """Sample *count* tuples from an answer list (sorted first, fixed seed).

    The sampling kernel shared by the experiments and the differential
    oracle: both sort before sampling, so the same seed picks the same
    tuples whether the answers came from a local evaluation or over the
    wire.
    """
    answers = sorted(answers)
    if not answers:
        return []
    rng = random.Random(seed)
    if len(answers) <= count:
        return list(answers)
    return rng.sample(answers, count)


def sample_answer_tuples(
    query: DatalogQuery,
    database: Database,
    count: int = DEFAULT_TUPLES_PER_DATABASE,
    seed: int = 7,
    evaluation: Optional[EvaluationResult] = None,
) -> List[Tuple]:
    """Select *count* answer tuples uniformly at random (with a fixed seed).

    Deterministic: answers are sorted before sampling so the same seed
    always yields the same tuples regardless of set iteration order.
    """
    if evaluation is None:
        evaluation = evaluate(query.program, database)
    answers = [
        fact.args for fact in evaluation.model.relation(query.answer_predicate)
    ]
    return sample_from_answers(answers, count=count, seed=seed)


def run_database(
    scenario: Scenario,
    database_name: str,
    tuples_per_database: int = DEFAULT_TUPLES_PER_DATABASE,
    member_limit: Optional[int] = DEFAULT_MEMBER_LIMIT,
    timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
    seed: int = 7,
    workers: int = 1,
    engine: Optional[str] = None,
) -> DatabaseRun:
    """Run the full per-database experiment of Section 5.3.

    The sampled tuples share one :class:`ProvenanceSession` — one
    instrumented evaluation, one GRI, per-tuple closures by restriction.
    With ``workers > 1`` the sampled tuples are sharded across a forked
    worker pool; the per-tuple measurements are then taken inside the
    workers. ``engine`` selects the evaluation engine (``"compiled"`` /
    ``"interpreted"``; ``None`` consults ``REPRO_ENGINE``) for the
    session — the ablation axis of the engine benchmarks.
    """
    query = scenario.query()
    # A scenario database may be shared by several query variants (the
    # Doctors family); each variant sees its slice over edb(Sigma), as the
    # decision problems require a database over the extensional schema.
    database = scenario.database(database_name).restrict(query.program.edb)
    session = ProvenanceSession(query, database, engine=engine)
    tuples = sample_answer_tuples(
        query, database, count=tuples_per_database, seed=seed,
        evaluation=session.evaluation,
    )
    batch = session.explain_batch(
        tuples,
        workers=workers,
        limit=member_limit,
        timeout_seconds=timeout_seconds,
    )
    return DatabaseRun(
        scenario=scenario.name,
        database=database_name,
        fact_count=len(database),
        tuple_runs=batch.results,
    )


def run_scenario(
    scenario: Scenario,
    tuples_per_database: int = DEFAULT_TUPLES_PER_DATABASE,
    member_limit: Optional[int] = DEFAULT_MEMBER_LIMIT,
    timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
    seed: int = 7,
    workers: int = 1,
    engine: Optional[str] = None,
) -> List[DatabaseRun]:
    """Run every database of a scenario."""
    return [
        run_database(
            scenario,
            name,
            tuples_per_database=tuples_per_database,
            member_limit=member_limit,
            timeout_seconds=timeout_seconds,
            seed=seed,
            workers=workers,
            engine=engine,
        )
        for name in scenario.database_names()
    ]
