"""Model enumeration with blocking clauses (Section 5.2).

The paper enumerates the members of the why-provenance by repeatedly asking
the SAT solver for a model, projecting it onto the variables that matter
(the database facts of the downward closure), and adding a *blocking
clause* that excludes every assignment with the same projection. This
module implements that loop generically over any CNF and projection set,
blocking through :meth:`~repro.sat.solver.CDCLSolver.block_model`, which
backjumps to where the clause asserts instead of restarting the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cnf import CNF
from .solver import CDCLSolver


@dataclass
class EnumerationRecord:
    """One enumerated model plus the time it took to produce it."""

    assignment: Dict[int, bool]
    delay_seconds: float
    index: int


def enumerate_models(
    cnf: CNF,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
    timeout_seconds: Optional[float] = None,
    solver: Optional[CDCLSolver] = None,
) -> Iterator[EnumerationRecord]:
    """Yield distinct projected models of *cnf* with per-model delays.

    Parameters
    ----------
    projection:
        Variables onto which models are projected; two models agreeing on
        these variables count as one. Defaults to all variables.
    limit:
        Stop after this many models (the paper uses 10K).
    timeout_seconds:
        Stop once the total elapsed time exceeds this bound (the paper uses
        5 minutes).
    solver:
        An existing solver to reuse; a new one is built from *cnf* if absent
        (in that case *cnf* is not mutated — clauses go to the solver).
    """
    if solver is None:
        solver = CDCLSolver()
        solver.add_cnf(cnf)
    variables = list(projection) if projection is not None else list(range(1, cnf.num_vars + 1))
    start = time.perf_counter()
    count = 0
    while True:
        if limit is not None and count >= limit:
            return
        if timeout_seconds is not None and time.perf_counter() - start > timeout_seconds:
            return
        before = time.perf_counter()
        satisfiable = solver.solve()
        delay = time.perf_counter() - before
        if not satisfiable:
            return
        model = solver.model()
        projected = {var: model[var] for var in variables}
        yield EnumerationRecord(assignment=projected, delay_seconds=delay, index=count)
        count += 1
        blocking = [(-var if model[var] else var) for var in variables]
        if not blocking or not solver.block_model(blocking):
            return


def count_models(cnf: CNF, projection: Optional[Sequence[int]] = None, limit: Optional[int] = None) -> int:
    """Count distinct projected models (up to *limit*)."""
    return sum(1 for _ in enumerate_models(cnf, projection=projection, limit=limit))


def all_models(
    cnf: CNF,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
) -> List[Dict[int, bool]]:
    """Materialize the projected models as a list of assignment dicts."""
    return [rec.assignment for rec in enumerate_models(cnf, projection=projection, limit=limit)]
