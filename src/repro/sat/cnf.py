"""CNF formulas and DIMACS I/O.

Literals follow the DIMACS convention: variables are positive integers and a
negative literal is the negated variable.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class CNF:
    """A CNF formula: a clause list over ``num_vars`` variables."""

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: List[Tuple[int, ...]] = []

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append a clause; literals must reference allocated variables.

        The empty clause is representable: the formula is unsatisfiable.
        """
        clause = tuple(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a literal")
            if abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references unallocated variable {abs(lit)}")
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add every clause of an iterable, as :meth:`add_clause` would one by one.

        The literals are checked in one pass over the whole batch; only a
        batch that holds a bad literal goes clause by clause, so the
        clauses before the first bad one are kept and it raises.
        """
        batch = [tuple(clause) for clause in clauses]
        literals = set(chain.from_iterable(batch))
        if literals and (
            0 in literals or max(literals) > self.num_vars or -min(literals) > self.num_vars
        ):
            for clause in batch:
                self.add_clause(clause)
            return
        self.clauses.extend(batch)

    def implies(self, antecedent: int, consequent: int) -> None:
        """Add ``antecedent -> consequent``."""
        self.add_clause((-antecedent, consequent))

    def at_least_one(self, literals: Sequence[int]) -> None:
        """Require at least one of *literals* (a single clause)."""
        self.add_clause(literals)

    def at_most_one(self, literals: Sequence[int]) -> None:
        """Pairwise at-most-one encoding (fine for the small groups we use)."""
        for i, a in enumerate(literals):
            for b in literals[i + 1 :]:
                self.add_clause((-a, -b))

    def exactly_one(self, literals: Sequence[int]) -> None:
        """Require exactly one of *literals* (at-least + pairwise at-most)."""
        self.at_least_one(literals)
        self.at_most_one(literals)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.clauses)

    def copy(self) -> "CNF":
        """An independent copy (clause list is duplicated)."""
        dup = CNF(self.num_vars)
        dup.clauses = list(self.clauses)
        return dup

    def stats(self) -> Dict[str, int]:
        """Variable / clause / literal counts, for the experiment tables."""
        return {
            "variables": self.num_vars,
            "clauses": len(self.clauses),
            "literals": sum(len(c) for c in self.clauses),
        }

    # -- evaluation (used by tests and the brute-force checker) -------------

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Whether *assignment* (total on used variables) satisfies the CNF."""
        for clause in self.clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0) for lit in clause
            ):
                return False
        return True

    # -- DIMACS ---------------------------------------------------------------

    def to_dimacs(self) -> str:
        """Serialize in DIMACS CNF format."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse DIMACS CNF text (comments and multi-line clauses allowed)."""
        num_vars = 0
        clauses: List[Tuple[int, ...]] = []
        declared: Optional[Tuple[int, int]] = None
        current: List[int] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed problem line: {line!r}")
                declared = (int(parts[2]), int(parts[3]))
                num_vars = declared[0]
                continue
            for token in line.split():
                lit = int(token)
                if lit == 0:
                    clauses.append(tuple(current))
                    current = []
                else:
                    num_vars = max(num_vars, abs(lit))
                    current.append(lit)
        if current:
            raise ValueError("last clause not terminated by 0")
        cnf = cls(num_vars)
        for clause in clauses:
            cnf.add_clause(clause)
        if declared is not None and declared[1] != len(clauses):
            # Tolerate wrong counts (common in the wild) but keep parsing strict.
            pass
        return cnf
