"""A CDCL SAT solver in pure Python.

The paper's implementation calls Glucose 4.2.1; no SAT binding is available
offline, so this module implements the same algorithmic recipe from scratch:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and local minimization,
* VSIDS-style variable activities (lazy heap) with phase saving,
* Luby-sequence restarts,
* learned-clause database reduction driven by LBD ("literal block
  distance"), the hallmark heuristic of Glucose.

The solver is incremental: clauses may be added between ``solve`` calls
(this is what blocking-clause enumeration needs) and ``solve`` accepts
assumption literals (used by the membership deciders).

Propagation hot path: assignments, decision levels, saved phases and the
trail live in typed :mod:`array` buffers (contiguous machine ints instead
of lists of boxed objects), and the two-watched-literal scheme indexes a
dense list of watch lists by encoded literal (``2*var`` for the positive
literal, ``2*var + 1`` for the negative) instead of hashing literals into
a dict. The visible behavior — propagation order, learning, restarts,
member discovery order — is bit-identical to the boxed representation.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cnf import CNF

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class _Clause:
    """A clause with learning metadata; literals[0:2] are the watches."""

    __slots__ = ("literals", "learned", "lbd", "activity")

    def __init__(self, literals: List[int], learned: bool = False, lbd: int = 0):
        self.literals = literals
        self.learned = learned
        self.lbd = lbd
        self.activity = 0.0


class SolverStatistics:
    """Counters exposed for the solver-ablation benchmarks."""

    __slots__ = ("conflicts", "decisions", "propagations", "restarts", "learned", "removed")

    def __init__(self):
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned = 0
        self.removed = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and assertions)."""
        return {name: getattr(self, name) for name in self.__slots__}


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class CDCLSolver:
    """Conflict-driven clause-learning solver.

    Usage::

        solver = CDCLSolver()
        solver.add_cnf(cnf)
        if solver.solve():
            model = solver.model()          # dict var -> bool
        solver.add_clause([-3, 5])           # e.g. a blocking clause
        solver.solve()                        # incremental re-solve
    """

    def __init__(self, num_vars: int = 0):
        self._num_vars = 0
        # Typed buffers indexed by variable (slot 0 unused): signed bytes
        # for the three-valued assignment and the saved phase, machine
        # ints for decision levels and the literal trail.
        self._assign = array("b", (_UNASSIGNED,))
        self._level = array("i", (0,))
        self._reason: List[Optional[_Clause]] = [None]
        self._activity = array("d", (0.0,))
        self._phase = array("b", (0,))
        # Watch lists indexed by encoded literal: 2*var for the positive
        # literal, 2*var + 1 for the negative (slots 0/1 unused).
        self._watches: List[List[_Clause]] = [[], []]
        self._trail = array("i")
        self._trail_lim: List[int] = []
        self._queue_head = 0
        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        self._heap: List[Tuple[float, int]] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._unsat = False
        self.stats = SolverStatistics()
        for _ in range(num_vars):
            self.new_var()

    # -- variables and clauses ----------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(0)
        var = self._num_vars
        self._watches.append([])  # encoded literal 2*var (positive)
        self._watches.append([])  # encoded literal 2*var + 1 (negative)
        heapq.heappush(self._heap, (0.0, var))
        return var

    @staticmethod
    def _watch_index(lit: int) -> int:
        """The dense watch-list slot of a literal."""
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable pool so that *num_vars* variables exist."""
        while self._num_vars < num_vars:
            self.new_var()

    @property
    def num_vars(self) -> int:
        """Number of allocated variables."""
        return self._num_vars

    def add_cnf(self, cnf: CNF) -> None:
        """Load every clause of a :class:`CNF` (allocating variables)."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    def set_phases(self, phases: Dict[int, bool]) -> None:
        """Seed the phase-saving memory (warm start).

        Decisions follow saved phases, so seeding them with a known or
        suspected model lets the first ``solve`` walk straight to it; the
        solver remains complete regardless of the hints.
        """
        for var, value in phases.items():
            self.ensure_vars(var)
            self._phase[var] = 1 if value else 0

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause; returns ``False`` on a root-level conflict."""
        if self._unsat:
            return False
        self._backtrack(0)
        lits: List[int] = []
        seen = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a literal")
            self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = self._value(lit)
            if value == _TRUE:
                return True  # already satisfied at root level
            if value == _FALSE:
                continue  # falsified at root level: drop the literal
            lits.append(lit)
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self._unsat = True
                return False
            if self._propagate() is not None:
                self._unsat = True
                return False
            return True
        clause = _Clause(lits)
        self._attach(clause)
        self._clauses.append(clause)
        return True

    def _attach(self, clause: _Clause) -> None:
        self._watches[self._watch_index(clause.literals[0])].append(clause)
        self._watches[self._watch_index(clause.literals[1])].append(clause)

    # -- assignment machinery --------------------------------------------------

    def _value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if lit > 0 else -value

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        value = self._value(lit)
        if value == _FALSE:
            return False
        if value == _TRUE:
            return True
        var = abs(lit)
        self._assign[var] = _TRUE if lit > 0 else _FALSE
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._phase[var] = 1 if lit > 0 else 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        while self._queue_head < len(self._trail):
            lit = self._trail[self._queue_head]
            self._queue_head += 1
            self.stats.propagations += 1
            falsified = -lit
            falsified_slot = (
                (falsified << 1) if falsified > 0 else ((-falsified) << 1) | 1
            )
            watchers = self._watches[falsified_slot]
            new_watchers: List[_Clause] = []
            conflict: Optional[_Clause] = None
            idx = 0
            while idx < len(watchers):
                clause = watchers[idx]
                idx += 1
                lits = clause.literals
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._value(first) == _TRUE:
                    new_watchers.append(clause)
                    continue
                found = False
                for k in range(2, len(lits)):
                    if self._value(lits[k]) != _FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[self._watch_index(lits[1])].append(clause)
                        found = True
                        break
                if found:
                    continue
                new_watchers.append(clause)
                if not self._enqueue(first, clause):
                    conflict = clause
                    new_watchers.extend(watchers[idx:])
                    break
            self._watches[falsified_slot] = new_watchers
            if conflict is not None:
                self._queue_head = len(self._trail)
                return conflict
        return None

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)

    # -- activities ----------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._heap = [(-self._activity[v], v) for v in range(1, self._num_vars + 1)
                          if self._assign[v] == _UNASSIGNED]
            heapq.heapify(self._heap)
            return
        if self._assign[var] == _UNASSIGNED:
            heapq.heappush(self._heap, (-self._activity[var], var))

    def _decay_var_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for learned in self._learned:
                learned.activity *= 1e-20
            self._cla_inc *= 1e-20

    # -- conflict analysis -------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int, int]:
        """First-UIP learning; returns (learned clause, backjump level, lbd)."""
        learned: List[int] = [0]  # slot 0: the asserting literal
        seen = bytearray(self._num_vars + 1)
        counter = 0
        index = len(self._trail) - 1
        resolved_lit: Optional[int] = None
        reason: Optional[_Clause] = conflict
        current_level = self._decision_level()
        while True:
            assert reason is not None
            self._bump_clause(reason)
            for q in reason.literals:
                if resolved_lit is not None and q == resolved_lit:
                    continue
                var = abs(q)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = 1
                self._bump_var(var)
                if self._level[var] >= current_level:
                    counter += 1
                else:
                    learned.append(q)
            while not seen[abs(self._trail[index])]:
                index -= 1
            resolved_lit = self._trail[index]
            index -= 1
            var = abs(resolved_lit)
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learned[0] = -resolved_lit
                break
            reason = self._reason[var]
        learned = self._minimize(learned)
        if len(learned) == 1:
            backjump = 0
        else:
            max_idx = 1
            for i in range(2, len(learned)):
                if self._level[abs(learned[i])] > self._level[abs(learned[max_idx])]:
                    max_idx = i
            learned[1], learned[max_idx] = learned[max_idx], learned[1]
            backjump = self._level[abs(learned[1])]
        lbd = len({self._level[abs(q)] for q in learned})
        return learned, backjump, lbd

    def _minimize(self, learned: List[int]) -> List[int]:
        """Local minimization: drop literals implied by the rest of the clause.

        A literal may be removed when every literal of its reason clause is
        either assigned at level 0 or already present in the learned clause;
        the implication structure on the trail is acyclic, so simultaneous
        removals stay sound.
        """
        members = {abs(q) for q in learned}
        result = [learned[0]]
        for q in learned[1:]:
            reason = self._reason[abs(q)]
            if reason is None:
                result.append(q)
                continue
            redundant = all(
                abs(r) in members or self._level[abs(r)] == 0
                for r in reason.literals
                if abs(r) != abs(q)
            )
            if not redundant:
                result.append(q)
        return result

    # -- search ---------------------------------------------------------------------

    def _pick_branch(self) -> int:
        while self._heap:
            _, var = heapq.heappop(self._heap)
            if self._assign[var] == _UNASSIGNED:
                return var if self._phase[var] else -var
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == _UNASSIGNED:
                return var if self._phase[var] else -var
        return 0

    def _reduce_db(self) -> None:
        """Drop the worst half of the learned clauses (high LBD first)."""
        if len(self._learned) < 100:
            return
        self._learned.sort(key=lambda c: (-c.lbd, c.activity))
        drop = len(self._learned) // 2
        locked = {
            id(self._reason[var])
            for var in range(1, self._num_vars + 1)
            if self._reason[var] is not None
        }
        kept: List[_Clause] = []
        for i, clause in enumerate(self._learned):
            removable = (
                i < drop
                and clause.lbd > 2
                and len(clause.literals) > 2
                and id(clause) not in locked
            )
            if removable:
                self._detach(clause)
                self.stats.removed += 1
            else:
                kept.append(clause)
        self._learned = kept

    def _detach(self, clause: _Clause) -> None:
        for lit in clause.literals[:2]:
            watchers = self._watches[self._watch_index(lit)]
            try:
                watchers.remove(clause)
            except ValueError:
                pass

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
    ) -> Optional[bool]:
        """Solve under *assumptions*.

        Returns ``True`` (SAT), ``False`` (UNSAT under the assumptions), or
        ``None`` when the conflict limit or the wall-clock timeout was
        exhausted without an answer.
        """
        if self._unsat:
            return False
        deadline = None
        if timeout_seconds is not None:
            import time

            deadline = time.monotonic() + timeout_seconds
        ticks = 0
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return False

        conflicts_at_start = self.stats.conflicts
        restart_unit = 64
        luby_index = 1
        next_restart = self.stats.conflicts + restart_unit * _luby(luby_index)
        max_learned = max(1000, len(self._clauses) // 2)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if self._decision_level() == 0:
                    self._unsat = True
                    return False
                learned, backjump, lbd = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._unsat = True
                        return False
                else:
                    clause = _Clause(learned, learned=True, lbd=lbd)
                    self._attach(clause)
                    self._learned.append(clause)
                    self.stats.learned += 1
                    self._enqueue(learned[0], clause)
                self._decay_var_activity()
                if conflict_limit is not None and (
                    self.stats.conflicts - conflicts_at_start >= conflict_limit
                ):
                    self._backtrack(0)
                    return None
                if deadline is not None:
                    ticks += 1
                    if ticks % 128 == 0:
                        import time

                        if time.monotonic() > deadline:
                            self._backtrack(0)
                            return None
                if self.stats.conflicts >= next_restart:
                    self.stats.restarts += 1
                    luby_index += 1
                    next_restart = self.stats.conflicts + restart_unit * _luby(luby_index)
                    self._backtrack(0)
                if len(self._learned) > max_learned:
                    self._reduce_db()
                    max_learned = int(max_learned * 1.1) + 1
                continue

            # No conflict: establish assumptions first, then decide.
            pending_assumption = None
            for lit in assumptions:
                value = self._value(lit)
                if value == _FALSE:
                    self._backtrack(0)
                    return False
                if value == _UNASSIGNED:
                    pending_assumption = lit
                    break
            if pending_assumption is not None:
                self._trail_lim.append(len(self._trail))
                self._enqueue(pending_assumption, None)
                continue
            decision = self._pick_branch()
            if decision == 0:
                return True  # every variable assigned: SAT
            if deadline is not None:
                ticks += 1
                if ticks % 1024 == 0:
                    import time

                    if time.monotonic() > deadline:
                        self._backtrack(0)
                        return None
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment found by the last ``solve`` (total)."""
        return {
            var: self._assign[var] == _TRUE
            for var in range(1, self._num_vars + 1)
        }

    def value(self, var: int) -> Optional[bool]:
        """Current value of *var* (``None`` if unassigned)."""
        value = self._assign[var]
        if value == _UNASSIGNED:
            return None
        return value == _TRUE


def solve_cnf(cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Dict[int, bool]]:
    """One-shot convenience: return a model dict, or ``None`` if UNSAT."""
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    result = solver.solve(assumptions=assumptions)
    if result:
        return solver.model()
    return None
