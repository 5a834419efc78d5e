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
and ``solve`` accepts assumption literals (used by the membership
deciders). Model enumeration blocks each model with ``block_model``,
which backjumps to where the blocking clause asserts instead of
restarting, so the next ``solve`` resumes from that trail (the backjump
of all-solutions solvers: Toda and Soh, "Implementing Efficient All
Solutions SAT Solvers", ACM JEA 21, 2016). Every other ``solve`` starts
at level 0.

Propagation hot path, after MiniSat (Eén and Sörensson, "An Extensible
SAT-solver", SAT 2003):

* **Values indexed by literal.** ``_values`` is a list of ``2*cap + 1``
  slots indexed by the signed literal itself: a positive literal from the
  front, a negative one from the end (Python's own negative indexing), so
  reading a literal's value is one subscript with no ``abs()`` and no
  sign branch. Both slots of a variable are written on assignment. The
  watch table ``_watches`` is indexed the same way. Both are re-laid out
  when the variable count passes ``cap``.
* **In-place watch compaction.** ``_propagate`` keeps the solver's state
  in locals, reads values and enqueues inline, and compacts each watch
  list with two indices instead of building a new list per literal.
* **One live heap entry per variable.** ``_heap_key[var]`` is the key of
  the variable's newest entry in the lazy VSIDS heap, or ``_POPPED`` once
  that entry has left it. A variable is pushed only when its newest entry
  is gone or carries an older activity, so every unassigned variable
  still has an entry keyed by minus its current activity and
  ``_pick_branch`` returns the unassigned variable of highest activity
  (lowest index on ties) without the heap filling with stale entries.

Every search that follows no ``block_model`` — decisions, propagation
order, learned clauses, restarts — is bit-identical to the plain
per-variable representation with clauses added through ``add_clause``;
``tests/test_solver_search_pinned.py`` pins it on pigeonhole formulas,
and pins the member streams of blocking-clause enumeration as well.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cnf import CNF

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1
#: ``_heap_key`` marker for a variable whose newest heap entry was popped;
#: no key is positive, since keys are minus non-negative activities.
_POPPED = 1.0


class _Clause:
    """A clause with learning metadata; literals[0:2] are the watches."""

    __slots__ = ("literals", "lbd", "activity")

    def __init__(self, literals: List[int], lbd: int = 0):
        self.literals = literals
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
        while solver.solve():                 # resumes after block_model
            model = solver.model()            # dict var -> bool
            blocking = [-v if model[v] else v for v in projection]
            if not solver.block_model(blocking):
                break                         # no further model
    """

    def __init__(self, num_vars: int = 0):
        self._num_vars = 0
        # Indexed by signed literal (slot 0 unused; -v reads from the end):
        # the literal's value, and the clauses watching it.
        self._cap = 0
        self._values: List[int] = [_UNASSIGNED]
        self._watches: List[List[_Clause]] = [[]]
        # Indexed by variable (slot 0 unused).
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[int] = [0]
        self._heap_key: List[float] = [_POPPED]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0
        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        self._heap: List[Tuple[float, int]] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._unsat = False
        # Set by ``block_model`` when it leaves a trail above level 0 for
        # the next ``solve`` to resume from; every other entry clears it.
        self._resume = False
        self.stats = SolverStatistics()
        self.ensure_vars(num_vars)

    # -- variables and clauses ----------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.ensure_vars(self._num_vars + 1)
        return self._num_vars

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable pool so that *num_vars* variables exist."""
        if num_vars <= self._num_vars:
            return
        cap = self._cap
        if num_vars > cap:
            # Re-lay out the literal-indexed lists: positives stay at the
            # front, negatives move to the new end.
            grown = max(num_vars, 2 * cap)
            gap = 2 * (grown - cap)
            self._values = (
                self._values[: cap + 1] + [_UNASSIGNED] * gap + self._values[cap + 1:]
            )
            self._watches = (
                self._watches[: cap + 1]
                + [[] for _ in range(gap)]
                + self._watches[cap + 1:]
            )
            self._cap = grown
        added = num_vars - self._num_vars
        self._level += [0] * added
        self._reason += [None] * added
        self._activity += [0.0] * added
        self._phase += [0] * added
        self._heap_key += [0.0] * added
        # Every key is minus a non-negative activity and every new variable
        # exceeds the old ones, so each new entry is at least every entry
        # in the heap: appending them in order is what heappush would do.
        self._heap += [(0.0, var) for var in range(self._num_vars + 1, num_vars + 1)]
        self._num_vars = num_vars

    @property
    def num_vars(self) -> int:
        """Number of allocated variables."""
        return self._num_vars

    def add_cnf(self, cnf: CNF) -> None:
        """Load every clause of a :class:`CNF` (allocating variables).

        One pass with the solver's state in locals. It leaves the same
        clauses, watches, trail and values as calling :meth:`add_clause`
        on each clause in order: duplicate and root-false literals are
        dropped, tautologies and root-satisfied clauses skipped, a unit is
        enqueued and propagated where it appears, an empty clause or a
        root conflict makes the solver UNSAT and ends the load, a ``0``
        raises and an out-of-range literal grows the solver.
        """
        self.ensure_vars(cnf.num_vars)
        if self._unsat or not cnf.clauses:
            return
        self._backtrack(0)
        self._resume = False
        values = self._values
        watches = self._watches
        problem = self._clauses
        limit = self._num_vars
        low = -limit
        for literals in cnf.clauses:
            lits: List[int] = []
            for lit in literals:
                if not low <= lit <= limit or not lit:
                    if not lit:
                        raise ValueError("0 is not a literal")
                    self.ensure_vars(abs(lit))
                    values = self._values
                    watches = self._watches
                    limit = self._num_vars
                    low = -limit
                value = values[lit]
                if value:
                    if value == 1:
                        break  # already satisfied at root level
                    continue  # falsified at root level: drop the literal
                # A scan of the kept literals, not a set: clauses of phi
                # are short (at most 14 literals on the update probes).
                if lit in lits:
                    continue  # duplicate
                if -lit in lits:
                    break  # tautology
                lits.append(lit)
            else:
                if len(lits) > 1:
                    clause = _Clause(lits)
                    watches[lits[0]].append(clause)
                    watches[lits[1]].append(clause)
                    problem.append(clause)
                elif not lits or self._propagate_unit(lits[0]) is not None:
                    self._unsat = True
                    return

    def set_phases(self, phases: Dict[int, bool]) -> None:
        """Seed the phase-saving memory (warm start).

        Decisions follow saved phases, so seeding them with a known or
        suspected model lets the first ``solve`` walk straight to it; the
        solver remains complete regardless of the hints.
        """
        if phases:
            self.ensure_vars(max(phases))
        for var, value in phases.items():
            self._phase[var] = 1 if value else 0

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause; returns ``False`` on a root-level conflict."""
        if self._unsat:
            return False
        self._backtrack(0)
        self._resume = False
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
            value = self._values[lit]
            if value == _TRUE:
                return True  # already satisfied at root level
            if value == _FALSE:
                continue  # falsified at root level: drop the literal
            lits.append(lit)
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            if self._propagate_unit(lits[0]) is not None:
                self._unsat = True
                return False
            return True
        clause = _Clause(lits)
        self._attach(clause)
        self._clauses.append(clause)
        return True

    def block_model(self, literals: Iterable[int]) -> bool:
        """Add a clause that the current assignment falsifies, and backjump.

        This is how model enumeration excludes the model just found: the
        clause is added for good, and instead of restarting from level 0
        the solver backjumps to the second-highest decision level among
        its literals, where the clause asserts its highest-level literal
        exactly as a learned clause would. The next :meth:`solve` without
        assumptions resumes from that trail. Root-level literals are
        dropped; a single remaining literal becomes a unit at level 0.
        When two literals share the highest level the clause asserts
        nothing, so the solver backjumps one level below it, where both
        watches are unassigned. The watches are the two highest-level
        literals, ties going to the earlier position in *literals*.

        Returns ``False`` when every literal is false at the root, so no
        further model exists. Raises :class:`ValueError` if a literal is
        not false under the current assignment.
        """
        if self._unsat:
            return False
        values = self._values
        level_of = self._level
        lits: List[int] = []
        for lit in dict.fromkeys(literals):
            if lit == 0 or abs(lit) > self._num_vars or values[lit] != _FALSE:
                raise ValueError(f"literal {lit} is not false under the current assignment")
            if level_of[abs(lit)]:
                lits.append(lit)
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            self._backtrack(0)
            self._enqueue(lits[0], None)
        else:
            first = second = -1  # positions of the highest and second-highest level
            for i, lit in enumerate(lits):
                level = level_of[abs(lit)]
                if first < 0 or level > level_of[abs(lits[first])]:
                    first, second = i, first
                elif second < 0 or level > level_of[abs(lits[second])]:
                    second = i
            top = level_of[abs(lits[first])]
            level = level_of[abs(lits[second])]
            clause = _Clause(
                [lits[first], lits[second]]
                + [lit for i, lit in enumerate(lits) if i != first and i != second]
            )
            self._backtrack(level - 1 if level == top else level)
            self._attach(clause)
            self._clauses.append(clause)
            if level < top:
                self._enqueue(clause.literals[0], clause)
        self._resume = bool(self._trail_lim)
        return True

    def _propagate_unit(self, lit: int) -> Optional[_Clause]:
        """Enqueue an unassigned root-level unit and propagate it."""
        self._enqueue(lit, None)
        return self._propagate()

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.literals[0]].append(clause)
        self._watches[clause.literals[1]].append(clause)

    # -- assignment machinery --------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        values = self._values
        value = values[lit]
        if value == _FALSE:
            return False
        if value == _TRUE:
            return True
        values[lit] = _TRUE
        values[-lit] = _FALSE
        var = lit if lit > 0 else -lit
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = 1 if lit > 0 else 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        trail = self._trail
        values = self._values
        watches = self._watches
        level_of = self._level
        reason_of = self._reason
        phase = self._phase
        level = len(self._trail_lim)
        head = self._queue_head
        propagations = 0
        conflict: Optional[_Clause] = None
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            propagations += 1
            watchers = watches[falsified]
            i = j = 0
            for clause in watchers:
                i += 1
                lits = clause.literals
                first = lits[0]
                if first == falsified:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = falsified
                if values[first] == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if values[other] != -1:
                        lits[1] = other
                        lits[k] = falsified
                        watches[other].append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if values[first] == -1:
                        conflict = clause
                        break
                    values[first] = 1
                    values[-first] = -1
                    if first > 0:
                        level_of[first] = level
                        reason_of[first] = clause
                        phase[first] = 1
                    else:
                        level_of[-first] = level
                        reason_of[-first] = clause
                        phase[-first] = 0
                    trail.append(first)
            del watchers[j:i]
            if conflict is not None:
                break
        self._queue_head = len(trail)
        self.stats.propagations += propagations
        return conflict

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        limit = trail_lim[level]
        trail = self._trail
        values = self._values
        reason_of = self._reason
        activity = self._activity
        heap = self._heap
        heap_key = self._heap_key
        push = heapq.heappush
        for index in range(len(trail) - 1, limit - 1, -1):
            lit = trail[index]
            values[lit] = 0
            values[-lit] = 0
            var = lit if lit > 0 else -lit
            reason_of[var] = None
            key = -activity[var]
            if heap_key[var] != key:
                heap_key[var] = key
                push(heap, (key, var))
        del trail[limit:]
        del trail_lim[level:]
        self._queue_head = len(trail)

    # -- activities ----------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
            values = self._values
            heap_key = self._heap_key
            self._heap = []
            for v in range(1, self._num_vars + 1):
                if values[v] == _UNASSIGNED:
                    heap_key[v] = -activity[v]
                    self._heap.append((-activity[v], v))
                else:
                    heap_key[v] = _POPPED
            heapq.heapify(self._heap)
            return
        if self._values[var] == _UNASSIGNED:
            key = -activity[var]
            self._heap_key[var] = key
            heapq.heappush(self._heap, (key, var))

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
        level_of = self._level
        trail = self._trail
        counter = 0
        index = len(trail) - 1
        resolved_lit: Optional[int] = None
        reason: Optional[_Clause] = conflict
        current_level = len(self._trail_lim)
        while True:
            assert reason is not None
            self._bump_clause(reason)
            for q in reason.literals:
                if resolved_lit is not None and q == resolved_lit:
                    continue
                var = abs(q)
                if seen[var] or level_of[var] == 0:
                    continue
                seen[var] = 1
                self._bump_var(var)
                if level_of[var] >= current_level:
                    counter += 1
                else:
                    learned.append(q)
            while not seen[abs(trail[index])]:
                index -= 1
            resolved_lit = trail[index]
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
                if level_of[abs(learned[i])] > level_of[abs(learned[max_idx])]:
                    max_idx = i
            learned[1], learned[max_idx] = learned[max_idx], learned[1]
            backjump = level_of[abs(learned[1])]
        lbd = len({level_of[abs(q)] for q in learned})
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
        heap = self._heap
        heap_key = self._heap_key
        values = self._values
        pop = heapq.heappop
        while heap:
            key, var = pop(heap)
            if heap_key[var] == key:
                heap_key[var] = _POPPED
            if values[var] == _UNASSIGNED:
                return var if self._phase[var] else -var
        for var in range(1, self._num_vars + 1):
            if values[var] == _UNASSIGNED:
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
            watchers = self._watches[lit]
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
        exhausted without an answer. Right after :meth:`block_model`, a
        call without assumptions resumes from the trail it left; every
        other call starts at level 0.
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
        resume = self._resume and not assumptions
        self._resume = False
        if not resume:
            self._backtrack(0)
            if self._propagate() is not None:
                self._unsat = True
                return False

        stats = self.stats
        values = self._values
        trail = self._trail
        trail_lim = self._trail_lim
        conflicts_at_start = stats.conflicts
        restart_unit = 64
        luby_index = 1
        next_restart = stats.conflicts + restart_unit * _luby(luby_index)
        max_learned = max(1000, len(self._clauses) // 2)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                if not trail_lim:
                    self._unsat = True
                    return False
                learned, backjump, lbd = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._unsat = True
                        return False
                else:
                    clause = _Clause(learned, lbd)
                    self._attach(clause)
                    self._learned.append(clause)
                    stats.learned += 1
                    self._enqueue(learned[0], clause)
                self._decay_var_activity()
                if conflict_limit is not None and (
                    stats.conflicts - conflicts_at_start >= conflict_limit
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
                if stats.conflicts >= next_restart:
                    stats.restarts += 1
                    luby_index += 1
                    next_restart = stats.conflicts + restart_unit * _luby(luby_index)
                    self._backtrack(0)
                if len(self._learned) > max_learned:
                    self._reduce_db()
                    max_learned = int(max_learned * 1.1) + 1
                continue

            # No conflict: establish assumptions first, then decide.
            pending_assumption = None
            for lit in assumptions:
                value = values[lit]
                if value == _FALSE:
                    self._backtrack(0)
                    return False
                if value == _UNASSIGNED:
                    pending_assumption = lit
                    break
            if pending_assumption is not None:
                trail_lim.append(len(trail))
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
            stats.decisions += 1
            trail_lim.append(len(trail))
            self._enqueue(decision, None)

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment found by the last ``solve`` (total)."""
        values = self._values
        return {var: values[var] == _TRUE for var in range(1, self._num_vars + 1)}

    def value(self, var: int) -> Optional[bool]:
        """Current value of *var* (``None`` if unassigned)."""
        value = self._values[var]
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
