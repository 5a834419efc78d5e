"""Seed-driven synthetic workload families (the ``repro fuzz`` substrate).

The five hand-written scenarios of Table 1 pin the paper's evaluation to a
handful of fixed programs. This module opens the scenario space: each
*family* is a deterministic, parameterized generator of ``(program,
database)`` pairs — same ``(family, size, seed)`` always yields textually
identical Datalog — so workloads exist at arbitrary scale and the test
suite gains an adversarial input source the fixed scenarios can't provide.

Families
--------

``chain``
    Chain reachability: the 2-rule linear transitive closure over a long
    path with seeded shortcut and back edges (cycles included).
``grid``
    Grid reachability: the same linear recursion over a ``w x h`` lattice
    with rightward/downward edges plus seeded diagonal skips — many
    distinct derivations per reachable pair.
``tree``
    Tree-shaped recursion with tunable depth: ancestor queries over a
    seeded ``b``-ary tree (branching drawn per seed, so depth varies from
    path-like to bushy) with a few rewired edges.
``widejoin``
    Wide-join rules with tunable fan-in: a non-recursive join chain of
    ``k`` body atoms (``k`` drawn per seed) composed once more, over
    seeded binary relations on a small constant domain.
``dag``
    Layered DAG derivations: a non-recursive cascade of ``L`` unary
    layer predicates, each derived from the previous through a shared
    edge relation with seeded fan-in — one fact, many derivations.
``mixed``
    Mixed-family composition: a chain copy and a tree copy glued by
    seeded bridge facts and a cross-family join rule, plus union rules —
    recursion through a join of two independently generated families.
``deps``
    Package dependency resolution over repodata-shaped EDB relations
    (``dep_root``, ``dep_depends``, ``dep_provides``, ``dep_conflicts``):
    package-versions depend on *capabilities*, capabilities may have
    several providers (ambiguity grows with ``size``), and the rules
    close ``dep_requires`` through the depends x provides join so the
    answer ``dep_justified(Pkg, Root)`` reads "Root's install justifies
    Pkg" — why-provenance as install justification, minimal explanations
    as minimal install justifications. Its delta sequences model
    *upgrades* (retire one package-version's edges, publish the next
    version's) instead of random fact churn.

Every generator returns a standard
:class:`~repro.scenarios.base.Scenario`, so synthetic workloads plug into
the existing harness (:func:`~repro.harness.runner.run_database`), CLI
and benchmarks unchanged; :func:`scenario_from_name` additionally lets
``get_scenario("synthetic-chain-n24-s3")`` build one on the fly.

:func:`generate_instance` is the richer entry point used by the
differential oracle (:mod:`repro.testing.oracle`): it also derives a
seeded *delta sequence* (EDB insertions and deletions) so one instance
exercises the incremental-maintenance and service-update paths.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database, Delta
from ..datalog.io import database_to_text, delta_to_lines, program_to_text
from ..datalog.parser import parse_program
from ..datalog.program import DatalogQuery
from .base import Scenario, ScenarioDatabase

#: Default family size (facts scale roughly linearly with it).
DEFAULT_SIZE = 16

#: Scenario-name shape accepted by :func:`scenario_from_name`.
_NAME_PATTERN = re.compile(r"^synthetic-([a-z]+)-n(\d+)-s(\d+)$")


def _rng(family: str, size: int, seed: int, stream: str = "base") -> random.Random:
    """The deterministic generator stream for one ``(family, size, seed)``.

    Seeded with a string, which :mod:`random` hashes with SHA-512 — stable
    across processes and interpreter hash randomization, the property the
    "same seed, same text" contract rests on.
    """
    return random.Random(f"synthetic:{family}:n{size}:s{seed}:{stream}")


# -- family generators --------------------------------------------------------
#
# Each generator maps (size, rng) to (program_text, facts, answer_predicate).
# Only string constants are used: answer tuples must sort (the session,
# harness and service all sort answers for determinism), and mixed
# int/str tuples would not.


def _chain_family(size: int, rng: random.Random) -> Tuple[str, List[Atom], str]:
    program = """
    c_tc(X, Y) :- c_e(X, Y).
    c_tc(X, Z) :- c_tc(X, Y), c_e(Y, Z).
    """
    nodes = [f"n{i}" for i in range(size + 1)]
    facts = [Atom("c_e", (nodes[i], nodes[i + 1])) for i in range(size)]
    for _ in range(max(1, size // 3)):
        i = rng.randrange(size)
        j = rng.randrange(i + 1, size + 1)
        facts.append(Atom("c_e", (nodes[i], nodes[j])))
    if rng.random() < 0.5 and size >= 2:
        # One back edge makes the closure cyclic for about half the seeds.
        j = rng.randrange(1, size + 1)
        facts.append(Atom("c_e", (nodes[j], nodes[rng.randrange(j)])))
    return program, facts, "c_tc"


def _grid_family(size: int, rng: random.Random) -> Tuple[str, List[Atom], str]:
    program = """
    g_reach(X, Y) :- g_e(X, Y).
    g_reach(X, Z) :- g_reach(X, Y), g_e(Y, Z).
    """
    width = max(2, math.isqrt(size))
    height = max(2, -(-size // width))
    facts = []
    for i in range(height):
        for j in range(width):
            here = f"g{i}_{j}"
            if j + 1 < width:
                facts.append(Atom("g_e", (here, f"g{i}_{j + 1}")))
            if i + 1 < height:
                facts.append(Atom("g_e", (here, f"g{i + 1}_{j}")))
    for _ in range(max(1, size // 4)):
        i = rng.randrange(height - 1)
        j = rng.randrange(width - 1)
        facts.append(Atom("g_e", (f"g{i}_{j}", f"g{i + 1}_{j + 1}")))
    return program, facts, "g_reach"


def _tree_family(size: int, rng: random.Random) -> Tuple[str, List[Atom], str]:
    program = """
    t_anc(X, Y) :- t_par(X, Y).
    t_anc(X, Z) :- t_par(X, Y), t_anc(Y, Z).
    """
    branching = rng.choice([1, 2, 2, 3])  # path-like through bushy
    facts = []
    for child in range(1, size + 1):
        parent = (child - 1) // branching
        if rng.random() < 0.1 and child > 1:
            parent = rng.randrange(child)  # rewire: still acyclic (parent < child)
        facts.append(Atom("t_par", (f"t{parent}", f"t{child}")))
    return program, facts, "t_anc"


def _widejoin_family(size: int, rng: random.Random) -> Tuple[str, List[Atom], str]:
    fan_in = 2 + rng.randrange(3)  # 2..4 body atoms in the join rule
    variables = [f"X{i}" for i in range(fan_in + 1)]
    body = ", ".join(
        f"w_r{i}({variables[i]}, {variables[i + 1]})" for i in range(fan_in)
    )
    program = f"""
    w_j({variables[0]}, {variables[fan_in]}) :- {body}.
    w_pair(X, Z) :- w_j(X, Y), w_j(Y, Z).
    """
    domain = [f"v{i}" for i in range(max(3, size // 2))]
    facts = []
    for i in range(fan_in):
        for _ in range(max(2, size // 2)):
            a, b = rng.choice(domain), rng.choice(domain)
            facts.append(Atom(f"w_r{i}", (a, b)))
    return program, facts, "w_pair"


def _dag_family(size: int, rng: random.Random) -> Tuple[str, List[Atom], str]:
    layers = 2 + min(4, size // 6)
    width = max(2, size // layers)
    rules = ["d_l1(Y) :- d_src(X), d_e(X, Y)."]
    for level in range(2, layers + 1):
        rules.append(f"d_l{level}(Y) :- d_l{level - 1}(X), d_e(X, Y).")
    program = "\n".join(rules)
    facts = []
    for j in range(width):
        if j == 0 or rng.random() < 0.7:
            facts.append(Atom("d_src", (f"d0_{j}",)))
    for level in range(1, layers + 1):
        for j in range(width):
            # A straight-down edge keeps every column derivable end to end
            # (the scale axis needs non-empty answers); the extra random
            # fan-in is what gives one fact many distinct derivations.
            facts.append(Atom("d_e", (f"d{level - 1}_{j}", f"d{level}_{j}")))
            for _ in range(rng.randrange(2)):
                facts.append(
                    Atom("d_e", (f"d{level - 1}_{rng.randrange(width)}", f"d{level}_{j}"))
                )
    return program, facts, f"d_l{layers}"


def _mixed_family(size: int, rng: random.Random) -> Tuple[str, List[Atom], str]:
    half = max(4, size // 2)
    chain_program, chain_facts, _ = _chain_family(half, rng)
    tree_program, tree_facts, _ = _tree_family(half, rng)
    program = (
        chain_program
        + tree_program
        + """
    m_mix(X, Y) :- c_tc(X, Y).
    m_mix(X, Y) :- t_anc(X, Y).
    m_mix(X, Z) :- c_tc(X, Y), m_b(Y, W), t_anc(W, Z).
    """
    )
    facts = chain_facts + tree_facts
    for _ in range(max(2, size // 4)):
        facts.append(
            Atom("m_b", (f"n{rng.randrange(half + 1)}", f"t{rng.randrange(half + 1)}"))
        )
    return program, facts, "m_mix"


def _deps_family(size: int, rng: random.Random) -> Tuple[str, List[Atom], str]:
    # Repodata shape: package i has versions ``p{i}v{k}``, every version
    # provides its package's ``lib{i}`` capability, virtual capabilities
    # ``virt{j}`` have several providers (the ambiguity that gives one
    # installation many distinct justifications), and dependencies point
    # at capabilities — never directly at packages — so ``dep_requires``
    # must go through the depends x provides join both in the base case
    # and in every recursive step.
    program = """
    dep_requires(P, Q) :- dep_depends(P, C), dep_provides(Q, C).
    dep_requires(P, R) :- dep_requires(P, Q), dep_depends(Q, C), dep_provides(R, C).
    dep_installed(P) :- dep_root(P).
    dep_installed(Q) :- dep_installed(P), dep_requires(P, Q).
    dep_justified(P, P) :- dep_root(P).
    dep_justified(Q, P) :- dep_root(P), dep_requires(P, Q).
    dep_clash(P, Q) :- dep_installed(P), dep_conflicts(P, Q), dep_installed(Q).
    """
    npkgs = max(3, (size + 1) // 2)
    fanout = 1 + min(3, size // 8)  # dependency fan-out cap grows with size
    versions: List[Tuple[int, str]] = []  # (package index, version constant)
    facts: List[Atom] = []
    for i in range(npkgs):
        for k in range(2 if rng.random() < 0.35 else 1):
            version = f"p{i}v{k}"
            versions.append((i, version))
            facts.append(Atom("dep_provides", (version, f"lib{i}")))
    # Virtual capabilities: several providers each — provider ambiguity.
    for j in range(max(1, size // 4)):
        capability = f"virt{j}"
        for _, version in rng.sample(versions, min(2 + rng.randrange(2), len(versions))):
            facts.append(Atom("dep_provides", (version, capability)))
    virtuals = [f"virt{j}" for j in range(max(1, size // 4))]
    for i, version in versions:
        if i == 0:
            continue  # package 0 is the dependency-free base
        for _ in range(1 + rng.randrange(fanout)):
            if rng.random() < 0.3:
                capability = rng.choice(virtuals)
            else:
                capability = f"lib{rng.randrange(i)}"
            facts.append(Atom("dep_depends", (version, capability)))
    # Conflicts: co-installed versions of one package always clash, plus
    # a few seeded cross-package pairs.
    by_package: Dict[int, List[str]] = {}
    for i, version in versions:
        by_package.setdefault(i, []).append(version)
    for i, pair in by_package.items():
        if len(pair) == 2:
            facts.append(Atom("dep_conflicts", (pair[0], pair[1])))
            facts.append(Atom("dep_conflicts", (pair[1], pair[0])))
    for _ in range(max(1, size // 6)):
        (_, a), (_, b) = rng.sample(versions, 2)
        facts.append(Atom("dep_conflicts", (a, b)))
    # Roots (the explicit install set): the top packages' first versions,
    # whose dependency closures reach down through the whole repo.
    for r in range(max(1, npkgs // 6)):
        facts.append(Atom("dep_root", (f"p{npkgs - 1 - r}v0",)))
    return program, facts, "dep_justified"


#: ``family name -> generator``, in registration order (``fuzz --family all``).
FAMILIES: Dict[str, Callable[[int, random.Random], Tuple[str, List[Atom], str]]] = {
    "chain": _chain_family,
    "grid": _grid_family,
    "tree": _tree_family,
    "widejoin": _widejoin_family,
    "dag": _dag_family,
    "mixed": _mixed_family,
    "deps": _deps_family,
}

#: The default family ladder shared by the benchmarks and CI smoke steps
#: (``mixed`` is left out: it recombines chain + tree, so it adds nothing
#: on a scale axis that the constituent families do not already show).
DEFAULT_BENCH_FAMILIES: Tuple[str, ...] = (
    "chain",
    "grid",
    "tree",
    "widejoin",
    "dag",
    "deps",
)


# -- instances ----------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticInstance:
    """One generated workload: query, database, and a delta sequence.

    The full input of one differential-oracle run. Frozen so shrinking
    (:func:`repro.testing.oracle.shrink`) derives reduced candidates with
    :func:`dataclasses.replace` instead of mutating a shared instance;
    the :class:`~repro.datalog.database.Database` inside is treated as
    immutable — every consumer copies before mutating.
    """

    family: str
    size: int
    seed: int
    query: DatalogQuery
    database: Database
    deltas: Tuple[Delta, ...] = ()

    @property
    def name(self) -> str:
        """The canonical scenario name (parsed by :func:`scenario_from_name`)."""
        return f"synthetic-{self.family}-n{self.size}-s{self.seed}"

    def program_text(self) -> str:
        """The program in parser syntax (the determinism contract's subject)."""
        return program_to_text(self.query.program)

    def database_text(self) -> str:
        """The database in parser syntax, facts sorted."""
        return database_to_text(self.database)

    def delta_lines(self) -> List[List[str]]:
        """Each delta as textual ``+fact.`` / ``-fact.`` lines (wire format)."""
        return [delta_to_lines(delta) for delta in self.deltas]

    def scenario(self) -> Scenario:
        """This instance as a standard harness/benchmark :class:`Scenario`.

        The factories share *this* instance's already-generated query and
        database instead of regenerating the whole instance per access
        (program parse + database build + delta derivation, once for the
        query and once per database build). The query is immutable and
        shared outright; the database factory hands out a fresh copy per
        call, preserving the copy-before-mutate contract.
        """
        program = self.query.program
        query_type = (
            ("linear, " if program.is_linear() else "non-linear, ")
            + ("recursive" if program.is_recursive() else "non-recursive")
        )
        query, database = self.query, self.database
        return Scenario(
            name=self.name,
            query_factory=lambda: query,
            databases=(
                ScenarioDatabase(
                    name="gen",
                    factory=database.copy,
                    description=f"seeded synthetic {self.family} instance "
                    f"(size {self.size}, seed {self.seed})",
                ),
            ),
            query_type=query_type,
            num_rules=len(program.rules),
            description=f"synthetic {self.family} workload family",
        )


def _generate_deltas(
    family: str,
    size: int,
    seed: int,
    database: Database,
    edb: Sequence[str],
    arities: Dict[str, int],
    rounds: int,
) -> Tuple[Delta, ...]:
    """A seeded sequence of EDB deltas that stays sensible under replay.

    Each round inserts one or two facts (arguments drawn from the active
    domain plus occasionally a fresh constant) and deletes one existing
    fact, tracked against a simulated database copy so deletions always
    hit live facts and insertions are always new. Deterministic: every
    draw comes from sorted snapshots of the simulated state.

    Every round emits a non-empty delta, so the returned tuple always has
    exactly ``rounds`` entries and the sequence is *prefix-stable* in
    ``rounds`` (regenerating with fewer rounds replays the identical
    prefix — the determinism property tests assert both). Predicates and
    arities come from the program schema, not the database, so rounds
    keep emitting even after deletions drain the simulated state; the one
    genuinely impossible input — a program with no EDB predicates at all —
    raises ``ValueError`` instead of silently under-delivering.
    """
    rng = _rng(family, size, seed, stream="deltas")
    simulated = database.copy()
    predicates = sorted(edb)
    if not predicates:
        raise ValueError(
            f"cannot generate {rounds} delta round(s) for {family!r}: "
            "the program has no EDB predicates to edit"
        )
    deltas: List[Delta] = []
    for round_index in range(rounds):
        domain = sorted(map(str, simulated.active_domain()))
        live = sorted(simulated, key=str)
        inserted: List[Atom] = []
        for i in range(1 + rng.randrange(2)):
            pred = rng.choice(predicates)
            args = tuple(
                f"u{round_index}x{i}"
                if not domain or rng.random() < 0.25
                else rng.choice(domain)
                for _ in range(arities[pred])
            )
            fact = Atom(pred, args)
            if fact not in simulated and fact not in inserted:
                inserted.append(fact)
        deleted = [rng.choice(live)] if live and rng.random() < 0.8 else []
        deleted = [fact for fact in deleted if fact not in inserted]
        if not inserted and not deleted:
            if live:
                deleted = [rng.choice(live)]
            else:
                # An empty simulated state cannot collide with a fully
                # fresh fact, so the round still emits.
                pred = rng.choice(predicates)
                inserted = [
                    Atom(
                        pred,
                        tuple(f"u{round_index}f{j}" for j in range(arities[pred])),
                    )
                ]
        delta = Delta(inserted=frozenset(inserted), deleted=frozenset(deleted))
        simulated.apply(delta)
        deltas.append(delta)
    return tuple(deltas)


#: Version constants of the ``deps`` family (``p<package>v<version>``).
_DEPS_VERSION = re.compile(r"^p(\d+)v(\d+)$")


def _deps_deltas(
    family: str,
    size: int,
    seed: int,
    database: Database,
    edb: Sequence[str],
    arities: Dict[str, int],
    rounds: int,
) -> Tuple[Delta, ...]:
    """Upgrade-shaped deltas for the ``deps`` family.

    Each round is one package *upgrade*, the way a repodata snapshot
    actually changes: pick a live package-version, retire every edge that
    mentions it (its ``dep_provides`` / ``dep_depends`` / ``dep_conflicts``
    rows, its ``dep_root`` membership, conflicts pointing *at* it), and
    publish the next version — same provided capabilities (so dependents
    stay resolvable), dependencies re-drawn with seeded drift, root status
    carried over, occasionally a fresh conflict. Same emission contract
    as :func:`_generate_deltas`: exactly ``rounds`` non-empty deltas,
    prefix-stable in ``rounds``.
    """
    rng = _rng(family, size, seed, stream="deltas")
    simulated = database.copy()
    deltas: List[Delta] = []
    for round_index in range(rounds):
        facts = sorted(simulated, key=str)
        live = sorted(
            {
                fact.args[0]
                for fact in facts
                if fact.pred == "dep_provides"
                and _DEPS_VERSION.match(str(fact.args[0]))
            }
        )
        if not live:
            # A drained repo (only reachable on hand-reduced instances):
            # publish a fresh dependency-free root package, which always
            # emits and re-seeds the live set for later rounds.
            fresh = f"q{round_index}v0"
            inserted = [
                Atom("dep_provides", (fresh, f"qlib{round_index}")),
                Atom("dep_root", (fresh,)),
            ]
            delta = Delta(inserted=frozenset(inserted))
            simulated.apply(delta)
            deltas.append(delta)
            continue
        old = rng.choice(live)
        package = _DEPS_VERSION.match(old).group(1)
        # The successor version number: one past the largest ever seen
        # for this package anywhere in the simulated state.
        top = 0
        for fact in facts:
            for arg in fact.args:
                match = _DEPS_VERSION.match(str(arg))
                if match and match.group(1) == package:
                    top = max(top, int(match.group(2)))
        new = f"p{package}v{top + 1}"
        deleted = [
            fact for fact in facts if old in fact.args
        ]
        capabilities = sorted(
            {fact.args[1] for fact in facts if fact.pred == "dep_provides"}
        )
        inserted = []
        for fact in deleted:
            if fact.pred == "dep_provides":
                inserted.append(Atom("dep_provides", (new, fact.args[1])))
            elif fact.pred == "dep_root":
                inserted.append(Atom("dep_root", (new,)))
            elif fact.pred == "dep_depends":
                capability = fact.args[1]
                if rng.random() < 0.3:  # dependency drift across versions
                    capability = rng.choice(capabilities)
                inserted.append(Atom("dep_depends", (new, capability)))
            # Conflicts are not carried over: the old pairings named the
            # retired version; fresh ones are drawn below.
        if rng.random() < 0.25:
            other = rng.choice(live)
            if other != old:
                inserted.append(Atom("dep_conflicts", (new, other)))
        # ``new`` never occurred before, so every insertion is genuinely
        # fresh; dedup only against this round's own draws.
        delta = Delta(inserted=frozenset(inserted), deleted=frozenset(deleted))
        simulated.apply(delta)
        deltas.append(delta)
    return tuple(deltas)


#: Families whose deltas are *not* the generic churn of
#: :func:`_generate_deltas` — the ``deps`` family models upgrades.
DELTA_GENERATORS: Dict[
    str,
    Callable[
        [str, int, int, Database, Sequence[str], Dict[str, int], int],
        Tuple[Delta, ...],
    ],
] = {
    "deps": _deps_deltas,
}


def generate_instance(
    family: str,
    size: int = DEFAULT_SIZE,
    seed: int = 0,
    delta_rounds: int = 0,
) -> SyntheticInstance:
    """Build one deterministic instance of a workload family.

    Same ``(family, size, seed, delta_rounds)``, same instance — down to
    the program text, the database text, and the delta lines (the
    property ``tests/test_synthetic.py`` asserts). The delta sequence
    always has exactly ``delta_rounds`` entries. Raises ``KeyError`` for
    an unknown family, ``ValueError`` for a non-positive size.
    """
    try:
        generator = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise KeyError(f"unknown synthetic family {family!r}; known: {known}") from None
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    program_text, facts, answer = generator(size, _rng(family, size, seed))
    program = parse_program(program_text)
    query = DatalogQuery(program, answer)
    database = Database(facts).restrict(program.edb)
    edb = sorted(program.edb)
    delta_generator = DELTA_GENERATORS.get(family, _generate_deltas)
    deltas = (
        delta_generator(
            family,
            size,
            seed,
            database,
            edb,
            {pred: program.arity(pred) for pred in edb},
            delta_rounds,
        )
        if delta_rounds
        else ()
    )
    return SyntheticInstance(
        family=family,
        size=size,
        seed=seed,
        query=query,
        database=database,
        deltas=deltas,
    )


def synthetic(
    family: str,
    size: int = DEFAULT_SIZE,
    seed: int = 0,
) -> Scenario:
    """A workload family instance as a standard :class:`Scenario`.

    The drop-in entry point for the harness and benchmarks::

        run = run_database(synthetic("grid", size=64, seed=3), "gen")
    """
    return generate_instance(family, size=size, seed=seed).scenario()


def scenario_from_name(name: str):
    """Parse ``synthetic-<family>-n<size>-s<seed>`` into a Scenario.

    Returns ``None`` when the name is not of that shape *or* names an
    instance no generator can produce (a non-positive size), so
    :func:`~repro.scenarios.base.get_scenario` falls through to its
    registry ``KeyError`` with the known-scenarios message instead of
    leaking :func:`generate_instance`'s ``ValueError``; raises
    ``KeyError`` for a well-shaped name with an unknown family.
    """
    match = _NAME_PATTERN.match(name)
    if match is None:
        return None
    family, size, seed = match.group(1), int(match.group(2)), int(match.group(3))
    if size < 1:
        return None
    return synthetic(family, size=size, seed=seed)
