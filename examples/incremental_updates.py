"""Live sessions: incremental view maintenance under database updates.

A :class:`~repro.core.session.ProvenanceSession` is a materialized view
over one ``(query, database)`` pair. This example shows the view staying
*live* while the database changes: facts are inserted and deleted through
:meth:`ProvenanceSession.update`, which patches the evaluation with
delta-semi-naive insertion rounds and, for deletions, re-ranks only the
facts whose rank support the deletion reaches — the program is evaluated
exactly once, ever — instead of the
sledgehammer ``invalidate()`` + re-evaluate path.

Watch three things in the output:

* inserting an edge makes a **new witness appear** for an existing answer
  (and brand-new answers materialize);
* deleting an edge makes a **cached witness retire** — and retractions
  cascade through the transitive closure, exactly as a fresh evaluation
  would compute;
* the session's ``stats`` stay at one evaluation throughout, while the
  update receipts show how few cached closures each delta really costs.

Run with:  python examples/incremental_updates.py
"""

from repro import (
    Atom,
    Database,
    DatalogQuery,
    Delta,
    ProvenanceSession,
    parse_database,
    parse_program,
)


def show_witnesses(session: ProvenanceSession, tup) -> None:
    """Print the members of ``whyUN(tup)`` (or note a non-answer)."""
    members = session.why(tup)
    if not members:
        print(f"  tc{tup}: not an answer (no witnesses)")
        return
    for index, member in enumerate(members):
        facts = " ".join(sorted(str(f) for f in member))
        print(f"  tc{tup} witness {index}: {facts}")


def main() -> None:
    program = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- tc(X, Y), e(Y, Z).
        """
    )
    query = DatalogQuery(program, "tc")
    database = Database(parse_database("e(a, b). e(b, c). e(c, d)."))
    session = ProvenanceSession(query, database)

    print("== initial database: a -> b -> c -> d ==")
    show_witnesses(session, ("a", "c"))
    show_witnesses(session, ("a", "d"))

    # -- insertion: a new witness appears -----------------------------------
    print("\n== insert e(a, c): a shortcut derivation ==")
    receipt = session.update(Delta.insert(Atom("e", ("a", "c"))))
    print(
        f"  update receipt: +{len(receipt.added_facts)} model facts, "
        f"{receipt.invalidated_closures} closures invalidated, "
        f"{receipt.retained_closures} retained"
    )
    show_witnesses(session, ("a", "c"))  # now two witnesses

    # -- deletion: the cached witness is retired ----------------------------
    print("\n== delete e(b, c): the chain through b is severed ==")
    receipt = session.update(Delta.delete(Atom("e", ("b", "c"))))
    print(
        f"  update receipt: -{len(receipt.removed_facts)} model facts "
        f"(rank-supported cone {receipt.cone}, {receipt.raised} kept at a higher rank)"
    )
    show_witnesses(session, ("a", "c"))  # the b-chain witness is gone
    show_witnesses(session, ("b", "d"))  # retracted transitively

    # -- the headline invariant ---------------------------------------------
    cold = ProvenanceSession(query, session.database.copy())
    assert session.answers() == cold.answers()
    assert all(
        session.why(t) == cold.why(t) for t in session.answers()
    ), "maintained session must match a cold session, witness order included"
    print(
        f"\nsession stats: {session.stats.evaluations} evaluation(s), "
        f"{session.stats.updates} update(s), version v{session.version}"
    )
    print("identical to a cold session over the updated database: yes")


if __name__ == "__main__":
    main()
