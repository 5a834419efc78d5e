"""Smallest explanations: cardinality-minimal members of the why-provenance.

A security analyst asks "which network rules let this host reach the
database server — and what is the *tightest* set of rules to audit?"
The full why-provenance may be huge; this example extracts just the
cardinality-minimum member and the subset-minimal members straight from
the SAT encoding (Section 5 plus cardinality constraints), then contrasts
them with a single minimal-depth witness and the full enumeration.

Run with:  python examples/smallest_explanation.py
"""

from repro import (
    Database,
    DatalogQuery,
    WhyProvenanceEnumerator,
    minimal_members,
    parse_database,
    parse_program,
    smallest_member,
)
from repro.provenance import extract_minimal_depth_tree


def main() -> None:
    # Firewall reachability: a flow exists along permitted hops; some
    # hosts are grouped, and group rules open hops for all members.
    program = parse_program(
        """
        hop(X, Y) :- rule(X, Y).
        hop(X, Y) :- group_rule(G, Y), member(X, G).
        flow(X, Y) :- hop(X, Y).
        flow(X, Y) :- flow(X, Z), hop(Z, Y).
        """
    )
    query = DatalogQuery(program, "flow")
    database = Database(parse_database(
        """
        rule(web, app). rule(app, db).
        rule(web, cache). rule(cache, app).
        group_rule(frontends, db). member(web, frontends).
        """
    ))
    tup = ("web", "db")
    print(f"why is flow{tup} permitted?\n")

    # --- The tightest single explanation ---------------------------------
    smallest = smallest_member(query, database, tup)
    print("cardinality-minimum explanation "
          f"({len(smallest)} facts):")
    for fact in sorted(map(str, smallest)):
        print(f"  {fact}")

    # --- All irredundant explanations ------------------------------------
    print("\nall subset-minimal explanations:")
    for member in minimal_members(query, database, tup):
        print(f"  {{{', '.join(sorted(map(str, member)))}}}")

    # --- What a single-witness engine would report ------------------------
    witness = extract_minimal_depth_tree(
        program, database, query.answer_atom(tup)
    ).support()
    print("\nsingle minimal-depth witness (one member):")
    print(f"  {{{', '.join(sorted(map(str, witness)))}}}")

    # --- The full family, for contrast ------------------------------------
    members = [r.support for r in WhyProvenanceEnumerator(query, database, tup).enumerate()]
    print(f"\nfull whyUN family: {len(members)} members "
          f"(sizes {sorted(len(m) for m in members)})")
    smallest_size = min(len(m) for m in members)
    assert len(smallest) == smallest_size
    print(f"sanity: smallest_member matches the family minimum ({smallest_size})")


if __name__ == "__main__":
    main()
