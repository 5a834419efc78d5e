"""Core contribution: SAT-based why-provenance, deciders, FO rewriting.

The front door of this package is :class:`ProvenanceSession`
(:mod:`repro.core.session`): one object per ``(query, database)`` pair
that evaluates the program exactly once — with the engine instrumented to
record every ground rule instance as it fires — and memoizes the graph of
rule instances, per-fact downward closures, CNF encodings, and warm
incremental SAT solvers. Enumerating, deciding, or minimizing
why-provenance for many target facts over one database should go through
a session::

    session = ProvenanceSession(query, database)
    for tup in session.answers():
        session.why(tup, limit=10)
        session.decide(tup, subset, tree_class="unambiguous")
        session.smallest_member(tup)

The free functions (``decide_membership``,
``why_provenance_unambiguous``, ``smallest_member``, ...) serve one-shot
use; each accepts an optional ``session=`` argument to share the caches.
Without one they build a throwaway session, or ground the database they
search with :func:`~repro.provenance.grounding.downward_closure`, which
restricts the same canonically ordered GRI: one-shot and session calls
return the same members in the same order.
"""

from .decision import (
    TREE_CLASSES,
    decide_membership,
    decide_why,
    decide_why_minimal_depth,
    decide_why_nonrecursive,
    decide_why_unambiguous,
)
from .encoder import EncodingStats, WhyProvenanceEncoding, encode_why_provenance
from .enumerator import (
    MemberRecord,
    WhyProvenanceEnumerator,
    why_provenance_unambiguous,
)
from .minimal import (
    MinimalityReport,
    members_by_size,
    minimal_members,
    smallest_member,
)
from .fo_rewriting import (
    FORewriting,
    InducedCQ,
    RewritingBudgetExceeded,
    decide_why_via_rewriting,
    enumerate_symbolic_trees,
    rewrite,
)
from .parallel import (
    BatchResult,
    FactResult,
    ParallelProvenanceExplainer,
    explain_fact,
)
from .incremental import SessionUpdate, update_session
from .session import ProvenanceSession, SessionStats

__all__ = [
    "BatchResult",
    "EncodingStats",
    "FactResult",
    "ParallelProvenanceExplainer",
    "explain_fact",
    "ProvenanceSession",
    "SessionStats",
    "SessionUpdate",
    "update_session",
    "FORewriting",
    "InducedCQ",
    "MemberRecord",
    "MinimalityReport",
    "members_by_size",
    "minimal_members",
    "smallest_member",
    "RewritingBudgetExceeded",
    "TREE_CLASSES",
    "WhyProvenanceEncoding",
    "WhyProvenanceEnumerator",
    "decide_membership",
    "decide_why",
    "decide_why_minimal_depth",
    "decide_why_nonrecursive",
    "decide_why_unambiguous",
    "decide_why_via_rewriting",
    "encode_why_provenance",
    "enumerate_symbolic_trees",
    "rewrite",
    "why_provenance_unambiguous",
]
