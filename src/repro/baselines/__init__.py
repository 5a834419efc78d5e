"""The baseline why-provenance computation used for comparison benchmarks.

One comparator: :mod:`~repro.baselines.all_at_once` materializes the
whole why-provenance in one shot (the existential-rules style of
Elhalawati et al., the Figure 5 comparator). The single minimal-depth
witness that the paper's introduction contrasts with comes from the
engine's ranks, through
:func:`~repro.provenance.extract.extract_minimal_depth_tree`.

The baseline deliberately bypasses the caches of
:class:`~repro.core.session.ProvenanceSession`: it is the *non-session
foil* the benchmarks compare against, so it must pay the full cost of its
own grounding on every call. Do not thread a session through it.
"""

from .all_at_once import AllAtOnceReport, BaselineBudgetExceeded, all_at_once_why

__all__ = [
    "AllAtOnceReport",
    "BaselineBudgetExceeded",
    "all_at_once_why",
]
