"""Property tests for the consistent-hash ring behind ``serve --workers``.

The sharded daemon's correctness rests on three ring properties, each
pinned here with Hypothesis:

* **totality + determinism** — every digest maps to exactly one slot of
  the configured set, and two independently constructed rings over the
  same slots agree on every digest (the router and a test, or two
  router restarts, never disagree on placement);
* **balance** — with the default replica count, no slot owns a wildly
  disproportionate share of random digests;
* **minimal disruption** — growing or shrinking the pool by one slot
  remaps *only* digests whose new owner is the added slot (respectively
  whose old owner was the removed slot); everything else stays put.
  This is the property that makes worker restarts free and pool
  resizes cheap.

The routing digest itself (what the router actually hashes) is checked
for agreement with the registry's admission digest, so a router can
always predict where the single-process worker will file a session.
"""

import string

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.registry import routing_digest
from repro.service.shard import DEFAULT_REPLICAS, HashRing, worker_slots

RING_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

digests = st.text(alphabet=string.hexdigits.lower(), min_size=1, max_size=40)
slot_counts = st.integers(min_value=1, max_value=12)


class TestRingTotality:
    @RING_SETTINGS
    @given(digest=digests, count=slot_counts)
    def test_every_digest_maps_to_exactly_one_configured_slot(
        self, digest, count
    ):
        slots = worker_slots(count)
        owner = HashRing(slots).lookup(digest)
        assert owner in slots

    @RING_SETTINGS
    @given(digest=digests, count=slot_counts)
    def test_independent_rings_agree(self, digest, count):
        slots = worker_slots(count)
        assert HashRing(slots).lookup(digest) == HashRing(slots).lookup(digest)

    @RING_SETTINGS
    @given(digest=digests, count=slot_counts)
    def test_slot_order_is_irrelevant(self, digest, count):
        slots = worker_slots(count)
        shuffled = list(reversed(slots))
        assert HashRing(slots).lookup(digest) == HashRing(shuffled).lookup(
            digest
        )

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_duplicate_slots_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["shard-0", "shard-0"])


class TestRingBalance:
    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_no_slot_starves_or_hoards(self, count):
        """Over many random-ish digests, ownership is roughly uniform.

        The tolerance is deliberately generous (half to double the fair
        share): consistent hashing with 64 virtual points per slot is
        not perfectly uniform, but a starved or hoarding slot would be
        a routing bug worth failing on.
        """
        ring = HashRing(worker_slots(count))
        samples = 4000
        tallies = {slot: 0 for slot in worker_slots(count)}
        for index in range(samples):
            tallies[ring.lookup(f"digest-{index:06d}")] += 1
        fair = samples / count
        for slot, owned in tallies.items():
            assert fair * 0.5 <= owned <= fair * 2.0, (slot, tallies)

    def test_more_replicas_tighten_the_spread(self):
        """Sanity: the replica knob is wired through (1 vs default)."""

        def spread(replicas):
            ring = HashRing(worker_slots(4), replicas=replicas)
            tallies = {}
            for index in range(2000):
                slot = ring.lookup(f"digest-{index:06d}")
                tallies[slot] = tallies.get(slot, 0) + 1
            return max(tallies.values()) - min(tallies.values(), default=0)

        assert spread(DEFAULT_REPLICAS) <= spread(1)


class TestMinimalDisruption:
    @RING_SETTINGS
    @given(count=st.integers(min_value=1, max_value=8))
    def test_growing_by_one_only_moves_digests_onto_the_new_slot(
        self, count
    ):
        before = HashRing(worker_slots(count))
        after = HashRing(worker_slots(count + 1))
        new_slot = worker_slots(count + 1)[-1]
        moved = 0
        samples = 600
        for index in range(samples):
            digest = f"digest-{index:06d}"
            old, new = before.lookup(digest), after.lookup(digest)
            if old != new:
                # The *only* legal move is onto the slot that appeared.
                assert new == new_slot, (digest, old, new)
                moved += 1
        # ~1/(count+1) of digests should move; allow a wide band but
        # fail if growth reshuffles half the keyspace (mod-N hashing
        # would move ~count/(count+1) of them).
        assert moved <= samples * 2.5 / (count + 1), moved

    @RING_SETTINGS
    @given(count=st.integers(min_value=2, max_value=8))
    def test_shrinking_by_one_only_moves_the_lost_slots_digests(self, count):
        before = HashRing(worker_slots(count))
        after = HashRing(worker_slots(count - 1))
        lost_slot = worker_slots(count)[-1]
        for index in range(600):
            digest = f"digest-{index:06d}"
            old, new = before.lookup(digest), after.lookup(digest)
            if old != lost_slot:
                # Digests not owned by the departing slot must not move.
                assert new == old, (digest, old, new)
            else:
                assert new != lost_slot

    def test_restart_is_not_a_resize(self):
        """Same slot names → identical ring, regardless of object age.

        This is why a supervisor restart (new pid, new port, same
        ``shard-i`` name) never migrates sessions: the ring only sees
        names.
        """
        first = HashRing(worker_slots(4))
        second = HashRing(worker_slots(4))
        for index in range(500):
            digest = f"digest-{index:06d}"
            assert first.lookup(digest) == second.lookup(digest)


class TestRoutingDigest:
    def test_router_and_registry_agree_on_placement(self):
        """The router hashes the same digest the worker files under."""
        program = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\n"
        database = "e(a, b).\ne(b, c).\n"
        digest = routing_digest(program, database, "t")
        # Any whitespace/comment-preserving variation of the same query
        # canonicalizes to the same digest, hence the same shard.
        noisy = routing_digest(
            "% comment\n" + program + "\n", database + "\n", "t"
        )
        assert digest == noisy
        ring = HashRing(worker_slots(4))
        assert ring.lookup(digest) == ring.lookup(noisy)

    def test_distinct_queries_get_distinct_digests(self):
        program = "t(X, Y) :- e(X, Y).\n"
        assert routing_digest(program, "e(a, b).\n", "t") != routing_digest(
            program, "e(a, c).\n", "t"
        )

    def test_digest_is_pinned(self):
        """Logs on disk and clients holding digests address sessions by
        this value: a change to the digest payload orphans them all."""
        program = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z)."
        assert routing_digest(program, "e(a, b). e(b, c).", "tc") == "7d8825d49ef5f426"
