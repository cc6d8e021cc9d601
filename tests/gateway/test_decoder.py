"""Tests for the finite decoder pool."""

import pytest
from hypothesis import given, strategies as st

from repro.gateway.decoder import DecoderPool


class TestAllocation:
    def test_basic_allocate_release(self):
        pool = DecoderPool(2)
        lease = pool.try_allocate(0.0, 1.0, network_id=1, node_id=1)
        assert lease is not None
        assert pool.busy_count(0.5) == 1
        assert pool.busy_count(1.0) == 0

    def test_exhaustion(self):
        pool = DecoderPool(2)
        assert pool.try_allocate(0.0, 1.0, 1, 1) is not None
        assert pool.try_allocate(0.1, 1.0, 1, 2) is not None
        assert pool.try_allocate(0.2, 1.0, 1, 3) is None
        assert pool.total_rejections == 1

    def test_release_frees_slot(self):
        pool = DecoderPool(1)
        assert pool.try_allocate(0.0, 0.5, 1, 1) is not None
        assert pool.try_allocate(0.6, 1.0, 1, 2) is not None

    def test_release_boundary_inclusive(self):
        pool = DecoderPool(1)
        pool.try_allocate(0.0, 0.5, 1, 1)
        assert pool.try_allocate(0.5, 1.0, 1, 2) is not None

    def test_rejects_capacity_zero(self):
        with pytest.raises(ValueError):
            DecoderPool(0)

    def test_rejects_time_travel(self):
        pool = DecoderPool(2)
        pool.try_allocate(1.0, 2.0, 1, 1)
        with pytest.raises(ValueError):
            pool.try_allocate(0.5, 2.0, 1, 2)

    def test_rejects_negative_duration(self):
        pool = DecoderPool(2)
        with pytest.raises(ValueError):
            pool.try_allocate(1.0, 0.5, 1, 1)

    def test_holders_snapshot(self):
        pool = DecoderPool(4)
        pool.try_allocate(0.0, 1.0, 7, 1)
        pool.try_allocate(0.1, 1.0, 8, 2)
        nets = sorted(l.holder_network_id for l in pool.holders(0.5))
        assert nets == [7, 8]

    def test_reset(self):
        pool = DecoderPool(1)
        pool.try_allocate(0.0, 10.0, 1, 1)
        pool.reset()
        assert pool.try_allocate(0.0, 1.0, 1, 2) is not None
        assert pool.total_allocations == 1

    def test_busy_time_accounting(self):
        pool = DecoderPool(2)
        pool.try_allocate(0.0, 1.5, 1, 1)
        pool.try_allocate(0.0, 0.5, 1, 2)
        assert pool.busy_time_s == pytest.approx(2.0)


class TestPoolInvariants:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),  # offset between arrivals
                st.floats(min_value=0.01, max_value=3),  # duration
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_never_exceeds_capacity(self, arrivals, capacity):
        pool = DecoderPool(capacity)
        t = 0.0
        active = []  # (end, id) of accepted packets
        for i, (gap, duration) in enumerate(arrivals):
            t += gap
            lease = pool.try_allocate(t, t + duration, 1, i)
            active = [(end, n) for end, n in active if end > t]
            if lease is not None:
                active.append((t + duration, i))
            # The pool can never hold more than its capacity.
            assert len(active) <= capacity
            assert pool.busy_count(t) == len(active)

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=0.5),
            min_size=1,
            max_size=40,
        )
    )
    def test_fcfs_admission_prefix(self, gaps):
        """With identical long durations, exactly the first `capacity`
        arrivals are admitted and all later ones rejected."""
        capacity = 4
        pool = DecoderPool(capacity)
        horizon = sum(gaps) + 100.0
        t = 0.0
        outcomes = []
        for i, gap in enumerate(gaps):
            t += gap
            outcomes.append(
                pool.try_allocate(t, horizon, 1, i) is not None
            )
        assert outcomes == [i < capacity for i in range(len(gaps))]


# One step of a pool's life: an allocation ``gap`` seconds after the
# last step, a look at the busy set ``gap`` seconds later, a resize, or
# a reset.
_STEPS = st.one_of(
    st.tuples(
        st.just("allocate"),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0.01, max_value=3),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(st.just("look"), st.floats(min_value=0, max_value=1)),
    st.tuples(st.just("resize"), st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("reset")),
)


class TestBlockers:
    """``blockers`` is ``holders`` as one tuple, shared until the busy
    set changes."""

    @given(st.lists(_STEPS, max_size=80), st.integers(min_value=1, max_value=8))
    def test_equals_holders_and_is_shared_until_the_busy_set_changes(
        self, steps, capacity
    ):
        pool = DecoderPool(capacity)
        t = 0.0
        previous = pool.blockers(t)
        changed = False  # a grant, reclaim or reset since ``previous``
        for i, step in enumerate(steps):
            if step[0] == "allocate":
                _, gap, duration, network_id = step
                t += gap
                granted = pool.try_allocate(t, t + duration, network_id, i)
                changed = changed or granted is not None
            elif step[0] == "look":
                t += step[1]
            elif step[0] == "resize":
                pool.resize(step[1])
            else:
                pool.reset()
                changed = True
            # A lease due by ``t`` has been reclaimed, or is now.
            changed = changed or any(l.release_s <= t for l in previous)
            blockers = pool.blockers(t)
            assert blockers == tuple(pool.holders(t))
            assert pool.blockers(t) is blockers  # nothing changed since
            if not changed:
                assert blockers is previous
            elif blockers or previous:  # ``()`` is a single object
                assert blockers is not previous
            previous, changed = blockers, False

    def test_a_reject_leaves_the_snapshot_shared(self):
        pool = DecoderPool(2)
        pool.try_allocate(0.0, 1.0, 1, 1)
        pool.try_allocate(0.1, 1.0, 2, 2)
        first = pool.blockers(0.2)
        assert pool.try_allocate(0.3, 1.0, 1, 3) is None
        assert pool.blockers(0.3) is first
        assert [l.holder_network_id for l in first] == [1, 2]
