"""Unit tests for the event queue — both implementations.

Every ordering test runs against the engine's ``EventQueue`` and
``ArrayEventHeap`` through the ``make_queue`` fixture: the heap is a
drop-in replacement, so the two must agree on every observable (pop
order, batch grouping, error contract).  The
hypothesis differential test at the bottom drives random push/pop
programs through both side by side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_state import ArrayEventHeap
from repro.core.events import Event, EventKind, EventQueue

QUEUE_IMPLS = {"object": EventQueue, "array": ArrayEventHeap}


@pytest.fixture(params=sorted(QUEUE_IMPLS))
def make_queue(request):
    return QUEUE_IMPLS[request.param]


def ev(t: float, payload=None) -> Event:
    return Event(t, EventKind.KERNEL_COMPLETE, payload)


class TestEvent:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ev(-0.5)

    def test_frozen(self):
        e = ev(1.0)
        with pytest.raises(AttributeError):
            e.time = 2.0


class TestEventQueue:
    def test_pop_returns_earliest(self, make_queue):
        q = make_queue()
        q.push(ev(5.0, "b"))
        q.push(ev(1.0, "a"))
        q.push(ev(3.0, "c"))
        assert q.pop().payload == "a"
        assert q.pop().payload == "c"
        assert q.pop().payload == "b"

    def test_fifo_tie_break(self, make_queue):
        q = make_queue()
        for name in ("first", "second", "third"):
            q.push(ev(2.0, name))
        assert [q.pop().payload for _ in range(3)] == ["first", "second", "third"]

    def test_pop_empty_raises(self, make_queue):
        with pytest.raises(IndexError):
            make_queue().pop()

    def test_peek_does_not_remove(self, make_queue):
        q = make_queue()
        q.push(ev(1.0, "x"))
        assert q.peek().payload == "x"
        assert len(q) == 1

    def test_peek_empty_raises(self, make_queue):
        with pytest.raises(IndexError):
            make_queue().peek()

    def test_len_and_bool(self, make_queue):
        q = make_queue()
        assert not q and len(q) == 0
        q.push(ev(0.0))
        assert q and len(q) == 1

    def test_pop_simultaneous_groups_equal_times(self, make_queue):
        q = make_queue()
        q.push(ev(1.0, "a"))
        q.push(ev(1.0, "b"))
        q.push(ev(2.0, "c"))
        batch = q.pop_simultaneous()
        assert [e.payload for e in batch] == ["a", "b"]
        assert q.pop().payload == "c"

    def test_pop_simultaneous_single(self, make_queue):
        q = make_queue()
        q.push(ev(1.0, "only"))
        assert [e.payload for e in q.pop_simultaneous()] == ["only"]
        assert not q

    def test_pop_simultaneous_empty_raises(self, make_queue):
        with pytest.raises(IndexError):
            make_queue().pop_simultaneous()

    def test_interleaved_push_pop(self, make_queue):
        q = make_queue()
        q.push(ev(10.0, "late"))
        assert q.pop().payload == "late"
        q.push(ev(5.0, "early"))
        q.push(ev(7.0, "mid"))
        assert q.pop().payload == "early"
        assert q.pop().payload == "mid"


#: the two same-timestamp ordering tiers, exhaustively
ARRIVAL_KINDS = (EventKind.KERNEL_READY, EventKind.APP_ARRIVAL)
PROGRESS_KINDS = (
    EventKind.TRANSFER_START,
    EventKind.TRANSFER_COMPLETE,
    EventKind.KERNEL_COMPLETE,
    EventKind.FAULT,
    EventKind.REPAIR,
    EventKind.PREEMPT,
)


class TestArrivalRankOrdering:
    """Arrival-class events (KERNEL_READY / APP_ARRIVAL) sort before
    progress-class events at the same timestamp regardless of insertion
    order — the invariant that keeps the streaming path's look-ahead
    arrival event in the same batch position as the merged path's
    up-front KERNEL_READY events."""

    def test_arrival_pops_before_completion_at_same_time(self, make_queue):
        q = make_queue()
        q.push(Event(5.0, EventKind.KERNEL_COMPLETE, payload="done"))
        q.push(Event(5.0, EventKind.APP_ARRIVAL, payload="app"))
        q.push(Event(5.0, EventKind.KERNEL_READY, payload="ready"))
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [
            EventKind.APP_ARRIVAL,
            EventKind.KERNEL_READY,
            EventKind.KERNEL_COMPLETE,
        ]

    def test_fifo_within_a_rank(self, make_queue):
        q = make_queue()
        q.push(Event(1.0, EventKind.KERNEL_READY, payload=1))
        q.push(Event(1.0, EventKind.KERNEL_READY, payload=2))
        q.push(Event(1.0, EventKind.TRANSFER_COMPLETE, payload=3))
        q.push(Event(1.0, EventKind.KERNEL_COMPLETE, payload=4))
        assert [q.pop().payload for _ in range(4)] == [1, 2, 3, 4]

    def test_time_still_dominates(self, make_queue):
        q = make_queue()
        q.push(Event(1.0, EventKind.KERNEL_COMPLETE))
        q.push(Event(2.0, EventKind.APP_ARRIVAL))
        assert q.pop().kind is EventKind.KERNEL_COMPLETE

    def test_pop_simultaneous_spans_ranks(self, make_queue):
        q = make_queue()
        q.push(Event(3.0, EventKind.KERNEL_COMPLETE))
        q.push(Event(3.0, EventKind.APP_ARRIVAL))
        batch = q.pop_simultaneous()
        assert [e.kind for e in batch] == [
            EventKind.APP_ARRIVAL,
            EventKind.KERNEL_COMPLETE,
        ]


class TestAllKindsEqualTimestampOrdering:
    """Total order across *every* event kind at one timestamp: every
    arrival-class event before every progress-class event (FAULT, REPAIR
    and PREEMPT included), FIFO within each class — asserted pairwise
    over all kind combinations and on the full shuffled set."""

    def test_kind_partition_is_exhaustive(self):
        assert set(ARRIVAL_KINDS) | set(PROGRESS_KINDS) == set(EventKind)
        assert not set(ARRIVAL_KINDS) & set(PROGRESS_KINDS)

    @pytest.mark.parametrize("arrival", ARRIVAL_KINDS)
    @pytest.mark.parametrize("progress", PROGRESS_KINDS)
    def test_arrival_beats_progress_pairwise(self, make_queue, arrival, progress):
        # progress pushed first: insertion order alone would invert this
        q = make_queue()
        q.push(Event(1.0, progress, payload="p"))
        q.push(Event(1.0, arrival, payload="a"))
        assert [q.pop().kind for _ in range(2)] == [arrival, progress]

    @pytest.mark.parametrize("first", PROGRESS_KINDS)
    @pytest.mark.parametrize("second", PROGRESS_KINDS)
    def test_progress_kinds_are_fifo_among_themselves(
        self, make_queue, first, second
    ):
        q = make_queue()
        q.push(Event(1.0, first, payload=1))
        q.push(Event(1.0, second, payload=2))
        assert [q.pop().payload for _ in range(2)] == [1, 2]

    def test_full_shuffled_batch_orders_by_class_then_fifo(self, make_queue):
        # interleave the classes; expect all arrivals (in push order),
        # then all progress events (in push order)
        q = make_queue()
        pushes = [
            (EventKind.FAULT, "f1"),
            (EventKind.KERNEL_READY, "r1"),
            (EventKind.PREEMPT, "p1"),
            (EventKind.APP_ARRIVAL, "a1"),
            (EventKind.TRANSFER_COMPLETE, "t1"),
            (EventKind.KERNEL_READY, "r2"),
            (EventKind.REPAIR, "f2"),
            (EventKind.KERNEL_COMPLETE, "c1"),
            (EventKind.APP_ARRIVAL, "a2"),
            (EventKind.TRANSFER_START, "t2"),
        ]
        for kind, tag in pushes:
            q.push(Event(4.0, kind, payload=tag))
        batch = q.pop_simultaneous()
        assert [e.payload for e in batch] == [
            "r1", "a1", "r2", "a2",  # arrival class, FIFO
            "f1", "p1", "t1", "f2", "c1", "t2",  # progress class, FIFO
        ]

    def test_time_dominates_rank_for_new_kinds(self, make_queue):
        q = make_queue()
        q.push(Event(2.0, EventKind.KERNEL_READY))
        q.push(Event(1.0, EventKind.FAULT))
        assert q.pop().kind is EventKind.FAULT


# ----------------------------------------------------------------------
# differential property test: ArrayEventHeap ≡ EventQueue
# ----------------------------------------------------------------------
_push_op = st.tuples(
    st.just("push"),
    # a handful of timestamps so same-time collisions are common
    st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]),
    st.sampled_from(list(EventKind)),
)
_ops = st.lists(
    st.one_of(
        _push_op,
        st.just(("pop",)),
        st.just(("pop_simultaneous",)),
        st.just(("peek",)),
    ),
    max_size=60,
)


class TestArrayHeapMatchesEventQueue:
    """Drive random push/pop/peek programs through both implementations
    and require identical observable behaviour at every step — the
    executable form of the drop-in-replacement contract."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_ops)
    def test_same_observable_sequence(self, ops):
        ref, heap = EventQueue(), ArrayEventHeap()
        tag = 0
        for op in ops:
            if op[0] == "push":
                _, time, kind = op
                tag += 1
                ref.push(Event(time, kind, payload=tag))
                heap.push(Event(time, kind, payload=tag))
            elif op[0] == "pop":
                if ref:
                    assert heap.pop() == ref.pop()
                else:
                    with pytest.raises(IndexError):
                        heap.pop()
            elif op[0] == "pop_simultaneous":
                if ref:
                    assert heap.pop_simultaneous() == ref.pop_simultaneous()
                else:
                    with pytest.raises(IndexError):
                        heap.pop_simultaneous()
            else:  # peek
                if ref:
                    assert heap.peek() == ref.peek()
                else:
                    with pytest.raises(IndexError):
                        heap.peek()
            assert len(heap) == len(ref)
        # drain: the remaining orders must agree exactly
        while ref:
            assert heap.pop() == ref.pop()
        assert not heap
