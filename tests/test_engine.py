import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbansim.engine import (
    ARGS,
    FN,
    EventKind,
    RngStreams,
    RunAborted,
    Scheduler,
    SchedulingError,
    fire,
)

TICK = EventKind.MEASUREMENT_TICK


def make_scheduler():
    s = Scheduler()
    s.register(TICK, fire)
    return s


def test_fires_in_time_order():
    seen = []
    s = make_scheduler()
    s.schedule(30, TICK, None, seen.append, ("c",))
    s.schedule(10, TICK, None, seen.append, ("a",))
    s.schedule(20, TICK, None, seen.append, ("b",))
    s.run_until(100)
    assert seen == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    seen = []
    s = make_scheduler()
    for label in "abcd":
        s.schedule(5, TICK, None, seen.append, (label,))
    s.run_until(5)
    assert seen == ["a", "b", "c", "d"]


def test_cancelled_event_never_dispatched():
    seen = []
    s = make_scheduler()
    s.schedule(5, TICK, None, seen.append, ("keep",))
    drop = s.schedule(5, TICK, None, seen.append, ("drop",))
    s.cancel(drop)
    s.run_until(10)
    assert seen == ["keep"]


def test_scheduling_in_past_is_fatal():
    seen = []
    s = make_scheduler()
    s.schedule(10, TICK, None, seen.append, ("x",))
    s.run_until(10)
    with pytest.raises(SchedulingError):
        s.schedule(5, TICK, None, seen.append, ("late",))
    s.run_until(20)
    assert seen == ["x"]


def test_empty_queue_returns_t_end():
    s = make_scheduler()
    assert s.run_until(1234) == 1234
    assert s.now == 1234


def test_clock_never_decreases_and_event_fires_once():
    seen = []
    s = make_scheduler()
    s.schedule(5, TICK, None, seen.append, ("once",))
    end = s.run_until(10)
    assert end == 10
    s.run_until(20)
    assert seen == ["once"]


def test_dispatcher_failure_aborts_with_trace_tail():
    s = make_scheduler()
    s.register(EventKind.BEACON_DUE, fire)

    def boom():
        raise ValueError("broken handler")

    s.schedule(1, TICK, None, lambda: None)
    s.schedule(2, EventKind.BEACON_DUE, 0, boom)
    with pytest.raises(RunAborted) as err:
        s.run_until(10)
    message = str(err.value)
    assert "broken handler" in message
    assert "event trace tail" in message
    lines = message.split("\n")
    assert lines[-3:] == ["event trace tail:", "1 MeasurementTick -", "2 BeaconDue 0"]


def test_an_abort_leaves_every_entry_after_the_failing_one_pending():
    seen = []
    s = make_scheduler()

    def boom():
        raise ValueError("broken handler")

    for label in "ab":
        s.schedule(2, TICK, None, seen.append, (label,))
    s.schedule(2, TICK, None, boom)
    for label in "cd":
        s.schedule(2, TICK, None, seen.append, (label,))
    s.schedule(3, TICK, None, seen.append, ("e",))
    with pytest.raises(RunAborted):
        s.run_until(10)
    assert seen == ["a", "b"] and s.now == 2
    s.schedule(2, TICK, None, seen.append, ("f",))
    s.run_until(10)
    assert seen == ["a", "b", "c", "d", "f", "e"]
    # The failing entry alone at its instant: nothing of it is left to run,
    # and an entry scheduled there afterwards still fires.
    s.schedule(20, TICK, None, boom)
    with pytest.raises(RunAborted):
        s.run_until(30)
    s.schedule(20, TICK, None, seen.append, ("g",))
    s.run_until(30)
    assert seen[-1] == "g" and not s._instants and not s._calendar


def test_trace_tail_holds_exactly_the_last_32_dispatches():
    s = make_scheduler()
    s.register(EventKind.BEACON_DUE, fire)

    def boom():
        raise ValueError("broken handler")

    for t in range(1, 41):
        s.schedule(t, TICK, t % 3 or None, lambda: None)
    s.schedule(41, EventKind.BEACON_DUE, 0, boom)
    with pytest.raises(RunAborted) as err:
        s.run_until(50)
    message = str(err.value)
    assert message.startswith(
        "dispatcher for BeaconDue failed at t=41 us: broken handler\nevent trace tail:\n"
    )
    tail = message.split("event trace tail:\n")[1].split("\n")
    expected = [f"{t} MeasurementTick {t % 3 or '-'}" for t in range(10, 41)]
    assert tail == expected + ["41 BeaconDue 0"]


def test_clear_drops_and_empties_every_pending_event():
    # A device may still hold a pending entry as its handle; cleared, the
    # entry reaches neither its callback nor its arguments.
    s = make_scheduler()
    seen = []
    s.schedule(5, TICK, None, seen.append, ("first",))
    handle = s.schedule(50, TICK, 1, seen.append, ("late",))
    s.run_until(10)
    s.clear()
    assert handle[FN] is None and handle[ARGS] is None
    assert s.run_until(100) == 100 and seen == ["first"]
    assert not s._trace_tail


def test_clear_leaves_no_instant_and_no_list_behind():
    # Cleared in the middle of a run, with several instants pending and one
    # holding several entries.  A list left behind without its instant on the
    # heap would swallow every later entry at that instant.
    s = make_scheduler()
    seen = []
    for t in (5, 20, 20, 30):
        s.schedule(t, TICK, None, seen.append, (t,))
    s.run_until(10)
    s.clear()
    assert not s._instants and not s._calendar
    s.schedule(20, TICK, None, seen.append, ("after",))
    s.run_until(100)
    assert seen == [5, "after"]


def test_an_entry_scheduled_at_t_end_after_the_run_fires_in_the_next_run():
    seen = []
    s = make_scheduler()
    s.schedule(10, TICK, None, seen.append, ("a",))
    s.run_until(10)
    s.schedule(10, TICK, None, seen.append, ("b",))
    assert seen == ["a"]
    assert s.run_until(10) == 10 and seen == ["a", "b"]
    s.schedule(10, TICK, None, seen.append, ("c",))
    s.schedule(12, TICK, None, seen.append, ("d",))
    assert s.run_until(20) == 20 and seen == ["a", "b", "c", "d"]


def test_events_scheduled_during_dispatch_run_in_order():
    seen = []
    s = make_scheduler()

    def handler(label):
        seen.append((s.now, label))
        if label == "first":
            s.schedule(s.now, TICK, None, handler, ("chained",))

    s.schedule(5, TICK, None, handler, ("first",))
    s.schedule(7, TICK, None, handler, ("later",))
    s.run_until(10)
    assert seen == [(5, "first"), (5, "chained"), (7, "later")]


def test_entry_is_the_flat_handle_the_sink_receives():
    s = make_scheduler()
    sunk = []
    s.trace_sink = sunk.append
    args = ("x",)
    entry = s.schedule(3, TICK, 7, print, args)
    assert entry == [3, TICK, 7, print, args]
    s.cancel(entry)
    assert entry[FN] is None
    live = s.schedule(4, TICK, None, lambda: None)
    s.run_until(5)
    assert len(sunk) == 1 and sunk[0] is live


# One operation on the scheduler: ("schedule", delay), ("cancel", handle
# index) or ("run", advance).  run_until(now + advance) must dispatch exactly
# the scheduled, not cancelled, not yet dispatched entries due by then, in
# (fire_at, insertion) order.
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 20)),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("run"), st.integers(0, 30)),
), max_size=150)
# What the event with insertion index k does when it fires: reactions[k],
# each step a follow-on at a delay of 0-3 us or a cancel of any handle, one
# already dispatched or the event's own included.
REACTIONS = st.lists(st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
), max_size=3), max_size=60)


@settings(max_examples=200, deadline=None)
@given(OPERATIONS, REACTIONS)
def test_dispatch_order_matches_a_sorted_model(operations, reactions):
    s = make_scheduler()
    fired, sunk = [], []
    s.trace_sink = sunk.append
    handles: list[list] = []

    def react(label):
        fired.append(label)
        for op, arg in reactions[label] if label < len(reactions) else ():
            if op == "schedule":
                label = len(handles)
                handles.append(s.schedule(s.now + arg, TICK, label % 3 or None, react, (label,)))
            else:
                s.cancel(handles[arg % len(handles)])

    # The model: pending events by insertion index, each fired in turn as
    # the least (fire_at, insertion index) due, its reactions applied to it.
    pending: dict[int, int] = {}  # insertion index -> fire_at
    expected: list[int] = []
    count = 0  # insertion indices handed out

    def model_schedule(at):
        nonlocal count
        pending[count] = at
        count += 1

    def model_run(t_end):
        while due := [(at, label) for label, at in pending.items() if at <= t_end]:
            at, label = min(due)
            del pending[label]
            expected.append(label)
            for op, arg in reactions[label] if label < len(reactions) else ():
                if op == "schedule":
                    model_schedule(at + arg)
                else:
                    pending.pop(arg % count, None)

    for op, arg in operations + [("run", 10**6)]:
        if op == "schedule":
            label = len(handles)
            handles.append(s.schedule(s.now + arg, TICK, label % 3 or None, react, (label,)))
            model_schedule(s.now + arg)
        elif op == "cancel" and handles:
            label = arg % len(handles)
            s.cancel(handles[label])
            pending.pop(label, None)
        elif op == "run":
            t_end = s.now + arg
            model_run(t_end)
            assert s.run_until(t_end) == t_end == s.now
            assert fired == expected and len(handles) == count
    assert not pending and not s._instants and not s._calendar
    # The sink saw each dispatched entry itself, and the trace tail holds
    # exactly the last 32 of them.
    assert len(sunk) == len(expected)
    assert all(entry is handles[label] for entry, label in zip(sunk, expected))
    tail = list(s._trace_tail)
    assert len(tail) == min(32, len(sunk))
    assert all(a is b for a, b in zip(tail, sunk[len(sunk) - len(tail):]))


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a, b = RngStreams(42), RngStreams(42)
        assert [a.node(3).random() for _ in range(5)] == [b.node(3).random() for _ in range(5)]
        assert a.channel.random() == b.channel.random()

    def test_node_streams_are_independent(self):
        # draws for node 1 do not change when node 2 is also consulted
        a, b = RngStreams(7), RngStreams(7)
        b.node(2).random()
        b.node(2).random()
        assert [a.node(1).random() for _ in range(4)] == [b.node(1).random() for _ in range(4)]

    def test_different_seeds_differ(self):
        assert RngStreams(1).node(1).random() != RngStreams(2).node(1).random()
