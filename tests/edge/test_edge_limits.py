"""Edge limits are validated up front, and cursor reads cost O(returned)."""

from collections import deque

import pytest

from repro.edge import EdgeConfig
from repro.edge.replay import ReplayRing


class CountingDeque(deque):
    """A deque that counts every element handed out by index or iteration."""

    touched = 0

    def __getitem__(self, index):
        self.touched += 1
        return super().__getitem__(index)

    def __iter__(self):
        for item in super().__iter__():
            self.touched += 1
            yield item


def full_ring(capacity=4096, extra=100):
    ring = ReplayRing("gridmon", capacity, epoch="gw0#0")
    for i in range(capacity + extra):
        ring.append({"i": i}, 140.0, t_in=float(i), created=float(i))
    ring._events = CountingDeque(ring._events)
    return ring


def test_caught_up_read_touches_no_history():
    ring = full_ring()
    limit = 64
    events, next_cursor, truncated = ring.read(ring.end_seq, limit)
    assert (events, next_cursor, truncated) == ([], ring.end_seq, False)
    assert ring._events.touched <= limit + 1


def test_read_touches_only_what_it_returns():
    ring = full_ring()
    limit = 64
    events, next_cursor, _ = ring.read(ring.end_seq - 3, limit)
    assert [e.seq for e in events] == [ring.end_seq - 3 + k for k in range(3)]
    assert ring._events.touched <= limit + 1
    ring._events.touched = 0
    # A reader far behind gets one page, not a walk over the whole ring.
    events, next_cursor, truncated = ring.read(0, limit)
    assert truncated and len(events) == limit
    assert next_cursor == events[-1].seq + 1
    assert ring._events.touched <= limit + 1


def test_read_limit_zero_is_rejected():
    ring = ReplayRing("t", 4, epoch="gw0#0")
    ring.append({}, 140.0, t_in=0.0, created=0.0)
    with pytest.raises(ValueError, match="limit"):
        ring.read(0, limit=0)
    with pytest.raises(ValueError, match="limit"):
        ring.read_since_created(0.0, limit=0)
    # None still means "no limit".
    assert len(ring.read(0, limit=None)[0]) == 1


@pytest.mark.parametrize("capacity", [0, -1])
def test_ring_capacity_must_be_positive(capacity):
    with pytest.raises(ValueError, match="capacity"):
        ReplayRing("t", capacity, epoch="gw0#0")


@pytest.mark.parametrize(
    "field, value",
    [
        ("replay_capacity", 0),
        ("max_events_per_poll", 0),
        ("long_poll_timeout", 0.0),
        ("long_poll_timeout", -1.0),
        ("shed_heap_fraction", 0.0),
        ("shed_heap_fraction", 1.5),
        ("poll_request_bytes", -1.0),
        ("event_bytes", -1.0),
        ("parked_heap_bytes", -1.0),
        ("cpu_per_event", -1e-6),
        ("cpu_per_poll", float("nan")),
    ],
)
def test_edge_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        EdgeConfig(**{field: value})


def test_edge_config_defaults_and_repr_unchanged():
    config = EdgeConfig()
    assert config.replay_capacity == 4096
    assert config.max_events_per_poll == 64
    # The repr is part of the sweep-cache key.
    assert repr(config) == (
        "EdgeConfig(long_poll_timeout=60.0, poll_request_bytes=96.0, "
        "event_bytes=140.0, replay_capacity=4096, parked_heap_bytes=9216.0, "
        "shed_heap_fraction=0.85, max_events_per_poll=64, retry_after=1.0, "
        "retry_after_jitter=2.0, catch_up_margin=1.0, heap_bytes=1073741824, "
        "cpu_per_event=2e-05, cpu_per_poll=3e-05)"
    )
    # Boundary values stay legal.
    EdgeConfig(replay_capacity=1, max_events_per_poll=1, shed_heap_fraction=1.0,
               cpu_per_event=0.0, cpu_per_poll=0.0)
