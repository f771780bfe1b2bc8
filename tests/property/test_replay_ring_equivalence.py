"""ReplayRing.read against a reference linear scan of the retained ring."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.replay import ReplayRing


def reference_read(ring, cursor, limit=None):
    """The straightforward scan: walk every retained event, keep seq >= cursor."""
    events = ring._events
    truncated = bool(events) and cursor < events[0].seq
    if not events and cursor < ring.end_seq:
        truncated = True
    out = []
    for event in events:
        if event.seq >= cursor:
            out.append(event)
            if limit is not None and len(out) >= limit:
                break
    next_cursor = out[-1].seq + 1 if out else max(cursor, ring.end_seq)
    return out, next_cursor, truncated


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=16),
    appends=st.integers(min_value=0, max_value=60),
    data=st.data(),
)
def test_read_matches_linear_scan(capacity, appends, data):
    ring = ReplayRing("t", capacity, epoch="gw#0")
    for i in range(appends):
        ring.append({"i": i}, 140.0, t_in=float(i), created=float(i))
    if data.draw(st.booleans(), label="history cleared"):
        ring._events.clear()  # history gone, seq survived
    oldest = ring.end_seq - len(ring)
    # Below the oldest event, inside the ring, at its end, and beyond it.
    cursor = data.draw(
        st.one_of(
            st.integers(min_value=-3, max_value=oldest),
            st.integers(min_value=oldest, max_value=max(oldest, ring.end_seq - 1)),
            st.just(ring.end_seq),
            st.integers(min_value=ring.end_seq, max_value=ring.end_seq + 5),
        ),
        label="cursor",
    )
    limit = data.draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=capacity + 2)),
        label="limit",
    )
    events, next_cursor, truncated = ring.read(cursor, limit)
    ref_events, ref_next, ref_truncated = reference_read(ring, cursor, limit)
    assert [id(e) for e in events] == [id(e) for e in ref_events]
    assert next_cursor == ref_next
    assert truncated == ref_truncated
