"""``Node.execute`` against a single-server FIFO computed with plain arithmetic.

The CPU takes an idle unit synchronously and queues otherwise; whichever
path a job goes through, its service must start, last and end exactly where
a textbook non-preemptive FIFO server puts it — including when ``cpu_scale``
is rewritten mid-run, as the ``cpu_slow`` fault does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Node
from repro.sim import Simulator

_jobs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),  # arrival time
        st.floats(min_value=1e-4, max_value=1.0),  # work, reference-seconds
    ),
    min_size=1,
    max_size=25,
)


@settings(deadline=None)
@given(
    jobs=_jobs,
    scale_before=st.floats(min_value=0.25, max_value=4.0),
    scale_after=st.floats(min_value=0.25, max_value=4.0),
    change_at=st.floats(min_value=0.0, max_value=8.0),
)
def test_node_matches_reference_fifo_server(jobs, scale_before, scale_after, change_at):
    sim = Simulator()
    node = Node(sim, "n1", cpu_scale=scale_before)
    # Scheduled before any job exists, so at ``change_at`` itself the new
    # speed is in force before any service that starts at that instant.
    sim.call_at(change_at, lambda: setattr(node, "cpu_scale", scale_after))
    finished = []

    def job(index, arrival, work):
        yield sim.timeout(arrival)
        yield from node.execute(work)
        finished.append((index, sim.now))

    for index, (arrival, work) in enumerate(jobs):
        sim.process(job(index, arrival, work))
    sim.run()

    expected, busy, free_at = [], 0.0, 0.0
    for index, (arrival, work) in sorted(
        enumerate(jobs), key=lambda item: (item[1][0], item[0])
    ):
        start = max(arrival, free_at)
        duration = work / (scale_after if start >= change_at else scale_before)
        free_at = start + duration
        busy += duration
        expected.append((index, free_at))

    assert finished == expected
    assert node.cpu_busy_time == pytest.approx(busy)
    assert not node.cpu_in_use and node.run_queue_length == 0
