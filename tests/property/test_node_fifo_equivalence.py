"""``Node.execute`` against a single-server FIFO computed with plain arithmetic.

The CPU takes an idle unit synchronously, queues otherwise, and starts the
next queued job itself when the one in service ends; whichever path a job
goes through, its service must start, last and end exactly where a textbook
non-preemptive FIFO server puts it.
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


def _reference(jobs):
    """(index, finish) per job in completion order, and busy time."""
    expected, busy, free_at = [], 0.0, 0.0
    for index, (arrival, work) in sorted(
        enumerate(jobs), key=lambda item: (item[1][0], item[0])
    ):
        free_at = max(arrival, free_at) + work
        busy += work
        expected.append((index, free_at))
    return expected, busy


@settings(deadline=None)
@given(jobs=_jobs)
def test_node_matches_reference_fifo_server(jobs):
    expected, busy = _reference(jobs)
    sim = Simulator()
    node = Node(sim, "n1")
    finished = []

    def job(index, arrival, work):
        yield sim.timeout(arrival)
        yield from node.execute(work)
        finished.append((index, sim.now))

    for index, (arrival, work) in enumerate(jobs):
        sim.process(job(index, arrival, work))
    sim.run()

    assert finished == expected
    assert node.cpu_busy_time == pytest.approx(busy)
    assert not node.cpu_in_use and node.run_queue_length == 0
