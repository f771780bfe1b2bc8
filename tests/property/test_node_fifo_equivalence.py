"""``Node.execute`` against a single-server FIFO computed with plain arithmetic.

The CPU takes an idle unit synchronously, queues otherwise, and starts the
next queued job itself when the one in service ends or is killed; whichever
path a job goes through, its service must start, last and end exactly where
a textbook non-preemptive FIFO server puts it — including when jobs are
interrupted before, while queued for, or during their service.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import Node
from repro.sim import Simulator

_jobs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),  # arrival time
        st.floats(min_value=1e-4, max_value=1.0),  # work, reference-seconds
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=8.0)),  # kill
    ),
    min_size=1,
    max_size=25,
)


def _reference(jobs):
    """(index, finish) per completed job in completion order, and busy time."""
    expected, busy, free_at = [], 0.0, 0.0
    for index, (arrival, work, kill) in sorted(
        enumerate(jobs), key=lambda item: (item[1][0], item[0])
    ):
        # A kill at the job's own arrival or completion instant races that
        # occurrence in scheduling order; arithmetic cannot say who wins.
        assume(kill != arrival)
        if kill is not None and kill < arrival:
            continue  # died before asking for the CPU
        start = max(arrival, free_at)
        if kill is not None and kill <= start:
            continue  # killed in the run-queue: the CPU never sees it
        end = start + work
        assume(kill != end)
        if kill is not None and kill < end:
            free_at = kill  # killed in service: the next job starts now
            continue
        free_at = end
        busy += work
        expected.append((index, end))
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

    for index, (arrival, work, kill) in enumerate(jobs):
        proc = sim.process(job(index, arrival, work))
        if kill is not None:
            proc.defuse()  # it dies of the Interrupt: the scenario, not an error
            sim.call_at(kill, lambda p=proc: p.is_alive and p.interrupt())
    sim.run()

    assert finished == expected
    assert node.cpu_busy_time == pytest.approx(busy)
    assert not node.cpu_in_use and node.run_queue_length == 0
