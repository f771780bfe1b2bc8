"""Cancelling timers cannot reorder the ones that survive.

The twin simulator schedules the same timers but never cancels: its
"cancelled" timers just have callbacks that do nothing.  Both must run the
surviving callbacks in the same order at the same times, whether a timer is
cancelled up front or from inside another timer's callback, and across the
heap rebuilds the cancels trigger.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


def run(delays, cancellers, cancel):
    sim = Simulator()
    timers = [sim.timeout(d) for d in delays]
    trace = []
    by_canceller = {}
    for victim, canceller in cancellers.items():
        by_canceller.setdefault(canceller, []).append(victim)

    def fire(i):
        def callback(_event):
            if i in cancellers and not cancel:
                return  # the twin's stand-in for a cancelled timer
            trace.append((i, sim.now))
            for victim in by_canceller.get(i, ()):
                if cancel:
                    sim.cancel(timers[victim])

        return callback

    for i, timer in enumerate(timers):
        timer.add_callback(fire(i))
    for victim in by_canceller.get(None, ()):
        if cancel:
            sim.cancel(timers[victim])
    sim.run()
    return trace, sim.events_scheduled


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_survivors_pop_in_the_same_order(data):
    # Small integer delays: plenty of same-instant ties.
    delays = data.draw(
        st.lists(st.integers(min_value=0, max_value=25), min_size=120, max_size=320),
        label="delays",
    )
    n = len(delays)
    # Over half and over 100: enough to trigger heap rebuilds.
    victims = data.draw(
        st.sets(
            st.integers(min_value=0, max_value=n - 1),
            min_size=max(n // 2 + 1, 101),
            max_size=n,
        ),
        label="victims",
    )
    survivors = [k for k in range(n) if k not in victims]
    cancellers = {}
    for victim in sorted(victims):
        # Up front, or from the callback of a survivor that fires earlier.
        earlier = [k for k in survivors if (delays[k], k) < (delays[victim], victim)]
        choice = st.none() if not earlier else st.one_of(st.none(), st.sampled_from(earlier))
        cancellers[victim] = data.draw(choice, label=f"canceller of {victim}")
    cancelled_trace, cancelled_events = run(delays, cancellers, cancel=True)
    twin_trace, twin_events = run(delays, cancellers, cancel=False)
    assert cancelled_trace == twin_trace
    assert [i for i, _ in cancelled_trace] == sorted(survivors, key=lambda k: (delays[k], k))
    assert cancelled_events == twin_events
