"""Micro-benchmarks of the library's hot paths.

These are real timing benchmarks (multiple rounds), not experiment
reproductions: they track the simulation kernel's event throughput, selector
matching, SQL parsing and store operations — the costs that bound how fast
the paper-scale experiments run.
"""

import pytest

from repro.jms import Message, Selector
from repro.rgma.sql import parse_sql, render_insert
from repro.sim import Simulator, Store


def test_kernel_event_throughput(benchmark):
    """Schedule+process 10k timeout events."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.timeout(i * 0.001)
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result == pytest.approx(9.999)


def test_process_switch_throughput(benchmark):
    """A ping-pong pair of processes switching 2k times."""

    def run():
        sim = Simulator()
        store_a, store_b = Store(sim), Store(sim)

        def ping():
            for _ in range(1000):
                yield store_a.put("x")
                yield store_b.get()

        def pong():
            for _ in range(1000):
                yield store_a.get()
                yield store_b.put("y")

        sim.process(ping())
        sim.process(pong())
        sim.run()
        return True

    assert benchmark(run)


def test_selector_matching_speed(benchmark):
    """The broker's per-message hot path: one compiled selector match."""
    selector = Selector("id >= 100 AND id < 10000 AND site IN ('uk', 'fr')")
    message = Message()
    message.set_property("id", 5432)
    message.set_property("site", "uk")

    result = benchmark(selector.matches, message)
    assert result is True


def test_selector_compile_speed(benchmark):
    text = "a + b * 2 BETWEEN 10 AND 99 OR name LIKE 'gen%' AND flag = TRUE"
    selector = benchmark(Selector, text)
    assert selector.identifiers == {"a", "b", "name", "flag"}


def test_sql_insert_parse_speed(benchmark):
    """One uncached parse of a literal INSERT (``parse_sql`` is memoised,
    so the PP servlet pays this once per statement shape)."""
    row = {"genid": 1, "dval1": 2.5, "sval1": "site-a", "ival1": 3}
    sql = render_insert("gridmon", row)
    stmt = benchmark(parse_sql.__wrapped__, sql)
    assert stmt.table == "gridmon"


def test_store_put_get_speed(benchmark):
    def run():
        sim = Simulator()
        store = Store(sim)
        for i in range(1000):
            store.put_nowait(i)
        total = 0
        for _ in range(1000):
            total += store.get_nowait()
        return total

    assert benchmark(run) == sum(range(1000))
