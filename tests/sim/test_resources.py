"""Tests for Store and Resource."""

import pytest

from repro.sim import Resource, Simulator, Store
from repro.sim.resources import StoreFull


# ---------------------------------------------------------------- Store
def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        got = []
        for _ in range(5):
            item = yield store.get()
            got.append(item)
        return got

    sim.process(producer())
    cons = sim.process(consumer())
    sim.run()
    assert cons.value == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (sim.now, item)

    def producer():
        yield sim.timeout(3.0)
        yield store.put("x")

    cons = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert cons.value == (3.0, "x")


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(sim.now)
        yield store.put("b")
        times.append(sim.now)

    def consumer():
        yield sim.timeout(5.0)
        item = yield store.get()
        return item

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert times == [0.0, 5.0]


def test_store_put_nowait_raises_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    store.put_nowait(1)
    store.put_nowait(2)
    assert store.is_full
    with pytest.raises(StoreFull):
        store.put_nowait(3)


def test_store_get_nowait():
    sim = Simulator()
    store = Store(sim)
    store.put_nowait("only")
    assert store.get_nowait() == "only"
    with pytest.raises(IndexError):
        store.get_nowait()


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    store.put_nowait(1)
    store.put_nowait(2)
    assert len(store) == 2


def test_store_waiting_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    results = []

    def consumer(tag):
        item = yield store.get()
        results.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))

    def producer():
        yield sim.timeout(1.0)
        yield store.put("a")
        yield store.put("b")

    sim.process(producer())
    sim.run()
    assert results == [("first", "a"), ("second", "b")]


# -------------------------------------------------------------- Resource
def test_resource_limits_concurrency():
    sim = Simulator()
    pool = Resource(sim, capacity=2)
    active = []
    peak = []

    def worker(i):
        yield pool.acquire()
        active.append(i)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.remove(i)
        pool.release()

    for i in range(6):
        sim.process(worker(i))
    sim.run()
    assert max(peak) == 2
    assert sim.now == 3.0  # 6 workers / 2 slots * 1s


def test_resource_release_without_acquire():
    sim = Simulator()
    pool = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        pool.release()


def test_resource_available():
    sim = Simulator()
    pool = Resource(sim, capacity=3)
    pool.acquire()
    assert pool.available == 2


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
