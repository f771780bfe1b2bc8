"""Tests for Store, PriorityStore, Resource, Container."""

import pytest

from repro.sim import Container, PriorityStore, Resource, Simulator, Store
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


# ---------------------------------------------------------- PriorityStore
def test_priority_store_orders_by_priority():
    sim = Simulator()
    store = PriorityStore(sim)
    for priority, tag in [(5, "low"), (1, "high"), (3, "mid")]:
        store.put_nowait((priority, tag))

    def consumer():
        got = []
        for _ in range(3):
            item = yield store.get()
            got.append(item[1])
        return got

    assert sim.run_process(consumer()) == ["high", "mid", "low"]


def test_priority_store_capacity_and_nowait():
    sim = Simulator()
    store = PriorityStore(sim, capacity=1)
    store.put_nowait((1, "x"))
    with pytest.raises(StoreFull):
        store.put_nowait((2, "y"))
    assert store.get_nowait() == (1, "x")


def test_priority_store_blocked_put_admitted_in_order():
    sim = Simulator()
    store = PriorityStore(sim, capacity=1)

    def producer():
        yield store.put((2, "second"))
        yield store.put((1, "first-priority"))

    def consumer():
        got = []
        for _ in range(2):
            yield sim.timeout(1.0)
            item = yield store.get()
            got.append(item)
        return got

    sim.process(producer())
    cons = sim.process(consumer())
    sim.run()
    assert cons.value == [(2, "second"), (1, "first-priority")]


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


# ------------------------------------------------------------- Container
def test_container_put_get():
    sim = Simulator()
    tank = Container(sim, capacity=100.0, init=10.0)
    tank.put(40.0)
    assert tank.level == 50.0
    assert tank.try_get(30.0)
    assert tank.level == 20.0


def test_container_overflow_raises():
    sim = Simulator()
    tank = Container(sim, capacity=10.0)
    with pytest.raises(OverflowError):
        tank.put(11.0)


def test_container_get_blocks_until_level():
    sim = Simulator()
    tank = Container(sim, capacity=100.0)

    def consumer():
        yield tank.get(50.0)
        return sim.now

    def producer():
        yield sim.timeout(1.0)
        tank.put(20.0)
        yield sim.timeout(1.0)
        tank.put(30.0)

    cons = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert cons.value == 2.0


def test_container_getters_fifo_no_overtaking():
    sim = Simulator()
    tank = Container(sim, capacity=100.0)
    order = []

    def consumer(tag, amount):
        yield tank.get(amount)
        order.append(tag)

    sim.process(consumer("big", 50.0))
    sim.process(consumer("small", 5.0))

    def producer():
        yield sim.timeout(1.0)
        tank.put(10.0)  # enough for "small" but it must wait behind "big"
        yield sim.timeout(1.0)
        tank.put(60.0)

    sim.process(producer())
    sim.run()
    assert order == ["big", "small"]


def test_container_invalid_init():
    sim = Simulator()
    with pytest.raises(ValueError):
        Container(sim, capacity=5.0, init=6.0)


def test_container_negative_amounts_rejected():
    sim = Simulator()
    tank = Container(sim, capacity=10.0, init=5.0)
    with pytest.raises(ValueError):
        tank.put(-1.0)
    with pytest.raises(ValueError):
        tank.get(-1.0)
