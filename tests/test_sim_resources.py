"""Unit tests for queueing primitives."""

import pytest

from repro.sim import Container, Environment, PriorityResource, PriorityStore, Resource, Store


def test_resource_capacity_enforced():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []
    peak = []

    def worker(tag):
        with res.request() as req:
            yield req
            active.append(tag)
            peak.append(len(res.users))
            yield env.timeout(10)
            active.remove(tag)

    for tag in range(5):
        env.process(worker(tag))
    env.run()
    assert max(peak) == 2
    assert active == []


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    for tag in range(4):
        env.process(worker(tag))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_release_without_grant_cancels():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def quitter():
        req = res.request()
        yield env.timeout(1)
        res.release(req)  # never granted; should cancel cleanly

    def checker(times):
        with res.request() as req:
            yield req
            times.append(env.now)

    times = []
    env.process(holder())
    env.process(quitter())
    env.process(checker(times))
    env.run()
    assert times == [10]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_priority_resource_orders_waiters():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def worker(tag, priority):
        yield env.timeout(1)
        with res.request(priority=priority) as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    env.process(holder())
    env.process(worker("low", 5))
    env.process(worker("high", 0))
    env.process(worker("mid", 3))
    env.run()
    assert order == ["high", "mid", "low"]


def test_store_fifo():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [0, 1, 2]


def test_store_bounded_blocks_producer():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(("put-a", env.now))
        yield store.put("b")  # blocks until consumer takes "a"
        times.append(("put-b", env.now))

    def consumer():
        yield env.timeout(5)
        item = yield store.get()
        times.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-a", 0) in times
    assert ("put-b", 5) in times


def test_store_get_with_filter():
    env = Environment()
    store = Store(env)
    got = []

    def run():
        yield store.put({"tag": 1})
        yield store.put({"tag": 2})
        item = yield store.get(lambda it: it["tag"] == 2)
        got.append(item["tag"])
        item = yield store.get()
        got.append(item["tag"])

    env.process(run())
    env.run()
    assert got == [2, 1]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    def producer():
        yield env.timeout(9)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("late", 9)]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_priority_store_orders_items():
    env = Environment()
    store = PriorityStore(env)
    got = []

    def run():
        yield store.put((3, "c"))
        yield store.put((1, "a"))
        yield store.put((2, "b"))
        for _ in range(3):
            item = yield store.get()
            got.append(item[1])

    env.process(run())
    env.run()
    assert got == ["a", "b", "c"]


def test_container_get_blocks_until_level():
    env = Environment()
    credits = Container(env, capacity=100, init=0)
    times = []

    def consumer():
        yield credits.get(10)
        times.append(env.now)

    def producer():
        yield env.timeout(3)
        yield credits.put(4)
        yield env.timeout(3)
        yield credits.put(6)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert times == [6]
    assert credits.level == 0


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    times = []

    def producer():
        yield tank.put(5)
        times.append(env.now)

    def consumer():
        yield env.timeout(7)
        yield tank.get(5)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [7]
    assert tank.level == 10


def test_container_fifo_no_starvation():
    env = Environment()
    pool = Container(env, capacity=100, init=0)
    order = []

    def big_then_small():
        def big():
            yield pool.get(50)
            order.append("big")

        def small():
            yield env.timeout(1)
            yield pool.get(1)
            order.append("small")

        env.process(big())
        env.process(small())
        yield env.timeout(2)
        yield pool.put(50)  # enough for big; small must wait behind it
        yield env.timeout(1)
        yield pool.put(1)

    env.process(big_then_small())
    env.run()
    assert order == ["big", "small"]


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=9)
    pool = Container(env, capacity=5)
    with pytest.raises(ValueError):
        pool.get(0)
    with pytest.raises(ValueError):
        pool.put(-1)


def test_priority_resource_cancel_pending_request():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def canceller():
        req = res.request(priority=0)
        yield env.timeout(1)
        req.cancel()            # withdraw before grant

    def worker():
        yield env.timeout(2)
        with res.request(priority=5) as req:
            yield req
            order.append(env.now)

    env.process(holder())
    env.process(canceller())
    env.process(worker())
    env.run()
    # The cancelled high-priority request must not block the worker.
    assert order == [10]


def test_resource_queue_len_tracks_waiters():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def waiter():
        with res.request() as req:
            yield req

    env.process(holder())
    env.process(waiter())
    env.run(until=5)
    assert res.queue_len == 1
    assert res.count == 1
    env.run()
    assert res.queue_len == 0


@pytest.mark.parametrize("cls", [Resource, PriorityResource, Store,
                                 PriorityStore])
def test_fractional_capacity_rejected(cls):
    env = Environment()
    with pytest.raises(ValueError, match=rf"{cls.__name__} .*1\.5"):
        cls(env, capacity=1.5)


def test_whole_and_infinite_capacities_accepted():
    env = Environment()
    assert Store(env, capacity=float("inf")).capacity == float("inf")
    assert Store(env, capacity=2.0).capacity == 2
    assert Resource(env, capacity=3).capacity == 3


def test_fractional_capacity_does_not_round_up():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=1.5)
    res = Resource(env, capacity=1)
    res.request()
    res.request()
    env.run()
    assert res.count == 1 and res.queue_len == 1


@pytest.mark.parametrize("op", ["get", "put"])
def test_container_request_above_capacity_rejected(op):
    env = Environment()
    pool = Container(env, capacity=5, init=2)
    with pytest.raises(ValueError, match=rf"Container\.{op}\(6\) .*5"):
        getattr(pool, op)(6)
    assert not pool._get_waiters and not pool._put_waiters
    getattr(pool, op)(3)              # a fitting request still queues
    env.run()


@pytest.mark.parametrize("op", ["get", "put", "put_forget"])
def test_container_nan_amount_rejected(op):
    # A NaN amount used to queue and wait forever.
    env = Environment()
    pool = Container(env, capacity=5, init=2)
    with pytest.raises(ValueError, match="nan"):
        getattr(pool, op)(float("nan"))
    assert not pool._get_waiters and not pool._put_waiters
    assert pool.level == 2 and env.peek() == float("inf")


def test_get_after_external_removal_serves_the_blocked_put():
    # Code outside the store may remove items without a trigger; the
    # next get must still admit the put it unblocked.
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("x")
        yield store.put("y")              # blocks: the store is full
        log.append(("put y", env.now))

    def consumer():
        yield env.timeout(1)
        store.items.popleft()             # "x" leaves without a trigger
        log.append(("got", (yield store.get()), env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("put y", 1), ("got", "y", 1)]


def _clock_filter(env):
    return lambda item: env.now >= 2


def test_clock_dependent_filter_is_served_before_a_new_put():
    env = Environment()
    store = Store(env)
    log = []

    def consumer():
        log.append(("got", (yield store.get(_clock_filter(env))), env.now))

    def producer():
        store.put("x")                    # rejected by the filter at t=0
        yield env.timeout(2)
        yield store.put("y")
        log.append(("put y", env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("got", "x", 2), ("put y", 2)]
    assert list(store.items) == ["y"]


def test_waiting_filtered_getter_keeps_its_turn_over_a_new_get():
    env = Environment()
    store = Store(env)
    log = []

    def filtered():
        log.append(("filtered", (yield store.get(_clock_filter(env)))))

    def plain():
        yield env.timeout(2)
        log.append(("plain", (yield store.get())))

    store.put("x")
    env.process(filtered())
    env.process(plain())
    env.run(until=10)
    assert log == [("filtered", "x")]
    assert len(store._get_waiters) == 1
