"""Tests for the transaction layer: request/response, serving, ordering."""

import pytest

from repro import params
from repro.fabric import (
    Channel,
    LinkLayer,
    Packet,
    PacketKind,
    TransactionPort,
    format_table1,
    CATALOG,
)
from repro.sim import Environment, Interrupt


def make_pair(env, tag_capacity=256, credits=32):
    """Two ports wired back-to-back over a pair of links."""
    lp = params.LinkParams(credits=credits)
    ab = LinkLayer(env, lp, name="a->b")
    ba = LinkLayer(env, lp, name="b->a")
    a = TransactionPort(env, tx_link=ab, rx_link=ba, port_id=1, name="A",
                        tag_capacity=tag_capacity)
    b = TransactionPort(env, tx_link=ba, rx_link=ab, port_id=2, name="B",
                        tag_capacity=tag_capacity)
    return a, b


def echo_handler(port):
    def handler(request):
        yield port.env.timeout(10.0)  # device-side service time
        return request.make_response()
    return handler


class TestRequestResponse:
    def test_read_roundtrip(self):
        env = Environment()
        a, b = make_pair(env)
        b.serve(echo_handler(b))
        out = []

        def client():
            req = Packet(kind=PacketKind.MEM_RD, channel=Channel.CXL_MEM,
                         src=1, dst=2, addr=0xABC, nbytes=64)
            rsp = yield from a.request(req)
            out.append(rsp)

        env.process(client())
        env.run(until=10_000)
        assert len(out) == 1
        assert out[0].kind is PacketKind.MEM_RD_DATA
        assert out[0].addr == 0xABC
        assert a.responses_received == 1

    def test_many_outstanding_requests_complete(self):
        env = Environment()
        a, b = make_pair(env)
        b.serve(echo_handler(b))
        done = []

        def client(i):
            req = Packet(kind=PacketKind.MEM_RD, channel=Channel.CXL_MEM,
                         src=1, dst=2, addr=i * 64)
            rsp = yield from a.request(req)
            done.append(rsp.addr)

        for i in range(50):
            env.process(client(i))
        env.run(until=100_000)
        assert sorted(done) == [i * 64 for i in range(50)]

    def test_tag_window_limits_outstanding(self):
        env = Environment()
        a, b = make_pair(env, tag_capacity=2)
        b.serve(echo_handler(b))
        done = []

        def client(i):
            req = Packet(kind=PacketKind.MEM_RD, channel=Channel.CXL_MEM,
                         src=1, dst=2, addr=i)
            yield from a.request(req)
            done.append(i)

        for i in range(10):
            env.process(client(i))
        env.run(until=100_000)
        assert len(done) == 10
        assert a.tags.in_use == 0

    def test_non_request_kind_rejected(self):
        env = Environment()
        a, _ = make_pair(env)
        rsp = Packet(kind=PacketKind.MEM_RD_DATA, channel=Channel.CXL_MEM,
                     src=1, dst=2)

        def client():
            yield from a.request(rsp)

        proc = env.process(client())
        env.run(until=100)
        assert proc.triggered and not proc.ok
        assert isinstance(proc.value, ValueError)

    def test_post_does_not_wait_for_response(self):
        env = Environment()
        a, b = make_pair(env)
        seen = []

        def sink(request):
            seen.append(request)
            yield env.timeout(0)
            return None
        b.serve(sink)
        times = []

        def client():
            pkt = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                         src=1, dst=2, nbytes=64)
            yield from a.post(pkt)
            times.append(env.now)

        env.process(client())
        env.run(until=10_000)
        assert len(seen) == 1
        assert times[0] < 10  # returned as soon as flits were queued

    def test_double_serve_rejected(self):
        env = Environment()
        _, b = make_pair(env)
        b.serve(echo_handler(b))
        from repro.sim import SimulationError
        with pytest.raises(SimulationError):
            b.serve(echo_handler(b))

    def test_write_payload_takes_longer_than_read_request(self):
        env = Environment()
        a, b = make_pair(env)
        b.serve(echo_handler(b))
        latencies = {}

        def client(kind, nbytes, label):
            req = Packet(kind=kind, channel=Channel.CXL_MEM, src=1, dst=2,
                         nbytes=nbytes)
            start = env.now
            yield from a.request(req)
            latencies[label] = env.now - start

        def seq():
            yield env.process(client(PacketKind.MEM_RD, 64, "read"))
            yield env.process(client(PacketKind.MEM_WR, 16 * 1024, "bigwrite"))

        env.process(seq())
        env.run(until=1_000_000)
        assert latencies["bigwrite"] > latencies["read"]


RD = (PacketKind.MEM_RD, 64)
WR4K = (PacketKind.MEM_WR, 4096)
PAUSE = "pause"   # the client's continuation yields env.timeout(0)
IO_KINDS = (PacketKind.IO_RD, PacketKind.IO_WR)


def run_window(tag_capacity, clients, interrupts=(), **env_options):
    """Drive ``clients`` through port A's tag window to quiescence.

    ``clients`` maps a name to ``(start_ns, ops)``; an op is a
    ``(kind, nbytes)`` request (IO kinds ride CXL.io, the rest CXL.mem)
    or ``PAUSE``.  A's tx queue holds 4 flits, so a 4 KB write emits
    from t=0 to t~70 and completes at t~132.  ``interrupts`` lists
    ``(at_ns, name)``: the named client is interrupted then, logs
    ``name!`` and retries its request.  Returns ``(port A, log,
    events_processed)``; the log holds ``(name + op index, completion
    time)`` per request.
    """
    env = Environment(**env_options)
    lp = params.LinkParams(credits=32)
    ab = LinkLayer(env, lp, name="a->b", tx_queue_capacity=4)
    ba = LinkLayer(env, lp, name="b->a")
    a = TransactionPort(env, tx_link=ab, rx_link=ba, port_id=1, name="A",
                        tag_capacity=tag_capacity)
    b = TransactionPort(env, tx_link=ba, rx_link=ab, port_id=2, name="B",
                        tag_capacity=tag_capacity)
    b.serve(echo_handler(b), concurrency=2)
    log = []
    procs = {}

    def client(name, start, ops):
        if start:
            yield env.timeout(start)
        for i, op in enumerate(ops):
            if op == PAUSE:
                yield env.timeout(0)
                continue
            kind, nbytes = op
            channel = Channel.CXL_IO if kind in IO_KINDS else Channel.CXL_MEM
            while True:
                try:
                    yield from a.request(Packet(
                        kind=kind, channel=channel, src=1, dst=2,
                        addr=i * 64, nbytes=nbytes))
                    break
                except Interrupt:
                    log.append((f"{name}!", env.now))
            log.append((f"{name}{i}", env.now))

    def interrupter(at, name):
        yield env.timeout(at)
        procs[name].interrupt()

    for name, (start, ops) in clients.items():
        procs[name] = env.process(client(name, start, ops), name=name)
    for at, name in interrupts:
        env.process(interrupter(at, name))
    env.run()
    return a, log, env.stats["events_processed"]


class TestTagWindowOrder:
    """Exact wake order of requesters blocked on a full tag window.

    The pinned logs and event counts were recorded with the earlier
    implementation, in which every blocked requester waited on an
    ``AnyOf`` over all outstanding responses; the FIFO wake must
    reproduce its order and its ``(time, priority, seq)`` slots.
    """

    CASES = {
        # B blocks while A still emits its write (woken ahead of A's
        # resume); C blocks after A started waiting (woken behind it).
        "pre_and_post": (1, {
            "A": (0, [WR4K]),
            "B": (1, [RD]),
            "C": (100, [RD]),
        }, ()),
        # A's continuation pauses for zero time and requests again: B
        # (blocked during the write) must still win the freed tag.
        "zero_delay_continuation": (1, {
            "A": (0, [WR4K, PAUSE, RD]),
            "B": (1, [RD]),
        }, ()),
        "zero_delay_window_of_two": (2, {
            "A": (0, [WR4K, PAUSE, RD, RD]),
            "B": (1, [WR4K]),
            "C": (2, [RD, PAUSE, RD]),
            "D": (100, [RD, RD]),
        }, ()),
        # B is interrupted while blocked: its stale wake still fires
        # (one event), and its retry queues behind C.
        "interrupted_waiter": (1, {
            "A": (0, [WR4K]),
            "B": (1, [RD]),
            "C": (2, [RD]),
        }, ((5, "B"),)),
        "interrupted_post_waiter": (2, {
            "A": (0, [WR4K, PAUSE, RD]),
            "B": (0, [WR4K]),
            "C": (90, [RD]),
            "D": (95, [RD, PAUSE, RD]),
        }, ((110, "C"),)),
    }

    PINNED = {
        "interrupted_post_waiter": ([
            ("C!", 110.0), ("A0", 243.1875), ("B0", 243.71875),
            ("D0", 264.78125), ("C0", 265.84375), ("D2", 286.375),
            ("A2", 287.4375)], 2071),
        "interrupted_waiter": ([
            ("B!", 5.0), ("A0", 132.125), ("C0", 153.71875),
            ("B0", 175.3125)], 1044),
        "pre_and_post": ([
            ("A0", 132.125), ("B0", 153.71875), ("C0", 175.3125)], 1039),
        "zero_delay_continuation": ([
            ("A0", 132.125), ("B0", 153.71875), ("A2", 175.3125)], 1036),
        "zero_delay_window_of_two": ([
            ("A0", 201.46875), ("B0", 243.71875), ("C0", 244.78125),
            ("D0", 265.3125), ("C2", 266.375), ("D1", 286.90625),
            ("A2", 287.96875), ("A3", 309.5625)], 2160),
    }

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_pinned_order(self, case, sanitize):
        capacity, clients, interrupts = self.CASES[case]
        port, log, events = run_window(capacity, clients, interrupts,
                                       sanitize=sanitize)
        assert (log, events) == self.PINNED[case]
        assert port.tags.in_use == 0 and not port._waiters


class TestChannelSeparation:
    def test_io_and_mem_use_different_vcs(self):
        env = Environment()
        a, b = make_pair(env, credits=4)
        b.serve(echo_handler(b))
        finished = []

        def bulk():
            req = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                         src=1, dst=2, nbytes=16 * 1024)
            yield from a.request(req)
            finished.append(("bulk", env.now))

        def small():
            yield env.timeout(1.0)  # start after bulk began
            req = Packet(kind=PacketKind.MEM_RD, channel=Channel.CXL_MEM,
                         src=1, dst=2, nbytes=64)
            yield from a.request(req)
            finished.append(("small", env.now))

        env.process(bulk())
        env.process(small())
        env.run(until=1_000_000)
        order = [name for name, _ in finished]
        # The 64B read must not wait for the whole 16KB write: VC
        # separation lets it finish first.
        assert order[0] == "small"


class TestCatalog:
    def test_catalog_has_four_fabrics(self):
        assert len(CATALOG) == 4
        names = {s.interconnect for s in CATALOG}
        assert names == {"Gen-Z", "CAPI/OpenCAPI", "CCIX", "CXL"}

    def test_merged_flags(self):
        merged = {s.interconnect for s in CATALOG if s.merged_into_cxl}
        assert merged == {"Gen-Z", "CAPI/OpenCAPI"}

    def test_cxl_row(self):
        cxl = next(s for s in CATALOG if s.interconnect == "CXL")
        assert cxl.specifications == ("CXL 1.0", "CXL 1.1", "CXL 2.0",
                                      "CXL 3.0")
        assert "Omega Fabric" in cxl.product_demonstrations

    def test_format_table1_renders(self):
        text = format_table1()
        assert "CXL" in text and "Gen-Z" in text
        assert len(text.splitlines()) >= 6
