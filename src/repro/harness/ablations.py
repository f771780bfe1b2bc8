"""Ablations: the paper's design choices, each switched off once.

Every builder here isolates one decision the paper made or diagnosed — the
DBN broadcast flaw, JMS acking over UDP, the R-GMA mediator's cost, message
aggregation, HTTPS, Web Services, the old Stream Producer API, same-node
timestamping — and measures what it buys.  Their ``narada_run`` /
``rgma_run`` legs are sweeps they read; the probes that are no such run
(TLS setup, the SOAP proxy, the legacy Stream Producer path) run their own
small deployments directly.
"""

from __future__ import annotations

from repro.core import ExperimentResult
from repro.harness.narada_experiments import COMPARISON_CONNECTIONS, comparison_tests, narada_run
from repro.harness.parallel import RunSpec
from repro.harness.registry import Experiment, RunContext
from repro.harness.rgma_experiments import rgma_run
from repro.harness.scale import Scale
from repro.narada import NaradaConfig
from repro.rgma import RGMAConfig

#: ``ablation_rgma_https``'s legs, keyed by ``use_https``.
HTTPS_PROTOCOLS = (("HTTP (paper's choice)", False), ("HTTPS", True))

#: Producers in both legs of ``ablation_rgma_legacy_api``.
LEGACY_PRODUCERS = 100


def dbn_routing_legs(ctx: RunContext) -> dict[str, RunSpec]:
    return {
        label: ctx.spec(
            narada_run, connections=3000, dbn=True,
            config=NaradaConfig(broadcast_flaw=flaw),
        )
        for label, flaw in (("broadcast (v1.1.3)", True), ("routed (fixed)", False))
    }


def raw_udp_leg(ctx: RunContext) -> dict[str, RunSpec]:
    return {
        "raw": ctx.spec(
            narada_run, connections=COMPARISON_CONNECTIONS, transport_kind="udp_raw"
        )
    }


def mediator_legs(ctx: RunContext) -> dict[str, RunSpec]:
    return {
        label: ctx.spec(rgma_run, connections=200, config=config)
        for label, config in (
            ("gLite 3.0 (modelled)", RGMAConfig()),
            ("zero-cost mediator", RGMAConfig(consumer_tuple_cpu=0.0, stream_period=0.1)),
        )
    }


def https_legs(ctx: RunContext) -> dict[str, RunSpec]:
    return {
        label: ctx.spec(rgma_run, connections=200, use_https=https)
        for label, https in HTTPS_PROTOCOLS
    }


def legacy_api_new_leg(ctx: RunContext) -> dict[str, RunSpec]:
    return {"new API": ctx.spec(rgma_run, connections=LEGACY_PRODUCERS)}


def clock_skew_leg(ctx: RunContext) -> dict[str, RunSpec]:
    return {"same node": ctx.spec(narada_run, connections=400)}


def ablation_dbn_routing(runs) -> ExperimentResult:
    """Broadcast flaw vs subscription-aware routing at a fixed load."""
    result = ExperimentResult(
        "ablation_dbn_routing",
        "DBN forwarding: v1.1.3 broadcast flaw vs subscription-aware routing",
        "mode",
        "millisecond",
    )
    rows = []
    for label, run in runs.items():
        forwards = sum(
            s["forwarded"] for s in run.broker_stats.values()
        )
        hub_idle = run.vmstat["hydra1"].mean_cpu_idle_percent
        rows.append([label, run.mean_rtt_ms, forwards, f"{hub_idle:.0f}%"])
        result.add_point(label, 0, run.mean_rtt_ms)
    result.table = (
        ["mode", "RTT (ms)", "inter-broker forwards", "hub CPU idle"], rows
    )
    result.note(
        "fixing the routing removes the unnecessary data flow the paper "
        "diagnosed and recovers DBN performance (paper §V future work)"
    )
    return result


def ablation_udp_ack(runs, raw_leg) -> ExperimentResult:
    """Per-message transport acking is what ruins JMS-over-UDP."""
    result = ExperimentResult(
        "ablation_udp_ack",
        "UDP with and without the JMS acknowledgement protocol",
        "mode",
        "millisecond",
    )
    rows = []
    acked = runs["UDP"]
    rows.append(["acked (JMS requires it)", acked.mean_rtt_ms, f"{acked.loss_rate:.3%}"])
    # Raw datagrams (``udp_raw``): no ack/retransmit.
    raw = raw_leg["raw"]
    rows.append(["raw (no ack)", raw.mean_rtt_ms, f"{raw.loss_rate:.3%}"])
    result.table = (["mode", "RTT (ms)", "loss rate"], rows)
    result.note(
        "without acking, UDP latency matches TCP but loss is unacceptable; "
        "with acking, loss is small but RTT inflates (paper §III.E.1)"
    )
    for row in rows:
        result.add_point(row[0], 0, row[1])
    return result


def ablation_rgma_mediator(runs) -> ExperimentResult:
    """Remove the consumer-side processing cost: PT collapses."""
    from repro.core import decompose

    result = ExperimentResult(
        "ablation_rgma_mediator",
        "R-GMA process time vs consumer per-tuple cost",
        "consumer_tuple_cpu (ms)",
        "PT (ms)",
    )
    rows = []
    for label, run in runs.items():
        phases = decompose(run.book, since=run.measure_since)
        rows.append([label, phases.prt_ms, phases.pt_ms, phases.srt_ms])
        result.add_point(label, 0, phases.pt_ms)
    result.table = (["config", "PRT (ms)", "PT (ms)", "SRT (ms)"], rows)
    result.note(
        "PT dominates R-GMA RTT and is a middleware property, not a network "
        "one — the paper's Fig 15 conclusion"
    )
    return result


def ablation_aggregation(runs) -> ExperimentResult:
    """Message quantity vs message size (the §IV RMM observation)."""
    tcp, triple = runs["TCP"], runs["Triple"]
    result = ExperimentResult(
        "ablation_aggregation",
        "Message count vs byte volume (same payload rate)",
        "case",
        "millisecond",
    )
    result.table = (
        ["case", "msgs (measured window)", "RTT (ms)"],
        [
            ["1x payload @ 10 s", tcp.sent, tcp.mean_rtt_ms],
            ["3x payload @ 30 s (same bytes/s)", triple.sent, triple.mean_rtt_ms],
        ],
    )
    per_msg_penalty = triple.mean_rtt_ms - tcp.mean_rtt_ms
    result.note(
        "tripling payload while cutting message rate to 1/3 changes RTT by "
        f"only {per_msg_penalty:+.1f} ms: per-message overhead dominates "
        "per-byte cost, so aggregation (fewer, bigger messages) raises "
        "throughput — the RMM result the paper cites in §IV"
    )
    return result


def ablation_rgma_https(runs, seed: int) -> ExperimentResult:
    """The encryption overhead the paper avoided (§III.F: 'We did not use
    HTTPS because of the encryption overhead').

    At the paper's message sizes the dominant TLS cost is the *handshake*
    (asymmetric crypto on a PIII), paid once per producer connection —
    exactly the resource-location-deadline concern §V raises.  Steady-state
    RTT moves far less, so the assertion-bearing measurement is producer
    setup time, with a bulk-transfer crypto throughput probe as the second
    axis; RTT is reported as context.
    """
    from repro.cluster import HydraCluster
    from repro.rgma import RGMADeployment
    from repro.sim import Simulator
    from repro.transport.tls import TlsTransport

    rows = []
    result = ExperimentResult(
        "ablation_rgma_https",
        "R-GMA over HTTP vs HTTPS",
        "protocol",
        "millisecond",
    )
    for label, https in HTTPS_PROTOCOLS:
        # Producer setup probe: 50 timed create() calls on a fresh server.
        sim = Simulator(seed=seed)
        cluster = HydraCluster(sim)
        transport = TlsTransport(sim, cluster.lan) if https else None
        deployment = RGMADeployment.single_server(
            sim, cluster, transport=transport
        )
        setup_times = []

        def probe():
            for i in range(50):
                client = deployment.producer_client(cluster.node("hydra5"), 0)
                t0 = sim.now
                yield from client.create("gridmon")
                setup_times.append(sim.now - t0)

        sim.run_process(probe())
        setup_ms = sum(setup_times) / len(setup_times) * 1e3
        server_busy = cluster.node("hydra1").cpu_busy_time

        # Steady-state context: the fleet experiment.
        rows.append([label, setup_ms, server_busy, runs[label].mean_rtt_ms])
        result.add_point(label, 0, setup_ms)
    result.table = (
        ["protocol", "producer setup (ms)", "server CPU for 50 setups (s)",
         "steady-state RTT (ms)"],
        rows,
    )
    result.note(
        "the TLS handshake multiplies producer setup time and burns server "
        "CPU per connection — the §III.F overhead, and a direct instance of "
        "§V's 'locate resources within a predefined time limit' concern"
    )
    return result


def ablation_web_services(scale: Scale, seed: int) -> ExperimentResult:
    """§III.D made measurable: SOAP publishing vs native JMS."""
    import numpy as np

    from repro.cluster import HydraCluster
    from repro.jms.destination import Topic
    from repro.narada import Broker, narada_connection_factory
    from repro.powergrid.generator import PowerGenerator
    from repro.powergrid.payload import narada_map_message
    from repro.sim import Simulator
    from repro.transport import TcpTransport
    from repro.webservices import SoapCodec, WsPublishProxy, WsPublisherClient

    topic = Topic("power.monitoring")
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    broker = Broker(sim, cluster.node("hydra1"), "b")
    broker.serve(tcp, 5045)

    # End-to-end observer: when does each reading reach a subscriber?
    deliveries: dict[str, list[float]] = {"ws": [], "native": []}

    def subscribe():
        factory = narada_connection_factory(
            sim, tcp, cluster.node("hydra3"), "hydra1", 5045
        )
        conn = yield from factory.create_connection()
        conn.start()
        session = conn.create_session()
        yield from session.create_subscriber(
            topic,
            listener=lambda m: deliveries[m._path].append(sim.now - m._t0),
        )

    sim.run_process(subscribe())

    def build_proxy():
        factory = narada_connection_factory(
            sim, tcp, cluster.node("hydra2"), "hydra1", 5045
        )
        conn = yield from factory.create_connection()
        conn.start()
        return WsPublishProxy(sim, cluster.node("hydra2"), tcp, 8099, conn, topic)

    sim.run_process(build_proxy())
    gen = PowerGenerator(1, np.random.default_rng(seed))
    n = 50

    def stamped(path: str):
        message = narada_map_message(gen.sample(sim.now))
        message._path = path
        message._t0 = sim.now
        return message

    def ws_publish():
        client = WsPublisherClient(
            sim, tcp, cluster.node("hydra4"), "hydra2", 8099
        )
        times = []
        for _ in range(n):
            latency = yield from client.publish(stamped("ws"))
            times.append(latency)
            yield sim.timeout(0.05)
        return times

    ws_times = sim.run_process(ws_publish())

    def native_publish():
        factory = narada_connection_factory(
            sim, tcp, cluster.node("hydra4"), "hydra1", 5045
        )
        conn = yield from factory.create_connection()
        conn.start()
        pub = conn.create_session().create_publisher(topic)
        times = []
        for _ in range(n):
            message = stamped("native")
            t0 = sim.now
            yield from pub.publish(message)
            times.append(sim.now - t0)
            yield sim.timeout(0.05)
        return times

    native_times = sim.run_process(native_publish())
    sim.run(until=sim.now + 2.0)
    sample = narada_map_message(gen.sample(sim.now))
    sample.destination = topic
    expansion = SoapCodec().expansion_factor(sample)

    result = ExperimentResult(
        "ablation_web_services",
        "Why not Web Services (§III.D): SOAP proxy vs native JMS publish",
        "path",
        "millisecond",
    )
    ws_ms = sum(ws_times) / n * 1e3
    native_ms = sum(native_times) / n * 1e3
    ws_e2e = sum(deliveries["ws"]) / max(1, len(deliveries["ws"])) * 1e3
    native_e2e = (
        sum(deliveries["native"]) / max(1, len(deliveries["native"])) * 1e3
    )
    result.table = (
        ["path", "publish call (ms)", "end-to-end delivery (ms)"],
        [
            ["SOAP over HTTP via proxy", ws_ms, ws_e2e],
            ["native JMS", native_ms, native_e2e],
        ],
    )
    result.add_point("SOAP", 0, ws_e2e)
    result.add_point("native", 0, native_e2e)
    result.note(
        f"XML expands the monitoring payload {expansion:.1f}x; end-to-end "
        f"the SOAP path costs {ws_e2e / native_e2e:.1f}x native (publish "
        f"call: {ws_ms / native_ms:.0f}x, since SOAP waits a full HTTP "
        "round trip) — 'Web Services are known to be slow and not suitable "
        "for high performance scientific computing' (§III.D)"
    )
    return result


def ablation_rgma_legacy_api(new_leg, scale: Scale, seed: int) -> ExperimentResult:
    """The §III.F.3 discrepancy: the old Stream Producer / Archiver API
    measured in [11] versus the new Primary Producer / Consumer pipeline."""
    import numpy as np

    from repro.cluster import HydraCluster
    from repro.powergrid.payload import rgma_row
    from repro.powergrid.generator import PowerGenerator
    from repro.rgma import RGMADeployment
    from repro.rgma.stream_producer import LegacyDeployment, StreamProducerClient
    from repro.sim import Simulator

    n_producers = LEGACY_PRODUCERS
    # -- legacy path --------------------------------------------------------
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    deployment = RGMADeployment.single_server(sim, cluster)
    legacy = LegacyDeployment(deployment)
    from repro.transport.http import HttpClient

    http = HttpClient(
        sim, deployment.transport, cluster.node("hydra7"), "hydra1", 8080
    )

    def mk_archiver():
        response = yield from http.request(
            "/archiver/create", {"table": "gridmon", "where": None}, 140
        )
        return response.body["resource_id"]

    archiver_id = sim.run_process(mk_archiver())
    legacy_latencies: list[float] = []
    legacy.archiver_callback(
        archiver_id,
        lambda t: legacy_latencies.append(sim.now - t.meta["t_before_send"]),
    )

    def legacy_generator(i: int):
        client = StreamProducerClient(
            sim, deployment.transport, cluster.node("hydra5"), "hydra1", 8080
        )
        yield from client.create("gridmon")
        model = PowerGenerator(i, sim.rng.stream(f"lg.{i}"))
        yield sim.timeout(sim.rng.uniform("lg.warm", *scale.warmup))
        stop = sim.now + min(scale.duration, 60.0)
        while sim.now < stop:
            yield from client.insert(rgma_row(model.sample(sim.now)))
            yield sim.timeout(10.0)

    for i in range(n_producers):
        sim.process(legacy_generator(i))
    sim.run(until=scale.warmup[1] + min(scale.duration, 60.0) + 20.0)

    # -- new API at the same load -------------------------------------------
    new_run = new_leg["new API"]

    result = ExperimentResult(
        "ablation_rgma_legacy_api",
        "R-GMA old Stream Producer/Archiver API vs new PP/Consumer pipeline",
        "API generation",
        "millisecond",
    )
    legacy_ms = float(np.mean(legacy_latencies) * 1e3)
    result.table = (
        ["API", "mean RTT (ms)", "tuples"],
        [
            ["Stream Producer + Archiver (old, [11])", legacy_ms,
             len(legacy_latencies)],
            ["Primary Producer + Consumer (gLite 3.0)", new_run.mean_rtt_ms,
             new_run.received],
        ],
    )
    result.add_point("old API", 0, legacy_ms)
    result.add_point("new API", 0, new_run.mean_rtt_ms)
    result.note(
        "the old API streams tuples directly to archivers (no mediated "
        "consumer, no batch period, no poll loop) — reproducing why [11] "
        "'achieved high performance' where the paper's newer version did not"
    )
    return result


def ablation_clock_skew(leg, seed: int) -> ExperimentResult:
    """Why the paper measured same-node round trips.

    "Data were received by the node where they were sent and there was no
    time synchronization problem" (§III.E.2); the distributed R-GMA test
    instead synchronised clocks with NTP (§III.F.1).  This ablation shows
    what cross-node timestamps would do to millisecond-scale RTTs under
    unsynchronised clocks vs NTP-disciplined ones.
    """
    import numpy as np

    run = leg["same node"]
    true_rtts = run.rtts  # seconds; same-clock ground truth
    rng = np.random.default_rng(seed)

    result = ExperimentResult(
        "ablation_clock_skew",
        "Cross-node timestamping error vs clock discipline",
        "clock discipline",
        "millisecond",
    )
    rows: list[list] = [
        ["same node (paper's Narada method)", float(true_rtts.mean() * 1e3),
         0.0, "0%"],
    ]
    for label, skew_s in (
        ("NTP-synchronised (paper's R-GMA method)", 0.001),
        ("unsynchronised (drifted ~50 ms)", 0.050),
    ):
        # Per-(sender,receiver) pair offset, fixed for a run.
        offsets = rng.uniform(-skew_s, skew_s, size=8)
        pair = rng.integers(0, 8, size=true_rtts.size)
        apparent = true_rtts + offsets[pair]
        negative = float((apparent < 0).mean())
        rows.append(
            [label, float(apparent.mean() * 1e3),
             float(np.abs(apparent - true_rtts).mean() * 1e3),
             f"{negative:.0%}"]
        )
    result.table = (
        ["clocking", "apparent mean RTT (ms)", "mean |error| (ms)",
         "negative RTTs"],
        rows,
    )
    result.note(
        "a ~50 ms drift swamps Narada's millisecond RTTs entirely (many "
        "measurements go negative); NTP's ~1 ms residual is tolerable for "
        "R-GMA's second-scale RTTs but not for Narada's — hence the paper's "
        "same-node measurement design"
    )
    return result


_DIRECT = ("scale", "seed")

EXPERIMENTS = (
    Experiment(
        "ablation_dbn_routing",
        "DBN broadcast flaw vs subscription-aware routing",
        ablation_dbn_routing,
        reads=(dbn_routing_legs,),
    ),
    Experiment(
        "ablation_udp_ack",
        "UDP with and without the JMS ack protocol",
        ablation_udp_ack,
        reads=(comparison_tests, raw_udp_leg),
    ),
    Experiment(
        "ablation_rgma_mediator",
        "R-GMA process time vs consumer per-tuple cost",
        ablation_rgma_mediator,
        reads=(mediator_legs,),
    ),
    Experiment(
        "ablation_aggregation",
        "Message count vs byte volume at equal payload rate",
        ablation_aggregation,
        reads=(comparison_tests,),
    ),
    Experiment(
        "ablation_rgma_https", "R-GMA over HTTP vs HTTPS", ablation_rgma_https,
        reads=(https_legs,),
        params=("seed",),
    ),
    Experiment(
        "ablation_web_services",
        "SOAP proxy publish vs native JMS (§III.D)",
        ablation_web_services,
        params=_DIRECT,
    ),
    Experiment(
        "ablation_rgma_legacy_api",
        "Old Stream Producer API vs new PP pipeline",
        ablation_rgma_legacy_api,
        reads=(legacy_api_new_leg,),
        params=_DIRECT,
    ),
    Experiment(
        "ablation_clock_skew",
        "Cross-node timestamp error vs clock discipline",
        ablation_clock_skew,
        reads=(clock_skew_leg,),
        params=("seed",),
    ),
)
