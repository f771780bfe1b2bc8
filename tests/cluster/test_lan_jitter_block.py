"""LAN jitter drawn a block at a time equals one scalar draw per transfer.

``Lan`` keeps each host pair's ``lan.jitter.<src>-><dst>`` stream in a route
and draws ``JITTER_BLOCK`` standard exponentials at once.  That is only
sound while nothing else draws from such a stream: a second consumer would
silently see values shifted by the block read ahead.  The source scan below
holds that line the way the CI grep lints hold theirs.
"""

from pathlib import Path

from repro.cluster.network import JITTER_BLOCK, Lan
from repro.sim import Simulator
from repro.sim.rng import RngStreams

ROOT = Path(__file__).resolve().parents[2]

#: Interleaved transfers, uneven per pair, so blocks refill out of step.
_PATTERN = [("a", "b"), ("b", "a"), ("a", "c"), ("a", "b"), ("c", "b")]


def test_block_jitter_equals_scalar_draws_across_block_boundaries():
    seed, mean = 11, 80e-6
    sim = Simulator(seed=seed)
    lan = Lan(sim, jitter_mean=mean)
    for host in "abc":
        lan.attach(host)
    reference = RngStreams(seed)
    transfers = {pair: 0 for pair in _PATTERN}

    def traffic():
        for step in range(len(_PATTERN) * (3 * JITTER_BLOCK + 7)):
            src, dst = _PATTERN[step % len(_PATTERN)]
            nbytes = 200 + 37 * (step % 11)
            now = sim.now
            delay = lan.transfer_delay(src, dst, nbytes)
            rx_done = lan.rx_link(dst)._next_free
            jitter = reference.exponential(f"lan.jitter.{src}->{dst}", mean)
            assert delay == rx_done + jitter + 0.0 - now
            transfers[(src, dst)] += 1
            if step % 3 == 0:
                yield sim.timeout(1e-4 * (step % 5))

    sim.run_process(traffic())
    # Every pair crossed at least three block boundaries.
    assert min(transfers.values()) > 3 * JITTER_BLOCK


def test_transmit_event_carries_the_scalar_draw_delay():
    sim = Simulator(seed=4)
    lan = Lan(sim)
    lan.attach("a")
    lan.attach("b")
    reference = RngStreams(4)
    for _ in range(JITTER_BLOCK + 2):
        ev = lan.transmit("a", "b", 1_000)
        rx_done = lan.rx_link("b")._next_free
        jitter = reference.exponential("lan.jitter.a->b", lan.jitter_mean)
        assert ev.value == rx_done + jitter + 0.0 - sim.now


def test_only_the_lan_names_a_lan_jitter_stream():
    owner = ROOT / "src" / "repro" / "cluster" / "network.py"
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for top in ("src", "benchmarks", "tools")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != owner
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "lan.jitter." in line
    ]
    assert offenders == []
