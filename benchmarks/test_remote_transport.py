"""Benchmarks of the remote-transport hot path.

Two numbers the perf-gate watches:

* raw packets/second through the lossy link's send path (drop decision,
  serialization queueing, jitter/reorder draws, calendar insert) — the
  per-packet cost every remote session pays thousands of times;
* full remote sessions/second end to end (client OS boot, ARQ upstream,
  frame pipeline downstream, wait extraction) under a lossy link, the
  retransmission-schedule worst case included.
"""

from repro.remote import LinkConfig, LossyLink, TransportConfig, run_remote_session
from repro.sim.timebase import ns_from_ms
from repro.winsys import boot

#: Packets pushed through the link send path per round.
LINK_PACKETS = 20_000
#: Sessions per round for the end-to-end number.
SESSIONS = 8


def test_link_send_throughput(benchmark):
    """Packets/second through LossyLink.send on a lossy, jittery link."""

    def run():
        system = boot("nt40", seed=0)
        link = LossyLink(
            system,
            LinkConfig.symmetric("bench", rtt_ms=40.0, jitter_ms=4.0, loss=0.1),
        )
        delivered = [0]

        def bump():
            delivered[0] += 1

        for i in range(LINK_PACKETS):
            link.send("up" if i % 2 else "down", 200, bump)
        system.run_for(ns_from_ms(60_000))
        return delivered[0]

    delivered = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0 < delivered < LINK_PACKETS
    benchmark.extra_info["events"] = LINK_PACKETS


def test_remote_sessions_rate(benchmark):
    """Full remote sessions/second, lossy link, retransmissions live."""
    link = LinkConfig.symmetric("bench", rtt_ms=60.0, loss=0.2)

    def run():
        results = [
            run_remote_session(
                "nt40", seed, link, TransportConfig(), chars=10
            )
            for seed in range(SESSIONS)
        ]
        assert all(r.wait_ms for r in results)
        return sum(r.channel["retransmits"] for r in results)

    retransmits = benchmark.pedantic(run, rounds=1, iterations=1)
    assert retransmits > 0  # the ARQ worst case is actually exercised
    # Input events (keystrokes); sessions_per_s is the session rate.
    benchmark.extra_info["sessions"] = SESSIONS
    benchmark.extra_info["events"] = SESSIONS * 10
