"""Fleet-scale benchmarks: session throughput and memory behaviour.

Two claims of the fleet layer are performance claims, so they live in
the benchmark suite where the perf-gate watches them:

* sessions/second through the full measurement pipeline (boot, type,
  instrument, extract, fold into sketches) — the number that decides
  whether 10^5-session sweeps are an overnight job or a coffee break;
* aggregate memory is O(sketch), not O(sessions): quadrupling the
  session count must leave the merged aggregate's size unchanged and
  the fold's peak allocations nearly flat (streaming fold drops every
  session after merging it).
"""

import json
import subprocess
import sys

from repro.fleet.population import PopulationConfig
from repro.fleet.shards import run_fleet

#: Session count for the throughput benchmark — big enough to amortize
#: per-run setup, small enough for CI's single core.
RATE_SESSIONS = 40

_MEMORY_PROBE = """
import json, resource, sys, tracemalloc
from repro.fleet.population import PopulationConfig
from repro.fleet.shards import run_fleet

size = int(sys.argv[1])
config = PopulationConfig(seed=0, size=size, chars_range=(3, 5))
tracemalloc.start()
fleet = run_fleet(config, shards=1, batch_size=10)
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps({
    "sessions": fleet.aggregate.sessions,
    "events": fleet.aggregate.events,
    "aggregate_bytes": len(json.dumps(fleet.aggregate.to_dict())),
    "tracemalloc_peak": peak,
    "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _probe_memory(sessions: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, str(sessions)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_fleet_sessions_rate(benchmark):
    """Full fleet pipeline: sessions/second through one shard."""
    config = PopulationConfig(seed=0, size=RATE_SESSIONS, chars_range=(3, 5))

    fleet = benchmark.pedantic(
        lambda: run_fleet(config, shards=1, batch_size=10),
        rounds=1,
        iterations=1,
    )
    assert fleet.aggregate.sessions == RATE_SESSIONS
    assert not fleet.failures
    # ``events`` are *input* events (keystrokes), so the gate's
    # events_per_s is an input rate; sessions_per_s is the fleet rate.
    benchmark.extra_info["events"] = fleet.aggregate.events
    benchmark.extra_info["sessions"] = RATE_SESSIONS
    benchmark.extra_info["merged_digest"] = fleet.digest


def test_fleet_memory_sublinear(benchmark):
    """4x the sessions: same aggregate size, near-flat peak allocations."""

    def probe():
        return _probe_memory(20), _probe_memory(80)

    small, large = benchmark.pedantic(probe, rounds=1, iterations=1)
    assert large["sessions"] == 4 * small["sessions"]
    # The serialized aggregate is the state a shard ships home; it is
    # bounded by (groups x occupied buckets), not by session count.
    assert large["aggregate_bytes"] < 2.0 * small["aggregate_bytes"], (
        small["aggregate_bytes"], large["aggregate_bytes"],
    )
    # Peak Python allocations during the fold: streaming aggregation
    # drops each session after merging, so 4x sessions must cost far
    # less than 4x peak (flat but for the largest single session).
    assert large["tracemalloc_peak"] < 2.0 * small["tracemalloc_peak"], (
        small["tracemalloc_peak"], large["tracemalloc_peak"],
    )
    # And the OS-level high-water mark stays sublinear too.
    assert large["ru_maxrss_kb"] < 2.0 * small["ru_maxrss_kb"], (
        small["ru_maxrss_kb"], large["ru_maxrss_kb"],
    )
    benchmark.extra_info["aggregate_bytes_small"] = small["aggregate_bytes"]
    benchmark.extra_info["aggregate_bytes_large"] = large["aggregate_bytes"]
    benchmark.extra_info["tracemalloc_peak_large"] = large["tracemalloc_peak"]
