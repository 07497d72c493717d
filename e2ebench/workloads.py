"""The three benchmark workloads: set-up, one measured pass, and its outputs.

Each workload is a class with ``setup()`` (imports and input generation,
plus booting where the workload boots before it measures) and
``run_pass()``, which does one fixed unit of work and returns its host
timings, its output digest(s) and its attempted/failed operation counts.
A pass is a pure function of the seed, so every pass of one seed must
produce the same digests.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Dict, List

#: Sessions in one ``fleet`` pass (5-6 s on a 2-vCPU x86 VM).
FLEET_SESSIONS = 240
#: Counter-harness trials per counter pair in one ``ole-counters`` pass:
#: COUNTER_EVENTS has six events, so three pairs, per OS and operation.
OLE_EDIT_TRIALS = 40
PAGEDOWN_TRIALS = 20


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# Host-time fields of the ext-fleet payload: scheduling wall clocks that
# differ between two runs of one seed.  Everything else is deterministic.
_FLEET_HOST_GAUGES = ("repro_fleet_makespan_seconds", "repro_fleet_shard_utilization")
_FLEET_HOST_HISTOGRAMS = ("repro_fleet_batch_wall_seconds",)


def strip_host_time(payload: dict) -> dict:
    """A copy of an experiment payload without host-time fields."""
    payload = json.loads(json.dumps(payload))
    fleet = (payload.get("data") or {}).get("fleet")
    if isinstance(fleet, dict):
        for batch in fleet.get("batches", ()):
            batch.pop("wall_s", None)
            batch.pop("queue_s", None)
        fleet.pop("makespan_s", None)
        fleet.pop("shard_utilization", None)
        metrics = fleet.get("metrics") or {}
        for name in _FLEET_HOST_GAUGES:
            (metrics.get("gauges") or {}).get(name, {}).pop("samples", None)
        for name in _FLEET_HOST_HISTOGRAMS:
            (metrics.get("histograms") or {}).get(name, {}).pop("samples", None)
    return payload


class Reproduction:
    """All registered experiments through the runner CLI, one job at a time."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.save_dir = work / "save"

    def setup(self) -> None:
        from repro.experiments import registry, runner
        from repro.verify.golden import payload_digest

        self.runner = runner
        self.ids = registry.experiment_ids()
        self.payload_digest = payload_digest

    def run_pass(self) -> dict:
        shutil.rmtree(self.save_dir, ignore_errors=True)
        argv = ["--jobs", "1", "--no-cache", "--checks-only", "--seed", str(self.seed),
                "--save", str(self.save_dir)]
        started = time.perf_counter()
        code = self.runner.main(argv)
        wall_s = time.perf_counter() - started
        if code not in (0, 1):
            raise RuntimeError(f"experiment runner exited with {code}")
        manifest = json.loads((self.save_dir / "manifest.json").read_text())
        entries = {entry["id"]: entry for entry in manifest["experiments"]}
        if sorted(entries) != sorted(self.ids):
            raise RuntimeError("manifest does not list every registered experiment")
        digests: Dict[str, str] = {}
        op_ms: List[float] = []
        attempted = failed = 0
        failures: List[str] = []
        for experiment_id in self.ids:
            entry = entries[experiment_id]
            op_ms.append(entry["wall_s"] * 1e3)
            if entry.get("error") is not None:
                attempted += 1
                failed += 1
                failures.append(f"{experiment_id}: raised")
                continue
            path = self.save_dir / f"{experiment_id}-seed{self.seed}.json"
            payload = json.loads(path.read_text())
            digests[experiment_id] = self.payload_digest(strip_host_time(payload))
            for check in payload["checks"]:
                attempted += 1
                if not check["passed"]:
                    failed += 1
                    failures.append(f"{experiment_id}: {check['name']} ({check['detail']})")
        shutil.rmtree(self.save_dir, ignore_errors=True)
        return {
            "wall_s": wall_s,
            "op_ms": op_ms,
            "digests": digests,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "checks_ok": True,
        }


class Fleet:
    """The default population, in-process on one shard, no cache."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        import repro.fleet.shards as shards
        from repro.fleet import PopulationConfig

        self.shards = shards
        self.config = PopulationConfig(seed=self.seed, size=FLEET_SESSIONS)

    def run_pass(self) -> dict:
        shards = self.shards
        session_ns: List[int] = []
        run_session = shards.run_session
        clock = time.perf_counter_ns

        # One clock read on each side of a session: the operation this
        # workload times.  It is the only hook in an untraced process.
        def timed_session(spec):
            start = clock()
            result = run_session(spec)
            session_ns.append(clock() - start)
            return result

        shards.run_session = timed_session
        try:
            started = time.perf_counter()
            fleet = shards.run_fleet(self.config, shards=1)
            wall_s = time.perf_counter() - started
        finally:
            shards.run_session = run_session
        accounted = (
            fleet.sessions_expected
            == fleet.sessions_completed + fleet.sessions_quarantined + fleet.sessions_skipped
        )
        failed = fleet.sessions_quarantined + fleet.sessions_skipped
        failures = [f"session {q['index']}: {q.get('failure_kind')}" for q in fleet.quarantined]
        failures += [f"session {s['index']}: skipped" for s in fleet.skipped]
        if not accounted:
            failures.append("expected != completed + quarantined + skipped")
        if len(session_ns) != fleet.sessions_completed + fleet.sessions_quarantined:
            failures.append("timed sessions do not match the accounted sessions")
            accounted = False
        return {
            "wall_s": wall_s,
            "op_ms": [ns / 1e6 for ns in session_ns],
            "digests": {"fleet": fleet.digest},
            "attempted": fleet.sessions_expected,
            "failed": failed,
            "failures": failures,
            "checks_ok": accounted,
        }


class OleCounters:
    """Section 5.3 counter runs: hot-cache OLE edits and page-downs per OS."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.experiments import counter_runs
        from repro.experiments.common import ALL_OS

        self.counter_runs = counter_runs
        self.rigs = [
            (os_name,) + counter_runs.warmed_powerpoint(os_name, seed=self.seed)
            for os_name in ALL_OS
        ]

    def run_pass(self) -> dict:
        runs = self.counter_runs
        events = runs.COUNTER_EVENTS
        op_ns: List[int] = []
        outputs = {}
        clock = time.perf_counter_ns
        started = time.perf_counter()
        for os_name, system, app, sampler in self.rigs:
            prepare, ole_edit = runs.ole_edit_operation(system, app)
            operations = (
                ("ole-edit", ole_edit, prepare, OLE_EDIT_TRIALS),
                ("pagedown", runs.pagedown_operation(system, app), None, PAGEDOWN_TRIALS),
            )
            for name, operation, before, trials in operations:
                times: List[int] = []

                def timed(operation=operation, times=times):
                    start = clock()
                    operation()
                    times.append(clock() - start)

                profile = sampler.measure(
                    f"{name}:{os_name}", timed, events,
                    trials_per_config=trials, prepare=before,
                )
                # The harness's warm-up trial (the cold OLE activation)
                # is not a measured operation.
                op_ns.extend(times[1:])
                outputs[f"{name}:{os_name}"] = {
                    "cycles": profile.cycles_per_trial,
                    "means": {event.name: mean for event, mean in sorted(
                        profile.means.items(), key=lambda item: item[0].name)},
                }
        wall_s = time.perf_counter() - started
        return {
            "wall_s": wall_s,
            "op_ms": [ns / 1e6 for ns in op_ns],
            "digests": {"ole-counters": digest(outputs)},
            "attempted": len(op_ns),
            "failed": 0,
            "failures": [],
            "checks_ok": True,
        }


WORKLOADS = {
    "reproduction": Reproduction,
    "fleet": Fleet,
    "ole-counters": OleCounters,
}
