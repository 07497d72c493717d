"""Per-layer instrumentation installed from outside the program.

Nothing here edits ``src/``: work counts are read at the program's own
public counters, spans wrap public entry points, and a SIGPROF sampler
attributes CPU time to packages.  Two levels exist:

* :class:`WorkCounts` -- exact, deterministic work counts.  It turns a
  handful of public counter attributes into properties that add every
  increase to a running total, so counts survive the objects that own
  them (each fleet session boots and drops its own system).
* :class:`Spans` and :class:`PackageSampler` -- host-time tracing.  They
  are installed only in a traced process; the untraced process of a
  traced run carries :class:`WorkCounts` alone, so the two runs can be
  compared count for count.

Every hook lives for one fresh interpreter; none is ever removed.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

#: Packages of ``src/repro`` the sampler reports a share for; samples
#: landing anywhere else (the harness, ``verify``, ``chaos``, or no
#: program frame at all) count as ``other``.
PACKAGES = (
    "sim",
    "winsys",
    "apps",
    "core",
    "obs",
    "fleet",
    "remote",
    "faults",
    "workload",
    "experiments",
)

#: Span names, each reported as inclusive seconds (``.s``), self seconds
#: (``.self_s``: minus the time of nested spans) and call count.
SPANS = (
    "winsys.boot",
    "sim.run",
    "core.extract",
    "core.counters.measure",
    "fleet.run_session",
    "fleet.run_fleet",
    "fleet.sketch",
    "winsys.iomgr.plan_read",
    "winsys.filesystem.blocks",
    "experiments.run_experiment",
)

#: Experiments whose inclusive wall time is reported on its own: the
#: largest ones, which dominate ``reproduction`` wall time.
TIMED_EXPERIMENTS = ("sec5-repeat", "sec54", "ext-fleet", "fig7", "fig5", "fig10", "fig11")

#: Sampler rate: low enough that its cost stays within host noise.
SAMPLE_HZ = 250

COUNTS = (
    "sim.events_executed",
    "sim.events_fast_forwarded",
    "sim.clock_ticks",
    "sim.sim_ns",
    "sim.compactions",
    "winsys.context_switches",
    "winsys.cache_hits",
    "winsys.cache_misses",
    "core.idle_samples",
    "obs.envelopes",
)


def _replace_everywhere(owner, name: str, make: Callable) -> None:
    """Replace function ``owner.name`` in every ``repro`` module holding it.

    Modules bind imported functions by name, so the wrapper must reach
    each module that imported the original, not only its home module.
    """
    original = getattr(owner, name)
    wrapped = make(original)
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "") or ""
        if (module_name == "repro" or module_name.startswith("repro.")) and (
            module.__dict__.get(name) is original
        ):
            setattr(module, name, wrapped)


class WorkCounts:
    """Exact work counts summed over every object of a run."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {name: 0 for name in COUNTS}

    def install(self) -> None:
        from repro.core.extract import EventExtractor
        from repro.obs.envelope import EnvelopeRecorder
        from repro.sim.engine import Simulator
        from repro.sim.interrupts import PeriodicClock
        from repro.winsys.filesystem import BufferCache
        from repro.winsys.kernel import Kernel

        self._count(Simulator, "events_executed", "sim.events_executed")
        self._count(Simulator, "events_fast_forwarded", "sim.events_fast_forwarded")
        self._count(Simulator, "compactions", "sim.compactions")
        self._count(PeriodicClock, "ticks", "sim.clock_ticks")
        self._count(Kernel, "context_switches", "winsys.context_switches")
        self._count(BufferCache, "hits", "winsys.cache_hits")
        self._count(BufferCache, "misses", "winsys.cache_misses")
        self._count(EnvelopeRecorder, "started", "obs.envelopes")

        totals = self.totals
        run = Simulator.run

        # Simulated time only advances inside Simulator.run (fast-forward
        # requires an active run), so summing each run's clock advance
        # gives the simulated time of the whole workload.
        def counted_run(sim, *args, **kwargs):
            before = sim.now
            try:
                return run(sim, *args, **kwargs)
            finally:
                totals["sim.sim_ns"] += sim.now - before

        Simulator.run = counted_run
        extract = EventExtractor.extract

        def counted_extract(extractor, trace):
            totals["core.idle_samples"] += len(trace)
            return extract(extractor, trace)

        EventExtractor.extract = counted_extract

    def _count(self, cls, attr: str, key: str) -> None:
        """Make ``cls.attr`` a property that adds each increase to ``key``.

        Resets (a counter assigned a lower value) are not work and add
        nothing.
        """
        totals = self.totals
        slot = cls.__dict__.get(attr)
        if slot is not None and hasattr(slot, "__set__"):
            read, write = slot.__get__, slot.__set__

            def get(obj):
                return read(obj, cls)

            def put(obj, value):
                try:
                    old = read(obj, cls)
                except AttributeError:
                    old = 0
                if value > old:
                    totals[key] += value - old
                write(obj, value)

        else:

            def get(obj):
                return obj.__dict__[attr]

            def put(obj, value):
                old = obj.__dict__.get(attr, 0)
                if value > old:
                    totals[key] += value - old
                obj.__dict__[attr] = value

        setattr(cls, attr, property(get, put))

    def snapshot(self) -> Dict[str, int]:
        return dict(self.totals)


class Spans:
    """Inclusive time, self time and calls per named span."""

    def __init__(self) -> None:
        # name -> [inclusive_ns, self_ns, calls]
        self.totals: Dict[str, List[int]] = {name: [0, 0, 0] for name in SPANS}
        self.experiment_ns: Dict[str, int] = {}
        self._stack: List[List[int]] = []
        self._depth: Dict[str, int] = {name: 0 for name in SPANS}

    def wrap(self, name: str, fn: Callable, on_exit: Callable = None) -> Callable:
        record = self.totals[name]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            # frame[0] accumulates the time of spans nested inside this one.
            frame = [0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                if not depth[name]:
                    record[0] += elapsed
                record[1] += elapsed - frame[0]
                record[2] += 1
                if on_exit is not None:
                    on_exit(args, elapsed)

        return spanned

    def install(self) -> None:
        import repro.experiments.registry as registry
        import repro.fleet.session as fleet_session
        import repro.fleet.shards as fleet_shards
        from repro.core.counters import CounterSampler
        from repro.core.extract import EventExtractor
        from repro.fleet.sketch import FleetAggregator, QuantileSketch
        from repro.sim.engine import Simulator
        from repro.winsys.filesystem import SimFile
        from repro.winsys.iomgr import IoManager
        from repro.winsys.system import WindowsSystem

        methods = [
            (WindowsSystem, "__init__", "winsys.boot"),
            (WindowsSystem, "boot", "winsys.boot"),
            (Simulator, "run", "sim.run"),
            (EventExtractor, "extract", "core.extract"),
            (CounterSampler, "measure", "core.counters.measure"),
            (FleetAggregator, "add_session", "fleet.sketch"),
            (FleetAggregator, "merge", "fleet.sketch"),
            (QuantileSketch, "add", "fleet.sketch"),
            (QuantileSketch, "merge", "fleet.sketch"),
            (IoManager, "plan_read", "winsys.iomgr.plan_read"),
            (SimFile, "blocks", "winsys.filesystem.blocks"),
        ]
        for cls, attr, name in methods:
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
        _replace_everywhere(
            fleet_session, "run_session", lambda fn: self.wrap("fleet.run_session", fn)
        )
        _replace_everywhere(
            fleet_shards, "run_fleet", lambda fn: self.wrap("fleet.run_fleet", fn)
        )
        experiment_ns = self.experiment_ns

        def per_experiment(args, elapsed):
            experiment_ns[args[0]] = experiment_ns.get(args[0], 0) + elapsed

        _replace_everywhere(
            registry,
            "run_experiment",
            lambda fn: self.wrap("experiments.run_experiment", fn, per_experiment),
        )

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(record) for name, record in self.totals.items()},
            "experiment_ns": dict(self.experiment_ns),
        }


class PackageSampler:
    """SIGPROF sampler: which ``repro`` package the CPU is in.

    Uses ``ITIMER_PROF`` (process CPU time) because the experiment
    runner's per-job watchdog owns ``SIGALRM``.  A sample goes to the
    innermost frame that belongs to the program or to the harness;
    library frames (``json``, ``numpy``) are charged to their caller,
    harness frames (these wrappers) to ``other``.
    """

    def __init__(self, repro_root: Path, harness_root: Path) -> None:
        self.interval_s = 1.0 / SAMPLE_HZ
        self.samples: Dict[str, int] = {name: 0 for name in PACKAGES + ("other",)}
        self._repro = str(repro_root) + "/"
        self._harness = str(harness_root) + "/"
        # code object -> package name, or None for library code.
        self._where: Dict[object, object] = {}

    def _classify(self, code) -> object:
        filename = code.co_filename
        if filename.startswith(self._harness):
            return "other"
        if filename.startswith(self._repro):
            top = filename[len(self._repro):].split("/", 1)[0]
            return top if top in PACKAGES else "other"
        return None

    def _on_sample(self, signum, frame) -> None:
        where = self._where
        while frame is not None:
            code = frame.f_code
            package = where.get(code, False)
            if package is False:
                package = where[code] = self._classify(code)
            if package is not None:
                self.samples[package] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def snapshot(self) -> Dict[str, int]:
        return dict(self.samples)
