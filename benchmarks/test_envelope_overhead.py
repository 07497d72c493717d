"""Gate: stage envelopes extend the <5% budget to the envelope-off path.

``test_obs_overhead.py`` bounds the cost of the observability layer
with everything off.  Stage envelopes add a second switch: a session
may be open (traces, metrics) with envelope stamping disabled
(``envelopes={"enabled": False}``), and that path must also stay
within 5% of an uninstrumented run — turning the breakdown off has to
actually buy the cost back.

The benchmark times the envelope-off session (so ``make bench-json``
tracks its median like any other benchmark) and records ratios in
``extra_info``:

* ``envelope_off_overhead`` — envelope-off session / uninstrumented,
  best sample of each over ``ROUNDS`` rounds: the gated ratio
  (perfgate enforces an absolute ceiling on it in addition to the
  usual baseline tolerance);
* ``envelope_on_overhead`` — full stamping at sample rate 1.0 /
  uninstrumented, best samples, informational (the enabled path is
  allowed to cost more; it exists so the price of "always on" stays
  visible).

Each timing sample is ``RUNS_PER_SAMPLE`` runs of the experiment
(~0.5 s), long enough that timer resolution and scheduler jitter stay
well under the 5% budget, so neither the assertion nor the ratio needs
an absolute epsilon.  The three configurations' runs are interleaved
one by one, in an order that rotates every run, so the samples of one
round are taken over the same half-second slices of host time and
slow host drift cannot favour one configuration.

Run via ``make bench-json`` / ``make envelope-smoke``; not part of the
default unit-test collection.
"""

from __future__ import annotations

import time

from repro.experiments.registry import run_experiment
from repro.obs import observed

EXPERIMENT = "fig2"
ROUNDS = 5
RUNS_PER_SAMPLE = 8
MAX_RELATIVE_OVERHEAD = 0.05
CONFIGS = {"base": None, "off": {"enabled": False}, "on": {"sample_rate": 1.0}}


def _time_once(envelopes) -> float:
    started = time.perf_counter()
    if envelopes is None:
        run_experiment(EXPERIMENT, seed=0)
    else:
        with observed(trace=False, metrics=False, envelopes=envelopes):
            run_experiment(EXPERIMENT, seed=0)
    return time.perf_counter() - started


def _round() -> dict:
    """One sample per configuration, their runs interleaved."""
    totals = dict.fromkeys(CONFIGS, 0.0)
    order = list(CONFIGS)
    for run_index in range(RUNS_PER_SAMPLE):
        shift = run_index % len(order)
        for name in order[shift:] + order[:shift]:
            totals[name] += _time_once(CONFIGS[name])
    return totals


def test_envelope_off_overhead(benchmark):
    _time_once(None)  # warm imports, caches, allocator
    rounds = [_round() for _ in range(ROUNDS)]
    best = {name: min(r[name] for r in rounds) for name in CONFIGS}
    off_ratio = best["off"] / best["base"]

    benchmark.pedantic(
        lambda: _time_once(CONFIGS["off"]), rounds=1, iterations=1
    )
    benchmark.extra_info["envelope_off_overhead"] = off_ratio
    benchmark.extra_info["envelope_on_overhead"] = best["on"] / best["base"]

    assert off_ratio <= 1.0 + MAX_RELATIVE_OVERHEAD, (
        f"envelope-off / uninstrumented = {off_ratio:.4f} (best of "
        f"{ROUNDS} samples, {RUNS_PER_SAMPLE} runs each) exceeds "
        f"{1.0 + MAX_RELATIVE_OVERHEAD:.2f}; samples {rounds}"
    )
