"""Unit tests for the perf-regression gate (src/repro/perfgate.py)."""

import json

import pytest

from repro.perfgate import (
    SPEEDUP_FLOOR,
    collect_metrics,
    compare_metrics,
    main,
)


def _raw(medians, extras=None):
    """Build a minimal pytest-benchmark JSON document."""
    extras = extras or {}
    return {
        "benchmarks": [
            {
                "name": name,
                "stats": {"median": median},
                "extra_info": extras.get(name, {}),
            }
            for name, median in medians.items()
        ]
    }


REFERENCE = "test_engine_event_throughput"


class TestCollect:
    def test_reference_anchors_relative_cost(self):
        metrics = collect_metrics(_raw({REFERENCE: 0.08, "test_other": 0.02}))
        benches = metrics["benchmarks"]
        assert benches[REFERENCE]["relative_cost"] == 1.0
        assert benches["test_other"]["relative_cost"] == pytest.approx(0.25)

    def test_extra_info_derives_throughput(self):
        metrics = collect_metrics(
            _raw(
                {REFERENCE: 0.1},
                extras={REFERENCE: {"events": 100_000, "sim_ns": 10**9}},
            )
        )
        entry = metrics["benchmarks"][REFERENCE]
        assert entry["events_per_s"] == pytest.approx(1_000_000)
        assert entry["sim_ns_per_wall_ms"] == pytest.approx(10**9 / 100.0)

    def test_extra_info_derives_session_rate(self):
        metrics = collect_metrics(
            _raw(
                {REFERENCE: 0.1, "test_fleet": 0.5},
                extras={"test_fleet": {"sessions": 40, "events": 160}},
            )
        )
        entry = metrics["benchmarks"]["test_fleet"]
        assert entry["sessions_per_s"] == pytest.approx(80.0)
        assert entry["events_per_s"] == pytest.approx(320.0)

    def test_live_events_pass_through_as_a_count(self):
        metrics = collect_metrics(
            _raw({REFERENCE: 0.08, "test_idle": 0.004}, {"test_idle": {"live_events": 18}})
        )
        assert metrics["benchmarks"]["test_idle"]["live_events"] == 18

    def test_live_events_growth_fails(self):
        base = {"benchmarks": {"test_idle": {"live_events": 100}}}
        more = {"benchmarks": {"test_idle": {"live_events": 604}}}
        problems = compare_metrics(more, base)
        assert any("live_events" in p for p in problems)
        assert compare_metrics(base, more) == []

    def test_session_rate_regression_fails(self):
        base = {"benchmarks": {"test_fleet": {"sessions_per_s": 80.0}}}
        slow = {"benchmarks": {"test_fleet": {"sessions_per_s": 50.0}}}
        problems = compare_metrics(slow, base)
        assert any("sessions_per_s" in p for p in problems)

    def test_speedup_passes_through(self):
        metrics = collect_metrics(
            _raw(
                {REFERENCE: 0.1, "test_ablation": 0.02},
                extras={"test_ablation": {"idle_ff_speedup": 7.5}},
            )
        )
        assert metrics["benchmarks"]["test_ablation"]["idle_ff_speedup"] == 7.5

    def test_missing_reference_rejected(self):
        with pytest.raises(ValueError):
            collect_metrics(_raw({"test_other": 0.02}))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            collect_metrics({"benchmarks": []})


class TestCompare:
    def _metrics(self, median, speedup=None):
        extras = {"test_x": {"events": 1000}}
        if speedup is not None:
            extras["test_x"]["idle_ff_speedup"] = speedup
        return collect_metrics(
            _raw({REFERENCE: 0.1, "test_x": median}, extras=extras)
        )

    def test_identical_runs_pass(self):
        metrics = self._metrics(0.05)
        assert compare_metrics(metrics, metrics) == []

    def test_small_drift_tolerated(self):
        baseline = self._metrics(0.05)
        current = self._metrics(0.055)  # 10% slower: within 25%
        assert compare_metrics(current, baseline) == []

    def test_large_regression_fails(self):
        baseline = self._metrics(0.05)
        current = self._metrics(0.08)  # 60% slower
        problems = compare_metrics(current, baseline)
        assert problems
        assert any("relative_cost" in p for p in problems)
        assert any("events_per_s" in p for p in problems)

    def test_improvement_passes(self):
        baseline = self._metrics(0.05)
        current = self._metrics(0.01)
        assert compare_metrics(current, baseline) == []

    def test_missing_benchmark_fails(self):
        baseline = self._metrics(0.05)
        current = collect_metrics(_raw({REFERENCE: 0.1}))
        problems = compare_metrics(current, baseline)
        assert any("missing" in p for p in problems)

    def test_speedup_floor_enforced_absolutely(self):
        # Even against a baseline that itself sits below the floor.
        baseline = self._metrics(0.05, speedup=4.0)
        current = self._metrics(0.05, speedup=4.0)
        problems = compare_metrics(current, baseline)
        assert any("floor" in p for p in problems)
        healthy = self._metrics(0.05, speedup=SPEEDUP_FLOOR + 1)
        assert compare_metrics(healthy, healthy) == []

    def test_custom_tolerance(self):
        baseline = self._metrics(0.05)
        current = self._metrics(0.07)  # 40% slower
        assert compare_metrics(current, baseline, tolerance=0.5) == []
        assert compare_metrics(current, baseline, tolerance=0.1)


class TestCli:
    def test_collect_then_check_roundtrip(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(_raw({REFERENCE: 0.1, "test_x": 0.05})))
        baseline = tmp_path / "baseline.json"
        assert main(["collect", str(raw), "-o", str(baseline)]) == 0
        assert main(["check", str(raw), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "perfgate: ok" in out

    def test_check_exit_1_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(collect_metrics(_raw({REFERENCE: 0.1, "test_x": 0.01})))
        )
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_raw({REFERENCE: 0.1, "test_x": 0.05})))
        assert main(["check", str(current), "--baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_exit_2_on_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_collect_to_stdout(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(_raw({REFERENCE: 0.1})))
        assert main(["collect", str(raw)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == 1
