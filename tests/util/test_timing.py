"""Tests for repro.util.timing."""

from types import SimpleNamespace

import pytest

from repro.util import timing
from repro.util.timing import ScalingStudy, Timer, interleaved_min, time_call


class TestTimer:
    def test_measures_nonnegative_elapsed(self):
        with Timer() as t:
            sum(range(100))
        assert t.elapsed >= 0.0

    def test_reusable_sequentially_without_stale_elapsed(self):
        import time

        t = Timer()
        with t:
            time.sleep(0.02)
        assert t.elapsed >= 0.02
        with t:
            pass
        assert t.elapsed < 0.02  # second use re-measures; no stale value

    def test_nestable(self):
        t = Timer()
        with t:
            with t:
                inner_work = sum(range(100))
            inner = t.elapsed
        outer = t.elapsed
        assert inner_work >= 0
        assert outer >= inner >= 0.0

    def test_unbalanced_exit_raises(self):
        t = Timer()
        with pytest.raises(RuntimeError, match="without a matching"):
            t.__exit__(None, None, None)

    def test_exception_in_block_still_records(self):
        t = Timer()
        with pytest.raises(ValueError):
            with t:
                raise ValueError("boom")
        assert t.elapsed >= 0.0

    def test_time_call_returns_result(self):
        seconds, result = time_call(lambda a, b: a + b, 2, 3, repeats=3)
        assert result == 5
        assert seconds >= 0.0

    def test_time_call_runs_exactly_repeats_times(self):
        calls = []
        time_call(lambda: calls.append(1), repeats=4)
        assert len(calls) == 4

    def test_time_call_returns_last_result_and_min_time(self):
        results = iter(["first", "second", "third"])
        seconds, result = time_call(lambda: next(results), repeats=3)
        assert result == "third"
        assert seconds >= 0.0

    def test_time_call_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)


class TestInterleavedMin:
    @pytest.fixture
    def clock(self, monkeypatch):
        """A fake perf_counter that a run advances by its scripted duration."""
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(timing, "time", SimpleNamespace(perf_counter=lambda: clock.now))
        return clock

    def _scripted(self, clock, label, durations, calls):
        script = iter(durations)

        def run():
            calls.append(label)
            clock.now += next(script)
            return f"{label}{len(calls)}"

        return run

    def test_rounds_interleave_in_mapping_order(self):
        calls = []
        runs = {"a": lambda: calls.append("a"), "b": lambda: calls.append("b")}
        interleaved_min(runs, repeats=3)
        assert calls == ["a", "b", "a", "b", "a", "b"]

    def test_keeps_min_and_last_result_per_label(self, clock):
        calls = []
        runs = {
            "a": self._scripted(clock, "a", [3.0, 1.0, 2.0], calls),
            "b": self._scripted(clock, "b", [5.0, 6.0, 4.0], calls),
        }
        best, last = interleaved_min(runs, repeats=3)
        assert best == {"a": 1.0, "b": 4.0}
        assert last == {"a": "a5", "b": "b6"}

    def test_inner_calls_run_back_to_back(self, clock):
        calls = []
        runs = {
            "a": self._scripted(clock, "a", [4.0, 2.0, 3.0, 5.0], calls),
            "b": self._scripted(clock, "b", [1.0, 1.0, 1.0, 1.0], calls),
        }
        best, _ = interleaved_min(runs, repeats=2, inner=2)
        assert calls == ["a", "a", "b", "b", "a", "a", "b", "b"]
        assert best == {"a": 2.0, "b": 1.0}

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_rejects_fewer_than_one_repeat(self, repeats):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            interleaved_min({"a": lambda: None}, repeats=repeats)


class TestScalingStudy:
    def test_speedup_and_efficiency(self):
        s = ScalingStudy("demo")
        s.record(1, 8.0)
        s.record(2, 4.0)
        s.record(4, 4.0)
        assert s.speedup(2) == pytest.approx(2.0)
        assert s.efficiency(2) == pytest.approx(1.0)
        assert s.speedup(4) == pytest.approx(2.0)
        assert s.efficiency(4) == pytest.approx(0.5)

    def test_record_keeps_minimum_of_repeats(self):
        s = ScalingStudy("demo")
        s.record(2, 5.0)
        s.record(2, 3.0)
        s.record(2, 4.0)
        assert s.measurements[2] == 3.0

    def test_baseline_falls_back_to_smallest_workers(self):
        s = ScalingStudy("demo")
        s.record(2, 6.0)
        s.record(4, 3.0)
        assert s.baseline_workers == 2
        assert s.speedup(4) == pytest.approx(2.0)

    def test_rows_sorted_and_table_formats(self):
        s = ScalingStudy("demo")
        s.record(4, 1.0)
        s.record(1, 4.0)
        rows = s.rows()
        assert [r[0] for r in rows] == [1, 4]
        table = s.format_table()
        assert "demo" in table and "workers" in table

    def test_rejects_invalid_measurements(self):
        s = ScalingStudy("demo")
        with pytest.raises(ValueError):
            s.record(0, 1.0)
        with pytest.raises(ValueError):
            s.record(1, -1.0)
        with pytest.raises(ValueError):
            _ = s.baseline_workers

    def test_unrecorded_workers_raise_clear_error(self):
        s = ScalingStudy("demo")
        s.record(1, 4.0)
        s.record(2, 2.0)
        with pytest.raises(ValueError, match=r"no measurement recorded for 8 workers"):
            s.speedup(8)
        with pytest.raises(ValueError, match=r"recorded: \[1, 2\]"):
            s.efficiency(8)

    def test_empty_study_speedup_raises(self):
        with pytest.raises(ValueError, match="no measurements"):
            ScalingStudy("demo").speedup(1)

    def test_zero_time_speedup_is_inf(self):
        s = ScalingStudy("demo")
        s.record(1, 1.0)
        s.record(2, 0.0)
        assert s.speedup(2) == float("inf")

    def test_single_measurement_rows(self):
        s = ScalingStudy("demo")
        s.record(4, 2.0)
        assert s.rows() == [(4, 2.0, 1.0, 1.0)]  # its own baseline

    def test_to_json_round_trips(self):
        import json

        s = ScalingStudy("demo")
        s.record(1, 8.0)
        s.record(2, 4.0)
        payload = json.loads(json.dumps(s.to_json()))
        assert payload["name"] == "demo"
        assert payload["baseline_workers"] == 1
        assert payload["rows"] == [
            {"workers": 1, "seconds": 8.0, "speedup": 1.0, "efficiency": 1.0},
            {"workers": 2, "seconds": 4.0, "speedup": 2.0, "efficiency": 1.0},
        ]
