"""Canonical bench schema, history store, trend analysis."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.trace.history import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    Finding,
    analyze_trends,
    append_history,
    history_segments,
    load_bench_dir,
    load_bench_file,
    load_history,
    make_record,
    render_trends,
    result_digest,
    sparkline,
    validate_bench_payload,
)

REPO_OUT = Path(__file__).parent.parent.parent / "benchmarks" / "out"


def _rec(workload="w", config=None, timings=None, **kw):
    return make_record(
        workload,
        config=config or {},
        timings=timings or {"total": 1.0},
        **kw,
    )


class TestBenchRecord:
    def test_round_trips_through_json(self):
        rec = _rec(
            "kmeans",
            config={"backend": "thread", "seed": 0},
            timings={"total": 0.5},
            digest="sha256:abc",
            bit_identical=True,
            timestamp="2026-08-08T00:00:00+00:00",
            git_sha="abc1234",
            source="campaign",
            extra={"note": "hello"},
        )
        again = BenchRecord.from_json(rec.to_json())
        assert again == rec
        assert again.extra == rec.extra

    def test_config_label_sorted_and_stringified(self):
        rec = _rec(config={"seed": 0, "backend": "thread"})
        assert rec.config_label == "backend=thread,seed=0"
        assert rec.series_key == ("w", "backend=thread,seed=0")

    def test_bare_config_labels_default(self):
        assert _rec().config_label == "default"

    def test_total_seconds_prefers_total_label(self):
        assert _rec(timings={"total": 2.0, "setup": 9.0}).total_seconds == 2.0
        assert _rec(timings={"a": 1.0, "b": 2.0}).total_seconds == 3.0

    def test_canonical_json_is_key_sorted_stable(self):
        rec = _rec(config={"b": 1, "a": 2}, timings={"z": 1.0, "y": 2.0})
        a = json.dumps(rec.to_json(), sort_keys=True)
        b = json.dumps(BenchRecord.from_json(rec.to_json()).to_json(), sort_keys=True)
        assert a == b


class TestValidate:
    def test_valid_payload_has_no_problems(self):
        assert validate_bench_payload(_rec().to_json()) == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.pop("schema_version"), "schema_version"),
            (lambda p: p.update(workload=""), "workload"),
            (lambda p: p.update(config="nope"), "config"),
            (lambda p: p.update(config={"k": 1}), "string->string"),
            (lambda p: p.update(unit=""), "unit"),
            (lambda p: p.update(timings={}), "timings must not be empty"),
            (lambda p: p.update(timings={"t": float("nan")}), "finite"),
            (lambda p: p.update(timings={"t": -1.0}), ">= 0"),
            (lambda p: p.update(bit_identical="yes"), "bit_identical"),
            (lambda p: p.update(extra=[1]), "extra"),
        ],
    )
    def test_each_field_is_checked(self, mutate, fragment):
        payload = _rec().to_json()
        mutate(payload)
        problems = validate_bench_payload(payload)
        assert problems and any(fragment in p for p in problems)

    def test_non_mapping_payload(self):
        assert validate_bench_payload([1, 2]) == ["payload must be an object, got list"]

    def test_from_json_raises_listing_problems(self):
        with pytest.raises(ValueError, match="workload"):
            BenchRecord.from_json({"schema_version": 1})

    def test_make_record_rejects_bad_timings(self):
        with pytest.raises(ValueError, match="finite"):
            make_record("w", timings={"t": float("inf")})


class TestLoadBench:
    def test_every_checked_in_bench_file_loads(self):
        records = load_bench_dir(REPO_OUT)
        assert len(records) == len(list(REPO_OUT.glob("BENCH_*.json")))
        for rec in records:
            assert rec.schema_version == BENCH_SCHEMA_VERSION
            assert rec.timings  # every file yields at least one timing

    def test_missing_dir_is_empty_not_fatal(self, tmp_path):
        assert load_bench_dir(tmp_path / "nope") == []

    def test_load_file_stamps_source(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        payload = _rec("demo").to_json()
        payload.pop("source", None)
        path.write_text(json.dumps(payload))
        rec = load_bench_file(path)
        assert rec.workload == "demo"
        assert rec.source == "BENCH_demo.json"

    def test_load_file_rejects_legacy_payload(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps({"name": "demo", "run_sec": 1.5}))
        with pytest.raises(ValueError, match="schema_version must be 1"):
            load_bench_file(path)


class TestHistoryStore:
    def test_append_then_load_round_trips(self, tmp_path):
        path = tmp_path / "history.jsonl"
        first = [_rec("a"), _rec("b")]
        assert append_history(path, first) == 2
        assert append_history(path, [_rec("c")]) == 1
        records, skipped = load_history(path)
        assert [r.workload for r in records] == ["a", "b", "c"]
        assert skipped == 0

    def test_append_nothing_writes_nothing(self, tmp_path):
        path = tmp_path / "history.jsonl"
        assert append_history(path, []) == 0
        assert not path.exists()

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "none.jsonl") == ([], 0)

    def test_loader_skips_malformed_and_legacy_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        lines = [
            json.dumps(_rec("good").to_json(), sort_keys=True),
            "{not json at all",
            json.dumps({"no": "timings"}),
            json.dumps({"name": "legacy", "run_sec": 2.0}),  # pre-schema line
            "[1, 2, 3]",
            "",
        ]
        path.write_text("\n".join(lines) + "\n")
        records, skipped = load_history(path)
        assert [r.workload for r in records] == ["good"]
        assert skipped == 4


class TestHistoryRotation:
    def _fill(self, path, names, *, max_bytes, max_segments=None):
        for name in names:
            append_history(path, [_rec(name)], max_bytes=max_bytes,
                           max_segments=max_segments)

    def test_rotates_when_live_file_would_exceed_bound(self, tmp_path):
        path = tmp_path / "history.jsonl"
        one_line = len(json.dumps(_rec("r0").to_json(), sort_keys=True)) + 1
        # Room for ~2 lines per segment.
        self._fill(path, [f"r{i}" for i in range(5)], max_bytes=2 * one_line + 8)
        segments = history_segments(path)
        assert segments, "expected at least one rotated segment"
        assert all(s.name.startswith("history.") for s in segments)
        assert path.stat().st_size <= 2 * one_line + 8

    def test_reader_spans_segments_oldest_first(self, tmp_path):
        path = tmp_path / "history.jsonl"
        names = [f"r{i}" for i in range(7)]
        one_line = len(json.dumps(_rec("r0").to_json(), sort_keys=True)) + 1
        self._fill(path, names, max_bytes=2 * one_line + 8)
        records, skipped = load_history(path)
        # Rotation is invisible: same order, nothing lost.
        assert [r.workload for r in records] == names
        assert skipped == 0

    def test_segment_numbers_keep_increasing(self, tmp_path):
        path = tmp_path / "history.jsonl"
        one_line = len(json.dumps(_rec("r0").to_json(), sort_keys=True)) + 1
        self._fill(path, [f"r{i}" for i in range(8)], max_bytes=one_line + 4)
        numbers = [int(s.stem.rsplit(".", 1)[1]) for s in history_segments(path)]
        assert numbers == sorted(numbers)
        assert len(numbers) == len(set(numbers))

    def test_max_segments_prunes_oldest(self, tmp_path):
        path = tmp_path / "history.jsonl"
        one_line = len(json.dumps(_rec("r0").to_json(), sort_keys=True)) + 1
        self._fill(path, [f"r{i}" for i in range(8)],
                   max_bytes=one_line + 4, max_segments=2)
        assert len(history_segments(path)) <= 2
        records, _ = load_history(path)
        # The newest records always survive pruning.
        assert records[-1].workload == "r7"

    def test_oversized_single_batch_still_written(self, tmp_path):
        path = tmp_path / "history.jsonl"
        batch = [_rec(f"big{i}") for i in range(10)]
        assert append_history(path, batch, max_bytes=64) == 10
        records, _ = load_history(path)
        assert len(records) == 10

    def test_no_max_bytes_never_rotates(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for i in range(20):
            append_history(path, [_rec(f"r{i}")])
        assert history_segments(path) == []

    def test_bad_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            append_history(tmp_path / "history.jsonl", [_rec()], max_bytes=0)

    def test_segments_ignore_unrelated_files(self, tmp_path):
        path = tmp_path / "history.jsonl"
        (tmp_path / "history.notanumber.jsonl").write_text("")
        (tmp_path / "other.1.jsonl").write_text("")
        append_history(path, [_rec()])
        assert history_segments(path) == []


class TestResultDigest:
    def test_numpy_arrays_hash_by_bytes(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert result_digest(a) == result_digest(a.copy())
        assert result_digest(a) != result_digest(a.astype(np.float32))
        assert result_digest(a) != result_digest(a + 1e-16)

    def test_mappings_hash_order_independent(self):
        assert result_digest({"a": 1, "b": 2}) == result_digest({"b": 2, "a": 1})

    def test_float_uses_exact_hex(self):
        assert result_digest(0.1 + 0.2) != result_digest(0.3)

    def test_composite_results_are_stable(self):
        value = (np.zeros(3), {"count": 2}, [1.5, None, "x"])
        assert result_digest(value) == result_digest(value)
        assert result_digest(value).startswith("sha256:")


def _series(n, seconds, workload="kmeans", config=None, digests=None, **kw):
    """n records of one series with the given per-run seconds."""
    return [
        _rec(
            workload,
            config=config or {"backend": "serial"},
            timings={"total": seconds[i]},
            digest=None if digests is None else digests[i],
            **kw,
        )
        for i in range(n)
    ]


class TestAnalyzeTrends:
    def test_steady_series_is_quiet(self):
        assert analyze_trends(_series(6, [1.0] * 6)) == []

    def test_single_point_has_no_baseline(self):
        assert analyze_trends(_series(1, [99.0])) == []

    def test_slowdown_flagged_above_threshold(self):
        findings = analyze_trends(_series(4, [1.0, 1.0, 1.0, 1.15]))
        assert [f.kind for f in findings] == ["slowdown"]
        f = findings[0]
        assert f.severity == "minor"
        assert (f.workload, f.config) == ("kmeans", "backend=serial")
        assert f.ratio == pytest.approx(1.15)

    def test_large_slowdown_is_major(self):
        findings = analyze_trends(_series(3, [1.0, 1.0, 1.3]))
        assert findings[0].severity == "major"

    def test_speedup_and_small_noise_not_flagged(self):
        assert analyze_trends(_series(3, [1.0, 1.0, 0.5])) == []
        assert analyze_trends(_series(3, [1.0, 1.0, 1.09])) == []

    def test_baseline_is_median_of_window(self):
        # One historic spike must not mask a real regression: median of
        # the window [1.0, 5.0, 1.0, 1.0, 1.0] is 1.0, so 1.2 is flagged.
        findings = analyze_trends(
            _series(7, [1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.2]), baseline_window=5
        )
        assert [f.kind for f in findings] == ["slowdown"]

    def test_per_label_regression_not_diluted(self):
        quiet = {"fast": 0.1, "slow": 10.0}
        noisy = {"fast": 0.3, "slow": 10.0}  # 3x on one label, ~2% on the sum
        records = [
            _rec("bench", config={}, timings=quiet),
            _rec("bench", config={}, timings=quiet),
            _rec("bench", config={}, timings=noisy),
        ]
        findings = analyze_trends(records)
        assert len(findings) == 1
        assert findings[0].config == "default [fast]"
        assert findings[0].severity == "major"

    def test_digest_change_is_critical(self):
        findings = analyze_trends(
            _series(3, [1.0] * 3, digests=["sha256:a", "sha256:a", "sha256:b"])
        )
        assert [(f.severity, f.kind) for f in findings] == [("critical", "bit_identity")]

    def test_stable_digest_is_quiet(self):
        assert analyze_trends(_series(3, [1.0] * 3, digests=["sha256:a"] * 3)) == []

    def test_self_reported_bit_identity_loss_is_critical(self):
        records = _series(2, [1.0, 1.0])
        records[-1] = _rec(
            "kmeans", config={"backend": "serial"},
            timings={"total": 1.0}, bit_identical=False,
        )
        findings = analyze_trends(records)
        assert findings[0].severity == "critical"

    def test_overhead_gate_breach_is_major(self):
        records = [
            _rec("gate", config={}, timings={"t": 1.0},
                 extra={"ratio": r, "threshold": 1.05})
            for r in (1.01, 1.02, 1.06)
        ]
        findings = [f for f in analyze_trends(records) if f.kind == "overhead_drift"]
        assert [f.severity for f in findings] == ["major"]

    def test_overhead_drift_toward_gate_is_minor(self):
        records = [
            _rec("gate", config={}, timings={"t": 1.0},
                 extra={"ratio": r, "threshold": 1.05})
            for r in (1.00, 1.00, 1.04)  # +0.04 > half the 0.05 headroom
        ]
        findings = [f for f in analyze_trends(records) if f.kind == "overhead_drift"]
        assert [f.severity for f in findings] == ["minor"]

    def test_findings_sorted_by_severity_then_name(self):
        records = (
            _series(3, [1.0, 1.0, 1.15], workload="zz")
            + _series(3, [1.0] * 3, workload="aa",
                      digests=["sha256:x", "sha256:x", "sha256:y"])
        )
        findings = analyze_trends(records)
        assert [(f.severity, f.workload) for f in findings] == [
            ("critical", "aa"), ("minor", "zz"),
        ]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="baseline_window"):
            analyze_trends([], baseline_window=0)
        with pytest.raises(ValueError, match="slowdown_threshold"):
            analyze_trends([], slowdown_threshold=0.0)

    def test_finding_sort_key_unknown_severity_sorts_last(self):
        f = Finding(severity="weird", kind="k", workload="w", config="c", detail="d")
        assert f.sort_key[0] > 2


class TestSparkline:
    def test_min_max_scaling(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█" and len(line) == 3

    def test_flat_series_is_floor(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_series_is_monotone(self):
        line = sparkline(range(9))
        assert list(line) == sorted(line)


class TestRenderTrends:
    def test_render_is_deterministic(self):
        records = (
            _series(4, [1.0, 1.0, 1.0, 1.3])
            + _series(2, [0.5, 0.5], workload="heat", config={"locales": 2})
        )
        first = render_trends(records, skipped=1)
        assert first == render_trends(records, skipped=1)

    def test_sections_present(self):
        report = render_trends(_series(3, [1.0, 1.0, 1.4]))
        assert "## Regressions" in report
        assert "## Per-workload trends" in report
        assert "## Campaign coverage" in report
        assert "| major | slowdown | kmeans | backend=serial |" in report
        assert "1 malformed" not in report

    def test_skipped_lines_reported(self):
        report = render_trends(_series(2, [1.0, 1.0]), skipped=3)
        assert "3 malformed history lines skipped." in report

    def test_clean_history_says_so(self):
        report = render_trends(_series(3, [1.0] * 3))
        assert "No regressions detected" in report

    def test_empty_history_renders_hint(self):
        report = render_trends([])
        assert "No history yet" in report

    def test_coverage_matrix_lists_config_values(self):
        records = (
            _series(1, [1.0], config={"backend": "serial"})
            + _series(1, [1.0], config={"backend": "thread"})
            + _series(1, [2.0], workload="heat", config={"locales": 1})
        )
        report = render_trends(records)
        coverage = report.split("## Campaign coverage")[1].splitlines()
        kmeans = next(ln for ln in coverage if ln.startswith("| kmeans"))
        assert "serial,thread" in kmeans
        heat = next(ln for ln in coverage if ln.startswith("| heat"))
        assert "—" in heat  # backend does not apply to the heat suite

    def test_span_line_uses_timestamps_and_shas(self):
        records = [
            _rec("w", timestamp="2026-01-01T00:00:00", git_sha="aaa1111"),
            _rec("w", timestamp="2026-01-02T00:00:00", git_sha="bbb2222"),
        ]
        report = render_trends(records)
        assert "2026-01-01T00:00:00 → 2026-01-02T00:00:00" in report
        assert "(aaa1111 → bbb2222)" in report
