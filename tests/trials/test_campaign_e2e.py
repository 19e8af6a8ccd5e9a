"""End-to-end acceptance for the continuous trial harness.

A seeded mini-campaign runs twice into one history file; the second run
carries an injected >10% slowdown on one (workload, config) cell and an
injected bit-identity break on another. The analyzer must name exactly
those two pairs — bit-identically across repeated runs — and skip
malformed and pre-schema history lines alongside the campaign's records.
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from repro.trace import Tracer  # noqa: E402
from repro.trace.history import (  # noqa: E402
    analyze_trends,
    load_history,
    render_trends,
)
from trials.campaign import (  # noqa: E402
    DEFAULT_SUITES,
    CampaignInjection,
    TrialSpec,
    build_matrix,
    run_campaign,
)

SLOW_CELL = ("kmeans", "backend=serial,seed=0")
BREAK_CELL = ("wordcount", "faults=none,seed=0")


def _mini_matrix():
    return build_matrix(
        suites=("kmeans", "wordcount"),
        backends=("serial",),
        fault_plans=("none",),
        seeds=(0,),
    )


def _fake_clock(step: float = 0.01):
    """A deterministic perf_counter: every interval measures exactly ``step``."""
    ticks = iter(range(10_000))

    def clock() -> float:
        return next(ticks) * step

    return clock


def _run_twice(history):
    """The seeded mini-campaign: clean baseline, then an injected second run."""
    first = run_campaign(
        _mini_matrix(), history_path=history, repeats=1,
        clock=_fake_clock(), now=lambda: "2026-08-01T00:00:00+00:00",
        git_sha="aaa0001",
    )
    second = run_campaign(
        _mini_matrix(), history_path=history, repeats=1,
        clock=_fake_clock(), now=lambda: "2026-08-02T00:00:00+00:00",
        git_sha="bbb0002",
        injection=CampaignInjection(
            slowdowns={SLOW_CELL: 1.5},
            digest_breaks=frozenset({BREAK_CELL}),
        ),
    )
    return first, second


class TestMatrix:
    def test_default_matrix_covers_every_suite(self):
        specs = build_matrix()
        assert {s.workload for s in specs} == {
            "kmeans", "kmeans_openmp", "wordcount", "heat_coforall", "knn_mapreduce",
            "serve_soak", "align",
        }
        # dimensions sweep where they apply
        def labels(workload):
            return [s.config_label for s in specs if s.workload == workload]

        # Pinned exactly: these labels key the kmeans/align history series.
        assert labels("kmeans") == ["backend=serial,seed=0", "backend=thread,seed=0"]
        assert labels("align") == [
            "model=sequential,seed=0",
            "backend=serial,model=executor,seed=0",
            "backend=thread,model=executor,seed=0",
        ]
        heat = [s for s in specs if s.workload == "heat_coforall"]
        assert {dict(s.config)["locales"] for s in heat} == {"1", "2"}

    def test_seeds_multiply_the_matrix(self):
        one = build_matrix(suites=("kmeans",), seeds=(0,))
        two = build_matrix(suites=("kmeans",), seeds=(0, 1))
        assert len(two) == 2 * len(one)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suites"):
            build_matrix(suites=("kmeans", "nope"))
        assert set(DEFAULT_SUITES) >= {"kmeans", "wordcount"}

    def test_config_label_matches_record_identity(self):
        spec = _mini_matrix()[0]
        assert spec.config_label == "backend=serial,seed=0"


class TestCampaignRun:
    def test_records_are_canonical_and_stamped(self, tmp_path):
        history = tmp_path / "history.jsonl"
        result = run_campaign(
            _mini_matrix(), history_path=history, repeats=1,
            clock=_fake_clock(), now=lambda: "2026-08-01T00:00:00+00:00",
            git_sha="abc1234",
        )
        assert result.errors == []
        assert result.appended == len(result.records) == 2
        for rec in result.records:
            assert rec.schema_version == 1
            assert rec.timestamp == "2026-08-01T00:00:00+00:00"
            assert rec.git_sha == "abc1234"
            assert rec.source == "campaign"
            assert rec.digest and rec.digest.startswith("sha256:")
            assert rec.timings_dict() == {"total": pytest.approx(0.01)}

    def test_digests_are_reproducible_across_runs(self, tmp_path):
        a = run_campaign(_mini_matrix(), repeats=1, clock=_fake_clock(),
                         now=lambda: "t0", git_sha="x")
        b = run_campaign(_mini_matrix(), repeats=1, clock=_fake_clock(),
                         now=lambda: "t1", git_sha="y")
        assert [r.digest for r in a.records] == [r.digest for r in b.records]

    def test_campaign_is_traced(self, tmp_path):
        tracer = Tracer()
        result = run_campaign(
            _mini_matrix(), repeats=1, clock=_fake_clock(),
            now=lambda: "t", git_sha="x", tracer=tracer,
        )
        assert result.metrics["trials.trials"]["value"] == 2
        assert result.metrics["trials.trial_seconds"]["count"] == 2
        names = {e.name for e in tracer.events()}
        assert "campaign" in names and "trial:kmeans" in names

    def test_failing_trial_does_not_kill_the_campaign(self, tmp_path):
        def boom():
            raise RuntimeError("kaput")

        specs = [
            TrialSpec("broken", (("seed", "0"),), boom),
            *_mini_matrix(),
        ]
        result = run_campaign(specs, repeats=1, clock=_fake_clock(),
                              now=lambda: "t", git_sha="x")
        assert len(result.records) == 2  # the healthy cells still ran
        assert len(result.errors) == 1 and "kaput" in result.errors[0]
        assert result.metrics["trials.failures"]["value"] == 1

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            run_campaign([], repeats=0)


class TestEndToEndTrends:
    """The acceptance scenario from the issue, verbatim."""

    def test_injected_regressions_are_named_exactly(self, tmp_path):
        history = tmp_path / "history.jsonl"
        _run_twice(history)

        records, skipped = load_history(history)
        assert skipped == 0 and len(records) == 4
        findings = analyze_trends(records)

        flagged = {(f.workload, f.config, f.kind) for f in findings}
        assert flagged == {
            (*BREAK_CELL, "bit_identity"),
            (*SLOW_CELL, "slowdown"),
        }
        by_kind = {f.kind: f for f in findings}
        assert by_kind["bit_identity"].severity == "critical"
        assert by_kind["slowdown"].severity == "major"  # 1.5x >= 1.25x
        assert by_kind["slowdown"].ratio == pytest.approx(1.5)

    def test_trends_report_is_bit_identical_across_repeated_analysis(self, tmp_path):
        history = tmp_path / "history.jsonl"
        _run_twice(history)

        def analyze_and_render() -> str:
            records, skipped = load_history(history)
            findings = analyze_trends(records)
            return render_trends(records, findings=findings, skipped=skipped)

        first = analyze_and_render()
        assert first == analyze_and_render() == analyze_and_render()

        regressions = first.split("## Regressions")[1].split("## Per-workload")[0]
        assert "| critical | bit_identity | wordcount | faults=none,seed=0 |" in regressions
        assert "| major | slowdown | kmeans | backend=serial,seed=0 |" in regressions
        # exactly the two injected pairs — no collateral findings
        assert sum(1 for ln in regressions.splitlines()
                   if ln.startswith("|") and "severity" not in ln and "---" not in ln) == 2
        assert "aaa0001 → bbb0002" in first

    def test_tolerates_malformed_and_legacy_history_lines(self, tmp_path):
        history = tmp_path / "history.jsonl"
        history.write_text(
            "{broken json\n"
            + json.dumps({"name": "legacy_bench", "run_sec": 1.0}) + "\n"
            + json.dumps({"workload": "no timings"}) + "\n"
        )
        _run_twice(history)

        records, skipped = load_history(history)
        assert skipped == 3  # a pre-schema line is skipped like the junk
        assert {r.workload for r in records} == {"kmeans", "wordcount"}
        findings = analyze_trends(records)
        report = render_trends(records, findings=findings, skipped=skipped)
        assert "3 malformed history lines skipped." in report
        assert {(f.workload, f.config) for f in findings} == {SLOW_CELL, BREAK_CELL}

    def test_analyzer_overhead_under_five_percent_of_campaign(self, tmp_path):
        history = tmp_path / "history.jsonl"
        # Real wall-clock campaign (default clock) — the denominator.
        result = run_campaign(
            _mini_matrix(), history_path=history, repeats=1,
            now=lambda: "2026-08-01T00:00:00+00:00", git_sha="abc1234",
        )
        assert result.wall_seconds > 0

        t0 = time.perf_counter()
        records, skipped = load_history(history)
        findings = analyze_trends(records)
        render_trends(records, findings=findings, skipped=skipped)
        analyze_sec = time.perf_counter() - t0

        assert analyze_sec < 0.05 * result.wall_seconds, (
            f"analysis took {analyze_sec:.4f}s vs campaign "
            f"{result.wall_seconds:.4f}s"
        )


class TestCli:
    def test_analyze_only_writes_trends_and_fail_on_gates(self, tmp_path, capsys):
        from trials.__main__ import main

        history = tmp_path / "history.jsonl"
        _run_twice(history)
        trends = tmp_path / "TRENDS.md"
        args = [
            "--analyze-only",
            "--history", str(history),
            "--trends", str(trends),
            "--bench-dir", str(tmp_path / "empty"),
        ]
        assert main(args) == 0  # default --fail-on never
        report = trends.read_text()
        assert "| critical | bit_identity | wordcount |" in report
        out = capsys.readouterr().out
        assert "1 critical / 1 major / 0 minor" in out

        assert main([*args, "--fail-on", "critical"]) == 1
        assert main([*args, "--fail-on", "major"]) == 1

    def test_ingest_bench_folds_snapshots_into_history(self, tmp_path, capsys):
        from trials.__main__ import main

        bench_dir = tmp_path / "out"
        bench_dir.mkdir()
        (bench_dir / "BENCH_snapshot.json").write_text(json.dumps({
            "schema_version": 1, "workload": "snapshot", "config": {},
            "unit": "seconds", "timings": {"run": 0.25},
        }))
        history = tmp_path / "history.jsonl"
        trends = tmp_path / "TRENDS.md"
        assert main([
            "--analyze-only", "--ingest-bench",
            "--history", str(history),
            "--trends", str(trends),
            "--bench-dir", str(bench_dir),
        ]) == 0
        records, skipped = load_history(history)
        assert skipped == 0
        assert [r.workload for r in records] == ["snapshot"]
        assert records[0].timestamp  # ingest stamps undated snapshots
        assert "ingested 1 BENCH_*.json snapshot(s)" in capsys.readouterr().out
