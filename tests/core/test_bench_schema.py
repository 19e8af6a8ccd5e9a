"""The CI gate for bench output: `python tools/check_bench_schema.py --check`."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from check_bench_schema import check, main as check_main  # noqa: E402


class TestCheckedInBenchOutput:
    def test_every_checked_in_bench_file_validates(self):
        ok, report = check()
        assert ok, report
        assert report == ""
        assert check_main(["--check"]) == 0


class TestCheckBenchSchema:
    def test_missing_dir_is_ok(self, tmp_path):
        ok, report = check(tmp_path / "nope")
        assert ok and report == ""

    def test_empty_dir_is_ok(self, tmp_path):
        ok, _ = check(tmp_path)
        assert ok

    def test_valid_v1_file_passes(self, tmp_path):
        (tmp_path / "BENCH_good.json").write_text(json.dumps({
            "schema_version": 1, "workload": "good", "config": {},
            "unit": "seconds", "timings": {"total": 1.0},
        }))
        ok, report = check(tmp_path)
        assert ok, report

    def test_legacy_file_is_rejected(self, tmp_path):
        (tmp_path / "BENCH_legacy.json").write_text(json.dumps({
            "name": "legacy", "baseline_sec": 0.5,
        }))
        ok, report = check(tmp_path)
        assert not ok
        assert "BENCH_legacy.json" in report and "schema_version must be 1" in report
        assert check_main([str(tmp_path), "--check"]) == 1

    def test_unparseable_json_is_flagged(self, tmp_path):
        (tmp_path / "BENCH_broken.json").write_text("{oops")
        ok, report = check(tmp_path)
        assert not ok
        assert "BENCH_broken.json" in report and "unreadable" in report

    def test_unsalvageable_payload_is_flagged(self, tmp_path):
        (tmp_path / "BENCH_empty.json").write_text(json.dumps({"name": "empty"}))
        ok, report = check(tmp_path)
        assert not ok
        assert "timings must be an object" in report

    def test_one_bad_file_does_not_hide_the_good_one(self, tmp_path):
        (tmp_path / "BENCH_good.json").write_text(json.dumps({
            "schema_version": 1, "workload": "good", "config": {},
            "unit": "seconds", "timings": {"run": 1.0},
        }))
        (tmp_path / "BENCH_bad.json").write_text("[]")
        ok, report = check(tmp_path)
        assert not ok
        assert "BENCH_bad.json" in report and "BENCH_good.json" not in report

    def test_main_exit_codes_and_output(self, tmp_path, capsys):
        (tmp_path / "BENCH_bad.json").write_text("{oops")
        assert check_main([str(tmp_path)]) == 1
        assert "MALFORMED" in capsys.readouterr().out
        (tmp_path / "BENCH_bad.json").unlink()
        assert check_main([str(tmp_path)]) == 0
        assert "bench schema OK" in capsys.readouterr().out

    def test_main_reports_history_informationally(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        history.write_text(
            json.dumps({"schema_version": 1, "workload": "w", "config": {},
                        "unit": "seconds", "timings": {"t": 1.0}})
            + "\nnot json\n"
        )
        assert check_main([str(tmp_path), "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "1 record(s)" in out and "1 malformed line(s) skipped" in out
