#!/usr/bin/env python
"""Validate every ``BENCH_*.json`` under ``benchmarks/out/``.

CI-friendly companion to ``tools/trials`` (the ``check_api_index.py``
idiom applied to bench output)::

    python tools/check_bench_schema.py --check   # exit 1 + problem list

Every file must be a schema-v1 record (what ``bench_json_writer`` in
``benchmarks/conftest.py`` writes) — a bench that emits JSON the trend
pipeline cannot read is a broken bench. The
tier-1 suite runs the same comparison via
``tests/core/test_bench_schema.py``; ``benchmarks/history.jsonl`` is
reported informationally (its loader is tolerant by design, but silent
rot should still be visible).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.trace.history import BenchRecord, load_history  # noqa: E402

__all__ = ["check", "main"]

DEFAULT_OUT_DIR = ROOT / "benchmarks" / "out"
DEFAULT_HISTORY = ROOT / "benchmarks" / "history.jsonl"


def check(out_dir: Path = DEFAULT_OUT_DIR) -> tuple[bool, str]:
    """Validate all bench JSON under ``out_dir``: ``(ok, report)``.

    ``report`` lists one line per problem (empty when everything
    validates, including when the directory is missing or holds no
    BENCH files — a fresh clone has nothing to gate).
    """
    problems: list[str] = []
    files = sorted(out_dir.glob("BENCH_*.json")) if out_dir.is_dir() else []
    for path in files:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable JSON ({exc})")
            continue
        try:
            BenchRecord.from_json(payload, source=path.name)
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
    return not problems, "\n".join(problems)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default=str(DEFAULT_OUT_DIR))
    parser.add_argument("--history", default=str(DEFAULT_HISTORY))
    parser.add_argument("--check", action="store_true",
                        help="accepted for symmetry with check_api_index (always checks)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    ok, report = check(out_dir)
    n_files = len(list(out_dir.glob("BENCH_*.json"))) if out_dir.is_dir() else 0
    if ok:
        print(f"bench schema OK: {n_files} BENCH_*.json file(s) under {out_dir}")
    else:
        print(f"MALFORMED bench output under {out_dir}:\n{report}")

    history = Path(args.history)
    if history.exists():
        records, skipped = load_history(history)
        note = f" ({skipped} malformed line(s) skipped)" if skipped else ""
        print(f"history: {len(records)} record(s) in {history.name}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
