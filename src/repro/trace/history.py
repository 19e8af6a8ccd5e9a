"""Canonical BENCH records, performance history, and trend analysis.

``benchmarks/out/`` accumulates one ``BENCH_<name>.json`` snapshot per
benchmark run, but a snapshot is not a trajectory: nothing relates this
week's numbers to last week's. This module is the missing longitudinal
half of the observability layer:

- :class:`BenchRecord` — the canonical, versioned schema every bench
  payload normalizes into: a workload name, string config labels (the
  series identity), labeled timings in one declared unit, and optional
  bit-identity evidence (``digest`` / ``bit_identical``).
- :func:`append_history` / :func:`load_history` — an append-only
  ``history.jsonl`` store (one record per line, timestamped and
  git-SHA-stamped by the campaign runner) whose loader skips
  malformed and non-v1 lines instead of crashing on them.
- :func:`analyze_trends` — compares the latest point of every
  ``(workload, config, timing label)`` series against a rolling
  baseline (median of the preceding window) and emits severity-ranked
  :class:`Finding` rows: lost bit-identity is critical, >10% slowdowns
  are major/minor by magnitude, overhead-gate drift is tracked from
  the ``ratio``/``threshold`` fields the overhead benches record.
- :func:`render_trends` — the deterministic markdown report
  (regression summary, per-workload sparkline trend tables, campaign
  coverage matrix) written to ``benchmarks/out/TRENDS.md``. Given the
  same history, repeated renders are bit-identical.

The campaign runner in ``tools/trials/`` drives all of this; see
docs/trials.md for the matrix, the baseline policy, and how to read
the report.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "make_record",
    "validate_bench_payload",
    "load_bench_file",
    "load_bench_dir",
    "append_history",
    "history_segments",
    "load_history",
    "result_digest",
    "Finding",
    "analyze_trends",
    "sparkline",
    "render_trends",
]

#: Version stamped into every record this module writes.
BENCH_SCHEMA_VERSION = 1

#: Severity rank used to sort findings (lower sorts first).
_SEVERITY_RANK = {"critical": 0, "major": 1, "minor": 2}

#: Unicode eighth-blocks used by :func:`sparkline`.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _is_finite_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class BenchRecord:
    """One normalized benchmark measurement (schema v1).

    ``config`` and ``timings`` are stored as sorted tuples so records
    are hashable and their JSON form is canonical; use :meth:`config_dict`
    / :meth:`timings_dict` for mapping views. ``extra`` carries the
    original payload fields the schema does not interpret (scaling rows,
    metrics snapshots, gate thresholds) and is excluded from equality.
    """

    workload: str
    config: tuple[tuple[str, str], ...] = ()
    timings: tuple[tuple[str, float], ...] = ()
    unit: str = "seconds"
    schema_version: int = BENCH_SCHEMA_VERSION
    digest: str | None = None
    bit_identical: bool | None = None
    timestamp: str | None = None
    git_sha: str | None = None
    source: str = ""
    extra: dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def config_label(self) -> str:
        """The series identity: ``"backend=thread,seed=0"`` (``"default"`` when bare)."""
        if not self.config:
            return "default"
        return ",".join(f"{k}={v}" for k, v in self.config)

    @property
    def series_key(self) -> tuple[str, str]:
        """``(workload, config_label)`` — what trend analysis groups by."""
        return (self.workload, self.config_label)

    def config_dict(self) -> dict[str, str]:
        """Mapping view of the config labels."""
        return dict(self.config)

    def timings_dict(self) -> dict[str, float]:
        """Mapping view of the labeled timings."""
        return dict(self.timings)

    @property
    def total_seconds(self) -> float:
        """The headline time: the ``total`` label when present, else the sum."""
        timings = self.timings_dict()
        if "total" in timings:
            return timings["total"]
        return sum(timings.values())

    def to_json(self) -> dict[str, Any]:
        """JSON-ready dict (the canonical on-disk form)."""
        payload: dict[str, Any] = {
            "schema_version": self.schema_version,
            "workload": self.workload,
            "config": self.config_dict(),
            "unit": self.unit,
            "timings": self.timings_dict(),
        }
        if self.digest is not None:
            payload["digest"] = self.digest
        if self.bit_identical is not None:
            payload["bit_identical"] = self.bit_identical
        if self.timestamp is not None:
            payload["timestamp"] = self.timestamp
        if self.git_sha is not None:
            payload["git_sha"] = self.git_sha
        if self.source:
            payload["source"] = self.source
        if self.extra:
            payload["extra"] = self.extra
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any], *, source: str = "") -> "BenchRecord":
        """Parse a schema-v1 payload; raises ``ValueError`` listing every problem."""
        problems = validate_bench_payload(payload)
        if problems:
            raise ValueError(
                f"invalid bench payload ({source or 'unnamed'}): " + "; ".join(problems)
            )
        return cls(
            workload=payload["workload"],
            config=tuple(sorted((str(k), str(v)) for k, v in payload["config"].items())),
            timings=tuple(sorted((str(k), float(v)) for k, v in payload["timings"].items())),
            unit=payload["unit"],
            schema_version=payload["schema_version"],
            digest=payload.get("digest"),
            bit_identical=payload.get("bit_identical"),
            timestamp=payload.get("timestamp"),
            git_sha=payload.get("git_sha"),
            source=payload.get("source", source),
            extra=dict(payload.get("extra", {})),
        )


def make_record(
    workload: str,
    *,
    timings: Mapping[str, float],
    config: Mapping[str, Any] | None = None,
    unit: str = "seconds",
    digest: str | None = None,
    bit_identical: bool | None = None,
    timestamp: str | None = None,
    git_sha: str | None = None,
    source: str = "",
    extra: Mapping[str, Any] | None = None,
) -> BenchRecord:
    """Build a validated :class:`BenchRecord` (config values stringified)."""
    record = BenchRecord(
        workload=workload,
        config=tuple(sorted((str(k), str(v)) for k, v in (config or {}).items())),
        timings=tuple(sorted((str(k), float(v)) for k, v in timings.items())),
        unit=unit,
        digest=digest,
        bit_identical=bit_identical,
        timestamp=timestamp,
        git_sha=git_sha,
        source=source,
        extra=dict(extra or {}),
    )
    problems = validate_bench_payload(record.to_json())
    if problems:
        raise ValueError(f"invalid bench record {workload!r}: " + "; ".join(problems))
    return record


def validate_bench_payload(payload: Any) -> list[str]:
    """All schema-v1 problems with ``payload`` (empty list == valid)."""
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        return [f"payload must be an object, got {type(payload).__name__}"]
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        problems.append(f"schema_version must be {BENCH_SCHEMA_VERSION}, got {version!r}")
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        problems.append(f"workload must be a non-empty string, got {workload!r}")
    config = payload.get("config")
    if not isinstance(config, Mapping):
        problems.append(f"config must be an object, got {type(config).__name__}")
    else:
        for k, v in config.items():
            if not isinstance(k, str) or not isinstance(v, str):
                problems.append(f"config entries must be string->string, got {k!r}={v!r}")
    unit = payload.get("unit")
    if not isinstance(unit, str) or not unit:
        problems.append(f"unit must be a non-empty string, got {unit!r}")
    timings = payload.get("timings")
    if not isinstance(timings, Mapping):
        problems.append(f"timings must be an object, got {type(timings).__name__}")
    else:
        if not timings:
            problems.append("timings must not be empty")
        for k, v in timings.items():
            if not isinstance(k, str) or not k:
                problems.append(f"timing labels must be non-empty strings, got {k!r}")
            if not _is_finite_number(v) or v < 0:
                problems.append(f"timing {k!r} must be a finite number >= 0, got {v!r}")
    for key, kind in (("digest", str), ("timestamp", str), ("git_sha", str), ("source", str)):
        if key in payload and not isinstance(payload[key], kind):
            problems.append(f"{key} must be a string, got {payload[key]!r}")
    if "bit_identical" in payload and not isinstance(payload["bit_identical"], bool):
        problems.append(f"bit_identical must be a bool, got {payload['bit_identical']!r}")
    if "extra" in payload and not isinstance(payload["extra"], Mapping):
        problems.append(f"extra must be an object, got {type(payload['extra']).__name__}")
    return problems


def load_bench_file(path: str | Path) -> BenchRecord:
    """Load one schema-v1 ``BENCH_*.json`` file; raises ``ValueError`` otherwise."""
    path = Path(path)
    return BenchRecord.from_json(json.loads(path.read_text()), source=path.name)


def load_bench_dir(out_dir: str | Path) -> list[BenchRecord]:
    """All ``BENCH_*.json`` records under ``out_dir``, sorted by filename."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return []
    return [load_bench_file(p) for p in sorted(out_dir.glob("BENCH_*.json"))]


# ----------------------------------------------------------------------
# history store
# ----------------------------------------------------------------------

def history_segments(path: str | Path) -> list[Path]:
    """Rotated segments for ``path``, oldest first (live file excluded).

    A segment is ``<stem>.<n><suffix>`` next to the live file —
    ``history.3.jsonl`` rotated after ``history.2.jsonl`` — so ordering
    by ``n`` is chronological.
    """
    path = Path(path)
    segments: list[tuple[int, Path]] = []
    for candidate in path.parent.glob(f"{path.stem}.*{path.suffix}"):
        tag = candidate.name[len(path.stem) + 1 : len(candidate.name) - len(path.suffix)]
        if tag.isdigit():
            segments.append((int(tag), candidate))
    return [p for _n, p in sorted(segments)]


def append_history(
    path: str | Path, records: Iterable[BenchRecord], *, max_bytes: int | None = None,
    max_segments: int | None = None,
) -> int:
    """Append records to the JSONL history file; returns the count written.

    With ``max_bytes``, the live file is size-bounded: when this append
    would push it past the bound, the current contents first rotate to
    the next ``<stem>.<n><suffix>`` segment (see
    :func:`history_segments`) and the live file restarts empty —
    append-only history without an ever-growing single file.
    ``max_segments`` additionally prunes the oldest rotated segments
    beyond that count (None keeps everything).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(r.to_json(), sort_keys=True) for r in records]
    if not lines:
        return 0
    payload = "\n".join(lines) + "\n"
    if max_bytes is not None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        live = path.stat().st_size if path.exists() else 0
        if live > 0 and live + len(payload) > max_bytes:
            segments = history_segments(path)
            next_n = 1 if not segments else int(segments[-1].stem.rsplit(".", 1)[1]) + 1
            path.rename(path.with_name(f"{path.stem}.{next_n}{path.suffix}"))
            if max_segments is not None:
                for stale in history_segments(path)[: -max_segments or None]:
                    stale.unlink()
    with path.open("a") as fh:
        fh.write(payload)
    return len(lines)


def load_history(path: str | Path) -> tuple[list[BenchRecord], int]:
    """Load the history tolerantly: ``(records, skipped_lines)``.

    Spans every rotated segment (oldest first) before the live file, so
    rotation is invisible to readers. Lines that are not JSON, not
    objects, or not valid schema-v1 records are counted and skipped,
    never fatal — a corrupt line must not take down the whole
    trajectory.
    """
    path = Path(path)
    records: list[BenchRecord] = []
    skipped = 0
    for part in [*history_segments(path), path]:
        if not part.exists():
            continue
        for lineno, line in enumerate(part.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                records.append(BenchRecord.from_json(payload, source=f"{part.name}:{lineno}"))
            except (ValueError, TypeError):
                skipped += 1
    return records, skipped


def result_digest(value: Any) -> str:
    """A stable sha256 fingerprint of a workload result, for bit-identity.

    Canonicalizes the common result shapes (numpy arrays by dtype,
    shape, and raw bytes; mappings by sorted items; dataclass-like
    objects via ``__dict__``) so the same numbers always hash the same.
    """
    h = hashlib.sha256()

    def feed(v: Any) -> None:
        if hasattr(v, "tobytes") and hasattr(v, "dtype"):  # numpy array
            h.update(f"ndarray:{v.dtype}:{v.shape}:".encode())
            h.update(v.tobytes())
        elif isinstance(v, Mapping):
            h.update(b"map:")
            for k in sorted(v, key=repr):
                h.update(repr(k).encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            h.update(f"seq:{len(v)}:".encode())
            for item in v:
                feed(item)
        elif isinstance(v, (str, int, bool)) or v is None:
            h.update(repr(v).encode())
        elif isinstance(v, float):
            h.update(v.hex().encode())
        elif hasattr(v, "__dict__"):
            h.update(f"obj:{type(v).__name__}:".encode())
            feed(vars(v))
        else:
            h.update(repr(v).encode())

    feed(value)
    return f"sha256:{h.hexdigest()}"


# ----------------------------------------------------------------------
# trend analysis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    """One severity-ranked trend-analysis result.

    ``kind`` is ``"bit_identity"`` (critical: the latest digest differs
    from the series' previous digest, or the record self-reports
    ``bit_identical=False``), ``"slowdown"`` (the latest time exceeds
    the rolling baseline by more than the threshold), or
    ``"overhead_drift"`` (an overhead-gate series whose ratio crossed,
    or is drifting toward, its recorded threshold).
    """

    severity: str
    kind: str
    workload: str
    config: str
    detail: str
    ratio: float | None = None

    @property
    def sort_key(self) -> tuple[int, str, str, str]:
        """Severity first, then stable lexicographic order."""
        return (_SEVERITY_RANK.get(self.severity, 99), self.workload, self.config, self.kind)


def _series(records: Iterable[BenchRecord]) -> dict[tuple[str, str], list[BenchRecord]]:
    """Group records by ``(workload, config_label)`` preserving history order."""
    out: dict[tuple[str, str], list[BenchRecord]] = {}
    for record in records:
        out.setdefault(record.series_key, []).append(record)
    return out


def _slowdown_findings(
    key: tuple[str, str],
    points: list[BenchRecord],
    *,
    baseline_window: int,
    slowdown_threshold: float,
) -> list[Finding]:
    workload, config = key
    findings: list[Finding] = []
    latest = points[-1]
    history = points[:-1]

    # Per timing label: a regression in one backend/kernel must not be
    # diluted by the others summed into a total.
    for label, seconds in latest.timings:
        prior = [p.timings_dict()[label] for p in history[-baseline_window:]
                 if label in p.timings_dict()]
        if not prior:
            continue
        baseline = statistics.median(prior)
        if baseline <= 0:
            continue
        ratio = seconds / baseline
        if ratio > 1.0 + slowdown_threshold:
            severity = "major" if ratio >= 1.25 else "minor"
            where = config if label == "total" else f"{config} [{label}]"
            findings.append(Finding(
                severity=severity,
                kind="slowdown",
                workload=workload,
                config=where,
                detail=(
                    f"{seconds:.6f}s vs rolling baseline {baseline:.6f}s "
                    f"({ratio:.2f}x, threshold {1.0 + slowdown_threshold:.2f}x)"
                ),
                ratio=ratio,
            ))
    return findings


def _bit_identity_findings(key: tuple[str, str], points: list[BenchRecord]) -> list[Finding]:
    workload, config = key
    latest = points[-1]
    findings: list[Finding] = []
    if latest.bit_identical is False:
        findings.append(Finding(
            severity="critical",
            kind="bit_identity",
            workload=workload,
            config=config,
            detail="record self-reports bit_identical=false",
        ))
    if latest.digest is not None:
        previous = [p.digest for p in points[:-1] if p.digest is not None]
        if previous and previous[-1] != latest.digest:
            findings.append(Finding(
                severity="critical",
                kind="bit_identity",
                workload=workload,
                config=config,
                detail=(
                    f"result digest changed: {previous[-1][:18]}… -> {latest.digest[:18]}…"
                ),
            ))
    return findings


def _overhead_findings(
    key: tuple[str, str], points: list[BenchRecord], *, baseline_window: int
) -> list[Finding]:
    workload, config = key
    latest = points[-1]
    ratio = latest.extra.get("ratio")
    threshold = latest.extra.get("threshold")
    if not (_is_finite_number(ratio) and _is_finite_number(threshold) and threshold > 1.0):
        return []
    if ratio >= threshold:
        return [Finding(
            severity="major",
            kind="overhead_drift",
            workload=workload,
            config=config,
            detail=f"overhead ratio {ratio:.3f}x breached its gate ({threshold:.2f}x)",
            ratio=float(ratio),
        )]
    prior = [p.extra["ratio"] for p in points[:-1][-baseline_window:]
             if _is_finite_number(p.extra.get("ratio"))]
    headroom = threshold - 1.0
    if prior and ratio - statistics.median(prior) > 0.5 * headroom:
        return [Finding(
            severity="minor",
            kind="overhead_drift",
            workload=workload,
            config=config,
            detail=(
                f"overhead ratio drifted to {ratio:.3f}x "
                f"(baseline {statistics.median(prior):.3f}x, gate {threshold:.2f}x)"
            ),
            ratio=float(ratio),
        )]
    return []


def analyze_trends(
    records: Iterable[BenchRecord],
    *,
    baseline_window: int = 5,
    slowdown_threshold: float = 0.10,
) -> list[Finding]:
    """Severity-ranked findings for the latest point of every series.

    The baseline policy: each ``(workload, config)`` series' latest
    record is compared against the median of up to ``baseline_window``
    preceding records (per timing label). Series with a single point
    have no baseline and produce no findings. The output order is
    deterministic — severity rank, then workload/config/kind — so the
    rendered report is bit-identical across repeated runs on the same
    history.
    """
    if baseline_window < 1:
        raise ValueError(f"baseline_window must be >= 1, got {baseline_window}")
    if slowdown_threshold <= 0:
        raise ValueError(f"slowdown_threshold must be > 0, got {slowdown_threshold}")
    findings: list[Finding] = []
    for key, points in _series(records).items():
        if len(points) < 2:
            continue
        findings.extend(_bit_identity_findings(key, points))
        findings.extend(_slowdown_findings(
            key, points,
            baseline_window=baseline_window,
            slowdown_threshold=slowdown_threshold,
        ))
        findings.extend(_overhead_findings(key, points, baseline_window=baseline_window))
    return sorted(findings, key=lambda f: f.sort_key)


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------

def sparkline(values: Iterable[float]) -> str:
    """Render a series as unicode eighth-blocks (``▁▃▇█``), min-max scaled."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi - lo <= 0:
        return _SPARK_BLOCKS[0] * len(vals)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(top, int((v - lo) / (hi - lo) * top + 0.5))] for v in vals
    )


def _coverage_rows(series: dict[tuple[str, str], list[BenchRecord]]) -> list[str]:
    """The campaign coverage matrix: config-key values covered per workload."""
    per_workload: dict[str, list[BenchRecord]] = {}
    for (workload, _), points in sorted(series.items()):
        per_workload.setdefault(workload, []).extend(points)
    keys: list[str] = sorted({
        k for points in per_workload.values() for p in points for k, _ in p.config
    })
    header = "| workload | runs | " + " | ".join(keys) + " |" if keys else "| workload | runs |"
    rule = "|---" * (2 + len(keys)) + "|"
    rows = [header, rule]
    for workload, points in sorted(per_workload.items()):
        cells = []
        for key in keys:
            values = sorted({dict(p.config).get(key) for p in points} - {None})
            cells.append(",".join(values) if values else "—")
        tail = (" " + " | ".join(cells) + " |") if keys else ""
        rows.append(f"| {workload} | {len(points)} |{tail}")
    return rows


def render_trends(
    records: Iterable[BenchRecord],
    *,
    findings: list[Finding] | None = None,
    skipped: int = 0,
    baseline_window: int = 5,
    slowdown_threshold: float = 0.10,
    title: str = "Performance trends",
) -> str:
    """The TRENDS.md report: regressions, per-workload trends, coverage.

    Pure function of the history — no wall clock, no environment — so
    repeated renders over the same records are bit-identical.
    """
    records = list(records)
    if findings is None:
        findings = analyze_trends(
            records,
            baseline_window=baseline_window,
            slowdown_threshold=slowdown_threshold,
        )
    series = _series(records)
    shas = [r.git_sha for r in records if r.git_sha]
    stamps = [r.timestamp for r in records if r.timestamp]

    lines = [f"# {title}", ""]
    span = ""
    if stamps:
        span = f" spanning {min(stamps)} → {max(stamps)}"
    if shas:
        span += f" ({shas[0]} → {shas[-1]})"
    lines.append(
        f"{len(records)} records across {len(series)} (workload, config) series{span}."
    )
    if skipped:
        lines.append(f"{skipped} malformed history line{'s' if skipped != 1 else ''} skipped.")
    lines.append("")

    lines.append("## Regressions")
    lines.append("")
    if findings:
        lines.append("| severity | kind | workload | config | detail |")
        lines.append("|---|---|---|---|---|")
        for f in findings:
            lines.append(
                f"| {f.severity} | {f.kind} | {f.workload} | {f.config} | {f.detail} |"
            )
    else:
        lines.append("No regressions detected against the rolling baseline.")
    lines.append("")

    lines.append("## Per-workload trends")
    lines.append("")
    lines.append(
        f"Baseline: median of the preceding {baseline_window} runs per series; "
        f"flagged above {1.0 + slowdown_threshold:.2f}x."
    )
    lines.append("")
    lines.append("| workload | config | runs | latest s | baseline s | delta | trend |")
    lines.append("|---|---|---|---|---|---|---|")
    for (workload, config), points in sorted(series.items()):
        totals = [p.total_seconds for p in points]
        latest = totals[-1]
        prior = totals[:-1][-baseline_window:]
        if prior:
            baseline = statistics.median(prior)
            delta = f"{(latest / baseline - 1.0) * 100.0:+.1f}%" if baseline > 0 else "n/a"
            base_text = f"{baseline:.6f}"
        else:
            base_text, delta = "—", "new"
        lines.append(
            f"| {workload} | {config} | {len(points)} | {latest:.6f} | "
            f"{base_text} | {delta} | {sparkline(totals[-16:])} |"
        )
    lines.append("")

    lines.append("## Campaign coverage")
    lines.append("")
    if series:
        lines.extend(_coverage_rows(series))
    else:
        lines.append("No history yet — run `python tools/trials` to start the trajectory.")
    lines.append("")
    return "\n".join(lines)
