"""Golden digests: pin the outputs of the deterministic models across revisions.

Within one revision, the conformance suite compares rungs with each
other. This file compares a revision with the revisions before it: it
recomputes one digest entry per (family, rung, seed, shape, workers)
on small shapes and compares them with ``tests/golden/digests.json``.
Each entry maps a result field to a short sha256 of its value (or the
value itself for small integers), so a failure names the entry and the
first field that moved.

Covered today:

- every align rung of :func:`repro.align.ladder.rungs` (matrix, path,
  score and statistics) over both modes, an unbanded and a banded
  scheme, workers {1, 2, 3} and tiles {1, 5, > n};
- every k-means rung of :func:`repro.kmeans.ladder.rungs` except
  ``openmp-critical`` and ``openmp-atomic``, whose float sums follow
  the thread schedule and so vary between runs;
- :func:`repro.pipeline.generate_arrests` and the Fig. 2 heat map;
- a few serve solo-oracle ``result_digest`` values.

Usage::

    PYTHONPATH=src python tools/golden.py           # compare, exit 1 on a mismatch
    PYTHONPATH=src python tools/golden.py --write   # regenerate the file

A change that rewrites the file changes a program output; say why
wherever the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.align import ScoringScheme, generate_pair
from repro.align import ladder as align_ladder
from repro.kmeans import TerminationCriteria
from repro.kmeans import ladder as kmeans_ladder
from repro.kmeans.initialization import init_random_points
from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas, heat_map_matrix
from repro.serve.traffic import TrafficJob, run_solo
from repro.spark import SparkContext
from repro.trace.history import result_digest

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "digests.json"

#: Rungs whose output depends on the thread schedule (float sum order).
NONDETERMINISTIC = {"kmeans/openmp-critical", "kmeans/openmp-atomic"}

WORKERS = (1, 2, 3)
#: (seed, length) for ``generate_pair(..., indel_rate=0.3)``: indel-rich
#: pairs of unequal lengths, whose tracebacks meet diagonal/up ties.
ALIGN_PAIRS = ((3, 13), (8, 11))
KMEANS_CASES = ((0, (60, 2), 3), (5, (45, 3), 4))  # (seed, shape, k)


def _sha(value: Any) -> str:
    return result_digest(value).removeprefix("sha256:")[:16]


def _fields(result: Any, names: tuple[str, ...]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name in names:
        value = getattr(result, name)
        if isinstance(value, (bool, int)) and not isinstance(value, np.integer):
            out[name] = value
        else:
            out[name] = _sha(value)
    return out


_ALIGN_FIELDS = (
    "score", "matrix", "path", "aligned_a", "aligned_b",
    "best_score", "best_cell", "match_events",
)
_KMEANS_FIELDS = (
    "centroids", "assignments", "iterations", "stop_reason", "inertia",
    "changes_history", "shift_history",
)


def _align() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    for seed, length in ALIGN_PAIRS:
        a, b = generate_pair(seed, length, indel_rate=0.3)
        shape = f"{len(a)}x{len(b)}"
        for mode in ("global", "local"):
            for band in (None, abs(len(a) - len(b)) + 2):
                scheme = ScoringScheme(mode=mode)
                for workers in WORKERS:
                    for tile in (1, 5, max(len(a), len(b)) + 1):
                        ladder = align_ladder.rungs(
                            (a, b), workers=workers, tile=tile, scheme=scheme, band=band
                        )
                        for rung, run in ladder.items():
                            if rung.startswith("sequential"):
                                if (workers, tile) != (1, 1):
                                    continue  # no workers, no tiles: one entry
                                key = f"align/{rung}/seed={seed}/{shape}/{mode}/band={band}"
                            else:
                                key = (
                                    f"align/{rung}/seed={seed}/{shape}/{mode}/band={band}"
                                    f"/workers={workers}/tile={tile}"
                                )
                            yield key, lambda run=run: _fields(run(), _ALIGN_FIELDS)


def _kmeans() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    criteria = TerminationCriteria(max_iterations=8)
    for seed, shape, k in KMEANS_CASES:
        points = np.random.default_rng(seed).normal(size=shape)
        init = init_random_points(points, k, seed=seed)
        tag = f"{shape[0]}x{shape[1]}/k={k}"
        for workers in WORKERS:
            ladder = kmeans_ladder.rungs(
                (points, k), workers=workers, criteria=criteria, initial_centroids=init
            )
            for rung, run in ladder.items():
                name = f"kmeans/{rung}"
                if name in NONDETERMINISTIC:
                    continue
                if rung in ("sequential", "device"):
                    if workers != 1:
                        continue
                    key = f"{name}/seed={seed}/{tag}"
                else:
                    key = f"{name}/seed={seed}/{tag}/workers={workers}"
                yield key, lambda run=run: _fields(run(), _KMEANS_FIELDS)


def _pipeline() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    for seed, (rows, cols), n in ((0, (2, 3), 500), (4, (3, 4), 1500)):
        ntas = generate_ntas(rows, cols, seed=seed)

        def arrests(ntas=ntas, n=n, seed=seed) -> dict[str, Any]:
            drawn = generate_arrests(n, ntas, year=2021, seed=seed)
            return {"arrests": _sha([(r.x, r.y, r.year, r.offense, r.valid) for r in drawn])}

        def heat_map(ntas=ntas, n=n, seed=seed, rows=rows, cols=cols) -> dict[str, Any]:
            datasets = [
                generate_arrests(n, ntas, year=2020, seed=seed),
                generate_arrests(n // 2, ntas, year=2021, seed=seed),
            ]
            with SparkContext(2, backend="serial") as sc:
                rates, diagnostics = arrests_per_100k(sc, datasets, ntas, year_filter=2021)
            return {
                "heat_map": _sha(heat_map_matrix(rates, rows, cols)),
                "diagnostics": _sha(diagnostics),
            }

        yield f"pipeline/generate_arrests/seed={seed}/{rows}x{cols}/n={n}", arrests
        yield f"pipeline/fig2_heat_map/seed={seed}/{rows}x{cols}/n={n}", heat_map


def _serve() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    for workload in ("wordcount", "kmeans", "nyc"):
        for seed in (0, 3):
            job = TrafficJob("golden", workload, 0, seed, 0.0, f"{workload}-{seed}")
            yield (
                f"serve/solo/{workload}/seed={seed}",
                lambda job=job: {"result_digest": result_digest(run_solo(job))},
            )


def entries() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    """Every golden entry as ``(key, compute)``, in file order."""
    yield from _align()
    yield from _kmeans()
    yield from _pipeline()
    yield from _serve()


def compute() -> dict[str, dict[str, Any]]:
    """Recompute every entry on this build."""
    return {key: fn() for key, fn in entries()}


def load(path: Path = GOLDEN) -> dict[str, Any]:
    return json.loads(path.read_text())


def diff(recorded: dict[str, Any], current: dict[str, dict[str, Any]]) -> list[str]:
    """One line per entry that moved, naming its first differing field."""
    problems: list[str] = []
    for key, fields in recorded.items():
        if key not in current:
            problems.append(f"{key}: recorded but no longer computed")
            continue
        for name, value in fields.items():
            if current[key].get(name) != value:
                problems.append(
                    f"{key}: field {name!r} is {current[key].get(name)!r}, recorded {value!r}"
                )
                break
    problems.extend(f"{key}: computed but not recorded" for key in current if key not in recorded)
    return problems


def write(path: Path = GOLDEN) -> None:
    payload = {"numpy": np.__version__, "entries": compute()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=False) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the digest file")
    args = parser.parse_args(argv)
    if args.write:
        write()
        print(f"wrote {GOLDEN}")
        return 0
    golden = load()
    problems = diff(golden["entries"], compute())
    for line in problems:
        print(line)
    if problems and golden["numpy"] != np.__version__:
        print(f"(recorded with numpy {golden['numpy']}, this build has {np.__version__})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
