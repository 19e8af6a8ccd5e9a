"""Golden digests: pin the outputs of the deterministic models across revisions.

Within one revision, the conformance suite compares rungs with each
other. This file compares a revision with the revisions before it: it
recomputes one digest entry per (family, rung, seed, shape, workers)
on small shapes and compares them with ``tests/golden/digests.json``.
Each entry maps a result field to a short sha256 of its value (or the
value itself for small integers), so a failure names the entry and the
first field that moved.

Covered today: every rung of the six model ladders
(``repro.<family>.ladder``: align, k-means, kNN, traffic, heat, HPO) on
each ladder's ``cases()``, at the worker counts and with the fields of
:data:`LADDERS`, except the k-means ``SCHEDULE_DEPENDENT`` rungs, whose
float sums vary between runs; each kNN tree's neighbours and nodes
visited; the HPO elimination tournament, serial and on MPI;
:func:`repro.pipeline.generate_arrests` and the Fig. 2 heat
map; and a few serve solo-oracle ``result_digest`` values. A rung added
to a ladder reads "computed but not recorded" until the file is
rewritten.

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

from repro.align import ladder as align_ladder
from repro.heat import ladder as heat_ladder
from repro.hpo import ladder as hpo_ladder
from repro.hpo import run_elimination_mpi, successive_halving
from repro.kmeans import ladder as kmeans_ladder
from repro.knn import ladder as knn_ladder
from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas, heat_map_matrix
from repro.serve.traffic import TrafficJob, run_solo
from repro.spark import SparkContext
from repro.trace.history import result_digest
from repro.traffic import ladder as traffic_ladder

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "digests.json"

Entries = Iterator[tuple[str, Callable[[], dict[str, Any]]]]


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
_HEAT_STATS = ("task_spawns", "remote_gets", "remote_puts", "barrier_waits")


def _traffic(run: tuple[Any, Any], _: Any) -> dict[str, Any]:
    """The Fig. 3 space-time diagram, or the final cars of a rung that records none."""
    space_time, cars = run
    if space_time is not None:
        return {"space_time": _sha(space_time)}
    return {"positions": _sha(cars[0]), "velocities": _sha(cars[1])}


def _heat(solved: tuple[np.ndarray, Any], _: Any) -> dict[str, Any]:
    u, stats = solved
    return {"u": _sha(u)} | ({} if stats is None else _fields(stats, _HEAT_STATS))


def _hpo(result: tuple[Any, list[Any]], search: tuple) -> dict[str, Any]:
    (ensemble, outcomes), probe = result, search[-1]
    return {
        "ranking": _sha([o.params.describe() for o in outcomes]),
        "val_accuracy": _sha([o.val_accuracy for o in outcomes]),
        "predictions": _sha(ensemble.predict(probe)),
        "probabilities": _sha(ensemble.predict_proba(probe)),
        "std": _sha(ensemble.class_probability_std(probe)),
    }


def _tournament(report: Any) -> dict[str, Any]:
    rounds = report.rounds
    return {
        "scores": _sha([r.scores for r in rounds]),
        "survivors": _sha([r.survivors for r in rounds]),
        "eliminated": _sha([r.eliminated for r in rounds]),
        "winner": report.winner,
        "weights": _sha(report.final_models[report.winner].get_weights()),
    }


WORKERS = (1, 2, 3)
#: Per model ladder: its worker counts for a problem, the fields its
#: entries digest from ``(result, problem)``, and its key layout from
#: ``(rung, tag, at, rung keywords)``, where ``at`` is ``/workers=N``
#: or, for a serial rung, empty; a ``None`` key pins nothing.
LADDERS = (
    (
        align_ladder, lambda _: WORKERS, lambda r, _: _fields(r, _ALIGN_FIELDS),
        lambda rung, tag, at, kw: f"align/{rung}/{tag}{at}" + (f"/tile={kw['tile']}" if at else ""),
    ),
    (
        kmeans_ladder, lambda _: WORKERS, lambda r, _: _fields(r, _KMEANS_FIELDS),
        lambda rung, tag, at, _: None if rung in kmeans_ladder.SCHEDULE_DEPENDENT
        else f"kmeans/{rung}/{tag}{at}",
    ),
    (
        knn_ladder, lambda _: WORKERS, lambda predictions, _: {"predictions": _sha(predictions)},
        lambda rung, tag, at, _: f"knn/{rung}{at}/{tag}",
    ),
    (
        traffic_ladder, lambda _: (2, 3), _traffic,
        lambda rung, tag, at, _: f"traffic/fig3/{'mpi-final' if rung == 'mpi' else rung}"
        f"/{tag}{at}",
    ),
    (
        heat_ladder, lambda problem: (1, 2, 3, 4) if problem[0].ndim == 2 else WORKERS, _heat,
        lambda rung, tag, at, _: f"heat/{rung}/{tag}{at}",
    ),
    (hpo_ladder, lambda _: (2, 3), _hpo, lambda rung, tag, at, _: f"hpo/{rung}/{tag}{at}"),
)


def _ladder(ladder: Any, workers: Callable, digest: Callable, key: Callable) -> Entries:
    """Every rung of every case of ``ladder`` at each of its worker counts;
    a serial rung's key has no worker count, so it is computed once."""
    seen: set[str] = set()
    for tag, problem, keywords in ladder.cases():
        for count in workers(problem):
            for rung, run in ladder.rungs(problem, workers=count, **keywords).items():
                at = "" if rung in ladder.SERIAL else f"/workers={count}"
                name = key(rung, tag, at, keywords)
                if name is not None and name not in seen:
                    seen.add(name)
                    yield name, lambda run=run, problem=problem: digest(run(), problem)


def _knn_trees() -> Entries:
    """Each tree's neighbours of every query of a kNN case, and the nodes visited."""
    for tag, problem, _ in knn_ladder.cases():
        _, _, queries, k = problem
        for name, build in knn_ladder.trees(problem).items():

            def query(build=build, queries=queries, k=k) -> dict[str, Any]:
                tree, nearest, visited = build(), [], 0
                for q in queries:
                    nearest.append(tree.query(q, k))
                    visited += tree.last_nodes_visited
                return {"neighbors": _sha(nearest), "nodes_visited": visited}

            yield f"knn/{name}-query/{tag}", query


def _tournaments() -> Entries:
    """The elimination tournament on each HPO case: per-round scores,
    survivors and eliminated configs, the winner and its final weights,
    serial and on MPI at 2 and 3 ranks."""
    for seed, n_train, n_val in hpo_ladder.CASES:
        grid, data, _, _ = hpo_ladder.problem(seed, n_train, n_val)
        tag = f"seed={seed}/train={n_train}/val={n_val}/configs={len(grid)}/budget=12"
        yield f"hpo/successive_halving/{tag}", lambda grid=grid, data=data: _tournament(
            successive_halving(grid, *data, total_epoch_budget=12)
        )
        for ranks in (2, 3):
            yield (
                f"hpo/run_elimination_mpi/{tag}/workers={ranks}",
                lambda grid=grid, data=data, ranks=ranks: _tournament(
                    run_elimination_mpi(ranks, grid, *data, total_epoch_budget=12)
                ),
            )


def _pipeline() -> Entries:
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


def _serve() -> Entries:
    for workload in ("wordcount", "kmeans", "nyc"):
        for seed in (0, 3):
            job = TrafficJob("golden", workload, 0, seed, 0.0, f"{workload}-{seed}")
            yield (
                f"serve/solo/{workload}/seed={seed}",
                lambda job=job: {"result_digest": result_digest(run_solo(job))},
            )


def entries() -> Entries:
    """Every golden entry as ``(key, compute)``."""
    for ladder in LADDERS:
        yield from _ladder(*ladder)
    yield from _knn_trees()
    yield from _tournaments()
    yield from _pipeline()
    yield from _serve()


def compute() -> dict[str, dict[str, Any]]:
    """Recompute every entry on this build."""
    return {key: fn() for key, fn in entries()}


def load(path: Path = GOLDEN) -> dict[str, Any]:
    return json.loads(path.read_text())


def diff(recorded: dict[str, Any], current: dict[str, dict[str, Any]]) -> list[str]:
    """One line per entry that moved, naming its first differing field,
    plus one per field or entry that is computed but not recorded."""
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
        problems.extend(
            f"{key}: field {name!r} computed but not recorded"
            for name in current[key]
            if name not in fields
        )
    problems.extend(f"{key}: computed but not recorded" for key in current if key not in recorded)
    return problems


def write(path: Path = GOLDEN) -> None:
    """Regenerate the file; recorded entries keep their place, new ones follow."""
    current = compute()
    if path.exists():
        current = {key: current[key] for key in load(path)["entries"] if key in current} | current
    payload = {"numpy": np.__version__, "entries": current}
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
