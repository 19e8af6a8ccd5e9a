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
- kNN predictions of every model: brute force (vectorized and heap),
  kd-tree, quadtree, ``knn_openmp``, ``knn_mpi``, ``knn_device`` and
  MapReduce (with and without the local combine);
- the Fig. 3 traffic space-time diagram, from the serial agent and
  grid simulations and the threaded one, and the MPI final state;
- the heat solvers: the 1-D serial, ``forall``, ``coforall`` and
  executor solvers (final field and communication counts) and the 2-D
  MPI solver at 1–4 ranks;
- HPO deep-ensemble predictions (ranking, class probabilities and
  their spread) of the serial, executor, MPI and fault-tolerant MPI
  trial farms;
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
from repro.chapel import locales, set_num_locales
from repro.heat import (
    run_mpi_2d, solve_coforall, solve_executor, solve_forall, solve_serial, solve_serial_2d,
)
from repro.hpo import (
    hyperparameter_grid, make_ambiguous_digit, make_digit_dataset, run_distributed_hpo,
    run_distributed_hpo_ft, run_hpo_executor, run_hpo_serial,
)
from repro.hpo.search import ensemble_of_top
from repro.align import ladder as align_ladder
from repro.kmeans import TerminationCriteria
from repro.kmeans import ladder as kmeans_ladder
from repro.kmeans.initialization import init_random_points
from repro.knn import (
    KDTree, QuadTree, knn_device, knn_openmp, knn_predict_heap, knn_predict_vectorized,
    make_blobs, run_knn_mapreduce, run_knn_mpi,
)
from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas, heat_map_matrix
from repro.serve.traffic import TrafficJob, run_solo
from repro.spark import SparkContext
from repro.trace.history import result_digest
from repro.traffic import (
    TrafficParams, simulate_mpi, simulate_parallel, simulate_serial, simulate_serial_grid,
    space_time_diagram,
)

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "digests.json"

#: Rungs whose output depends on the thread schedule (float sum order).
NONDETERMINISTIC = {"kmeans/openmp-critical", "kmeans/openmp-atomic"}

WORKERS = (1, 2, 3)
#: (seed, length) for ``generate_pair(..., indel_rate=0.3)``: indel-rich
#: pairs of unequal lengths, whose tracebacks meet diagonal/up ties.
ALIGN_PAIRS = ((3, 13), (8, 11))
KMEANS_CASES = ((0, (60, 2), 3), (5, (45, 3), 4))  # (seed, shape, k)
#: (seed, database size, query count, classes, k) on 2-D blobs, so the
#: quadtree runs too.
KNN_CASES = ((1, 90, 25, 3, 5), (6, 70, 18, 4, 4))
#: (seed, steps) on the Fig. 3 road: 200 cars, length 1000, p = 0.13.
TRAFFIC_CASES = ((13, 40), (2, 25))
#: (seed, points, steps, alpha) for the 1-D heat solvers on a random field.
HEAT_CASES = ((0, 37, 25, 0.2), (3, 64, 40, 0.45))
#: (seed, shape, steps, alpha) for the 2-D MPI heat solver.
HEAT_2D_CASES = ((1, (9, 11), 12, 0.2),)
#: (seed, train, validation) digit counts for the HPO trial farms.
HPO_CASES = ((0, 120, 40), (5, 100, 30))


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


def _knn() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    for seed, n, q, classes, k in KNN_CASES:
        points, labels = make_blobs(n + q, 2, classes, seed=seed, spread=1.5)
        db, db_labels, queries = points[:n], labels[:n], points[n:]
        tag = f"seed={seed}/n={n}/q={q}/k={k}"
        models: dict[str, Callable[[], np.ndarray]] = {
            "brute-vectorized": lambda: knn_predict_vectorized(db, db_labels, queries, k),
            "brute-heap": lambda: knn_predict_heap(db, db_labels, queries, k),
            "kdtree": lambda: KDTree.build(db, db_labels, leaf_size=4).predict(queries, k),
            "quadtree": lambda: QuadTree(db, db_labels, leaf_capacity=4).predict(queries, k),
            "device": lambda: knn_device(db, db_labels, queries, k, block_size=8),
        }
        for workers in WORKERS:
            models[f"openmp/workers={workers}"] = lambda w=workers: knn_openmp(
                db, db_labels, queries, k, num_threads=w, chunk=4
            )
            models[f"mpi/workers={workers}"] = lambda w=workers: run_knn_mpi(
                w, db, db_labels, queries, k
            )
            for combine in (True, False):
                models[f"mapreduce-combine={combine}/workers={workers}"] = (
                    lambda w=workers, c=combine: run_knn_mapreduce(
                        w, db, db_labels, queries, k, local_combine=c
                    )[0]
                )
        for model, predict in models.items():
            yield f"knn/{model}/{tag}", lambda predict=predict: {"predictions": _sha(predict())}


def _traffic() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    for seed, steps in TRAFFIC_CASES:
        params = TrafficParams(seed=seed)
        tag = f"seed={seed}/steps={steps}"

        def serial(params=params, steps=steps) -> dict[str, Any]:
            _, trajectory = simulate_serial(params, steps, record=True)
            return {"space_time": _sha(space_time_diagram(trajectory))}

        def grid(params=params, steps=steps) -> dict[str, Any]:
            _, trajectory = simulate_serial_grid(params, steps, record=True)
            return {"space_time": _sha(np.stack(trajectory))}

        yield f"traffic/fig3/serial/{tag}", serial
        yield f"traffic/fig3/serial-grid/{tag}", grid
        for workers in (2, 3):

            def threaded(params=params, steps=steps, workers=workers) -> dict[str, Any]:
                _, trajectory = simulate_parallel(params, steps, workers, record=True)
                return {"space_time": _sha(space_time_diagram(trajectory))}

            def mpi(params=params, steps=steps, workers=workers) -> dict[str, Any]:
                final = simulate_mpi(params, steps, workers)
                return {"positions": _sha(final.positions), "velocities": _sha(final.velocities)}

            yield f"traffic/fig3/parallel/{tag}/workers={workers}", threaded
            yield f"traffic/fig3/mpi-final/{tag}/workers={workers}", mpi


_HEAT_STATS = ("task_spawns", "remote_gets", "remote_puts", "barrier_waits")


def _heat() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    def fields(solved: tuple[np.ndarray, Any]) -> dict[str, Any]:
        u, stats = solved
        return {"u": _sha(u), **_fields(stats, _HEAT_STATS)}

    def on_locales(n: int, solve: Callable[[list[Any]], Any]) -> dict[str, Any]:
        previous = len(locales())
        try:
            return fields(solve(set_num_locales(n)))
        finally:
            set_num_locales(previous)

    for seed, n, steps, alpha in HEAT_CASES:
        u0 = np.random.default_rng(seed).random(n)
        tag = f"seed={seed}/n={n}/steps={steps}/alpha={alpha}"
        yield f"heat/serial/{tag}", lambda u0=u0, a=alpha, s=steps: fields(solve_serial(u0, a, s))
        for workers in WORKERS:
            for elementwise in (False, True):
                yield (
                    f"heat/forall-elementwise={elementwise}/{tag}/workers={workers}",
                    lambda u0=u0, a=alpha, s=steps, w=workers, e=elementwise: on_locales(
                        w, lambda locs: solve_forall(u0, a, s, locs, elementwise=e)
                    ),
                )
            yield (
                f"heat/coforall/{tag}/workers={workers}",
                lambda u0=u0, a=alpha, s=steps, w=workers: on_locales(
                    w, lambda locs: solve_coforall(u0, a, s, locs)
                ),
            )
            for backend in ("serial", "thread", "process"):
                yield (
                    f"heat/executor-{backend}/{tag}/workers={workers}",
                    lambda u0=u0, a=alpha, s=steps, w=workers, b=backend: fields(
                        solve_executor(u0, a, s, num_workers=w, backend=b)
                    ),
                )
    for seed, shape, steps, alpha in HEAT_2D_CASES:
        u0 = np.random.default_rng(seed).random(shape)
        tag = f"seed={seed}/{shape[0]}x{shape[1]}/steps={steps}/alpha={alpha}"
        yield (
            f"heat/serial-2d/{tag}",
            lambda u0=u0, a=alpha, s=steps: {"u": _sha(solve_serial_2d(u0, a, s))},
        )
        for ranks in (1, 2, 3, 4):
            yield (
                f"heat/mpi2d/{tag}/workers={ranks}",
                lambda u0=u0, a=alpha, s=steps, r=ranks: {"u": _sha(run_mpi_2d(r, u0, a, s))},
            )


def _hpo() -> Iterator[tuple[str, Callable[[], dict[str, Any]]]]:
    top_m = 2
    for seed, n_train, n_val in HPO_CASES:
        data = (
            *make_digit_dataset(n_train, seed=seed),
            *make_digit_dataset(n_val, seed=seed + 100),
        )
        probe = np.vstack([data[2][:10], make_ambiguous_digit(4, 9, seed=seed)])
        grid = hyperparameter_grid(
            [(8,), (12,), (8, 6)], [0.1], [3], seeds=[seed], batch_size=16
        )
        tag = f"seed={seed}/train={n_train}/val={n_val}/configs={len(grid)}/top={top_m}"

        def fields(ensemble: Any, outcomes: list[Any], probe=probe) -> dict[str, Any]:
            return {
                "ranking": _sha([o.params.describe() for o in outcomes]),
                "val_accuracy": _sha([o.val_accuracy for o in outcomes]),
                "predictions": _sha(ensemble.predict(probe)),
                "probabilities": _sha(ensemble.predict_proba(probe)),
                "std": _sha(ensemble.class_probability_std(probe)),
            }

        def serial(grid=grid, data=data, fields=fields) -> dict[str, Any]:
            outcomes = run_hpo_serial(grid, *data)
            return fields(ensemble_of_top(outcomes, top_m), outcomes)

        yield f"hpo/serial/{tag}", serial
        for workers in (2, 3):
            for backend in ("serial", "thread", "process"):

                def farm(grid=grid, data=data, fields=fields, w=workers, b=backend):
                    outcomes = run_hpo_executor(grid, *data, backend=b, num_workers=w)
                    return fields(ensemble_of_top(outcomes, top_m), outcomes)

                yield f"hpo/executor-{backend}/{tag}/workers={workers}", farm

            def mpi(grid=grid, data=data, fields=fields, r=workers) -> dict[str, Any]:
                return fields(*run_distributed_hpo(r, grid, *data, top_m=top_m))

            def mpi_ft(grid=grid, data=data, fields=fields, r=workers) -> dict[str, Any]:
                ensemble, outcomes, _report = run_distributed_hpo_ft(
                    r, grid, *data, top_m=top_m
                )
                return fields(ensemble, outcomes)

            yield f"hpo/mpi/{tag}/workers={workers}", mpi
            yield f"hpo/mpi-ft/{tag}/workers={workers}", mpi_ft


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
    yield from _knn()
    yield from _traffic()
    yield from _pipeline()
    yield from _serve()
    yield from _heat()
    yield from _hpo()


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
