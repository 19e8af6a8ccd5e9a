"""The HPO model ladder, declared once.

:func:`rungs` gives every trial farm of paper §7 as a labelled runner
returning the top-M deep ensemble and every outcome, best first, the
``serial`` reference first; :func:`mismatches` is their contract: the
reference's ranking, accuracies and ensemble weights, bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.core.executor import BACKENDS
from repro.hpo.digits import make_ambiguous_digit, make_digit_dataset
from repro.hpo.distributed import run_distributed_hpo, run_distributed_hpo_ft
from repro.hpo.search import (
    HPOutcome, ensemble_of_top, hyperparameter_grid, run_hpo_executor, run_hpo_serial,
)

__all__ = ["rungs", "mismatches", "problem", "cases", "SERIAL"]

#: Rungs that take no worker count.
SERIAL = ("serial",)
#: (seed, train, validation) digit counts of the golden cases.
CASES = ((0, 120, 40), (5, 100, 30))


def problem(seed: int, n_train: int, n_val: int) -> tuple:
    """``(grid, data, top_m, probe)``: three small networks on synthetic digits.

    ``data`` is ``(train_x, train_y, val_x, val_y)``; the ensemble holds
    the best two and is asked about ``probe``, ten validation digits and
    one ambiguous 4/9.
    """
    data = (*make_digit_dataset(n_train, seed=seed), *make_digit_dataset(n_val, seed=seed + 100))
    grid = hyperparameter_grid([(8,), (12,), (8, 6)], [0.1], [3], seeds=[seed], batch_size=16)
    return grid, data, 2, np.vstack([data[2][:10], make_ambiguous_digit(4, 9, seed=seed)])


def cases() -> Iterator[tuple[str, tuple, dict[str, Any]]]:
    """The golden problems, each with its digest-key tag and no rung keywords."""
    for seed, n_train, n_val in CASES:
        grid, data, top_m, probe = problem(seed, n_train, n_val)
        tag = f"seed={seed}/train={n_train}/val={n_val}/configs={len(grid)}/top={top_m}"
        yield tag, (grid, data, top_m, probe), {}


def rungs(problem: tuple, *, workers: int) -> dict[str, Callable[[], tuple]]:
    """Every farm, labelled; ``workers`` is the pool size and the MPI rank count."""
    grid, data, top_m, _ = problem

    def ranked(outcomes: list[HPOutcome]) -> tuple:
        return ensemble_of_top(outcomes, top_m), outcomes

    ladder = {"serial": lambda: ranked(run_hpo_serial(grid, *data))}
    for backend in BACKENDS:
        ladder[f"executor-{backend}"] = lambda b=backend: ranked(
            run_hpo_executor(grid, *data, backend=b, num_workers=workers)
        )
    ladder["mpi"] = lambda: run_distributed_hpo(workers, grid, *data, top_m=top_m)
    ladder["mpi-ft"] = lambda: run_distributed_hpo_ft(workers, grid, *data, top_m=top_m)[:2]
    return ladder


def mismatches(result: tuple, reference: tuple) -> list[str]:
    """Names of the parts on which ``result`` differs from ``reference``."""
    (ensemble, outcomes), (ref_ensemble, ref_outcomes) = result, reference
    weights = [
        [p for model in e.models for layer in model.layers for p in (layer.W, layer.b)]
        for e in (ensemble, ref_ensemble)
    ]
    same = {
        "ranking": [(o.params, o.val_accuracy) for o in outcomes]
        == [(o.params, o.val_accuracy) for o in ref_outcomes],
        "ensemble": len(weights[0]) == len(weights[1]) and all(map(np.array_equal, *weights)),
    }
    return [name for name, ok in same.items() if not ok]
