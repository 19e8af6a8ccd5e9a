"""Hyper-parameter search whose by-products form the ensemble.

"We generate these intermediate models while performing Hyper-parameter
Optimization (HPO) so uncertainty evaluation is essentially free (in
execution time). We use the best-performing models to identify both the
uncertainty and optimal hyperparameters" (paper §7).

:func:`hyperparameter_grid` enumerates configurations; :func:`build`
and :func:`fit` are the one network and the one SGD fit of a
configuration; :func:`train_one` trains and scores one of them (this is
the unit of distributed work); :func:`run_hpo_serial` runs the whole
search and returns the outcomes :func:`ranked` best-first, from which
the top-M ensemble is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.hpo.ensemble import DeepEnsemble
from repro.hpo.nn.network import MLP
from repro.hpo.nn.optimizers import SGD
from repro.trace.tracer import get_tracer

__all__ = [
    "HyperParams",
    "HPOutcome",
    "hyperparameter_grid",
    "train_one",
    "run_hpo_serial",
    "run_hpo_executor",
    "ensemble_of_top",
]


@dataclass(frozen=True)
class HyperParams:
    """One configuration of the search space."""

    hidden_sizes: tuple[int, ...] = (32,)
    learning_rate: float = 0.1
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def describe(self) -> str:
        """Compact human-readable tag."""
        hidden = "x".join(str(h) for h in self.hidden_sizes)
        return f"h{hidden}-lr{self.learning_rate}-e{self.epochs}-s{self.seed}"


@dataclass
class HPOutcome:
    """A trained configuration with its validation score."""

    params: HyperParams
    model: MLP
    val_accuracy: float
    train_accuracy: float


def hyperparameter_grid(
    hidden_options: list[tuple[int, ...]] = [(16,), (32,), (32, 16)],
    lr_options: list[float] = [0.05, 0.1],
    epochs_options: list[int] = [8],
    *,
    seeds: list[int] = [0],
    batch_size: int = 32,
    momentum: float = 0.9,
) -> list[HyperParams]:
    """The Cartesian grid of configurations (the independent tasks)."""
    grid = [
        HyperParams(
            hidden_sizes=h,
            learning_rate=lr,
            momentum=momentum,
            epochs=e,
            batch_size=batch_size,
            seed=s,
        )
        for h, lr, e, s in product(hidden_options, lr_options, epochs_options, seeds)
    ]
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    return grid


def build(
    params: HyperParams, train_x: np.ndarray, train_y: np.ndarray, val_y: np.ndarray
) -> MLP:
    """The untrained network of ``params`` for this data: one input per
    feature, one output per class seen in training or validation, and
    weights seeded by the configuration alone."""
    num_classes = int(max(train_y.max(), val_y.max())) + 1
    return MLP(
        (train_x.shape[1], *params.hidden_sizes, num_classes),
        activation="relu",
        seed=params.seed + hash(params.hidden_sizes) % 1000,
    )


def fit(
    model: MLP, params: HyperParams, train_x: np.ndarray, train_y: np.ndarray,
    epochs: int, shuffle_seed: int,
) -> MLP:
    """Train ``model`` for ``epochs`` more epochs with ``params``' SGD."""
    return model.fit(
        train_x,
        train_y,
        epochs=epochs,
        batch_size=params.batch_size,
        optimizer=SGD(lr=params.learning_rate, momentum=params.momentum),
        shuffle_seed=shuffle_seed,
    )


def best_first(scores: dict[int, float]) -> list[int]:
    """The indices of ``scores`` by descending score, ties toward the
    lower index: the one total, reproducible ranking of every search."""
    return sorted(scores, key=lambda i: (-scores[i], i))


def ranked(by_task: dict[int, HPOutcome]) -> list[HPOutcome]:
    """Outcomes keyed by grid index, best first."""
    return [by_task[t] for t in best_first({t: o.val_accuracy for t, o in by_task.items()})]


def train_one(
    params: HyperParams,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
) -> HPOutcome:
    """Train and score one configuration — the distributable task unit.

    Fully deterministic in ``params``: the same configuration yields the
    same model no matter where (which rank/node) it runs.
    """
    tracer = get_tracer()
    with tracer.span("hpo.trial", category="hpo", config=params.describe()) as sp:
        model = build(params, train_x, train_y, val_y)
        fit(model, params, train_x, train_y, params.epochs, params.seed)
        outcome = HPOutcome(
            params=params,
            model=model,
            val_accuracy=model.accuracy(val_x, val_y),
            train_accuracy=model.accuracy(train_x, train_y),
        )
    if tracer.enabled:
        tracer.metrics.histogram("hpo.trial_seconds").observe(sp.duration)
        tracer.metrics.counter("hpo.trials").inc()
    return outcome


def run_hpo_serial(
    grid: list[HyperParams],
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
) -> list[HPOutcome]:
    """Train every configuration in order; outcomes sorted best-first.

    Ties break toward the earlier grid entry, so the ranking is total
    and reproducible.
    """
    return ranked({i: train_one(p, train_x, train_y, val_x, val_y) for i, p in enumerate(grid)})


def _train_task(refs: tuple, _index: int, params: HyperParams) -> HPOutcome:
    """One pooled trial: resolve the published datasets, train, score.

    Module-level (bound with :func:`functools.partial`) so the payload
    pickles and the process backend keeps its persistent pool — only
    the dataset *descriptors* and the parameter grid travel with the
    job, not the arrays.
    """
    return train_one(params, *(np.array(r.array()) for r in refs))


def run_hpo_executor(
    grid: list[HyperParams],
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    *,
    backend: "str | object" = "thread",
    num_workers: int = 4,
) -> list[HPOutcome]:
    """The trial farm over an executor backend: :func:`run_hpo_serial`'s
    exact results, trained on local serial/thread/process workers.

    Each trial is already deterministic in its ``params`` (it trains the
    same model wherever it runs), and ranking keys on ``(-accuracy,
    grid_index)``, so the returned ordering is bit-identical across
    backends. The process backend gives the single-machine analogue of
    the assignment's MPI task farm — real CPU parallelism for the
    GIL-bound training loops, with the datasets published once through
    shared memory instead of pickled per trial. ``backend`` also
    accepts a live :class:`~repro.core.executor.Executor` (then the
    caller's to close).
    """
    import functools

    from repro.core.executor import Executor, get_executor

    owns_executor = not isinstance(backend, Executor)
    executor = get_executor(backend, num_workers)
    refs = []
    try:
        refs = tuple(
            executor.publish(np.asarray(a)) for a in (train_x, train_y, val_x, val_y)
        )
        outcomes = executor.map(functools.partial(_train_task, refs), list(grid))
    finally:
        for ref in refs:
            executor.unpublish(ref)
        if owns_executor:
            executor.close()
    return ranked(dict(enumerate(outcomes)))


def ensemble_of_top(outcomes: list[HPOutcome], m: int) -> DeepEnsemble:
    """The deep ensemble of the ``m`` best-scoring models."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not outcomes:
        raise ValueError("no outcomes to build an ensemble from")
    return DeepEnsemble([o.model for o in outcomes[:m]])
