"""The MPI4Py-style distributed ensemble trainer.

The students' deliverable (paper §7): "write the code to map the tasks
to the nodes using MPI4Py". The canonical solution, reproduced here on
:mod:`repro.mpi`:

1. every rank holds the shared training/validation data (broadcast);
2. rank ``r`` trains configurations ``r, r + size, r + 2·size, …`` —
   the round-robin loop that handles ``size ∤ num_tasks``;
3. outcomes are gathered to the root, re-ranked globally, and the
   top-M models form the :class:`~repro.hpo.ensemble.DeepEnsemble`.

Because :func:`repro.hpo.search.train_one` is deterministic per
configuration, the distributed search returns models bit-identical to
the serial search — verified by the tests.

The fault-tolerant variant (:func:`train_ensemble_mpi_ft`) generalizes
the round-robin ``N ∤ T`` idiom to an ``N`` that shrinks mid-run: the
root's gather detects ranks that died without delivering their outcomes
and reassigns the orphaned configurations round-robin over the
survivors, looping until every task is trained. Because each task is
deterministic wherever it runs, the result is *bit-identical* to the
fault-free serial search — rank deaths cost time, never accuracy.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.hpo.ensemble import DeepEnsemble
from repro.hpo.search import HPOutcome, HyperParams, ensemble_of_top, ranked, train_one
from repro.mpi import Communicator, FaultPlan, FaultReport, RankFailedError, run_spmd
from repro.util.validation import require_positive_int

__all__ = [
    "train_ensemble_mpi",
    "run_distributed_hpo",
    "train_ensemble_mpi_ft",
    "run_distributed_hpo_ft",
]

# App-level tags for the reassignment protocol (user tags must be >= 0).
_TAG_REASSIGN = 7001
_TAG_REASSIGN_RESULT = 7002


def _train_share(
    tasks: Iterable[int], grid: list[HyperParams], data: tuple
) -> list[tuple[int, HPOutcome]]:
    """Train the grid indices ``tasks`` here, each paired with its index."""
    return [(t, train_one(grid[t], *data)) for t in tasks]


def _by_task(gathered: list) -> dict[int, HPOutcome]:
    """The gathered shares (None for a rank that died) as one map from
    grid index to outcome."""
    return {t: outcome for share in gathered for t, outcome in share or []}


def _result(
    by_task: dict[int, HPOutcome], top_m: int | None
) -> tuple[DeepEnsemble, list[HPOutcome]]:
    """Globally re-rank the gathered outcomes; build the top-M ensemble."""
    outcomes = ranked(by_task)
    m = top_m if top_m is not None else max(1, len(outcomes) // 2)
    require_positive_int("top_m", m)
    return ensemble_of_top(outcomes, m), outcomes


def train_ensemble_mpi(
    comm: Communicator,
    grid: list[HyperParams],
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    *,
    top_m: int | None = None,
) -> tuple[DeepEnsemble, list[HPOutcome]] | None:
    """SPMD HPO: call from every rank; root returns (ensemble, outcomes).

    ``grid`` must be identical on all ranks (bcast it first if the root
    built it). Non-root ranks return None.
    """
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    data = (train_x, train_y, val_x, val_y)
    # Round-robin task map: the idiom for uneven task/node division.
    mine = _train_share(range(comm.rank, len(grid), comm.size), grid, data)
    gathered = comm.gather(mine, root=0)
    if comm.rank != 0:
        return None
    by_task = _by_task(gathered)
    if len(by_task) != len(grid):
        raise AssertionError("some tasks were never trained")
    return _result(by_task, top_m)


def train_ensemble_mpi_ft(
    comm: Communicator,
    grid: list[HyperParams],
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    *,
    top_m: int | None = None,
) -> tuple[DeepEnsemble, list[HPOutcome]] | None:
    """Fault-tolerant SPMD HPO: survivors absorb dead ranks' tasks.

    Run under ``run_spmd(..., on_failure="tolerate")``. Each rank trains
    its round-robin share, then the root collects with a tolerant gather:
    outcomes owned by ranks that died are *reassigned* round-robin over
    the survivors (the root included) in as many rounds as deaths demand.
    Rank 0 must survive — root death is the unrecoverable case, exactly
    as in ULFM practice.

    Returns (ensemble, outcomes) on the root, None on other ranks. The
    ensemble is bit-identical to the fault-free serial search's because
    :func:`~repro.hpo.search.train_one` is deterministic per
    configuration, wherever and whenever it runs.
    """
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    data = (train_x, train_y, val_x, val_y)
    mine = _train_share(range(comm.rank, len(grid), comm.size), grid, data)
    gathered, _missing = comm.gather_tolerant(mine, root=0)

    if comm.rank != 0:
        # Serve reassignment rounds until the root says done (None).
        while (extra := comm.recv(source=0, tag=_TAG_REASSIGN)) is not None:
            comm.send(_train_share(extra, grid, data), dest=0, tag=_TAG_REASSIGN_RESULT)
        return None

    by_task = _by_task(gathered)
    serving = [r for r in range(1, comm.size) if comm.is_alive(r)]
    while len(by_task) < len(grid):
        missing_tasks = [t for t in range(len(grid)) if t not in by_task]
        workers = [0] + [r for r in serving if comm.is_alive(r)]
        shares: dict[int, list[int]] = {r: [] for r in workers}
        for i, t in enumerate(missing_tasks):
            shares[workers[i % len(workers)]].append(t)
        for r, share in shares.items():
            if r != 0 and share:
                comm.send(share, dest=r, tag=_TAG_REASSIGN)
        by_task.update(_train_share(shares[0], grid, data))
        for r, share in shares.items():
            if r == 0 or not share:
                continue
            got = comm.recv_tolerant(source=r, tag=_TAG_REASSIGN_RESULT)
            if got is None:
                # Died mid-round; its share stays missing for the next round.
                serving.remove(r)
                continue
            by_task.update(got)
    for r in serving:
        if comm.is_alive(r):
            comm.send(None, dest=r, tag=_TAG_REASSIGN)
    return _result(by_task, top_m)


def run_distributed_hpo_ft(
    num_ranks: int,
    grid: list[HyperParams],
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    *,
    top_m: int | None = None,
    faults: FaultPlan | None = None,
    timeout: float = 60.0,
) -> tuple[DeepEnsemble, list[HPOutcome], FaultReport]:
    """Launcher: fault-tolerant HPO; returns root's result plus the FaultReport."""
    results, report = run_spmd(
        num_ranks,
        train_ensemble_mpi_ft,
        grid,
        train_x,
        train_y,
        val_x,
        val_y,
        top_m=top_m,
        faults=faults,
        on_failure="tolerate",
        return_report=True,
        timeout=timeout,
    )
    if results[0] is None:
        raise RankFailedError(dict(report.failures))
    ensemble, outcomes = results[0]
    return ensemble, outcomes, report


def run_distributed_hpo(
    num_ranks: int,
    grid: list[HyperParams],
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    *,
    top_m: int | None = None,
) -> tuple[DeepEnsemble, list[HPOutcome]]:
    """Launcher: distributed HPO on ``num_ranks`` ranks, root's result."""
    results = run_spmd(
        num_ranks,
        train_ensemble_mpi,
        grid,
        train_x,
        train_y,
        val_x,
        val_y,
        top_m=top_m,
    )
    return results[0]
