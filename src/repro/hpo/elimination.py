"""Periodic evaluation + elimination — the §7 "interesting variation".

"Interesting variations of this assignment include adding the ability
to check the accuracy of the model at regular intervals or killing some
of the lowest performing nodes and reassign their resources" (paper §7).

That is successive halving: train all configurations a few epochs,
evaluate, kill the worst performers, and hand their training budget to
the survivors — repeated until one round remains. Both a serial and an
SPMD driver are provided, and both run one tournament loop
(:func:`_tournament`) that differs only in its round's training step;
in the distributed one, surviving models are *re-distributed* across
all ranks each round, so ranks whose models were eliminated immediately
pick up survivors — the resource reassignment the variation asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.hpo.ensemble import DeepEnsemble
from repro.hpo.nn.network import MLP
from repro.hpo.search import HyperParams, best_first, build, fit
from repro.mpi import Communicator, run_spmd
from repro.util.validation import require_positive_int

__all__ = ["RoundRecord", "EliminationReport", "successive_halving", "run_elimination_mpi"]


@dataclass
class RoundRecord:
    """What happened in one train-evaluate-eliminate round."""

    round_index: int
    epochs_each: int
    scores: dict[int, float]          # config index -> val accuracy
    survivors: list[int]              # config indices kept
    eliminated: list[int]             # config indices killed this round


@dataclass
class EliminationReport:
    """Full tournament outcome."""

    rounds: list[RoundRecord] = field(default_factory=list)
    final_models: dict[int, MLP] = field(default_factory=dict)
    final_scores: dict[int, float] = field(default_factory=dict)

    @property
    def winner(self) -> int:
        """Config index with the best final validation accuracy."""
        if not self.final_scores:
            raise ValueError("no finished configurations")
        return best_first(self.final_scores)[0]

    def ensemble(self, m: int | None = None) -> DeepEnsemble:
        """Ensemble of the top-``m`` finishers (default: all)."""
        chosen = best_first(self.final_scores)[: m or None]
        if not chosen:
            raise ValueError("no finished configurations")
        return DeepEnsemble([self.final_models[c] for c in chosen])


def _plan(num_configs: int, total_epoch_budget: int, keep_fraction: float) -> list[tuple[int, int]]:
    """(alive_count, epochs_each) per round under a fixed total budget.

    Each round spends roughly the same share of the budget; because the
    population shrinks by ``keep_fraction``, survivors get progressively
    more epochs — the reassigned resources.
    """
    rounds: list[tuple[int, int]] = []
    alive = num_configs
    populations = []
    while alive > 1:
        populations.append(alive)
        alive = max(1, int(np.ceil(alive * keep_fraction)))
        if populations and alive == populations[-1]:
            alive -= 1
    populations.append(max(alive, 1))
    per_round_budget = max(total_epoch_budget // len(populations), 1)
    for pop in populations:
        rounds.append((pop, max(per_round_budget // pop, 1)))
    return rounds


def _tournament(
    grid: list[HyperParams],
    data: tuple,
    total_epoch_budget: int,
    keep_fraction: float,
    step: Callable[[list[int], dict[int, MLP], Callable[[int], float]], dict[int, float]],
) -> EliminationReport:
    """The train-evaluate-eliminate loop both drivers run: each round,
    ``step(alive, models, train)`` trains the alive configs, the best
    ``keep_fraction`` survive (all of them in the last round), and the
    rest are dropped. ``alive`` is ascending, and ``train(c)`` fits
    config ``c``'s model for the round and returns its validation
    accuracy; the step leaves every alive model trained and returns
    every alive config's score."""
    train_x, train_y, val_x, val_y = data
    models = {c: build(params, train_x, train_y, val_y) for c, params in enumerate(grid)}
    report = EliminationReport()
    schedule = _plan(len(grid), total_epoch_budget, keep_fraction)
    for round_index, (_pop, epochs_each) in enumerate(schedule):

        def train(c: int) -> float:
            shuffle_seed = grid[c].seed * 1000 + round_index
            fit(models[c], grid[c], train_x, train_y, epochs_each, shuffle_seed)
            return models[c].accuracy(val_x, val_y)

        scores = step(list(models), models, train)
        ranking = best_first(scores)
        keep = len(ranking)
        if round_index < len(schedule) - 1:
            keep = max(1, int(np.ceil(keep * keep_fraction)))
        record = RoundRecord(
            round_index, epochs_each, scores, sorted(ranking[:keep]), sorted(ranking[keep:])
        )
        report.rounds.append(record)
        for c in record.eliminated:
            del models[c]
    report.final_models = models
    report.final_scores = {c: scores[c] for c in models}
    return report


def _validate(grid: list[HyperParams], total_epoch_budget: int, keep_fraction: float) -> None:
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    require_positive_int("total_epoch_budget", total_epoch_budget)
    if not 0.0 < keep_fraction < 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1), got {keep_fraction}")


def successive_halving(
    grid: list[HyperParams],
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    *,
    total_epoch_budget: int = 48,
    keep_fraction: float = 0.5,
) -> EliminationReport:
    """Serial train-evaluate-eliminate tournament over the grid."""
    _validate(grid, total_epoch_budget, keep_fraction)
    return _tournament(
        grid, (train_x, train_y, val_x, val_y), total_epoch_budget, keep_fraction,
        lambda alive, _models, train: {c: train(c) for c in alive},
    )


def run_elimination_mpi(
    num_ranks: int,
    grid: list[HyperParams],
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    *,
    total_epoch_budget: int = 48,
    keep_fraction: float = 0.5,
) -> EliminationReport:
    """Distributed tournament with per-round resource reassignment.

    Each round: ranks train their share of the *currently alive*
    configurations (round-robin over the alive list — so ranks whose
    configurations died immediately receive survivors), scores are
    allgathered, every rank deterministically computes the same
    elimination, and surviving model weights are redistributed for the
    next round. Matches :func:`successive_halving` exactly (asserted in
    tests) because training is deterministic per (config, round).
    """

    def program(comm: Communicator) -> EliminationReport | None:
        # Every rank keeps the weight state of every alive config (tiny
        # models); only *training work* is divided. This mirrors how the
        # classroom solution shares models via gather/bcast.
        def step(alive: list[int], models: dict[int, MLP], train: Callable) -> dict[int, float]:
            mine = [(c, train(c)) for c in alive[comm.rank :: comm.size]]
            scores: dict[int, float] = {}
            for rank_list in comm.allgather(
                [(c, models[c].get_weights(), acc) for c, acc in mine]
            ):
                for c, weights, acc in rank_list:
                    models[c].set_weights(weights)
                    scores[c] = acc
            return scores

        report = _tournament(
            grid, (train_x, train_y, val_x, val_y), total_epoch_budget, keep_fraction, step
        )
        return report if comm.rank == 0 else None

    _validate(grid, total_epoch_budget, keep_fraction)
    return run_spmd(num_ranks, program)[0]
