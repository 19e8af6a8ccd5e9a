"""Hyper-parameter optimization with deep-ensemble uncertainty — §7.

The assignment: train an ensemble of neural networks (the intermediate
models of a hyper-parameter search) on MNIST digits, distribute the
independent training tasks over MPI nodes — "when the number of nodes
is not evenly divisible by the number of tasks" — and aggregate the
ensemble's predictions so the classifier reports *uncertainty* along
with its answer (Figure 4).

Offline substitutions (DESIGN.md): a pure-numpy MLP replaces the
framework NN, and a synthetic digit generator replaces MNIST, with a
controllable "ambiguity" blend that provably raises predictive
uncertainty.

- :mod:`repro.hpo.nn` — dense layers, activations, softmax
  cross-entropy, SGD/Adam, the :class:`~repro.hpo.nn.MLP`;
- :mod:`repro.hpo.digits` — the synthetic digit dataset + ambiguous
  blends;
- :mod:`repro.hpo.ensemble` — prediction averaging, per-class standard
  deviation, predictive entropy;
- :mod:`repro.hpo.search` — the hyper-parameter grid and scoring;
- :mod:`repro.hpo.scheduler` — task→node distribution and makespan
  analysis;
- :mod:`repro.hpo.distributed` — the MPI4Py-style SPMD driver that
  trains the ensemble in parallel and aggregates on the root;
- :mod:`repro.hpo.ladder` — the serial, executor and MPI trial farms as
  one ladder with one same-ranking contract.
"""

from repro.hpo.digits import make_ambiguous_digit, make_digit_dataset, render_digit
from repro.hpo.distributed import (
    run_distributed_hpo,
    run_distributed_hpo_ft,
    train_ensemble_mpi,
    train_ensemble_mpi_ft,
)
from repro.hpo.elimination import (
    EliminationReport,
    run_elimination_mpi,
    successive_halving,
)
from repro.hpo.ensemble import DeepEnsemble
from repro.hpo.monitoring import AccuracyMonitor, StopTraining, learning_curve
from repro.hpo.nn import MLP
from repro.hpo.scheduler import ScheduleReport, greedy_lpt_schedule, simulate_schedule
from repro.hpo.search import (
    HyperParams,
    HPOutcome,
    hyperparameter_grid,
    run_hpo_executor,
    run_hpo_serial,
)

__all__ = [
    "MLP",
    "make_digit_dataset",
    "make_ambiguous_digit",
    "render_digit",
    "DeepEnsemble",
    "HyperParams",
    "HPOutcome",
    "hyperparameter_grid",
    "run_hpo_serial",
    "run_hpo_executor",
    "ScheduleReport",
    "simulate_schedule",
    "greedy_lpt_schedule",
    "train_ensemble_mpi",
    "run_distributed_hpo",
    "train_ensemble_mpi_ft",
    "run_distributed_hpo_ft",
    "successive_halving",
    "run_elimination_mpi",
    "EliminationReport",
    "AccuracyMonitor",
    "StopTraining",
    "learning_curve",
]
