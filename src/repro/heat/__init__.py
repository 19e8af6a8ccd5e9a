"""1-D heat equation solvers in Chapel style — Peachy assignment §6.

The PDE ∂u/∂t = α ∂²u/∂x², discretized as

    u[n+1][x] = u[n][x] + α (u[n][x−1] − 2 u[n][x] + u[n][x+1])

with Dirichlet boundaries, solved three ways:

- :mod:`repro.heat.serial` — the single-locale numpy reference
  (``Example1.chpl`` before distribution);
- :mod:`repro.heat.forall_solver` — part 1: a ``forall`` over a
  ``Block``-distributed domain; tasks are created per step and
  cross-locale stencil reads happen implicitly (counted);
- :mod:`repro.heat.coforall_solver` — part 2: one persistent task per
  locale (``coforall … on loc``), task-local arrays, explicit halo-cell
  exchange, and barrier synchronization — less overhead, explicit
  communication;
- :mod:`repro.heat.executor_solver` — the shared-memory pool model:
  grids published into zero-copy segments, one warm ``Executor.map``
  per step over static interior blocks (the counterpoint to the
  Chapel-style solvers' visible communication);
- :mod:`repro.heat.analytic` — exact discrete eigenmode solutions and
  steady states for verification;
- :mod:`repro.heat.ladder` — every solver (and the 2-D MPI one) as one
  ladder with one bit-for-bit contract.

All three produce bitwise-identical results (same elementwise float
operations); what differs — and what the benchmarks measure — is task
churn and communication granularity.
"""

from repro.heat.analytic import (
    discrete_sine_solution,
    sine_initial_condition,
    steady_state,
)
from repro.heat.coforall_solver import solve_coforall
from repro.heat.convergence import (
    continuous_sine_solution,
    convergence_study,
    observed_order,
)
from repro.heat.executor_solver import solve_executor
from repro.heat.forall_solver import solve_forall
from repro.heat.mpi2d import run_mpi_2d, solve_serial_2d
from repro.heat.serial import HeatStats, solve_serial

__all__ = [
    "solve_serial",
    "solve_forall",
    "solve_coforall",
    "solve_executor",
    "HeatStats",
    "sine_initial_condition",
    "discrete_sine_solution",
    "steady_state",
    "continuous_sine_solution",
    "convergence_study",
    "observed_order",
    "solve_serial_2d",
    "run_mpi_2d",
]
