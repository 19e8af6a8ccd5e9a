"""Nagel–Schreckenberg traffic simulation — Peachy assignment §5.

A stochastic 1-D cellular automaton of single-lane circular traffic
(Nagel & Schreckenberg 1992). Each step, every car: (1) accelerates
toward ``v_max``; (2) brakes to avoid the car ahead; (3) with
probability ``p`` slows randomly — the randomness without which
"realistic phenomena such as traffic jams" would not occur; (4) moves.

The assignment's core lesson is *reproducible parallel randomness*: the
parallel code must produce **bitwise-identical** output to the serial
code for any thread count, which requires all threads to consume one
shared random sequence via fast-forwarding (:mod:`repro.rng`).

- :mod:`repro.traffic.model` — parameters and simulation state;
- :mod:`repro.traffic.serial` — the serial reference, in both the
  agent-based representation (positions/velocities vectors — the one
  that "significantly simplifies the parallelization of PRNG") and the
  grid representation (a value per road cell);
- :mod:`repro.traffic.parallel` — the shared-memory parallel version
  with a persistent thread team, per-step barriers, and per-thread
  fast-forwarded views of the shared sequence;
- :mod:`repro.traffic.analysis` — space-time diagrams (Figure 3), jam
  detection, and the fundamental (flow–density) diagram;
- :mod:`repro.traffic.ladder` — every simulation above (and the MPI
  one) as one ladder with one bit-for-bit contract.
"""

from repro.traffic.analysis import (
    average_velocity,
    count_stopped,
    detect_jams,
    flow_rate,
    fundamental_diagram,
    space_time_diagram,
)
from repro.traffic.io import read_trajectory, write_trajectory
from repro.traffic.model import TrafficParams, TrafficState
from repro.traffic.mpi_traffic import simulate_mpi
from repro.traffic.open_road import OpenRoadParams, OpenRoadState, simulate_open_road
from repro.traffic.parallel import simulate_parallel
from repro.traffic.serial import simulate_serial, simulate_serial_grid, step_cars
from repro.traffic.study import density_sweep_cases, run_parameter_study

__all__ = [
    "TrafficParams",
    "TrafficState",
    "step_cars",
    "simulate_serial",
    "simulate_serial_grid",
    "simulate_parallel",
    "simulate_mpi",
    "space_time_diagram",
    "average_velocity",
    "count_stopped",
    "detect_jams",
    "flow_rate",
    "fundamental_diagram",
    "write_trajectory",
    "read_trajectory",
    "run_parameter_study",
    "density_sweep_cases",
    "OpenRoadParams",
    "OpenRoadState",
    "simulate_open_road",
]
