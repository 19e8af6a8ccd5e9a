"""The traffic model ladder, declared once.

:func:`rungs` gives every simulation of paper §5 as a labelled runner,
the ``serial`` reference first; :func:`mismatches` is their contract:
the reference's space-time diagram and final cars, bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.traffic.analysis import space_time_diagram
from repro.traffic.model import TrafficParams, TrafficState
from repro.traffic.mpi_traffic import simulate_mpi
from repro.traffic.parallel import simulate_parallel
from repro.traffic.serial import simulate_serial, simulate_serial_grid

__all__ = ["rungs", "mismatches", "problem", "cases", "SERIAL"]

#: Rungs that take no worker count.
SERIAL = ("serial", "serial-grid")
#: (seed, steps) of the golden cases, on the Fig. 3 road.
CASES = ((13, 40), (2, 25))


def problem(seed: int, steps: int, **params: Any) -> tuple[TrafficParams, int]:
    """``(params, steps)``: the Fig. 3 road unless ``params`` say otherwise."""
    return TrafficParams(seed=seed, **params), steps


def cases() -> Iterator[tuple[str, tuple[TrafficParams, int], dict[str, Any]]]:
    """The golden problems, each with its digest-key tag and no rung keywords."""
    for seed, steps in CASES:
        yield f"seed={seed}/steps={steps}", problem(seed, steps), {}


def rungs(problem: tuple[TrafficParams, int], *, workers: int) -> dict[str, Callable[[], tuple]]:
    """Every model, labelled, as a runner returning ``(space_time, cars)``.

    ``cars`` stacks the final positions and velocities. The grid rung
    records no cars and the MPI rung no diagram: those parts are
    ``None``. ``workers`` is the thread and rank count.
    """
    params, steps = problem

    def agents(final: TrafficState, trajectory: list[TrafficState] | None = None) -> tuple:
        diagram = None if trajectory is None else space_time_diagram(trajectory)
        return diagram, np.stack([final.positions, final.velocities])

    return {
        "serial": lambda: agents(*simulate_serial(params, steps, record=True)),
        "serial-grid": lambda: (
            np.stack(simulate_serial_grid(params, steps, record=True)[1]), None
        ),
        "parallel": lambda: agents(*simulate_parallel(params, steps, workers, record=True)),
        "mpi": lambda: agents(simulate_mpi(params, steps, workers)),
    }


def mismatches(run: tuple, reference: tuple) -> list[str]:
    """Names of the parts ``run`` records that differ from ``reference``."""
    return [
        name for name, mine, theirs in zip(("space_time", "cars"), run, reference)
        if mine is not None and not np.array_equal(mine, theirs)
    ]
