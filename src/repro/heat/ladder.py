"""The heat model ladder, declared once.

:func:`rungs` gives every solver of paper §6 as a labelled runner
returning ``(u, stats)``, the serial reference first; :func:`mismatches`
is their contract: the reference's final field, bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.chapel import locales, set_num_locales
from repro.core.executor import BACKENDS
from repro.heat.coforall_solver import solve_coforall
from repro.heat.executor_solver import solve_executor
from repro.heat.forall_solver import solve_forall
from repro.heat.mpi2d import run_mpi_2d, solve_serial_2d
from repro.heat.serial import solve_serial

__all__ = ["rungs", "mismatches", "problem", "cases", "SERIAL"]

#: Rungs that take no worker count.
SERIAL = ("serial", "serial-2d")
#: (seed, shape, steps, alpha) of the golden cases: two 1-D fields, one 2-D.
CASES = ((0, (37,), 25, 0.2), (3, (64,), 40, 0.45), (1, (9, 11), 12, 0.2))


def problem(seed: int, shape: tuple[int, ...], steps: int, alpha: float) -> tuple:
    """``(u0, alpha, steps)`` for a uniform random field of ``shape``."""
    return np.random.default_rng(seed).random(shape), alpha, steps


def cases() -> Iterator[tuple[str, tuple, dict[str, Any]]]:
    """The golden problems, each with its digest-key tag and no rung keywords."""
    for seed, shape, steps, alpha in CASES:
        size = f"{shape[0]}x{shape[1]}" if len(shape) == 2 else f"n={shape[0]}"
        tag = f"seed={seed}/{size}/steps={steps}/alpha={alpha}"
        yield tag, problem(seed, shape, steps, alpha), {}


def _on_locales(solve: Callable[..., tuple], *problem: Any, count: int, **options: Any) -> tuple:
    """``solve`` on ``count`` Chapel locales; the previous count is restored after."""
    previous = len(locales())
    try:
        return solve(*problem, set_num_locales(count), **options)
    finally:
        set_num_locales(previous)


def rungs(problem: tuple, *, workers: int) -> dict[str, Callable[[], tuple]]:
    """Every solver for the field's dimension, labelled; 2-D rungs keep no stats.

    ``workers`` is the locale count of ``forall`` (bulk and per index)
    and ``coforall``, the executor pool size and the ``mpi2d`` rank count.
    """
    u0, alpha, steps = problem
    if np.ndim(u0) == 2:
        return {
            "serial-2d": lambda: (solve_serial_2d(u0, alpha, steps), None),
            "mpi2d": lambda: (run_mpi_2d(workers, u0, alpha, steps), None),
        }
    ladder = {"serial": lambda: solve_serial(u0, alpha, steps)}
    for each in (False, True):
        ladder[f"forall-elementwise={each}"] = lambda e=each: _on_locales(
            solve_forall, *problem, count=workers, elementwise=e
        )
    ladder["coforall"] = lambda: _on_locales(solve_coforall, *problem, count=workers)
    for backend in BACKENDS:
        ladder[f"executor-{backend}"] = lambda b=backend: solve_executor(
            u0, alpha, steps, num_workers=workers, backend=b
        )
    return ladder


def mismatches(solved: tuple, reference: tuple) -> list[str]:
    """``["u"]`` unless the two final fields are equal."""
    return [] if np.array_equal(solved[0], reference[0]) else ["u"]
