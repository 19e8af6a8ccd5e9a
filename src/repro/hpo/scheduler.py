"""Task-to-node scheduling — the PDC concept the assignment teaches.

"The PDC concept covered is how to distribute independent tasks to
different nodes in MPI when the number of nodes is not evenly divisible
by the number of tasks" (paper §7). The canonical answer is the
round-robin ``for t in range(rank, T, size)`` loop
(:func:`repro.util.distribute_tasks`); this module adds the analysis
tools to *see* why it is good — per-node load and makespan — and the
longest-processing-time (LPT) heuristic for the variation where task
costs differ (models with more epochs/parameters take longer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.partition import distribute_tasks
from repro.util.validation import require_positive_int

__all__ = ["ScheduleReport", "simulate_schedule", "round_robin_schedule", "greedy_lpt_schedule"]


@dataclass
class ScheduleReport:
    """Outcome of running an assignment of task costs on N nodes."""

    assignment: list[list[int]]
    node_times: list[float]

    @property
    def makespan(self) -> float:
        """Wall-clock: the busiest node's total."""
        return max(self.node_times) if self.node_times else 0.0

    @property
    def total_work(self) -> float:
        """Sum of all task costs."""
        return sum(self.node_times)

    @property
    def imbalance(self) -> float:
        """makespan / ideal — 1.0 means perfectly balanced."""
        if not self.node_times or self.total_work == 0:
            return 1.0
        ideal = self.total_work / len(self.node_times)
        return self.makespan / ideal


def simulate_schedule(task_costs: list[float], assignment: list[list[int]]) -> ScheduleReport:
    """Evaluate an assignment (lists of task ids per node) against costs."""
    seen: set[int] = set()
    for node in assignment:
        for t in node:
            if t in seen:
                raise ValueError(f"task {t} assigned twice")
            if not 0 <= t < len(task_costs):
                raise ValueError(f"task {t} out of range")
            seen.add(t)
    if len(seen) != len(task_costs):
        raise ValueError("not every task was assigned")
    node_times = [sum(task_costs[t] for t in node) for node in assignment]
    return ScheduleReport(assignment=[list(n) for n in assignment], node_times=node_times)


def round_robin_schedule(task_costs: list[float], num_nodes: int) -> ScheduleReport:
    """The assignment's baseline: round-robin regardless of cost."""
    require_positive_int("num_nodes", num_nodes)
    return simulate_schedule(task_costs, distribute_tasks(len(task_costs), num_nodes))


def greedy_lpt_schedule(task_costs: list[float], num_nodes: int) -> ScheduleReport:
    """Longest-processing-time-first: each task goes to the least-loaded node.

    The classic 4/3-approximation for makespan; the "interesting
    variation" for heterogeneous model costs. Ties pick the lowest node
    index, so the schedule is deterministic.
    """
    require_positive_int("num_nodes", num_nodes)
    order = sorted(range(len(task_costs)), key=lambda t: (-task_costs[t], t))
    assignment: list[list[int]] = [[] for _ in range(num_nodes)]
    loads = [0.0] * num_nodes
    for t in order:
        target = min(range(num_nodes), key=lambda n: (loads[n], n))
        assignment[target].append(t)
        loads[target] += task_costs[t]
    return simulate_schedule(task_costs, assignment)

