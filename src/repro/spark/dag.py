"""Lineage and stage introspection — the teaching lens on RDD plans.

The course behind the pipeline assignment is about *designing* scalable
MapReduce/Spark algorithms, so students must see where their lineage
graphs introduce shuffles. :func:`lineage` walks the DAG;
:func:`execution_stages` groups it into shuffle-bounded stages the way
Spark's scheduler would, letting tests assert e.g. "this pipeline is two
stages, not four".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spark.rdd import RDD, NarrowDependency, ShuffleDependency

__all__ = ["lineage", "execution_stages", "shuffle_depth", "recomputation_frontier", "Stage"]


def lineage(rdd: RDD) -> list[RDD]:
    """All ancestor RDDs (including ``rdd``), deduplicated, leaves first."""
    seen: dict[int, RDD] = {}
    _visit(rdd, seen)
    return list(seen.values())


def _visit(node: RDD, seen: dict[int, RDD]) -> None:
    # A module-level walk, not a closure: a self-referencing closure is a
    # reference cycle that would keep every visited RDD (and its shuffle
    # store) alive until the cyclic garbage collector runs.
    if node.id in seen:
        return
    for dep in node.deps:
        _visit(dep.parent, seen)
    seen[node.id] = node


@dataclass
class Stage:
    """A maximal shuffle-free pipeline of RDDs, scheduled as one unit."""

    rdds: list[RDD]

    @property
    def names(self) -> list[str]:
        """Class names of member RDDs, leaf-most first."""
        return [type(r).__name__ for r in self.rdds]


def _depth(node: RDD, memo: dict[int, int]) -> int:
    """Shuffle depth of ``node``, memoised in ``memo``."""
    if node.id in memo:
        return memo[node.id]
    d = 0
    for dep in node.deps:
        if isinstance(dep, ShuffleDependency):
            d = max(d, _depth(dep.parent, memo) + 1)
        elif isinstance(dep, NarrowDependency):
            d = max(d, _depth(dep.parent, memo))
    memo[node.id] = d
    return d


def shuffle_depth(rdd: RDD) -> int:
    """Number of shuffles on the deepest path from any leaf to ``rdd``."""
    return _depth(rdd, {})


def recomputation_frontier(rdd: RDD) -> list[RDD]:
    """The RDDs a lost partition of ``rdd`` could be rebuilt from.

    Fault recovery recomputes up the lineage until it hits a
    *recomputation barrier* — a persisted or checkpointed RDD (or a
    leaf, which always holds its data). This returns those frontier
    nodes, deduplicated, leaf-most first: the teaching lens on why
    ``checkpoint()`` exists — a checkpointed RDD both joins the
    frontier *and* truncates everything behind it out of the walk.
    """
    frontier: dict[int, RDD] = {}

    def visit(node: RDD) -> None:
        if node.id in frontier:
            return
        if node.is_recompute_barrier or not node.deps:
            frontier[node.id] = node
            return
        for dep in node.deps:
            visit(dep.parent)

    for dep in rdd.deps:
        visit(dep.parent)
    if not rdd.deps:
        frontier[rdd.id] = rdd
    return list(frontier.values())


def execution_stages(rdd: RDD) -> list[Stage]:
    """Group the lineage of ``rdd`` into shuffle-bounded stages.

    RDDs at the same *shuffle depth* (number of shuffles between them
    and the leaves) execute in the same stage, so for any plan
    ``len(execution_stages(r)) == shuffle_depth(r) + 1`` — the count the
    course uses to reason about a pipeline's communication rounds.
    Stages are returned leaf-most first.
    """
    nodes = lineage(rdd)
    memo: dict[int, int] = {}
    max_depth = max(_depth(n, memo) for n in nodes)
    stages = [Stage(rdds=[]) for _ in range(max_depth + 1)]
    for node in nodes:
        stages[_depth(node, memo)].rdds.append(node)
    return stages
