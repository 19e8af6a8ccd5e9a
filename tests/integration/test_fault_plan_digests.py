"""Pin the exact output of every seeded fault-plan sampler.

``FaultPlan.sample``, ``SparkFaultPlan.sample`` and
``ServeFaultPlan.sample`` promise bit-reproducible plans: one seed, one
plan, forever. This test hashes every sampled event — ``(kind,
coordinates, seconds, attempts)`` — over seeds 0–31 and a fixed
argument grid per sampler, and compares the sha256 against digests
recorded from the original implementation. Any change to the draw
layout, the probability intervals or the caps changes a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.mpi import FaultPlan
from repro.serve import ServeFaultPlan
from repro.spark import SparkFaultPlan

SEEDS = range(32)

MPI_GRID = (
    dict(size=4, horizon=50, crash_prob=0.02, drop_prob=0.03, duplicate_prob=0.03,
         delay_prob=0.03, straggle_prob=0.03, seconds=0.001),
    dict(size=3, horizon=20, crash_prob=0.2, max_crashes=2, protected_ranks=()),
    dict(size=5, horizon=30, drop_prob=0.1, straggle_prob=0.1, seconds=0.0),
    dict(size=2, horizon=10, crash_prob=0.5, delay_prob=0.5, max_crashes=0),
)

SPARK_GRID = (
    dict(jobs=6, partitions=4, task_fail_prob=0.1, blacklist_prob=0.1, straggle_prob=0.1,
         shuffle_corrupt_prob=0.05, broadcast_corrupt_prob=0.2, spill_delete_prob=0.1,
         spill_truncate_prob=0.1, spill_corrupt_prob=0.1, attempts=2, spill_attempts=2,
         max_blacklists=2),
    dict(jobs=3, partitions=8, blacklist_prob=0.5, shuffles=2, shuffle_blocks=4,
         broadcasts=2, spill_files=3, spill_delete_prob=0.3),
    dict(jobs=10, partitions=2, task_fail_prob=0.3, straggle_prob=0.2, seconds=0.005),
)

SERVE_GRID = (
    dict(submissions=40, workers=4, poison_prob=0.1, worker_loss_prob=0.1, stall_prob=0.1),
    dict(submissions=20, workers=2, jobs_per_worker=5, worker_loss_prob=0.5,
         max_worker_losses=2, stall_prob=0.2, stall_seconds=0.01),
    dict(submissions=30, workers=3, poison_prob=0.3, worker_loss_prob=0.05),
)


def _mpi_event(e):
    return (e.kind, (e.rank, e.op_index), e.seconds, 1)


def _spark_event(e):
    return (e.kind, (e.slot, e.unit), e.seconds, e.attempts)


def _serve_event(e):
    return (e.kind, (e.worker, e.unit), e.seconds, 1)


def _digest(plan_cls, grid, as_tuple):
    h = hashlib.sha256()
    events = 0
    for config in grid:
        for seed in SEEDS:
            plan = plan_cls.sample(seed, **config)
            rows = [as_tuple(e) for e in plan.events]
            events += len(rows)
            h.update(repr((seed, sorted(config.items()), rows)).encode())
    return h.hexdigest(), events


@pytest.mark.parametrize(
    "plan_cls, grid, as_tuple, expected_digest, expected_events",
    [
        (FaultPlan, MPI_GRID, _mpi_event,
         "06f0698379a29e39c2fd24dff9d02a8f61c73598fc5d38ac29062c2ea11cf6a5", 2050),
        (SparkFaultPlan, SPARK_GRID, _spark_event,
         "cf108743de33e7fc30caa13dd05307643af9e4b339dc57377c7eb46d26717a4f", 1053),
        (ServeFaultPlan, SERVE_GRID, _serve_event,
         "1c8ff1228ba24f85b7030505ff5dc206169eb20e44701a9470a87382031a533e", 874),
    ],
    ids=["mpi", "spark", "serve"],
)
def test_sampled_plans_are_byte_identical(plan_cls, grid, as_tuple, expected_digest, expected_events):
    digest, events = _digest(plan_cls, grid, as_tuple)
    assert events == expected_events
    assert digest == expected_digest
