"""Pin the traffic of every collective: messages and bytes per rank pair.

Each collective is built on point-to-point posts, so its cost is a set
of (src, dst) world-rank pairs, each with a message count and a pickled
payload size. The table below was recorded from the runtime before
the root-linear collectives were rebuilt from two shared legs (fan-in
and fan-out); any change to who sends what to whom, how often or how
large, changes an entry. Payloads are plain Python
objects, so the bytes do not depend on the numpy version.
"""

from __future__ import annotations

import pytest

from repro.mpi import run_spmd


def _last(comm):
    return comm.size - 1


COLLECTIVES = {
    "barrier": lambda c: c.barrier(),
    "bcast": lambda c: c.bcast(
        ("table", list(range(c.size + 5))) if c.rank == _last(c) else None, root=_last(c)
    ),
    "scatter": lambda c: c.scatter(
        [list(range(i)) for i in range(c.size)] if c.rank == _last(c) else None, root=_last(c)
    ),
    "gather": lambda c: c.gather([c.rank] * (c.rank + 1), root=_last(c)),
    "allgather": lambda c: c.allgather("r" * (c.rank + 1)),
    "alltoall": lambda c: c.alltoall([(c.rank, j) * (j + 1) for j in range(c.size)]),
    "reduce": lambda c: c.reduce(c.rank + 0.5, root=_last(c)),
    "allreduce": lambda c: c.allreduce([float(c.rank)] * 4),
    "scan": lambda c: c.scan(c.rank + 1),
    "exscan": lambda c: c.exscan(c.rank + 1),
    "split": lambda c: c.split(c.rank % 2, key=-c.rank),
    "dup": lambda c: c.dup(),
    "gather_tolerant": lambda c: c.gather_tolerant(
        None if c.rank == 0 else "v" * c.rank, root=_last(c)
    ),
}


def traffic(name: str, size: int) -> dict[tuple[int, int], tuple[int, int]]:
    """``{(src, dst): (messages, payload_bytes)}`` of one collective call."""

    def program(comm):
        COLLECTIVES[name](comm)
        return comm.stats

    stats = run_spmd(size, program, timeout=10.0)[0]
    return {pair: (c["messages"], c["payload_bytes"]) for pair, c in stats.per_pair().items()}


PINNED = {
    ('allgather', 2): {(0, 1): (1, 25), (1, 0): (1, 17)},
    ('allgather', 3): {(0, 1): (1, 31), (0, 2): (1, 31), (1, 0): (1, 17), (2, 0): (1, 18)},
    ('allgather', 4): {(0, 1): (1, 38), (0, 2): (1, 38), (0, 3): (1, 38), (1, 0): (1, 17),
        (2, 0): (1, 18), (3, 0): (1, 19)},
    ('allreduce', 2): {(0, 1): (1, 88), (1, 0): (1, 52)},
    ('allreduce', 3): {(0, 1): (1, 124), (0, 2): (1, 124), (1, 0): (1, 52), (2, 0): (1, 52)},
    ('allreduce', 4): {(0, 1): (1, 160), (0, 2): (1, 160), (0, 3): (1, 160), (1, 0): (1, 52),
        (2, 0): (1, 52), (3, 0): (1, 52)},
    ('alltoall', 2): {(0, 1): (1, 23), (1, 0): (1, 18)},
    ('alltoall', 3): {(0, 1): (1, 23), (0, 2): (1, 27), (1, 0): (1, 18), (1, 2): (1, 27),
        (2, 0): (1, 18), (2, 1): (1, 23)},
    ('alltoall', 4): {(0, 1): (1, 23), (0, 2): (1, 27), (0, 3): (1, 31), (1, 0): (1, 18),
        (1, 2): (1, 27), (1, 3): (1, 31), (2, 0): (1, 18), (2, 1): (1, 23), (2, 3): (1, 31),
        (3, 0): (1, 18), (3, 1): (1, 23), (3, 2): (1, 27)},
    ('barrier', 2): {(0, 1): (1, 4), (1, 0): (1, 4)},
    ('barrier', 3): {(0, 1): (1, 4), (0, 2): (1, 4), (1, 0): (1, 4), (2, 0): (1, 4)},
    ('barrier', 4): {(0, 1): (1, 4), (0, 2): (1, 4), (0, 3): (1, 4), (1, 0): (1, 4),
        (2, 0): (1, 4), (3, 0): (1, 4)},
    ('bcast', 2): {(1, 0): (1, 40)},
    ('bcast', 3): {(2, 0): (1, 42), (2, 1): (1, 42)},
    ('bcast', 4): {(3, 0): (1, 44), (3, 1): (1, 44), (3, 2): (1, 44)},
    ('dup', 2): {(0, 1): (1, 26), (1, 0): (1, 18)},
    ('dup', 3): {(0, 1): (1, 28), (0, 2): (1, 28), (1, 0): (1, 18), (2, 0): (1, 18)},
    ('dup', 4): {(0, 1): (1, 30), (0, 2): (1, 30), (0, 3): (1, 30), (1, 0): (1, 18),
        (2, 0): (1, 18), (3, 0): (1, 18)},
    ('exscan', 2): {(0, 1): (1, 5)},
    ('exscan', 3): {(0, 1): (1, 5), (1, 2): (1, 5)},
    ('exscan', 4): {(0, 1): (1, 5), (1, 2): (1, 5), (2, 3): (1, 5)},
    ('gather', 2): {(0, 1): (1, 17)},
    ('gather', 3): {(0, 2): (1, 17), (1, 2): (1, 20)},
    ('gather', 4): {(0, 3): (1, 17), (1, 3): (1, 20), (2, 3): (1, 22)},
    ('gather_tolerant', 2): {(0, 1): (1, 4)},
    ('gather_tolerant', 3): {(0, 2): (1, 4), (1, 2): (1, 16)},
    ('gather_tolerant', 4): {(0, 3): (1, 4), (1, 3): (1, 16), (2, 3): (1, 17)},
    ('reduce', 2): {(0, 1): (1, 21)},
    ('reduce', 3): {(0, 2): (1, 21), (1, 2): (1, 21)},
    ('reduce', 4): {(0, 3): (1, 21), (1, 3): (1, 21), (2, 3): (1, 21)},
    ('scan', 2): {(0, 1): (1, 5)},
    ('scan', 3): {(0, 1): (1, 5), (1, 2): (1, 5)},
    ('scan', 4): {(0, 1): (1, 5), (1, 2): (1, 5), (2, 3): (1, 5)},
    ('scatter', 2): {(1, 0): (1, 5)},
    ('scatter', 3): {(2, 0): (1, 5), (2, 1): (1, 17)},
    ('scatter', 4): {(3, 0): (1, 5), (3, 1): (1, 17), (3, 2): (1, 20)},
    ('split', 2): {(0, 1): (1, 23), (1, 0): (1, 21)},
    ('split', 3): {(0, 1): (1, 23), (0, 2): (1, 26), (1, 0): (1, 21), (2, 0): (1, 21)},
    ('split', 4): {(0, 1): (1, 26), (0, 2): (1, 26), (0, 3): (1, 26), (1, 0): (1, 21),
        (2, 0): (1, 21), (3, 0): (1, 21)},
}


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(COLLECTIVES))
def test_collective_traffic_is_pinned(name, size):
    assert traffic(name, size) == PINNED[name, size]


def test_every_collective_is_pinned():
    assert sorted(PINNED) == sorted((n, s) for n in COLLECTIVES for s in (2, 3, 4))
