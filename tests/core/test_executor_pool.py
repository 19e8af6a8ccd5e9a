"""The persistent pool: warm reuse, zero-copy refs, crash respawn.

``tests/core/test_executor.py`` pins the backend-uniform map contract;
this file pins what is specific to the pool architecture — that pooled
maps actually reuse the same worker processes, that published arrays
cross the boundary as descriptors (not bytes), that a crashed slot
respawns, and that the pool/fork dispatch split lands where documented.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.executor import (
    _POOL_PAYLOAD_LIMIT,
    ProcessExecutor,
    SharedArrayRef,
    WorkerCrashError,
)
from repro.core.shm import SEGMENT_PREFIX


def _task_pid(_i, _item):
    return os.getpid()


def _pid_and_size(blob, _i, _item):
    return os.getpid(), len(blob)


def _crash_on(victim, i, item):
    if i == victim:
        os._exit(23)
    return item


def _read_ref(ref, _i, block):
    lo, hi = block
    return float(ref.array()[lo:hi].sum())


def _write_ref(ref, _i, block):
    lo, hi = block
    out = ref.array()
    out[lo:hi] = np.arange(lo, hi)
    return hi - lo


class TestWarmPool:
    def test_same_workers_across_maps(self):
        with ProcessExecutor(2) as ex:
            first = set(ex.map(_task_pid, range(8)))
            for _ in range(3):
                again = set(ex.map(_task_pid, range(8)))
                assert again == first  # warm start: no new forks
            assert os.getpid() not in first

    @pytest.mark.parametrize("payload", ["closure", "oversized"])
    def test_fork_path_uses_fresh_workers(self, payload):
        if payload == "closure":
            state = {"x": 1}  # closure -> unpicklable payload -> fork path
            task, expected = (lambda i, _: (os.getpid(), state["x"])), 1
        else:  # picklable, but above the pool's payload limit
            blob = b"x" * (_POOL_PAYLOAD_LIMIT + 1)
            task, expected = functools.partial(_pid_and_size, blob), len(blob)
        with ProcessExecutor(2) as ex:
            a = set(ex.map(task, range(4)))
            b = set(ex.map(task, range(4)))
            assert {value for _, value in a | b} == {expected}
            assert not (
                {pid for pid, _ in a} & {pid for pid, _ in b}
            )  # fresh forks per map
            assert os.getpid() not in {pid for pid, _ in a | b}

    def test_map_after_close_raises(self):
        ex = ProcessExecutor(2)
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.map(_task_pid, range(2))
        ex.close()  # idempotent

    def test_stop_is_close_alias(self):
        ex = ProcessExecutor(2)
        assert ex.map(_task_pid, range(2))
        ex.stop()
        with pytest.raises(RuntimeError, match="closed"):
            ex.map(_task_pid, range(2))


class TestCrashRespawn:
    def test_pool_path_crash_surfaces_and_respawns(self):
        with ProcessExecutor(2, chunks_per_worker=2) as ex:
            with pytest.raises(WorkerCrashError) as info:
                ex.map(functools.partial(_crash_on, 5), list(range(8)))
            err = info.value
            assert err.exitcode == 23
            assert set(err.completed) | set(err.missing) == set(range(8))
            # The dead slot respawns lazily: the next map still works.
            assert ex.map(_task_pid, range(8))
            assert set(ex.map(lambda i, x: x * 2, range(4))) == {0, 2, 4, 6}


_MID_WRITE_SCRIPT = """
import functools, os, sys, threading, time
from repro.core.executor import ProcessExecutor, WorkerCrashError

def crash(delay, during, i, _item):
    if i == 0:  # chunk 0: a result big enough to take a while to write
        if during:  # die halfway through writing it
            threading.Timer(delay, os._exit, (7,)).start()
        return b"x" * (32 << 20)
    if i == 2:  # chunk 1: die while chunk 0 may still be in flight
        time.sleep(delay)
        os._exit(7)
    return i

def double(_i, item):
    return 2 * item

with ProcessExecutor(1, chunks_per_worker=2) as ex:
    for during in (False, True):
        for delay in (0.04, 0.06, 0.1):
            task, check = functools.partial(crash, delay, during), double
            if sys.argv[1] == "fork":  # closures never pickle: fork path
                task = (lambda t: lambda i, x: t(i, x))(task)
                check = lambda _i, x: 2 * x
            try:
                ex.map(task, range(3))
            except WorkerCrashError as err:
                assert err.exitcode == 7 and 2 in err.missing, err
            else:
                raise AssertionError("the map survived a worker death")
            assert ex.map(check, range(5)) == [0, 2, 4, 6, 8]
print("ok")
"""


class TestDeathMidResultWrite:
    """A worker that dies while a big chunk result may still be in flight
    costs only its undelivered chunks: the map raises WorkerCrashError
    and the same executor keeps working. The scenario runs in a child
    interpreter with a timeout, so a hang fails the test instead of
    stalling the suite."""

    @pytest.mark.parametrize("path", ["pool", "fork"])
    def test_crash_surfaces_and_the_executor_recovers(self, path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _MID_WRITE_SCRIPT, path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            cwd=Path(__file__).parents[2], start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the workers too
            child.communicate()
            pytest.fail(f"{path} path hung after a worker died mid-write")
        assert child.returncode == 0, err
        assert out.strip() == "ok"


class TestPublish:
    def test_ref_pickles_as_descriptor_not_bytes(self):
        data = np.arange(200_000, dtype=np.float64)
        with ProcessExecutor(2) as ex:
            ref = ex.publish(data)
            assert isinstance(ref, SharedArrayRef)
            assert ref.segment_name.startswith(SEGMENT_PREFIX)
            wire = pickle.dumps(ref)
            assert len(wire) < 1024  # descriptor, not the 1.6 MB payload
            total = sum(
                ex.map(functools.partial(_read_ref, ref), [(0, 100_000), (100_000, 200_000)])
            )
            assert total == float(data.sum())

    def test_writable_ref_roundtrips_worker_writes(self):
        with ProcessExecutor(2) as ex:
            ref = ex.publish(np.zeros(64), writable=True)
            ex.map(functools.partial(_write_ref, ref), [(0, 32), (32, 64)])
            np.testing.assert_array_equal(ref.array(), np.arange(64.0))
            ex.unpublish(ref)

    def test_readonly_attachment_in_worker(self):
        with ProcessExecutor(1) as ex:
            ref = ex.publish(np.ones(8))
            [flag] = ex.map(functools.partial(_flag_writeable, ref), [0])
            if ex.start_method == "fork":
                assert flag is False

    def test_unpublish_is_idempotent(self):
        with ProcessExecutor(1) as ex:
            ref = ex.publish(np.ones(4))
            ex.unpublish(ref)
            ex.unpublish(ref)


def _flag_writeable(ref, _i, _item):
    return bool(ref.array().flags.writeable)


def _attached_names(refs, _i, pin):
    """Attach every ref and report the worker's cached attachments;
    ``pin`` keeps a view of the first ref alive past the task, None
    drops the pinned views."""
    from repro.core import shm

    views = [ref.array() for ref in refs]
    if pin is None:
        _PINNED.clear()
    elif pin:
        _PINNED.append(views[0])
    return sorted(shm._ATTACHED)


#: Views a task keeps alive in its worker after it returns.
_PINNED: list = []


class TestAttachmentRelease:
    def test_warm_workers_release_unpublished_segments(self):
        """50 publish -> map -> unpublish rounds: each worker's cache
        holds at most the segments live at its job, not one per round."""
        with ProcessExecutor(2) as ex:
            kept = ex.publish(np.ones(4))
            for _ in range(50):
                ref = ex.publish(np.arange(8.0))
                for names in ex.map(functools.partial(_attached_names, [kept, ref]), [0, 0]):
                    assert names == sorted([kept.segment_name, ref.segment_name])
                ex.unpublish(ref)

    def test_attachment_in_use_is_retried_at_a_later_job(self):
        with ProcessExecutor(1) as ex:
            first = ex.publish(np.ones(4))
            [names] = ex.map(functools.partial(_attached_names, [first]), [True])
            ex.unpublish(first)
            # The pinned view makes the worker's close raise BufferError:
            # the attachment stays until this job drops the view.
            second = ex.publish(np.ones(4))
            [names] = ex.map(functools.partial(_attached_names, [second]), [None])
            assert names == sorted([first.segment_name, second.segment_name])
            ex.unpublish(second)
            third = ex.publish(np.ones(4))
            [names] = ex.map(functools.partial(_attached_names, [third]), [False])
            assert names == [third.segment_name]


class TestSpawnPool:
    @pytest.mark.skipif(
        "spawn" not in __import__("multiprocessing").get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_maps_and_publishes(self):
        with ProcessExecutor(2, start_method="spawn") as ex:
            data = np.arange(100, dtype=np.float64)
            ref = ex.publish(data)
            got = ex.map(functools.partial(_read_ref, ref), [(0, 50), (50, 100)])
            assert sum(got) == float(data.sum())
            # Warm reuse holds under spawn too.
            assert set(ex.map(_task_pid, range(4))) == set(ex.map(_task_pid, range(4)))


class TestChunkFusion:
    def test_small_jobs_fuse_to_one_chunk_per_worker(self):
        ex = ProcessExecutor(4, chunks_per_worker=4)
        plans = {
            n: [len(chunks) for chunks in ex._chunk_assignments(n) if chunks]
            for n in (3, 4, 16, 17, 64)
        }
        ex.close()
        assert plans[3] == [1, 1, 1]          # n < workers: one chunk each
        assert plans[4] == [1, 1, 1, 1]       # fused: 4 messages, not 16
        assert plans[16] == [1, 1, 1, 1]      # still within the fusion budget
        assert plans[17] == [4, 4, 4, 4]      # past the budget: full fan-out
        assert plans[64] == [4, 4, 4, 4]

    def test_fused_plan_covers_range_in_order(self):
        ex = ProcessExecutor(3, chunks_per_worker=2)
        covered = sorted(
            (lo, hi)
            for chunks in ex._chunk_assignments(10)
            for _c, lo, hi in chunks
        )
        ex.close()
        assert covered[0][0] == 0 and covered[-1][1] == 10
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))


class TestNestedMap:
    def test_nested_map_in_worker_downgrades_to_inline(self):
        with ProcessExecutor(2) as ex:
            got = ex.map(functools.partial(_nested, ex), range(2))
            assert got == [[0, 1, 4], [0, 1, 4]]


def _nested(ex, _i, _item):
    # Daemonic pool workers cannot fork children; the executor computes
    # nested maps inline instead.
    return ex.map(lambda i, x: x * x, [0, 1, 2])
