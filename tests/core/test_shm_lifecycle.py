"""Segment lifecycle: no /dev/shm entry survives any exit path.

The shared-memory data plane owns real kernel objects; a leak outlives
the process and eats tmpfs until reboot. These tests pin the invariant
the module promises: every segment a driver publishes is unlinked after
normal stop, worker crash, task-error cancellation, KeyboardInterrupt,
and even a driver that forgets to close (the ``atexit`` sweep) — with
the audit done against both the in-process registry
(:func:`active_segments`) and the kernel's own ``/dev/shm`` listing.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import _thread
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import ProcessExecutor, WorkerCrashError
from repro.core.shm import SEGMENT_PREFIX, active_segments

_DEV_SHM = Path("/dev/shm")


def _kernel_segments() -> list[str]:
    """This process's segments as the *kernel* sees them."""
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-tmpfs platforms
        return []
    mine = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    return sorted(p.name for p in _DEV_SHM.iterdir() if p.name.startswith(mine))


def _assert_no_leaks() -> None:
    assert active_segments() == []
    assert _kernel_segments() == []


def _touch(ref, _i, block):
    lo, hi = block
    return float(ref.array()[lo:hi].sum())


def _crash(i, _item):
    if i == 1:
        os._exit(9)
    return i


def _boom(i, _item):
    if i == 1:
        raise ValueError("cancelled mid-job")
    return i


def _hang(_i, _item):  # pragma: no cover - runs in worker processes
    time.sleep(60)


class TestLifecycleProperty:
    @settings(max_examples=5, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 5)), min_size=1, max_size=4
        ),
        writable=st.booleans(),
        do_map=st.booleans(),
    )
    def test_every_segment_unlinked_after_stop(self, shapes, writable, do_map):
        ex = ProcessExecutor(2)
        try:
            refs = [
                ex.publish(np.ones(shape), writable=writable) for shape in shapes
            ]
            assert len(active_segments()) == len(shapes)
            assert len(_kernel_segments()) == len(shapes)
            if do_map:
                ex.map(functools.partial(_touch, refs[0]), [(0, 0)])
            # Unpublish half explicitly; close() must sweep the rest.
            for ref in refs[::2]:
                ex.unpublish(ref)
        finally:
            ex.stop()
        _assert_no_leaks()

    def test_worker_crash_leaks_nothing(self):
        ex = ProcessExecutor(2, chunks_per_worker=1)
        try:
            ref = ex.publish(np.arange(32, dtype=float))
            with pytest.raises(WorkerCrashError):
                ex.map(_crash, list(range(4)))
        finally:
            ex.close()
        _assert_no_leaks()

    def test_task_error_cancellation_leaks_nothing(self):
        ex = ProcessExecutor(2)
        try:
            ref = ex.publish(np.arange(16, dtype=float), writable=True)
            with pytest.raises(ValueError, match="cancelled"):
                ex.map(_boom, list(range(4)))
            # The executor survives a failed job; so does the segment...
            assert ref.segment_name in active_segments()
        finally:
            ex.close()
        _assert_no_leaks()  # ...but not the close.

    def test_keyboard_interrupt_leaks_nothing(self):
        ex = ProcessExecutor(2, chunks_per_worker=1)
        ex.publish(np.ones(64))
        timer = threading.Timer(0.4, _thread.interrupt_main)
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                ex.map(_hang, list(range(2)))
        finally:
            timer.cancel()
        ex.close()
        _assert_no_leaks()


def _run_script(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter (its own resource tracker).

    The tracker inherits the child's stderr, so waiting for the pipe to
    close also collects anything the tracker prints on its way out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=Path(__file__).parents[2],
        timeout=120,
    )


class TestForgottenDriver:
    def test_atexit_sweep_cleans_unclosed_driver(self):
        """A driver that never calls close() still unlinks at exit."""
        script = (
            "import numpy as np, sys\n"
            "from repro.core.executor import ProcessExecutor\n"
            "from repro.core.shm import SEGMENT_PREFIX\n"
            "ex = ProcessExecutor(2)\n"
            "ref = ex.publish(np.ones(1024))\n"
            "print(ref.segment_name)\n"
            "sys.stdout.flush()\n"
            # no unpublish, no close: atexit + GC finalizer must sweep
        )
        proc = _run_script(script)
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip().splitlines()[-1]
        assert name.startswith(SEGMENT_PREFIX)
        if _DEV_SHM.is_dir():
            assert not (_DEV_SHM / name).exists(), "atexit sweep leaked a segment"


class TestResourceTracker:
    def test_shared_pool_prints_no_tracker_traceback(self):
        """Workers attaching one segment at once must not unbalance the
        tracker they share with the driver (it used to print
        ``KeyError: '/repro-shm-…'`` tracebacks)."""
        script = (
            "import numpy as np\n"
            "from repro.core.executor import ProcessExecutor\n"
            "from repro.kmeans.parallel_kmeans import kmeans_parallel\n"
            "points = np.random.default_rng(0).normal(size=(400, 2))\n"
            "with ProcessExecutor(2) as ex:\n"
            "    for seed in range(20):\n"
            "        kmeans_parallel(points, 4, num_workers=2, backend=ex, seed=seed)\n"
        )
        proc = _run_script(script)
        assert proc.returncode == 0, proc.stderr
        assert "KeyError" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "leaked" not in proc.stderr

    @pytest.mark.skipif(
        not _DEV_SHM.is_dir() or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork and a /dev/shm listing",
    )
    def test_segment_survives_workers_forked_before_any_publish(self):
        """A pool forked before the driver's first publish must still
        share its tracker: a private one would unlink every segment its
        worker attached when that worker exits."""
        script = (
            "import functools, os, time\n"
            "import numpy as np\n"
            "from repro.core.executor import ProcessExecutor, WorkerCrashError\n"
            "def noop(i, _):\n"
            "    return i\n"
            "def total(ref, i, _):\n"
            "    return float(ref.array().sum())\n"
            "def crash(i, _):\n"
            "    os._exit(9)\n"
            "ex = ProcessExecutor(2, start_method='fork', chunks_per_worker=1)\n"
            "ex.map(noop, [0, 1])\n"
            "ref = ex.publish(np.arange(8.0))\n"
            "assert ex.map(functools.partial(total, ref), [0, 1]) == [28.0, 28.0]\n"
            "try:\n"
            "    ex.map(crash, [0, 1])\n"
            "except WorkerCrashError:\n"
            "    pass\n"
            "time.sleep(0.5)\n"
            "assert os.path.exists('/dev/shm/' + ref.segment_name), 'segment unlinked'\n"
            "assert ex.map(functools.partial(total, ref), [0, 1]) == [28.0, 28.0]\n"
            "ex.close()\n"
        )
        proc = _run_script(script)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
