"""Owner-side shared-memory views: no view outlives its mapping, every array round-trips.

The owner's :meth:`SharedArrayRef.array` view holds a buffer export on
the segment, as a worker's view does. ``unpublish`` while such a view
is alive defers the close and the unlink until the view is gone, so
reading the view afterwards is safe; once the last view dies the
segment leaves ``/dev/shm``. And ``publish`` keeps every array's dtype
and shape, 0-d arrays included, on the owner, pool and fork paths.
"""

from __future__ import annotations

import functools
import gc
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.executor import ProcessExecutor
from repro.core.shm import active_segments

_DEV_SHM = Path("/dev/shm")

_VIEW_AFTER_UNPUBLISH_SCRIPT = """
import numpy as np
from repro.core.executor import ProcessExecutor

ex = ProcessExecutor(1)
ref = ex.publish(np.arange(1 << 20, dtype=float))
view = ref.array()
ex.unpublish(ref)
assert view.sum() == float(np.arange(1 << 20, dtype=float).sum())
ex.close()
print("ok")
"""


def _listed(name: str) -> bool:
    return not _DEV_SHM.is_dir() or (_DEV_SHM / name).exists()


class TestViewOutlivesUnpublish:
    def test_reading_a_view_after_unpublish_does_not_crash(self):
        # Reading the unmapped view used to kill the interpreter with
        # SIGSEGV, so the scenario runs in a child with a timeout.
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _VIEW_AFTER_UNPUBLISH_SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            cwd=Path(__file__).parents[2], start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("reading a view after unpublish hung")
        assert child.returncode == 0, f"exit {child.returncode}: {err}"
        assert out.strip() == "ok"

    def test_unlink_waits_for_the_last_view(self):
        with ProcessExecutor(1) as ex:
            ref = ex.publish(np.arange(100, dtype=np.int64))
            name = ref.segment_name
            view = ref.array()[10:20]  # a view of the owner's view
            ex.unpublish(ref)
            assert name in active_segments() and _listed(name)
            assert view.sum() == sum(range(10, 20))
            del view
            gc.collect()
            assert name not in active_segments()
            assert not (_DEV_SHM / name).exists()

    def test_unpublish_without_views_unlinks_at_once(self):
        with ProcessExecutor(1) as ex:
            ref = ex.publish(np.ones(8))
            name = ref.segment_name
            ex.unpublish(ref)
            assert name not in active_segments()
            assert not (_DEV_SHM / name).exists()


def _read_back(ref, _i, _item):
    return _fingerprint(ref.array())


def _fingerprint(array: np.ndarray) -> tuple[str, tuple[int, ...], bytes]:
    # Not the array itself: pickling a 0-d non-native array returns it
    # in native byte order, which would hide what the attach produced.
    return array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes()


class TestZeroDim:
    def test_zero_dim_array_keeps_its_shape(self):
        with ProcessExecutor(1) as ex:
            ref = ex.publish(np.float64(2.5) * np.ones(()))
            assert ref.array().shape == ()
            [back] = ex.map(functools.partial(_read_back, ref), [None])
            assert back == _fingerprint(np.array(2.5))


_DTYPES = ("?", "i1", ">i4", "<u2", "<f8", ">f8", "<c16", ">c8")


@st.composite
def _inputs(draw):
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    array = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(("c", "fortran", "strided")))
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided" and array.ndim:
        return np.repeat(array, 2, axis=-1)[..., ::2]  # same values, non-contiguous
    return array


@pytest.fixture(scope="module")
def executor():
    with ProcessExecutor(1) as ex:
        yield ex




class TestRoundTripProperty:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(src=_inputs())
    def test_publish_map_attach_roundtrips(self, executor, src):
        ref = executor.publish(src)
        try:
            expected = _fingerprint(src)
            assert _fingerprint(ref.array()) == expected  # the owner's view
            [pooled] = executor.map(functools.partial(_read_back, ref), [None])
            assert pooled == expected  # a pool worker's attachment
            [forked] = executor.map(lambda _i, _item: _read_back(ref, _i, _item), [None])
            assert forked == expected  # a forked child's inherited mapping
        finally:
            executor.unpublish(ref)
