"""Tests for atomics, reductions, and threadprivate storage."""

import threading

import numpy as np
import pytest

from repro.openmp import Atomic, ReductionVar, ThreadPrivate, parallel_reduce, parallel_region


class TestAtomic:
    def test_concurrent_adds_lose_nothing(self):
        cell = Atomic(0)
        parallel_region(8, lambda ctx: [cell.add(1) for _ in range(5000)] and None)
        assert cell.value == 40000

    def test_max_min(self):
        cell = Atomic(10)
        assert cell.max(3) == 10
        assert cell.max(42) == 42
        assert cell.min(40) == 40
        assert cell.min(50) == 40

    def test_compare_exchange(self):
        cell = Atomic("a")
        assert cell.compare_exchange("a", "b") is True
        assert cell.compare_exchange("a", "c") is False
        assert cell.value == "b"

    def test_update_arbitrary_function(self):
        cell = Atomic(2)
        assert cell.update(lambda x: x**3) == 8

    def test_store(self):
        cell = Atomic(1)
        cell.store(99)
        assert cell.value == 99

    def test_concurrent_max_finds_global_max(self):
        cell = Atomic(-1)
        values = list(range(1000))

        def body(ctx):
            lo, hi = ctx.static_bounds(len(values))
            for v in values[lo:hi]:
                cell.max(v)

        parallel_region(4, body)
        assert cell.value == 999


class TestParallelReduce:
    def test_sum_matches_serial(self):
        total = parallel_reduce(1000, 4, lambda lo, hi: sum(range(lo, hi)), lambda a, b: a + b)
        assert total == sum(range(1000))

    def test_identity_seeds_fold(self):
        total = parallel_reduce(
            10, 3, lambda lo, hi: hi - lo, lambda a, b: a + b, identity=100
        )
        assert total == 110

    def test_mutable_identity_not_shared_between_calls(self):
        ident = [0]
        op = lambda a, b: [a[0] + (b[0] if isinstance(b, list) else b)]
        first = parallel_reduce(5, 2, lambda lo, hi: [hi - lo], op, identity=ident)
        second = parallel_reduce(5, 2, lambda lo, hi: [hi - lo], op, identity=ident)
        assert first == second == [5]
        assert ident == [0]

    def test_array_reduction(self):
        def local(lo, hi):
            acc = np.zeros(3)
            for i in range(lo, hi):
                acc[i % 3] += i
            return acc

        total = parallel_reduce(99, 4, local, lambda a, b: a + b, identity=np.zeros(3))
        expect = np.zeros(3)
        for i in range(99):
            expect[i % 3] += i
        np.testing.assert_allclose(total, expect)


class TestReductionVar:
    def test_per_thread_accumulators_merge_in_order(self):
        red = ReductionVar(lambda: np.zeros(4), lambda a, b: a + b, num_threads=4)

        def body(ctx):
            local = red.local(ctx)
            lo, hi = ctx.static_bounds(100)
            for i in range(lo, hi):
                local[i % 4] += 1.0

        parallel_region(4, body)
        np.testing.assert_array_equal(red.result(), [25, 25, 25, 25])

    def test_scalar_accumulators_via_set_local(self):
        red = ReductionVar(lambda: 0, lambda a, b: a + b, num_threads=3)

        def body(ctx):
            lo, hi = ctx.static_bounds(30)
            red.set_local(ctx, sum(range(lo, hi)))

        parallel_region(3, body)
        assert red.result() == sum(range(30))

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            ReductionVar(lambda: 0, lambda a, b: a + b, num_threads=0)


class TestThreadPrivate:
    def test_each_thread_gets_own_copy(self):
        tp = ThreadPrivate(lambda: {"count": 0})

        def body(ctx):
            for _ in range(100):
                tp.value["count"] += 1
            return tp.value["count"]

        assert parallel_region(4, body) == [100, 100, 100, 100]
        assert len(tp.instances()) >= 4

    def test_persists_across_loop_iterations(self):
        tp = ThreadPrivate(lambda: [])

        def body(ctx):
            for i in ctx.for_range(12):
                tp.value.append(i)
            return sorted(tp.value)

        results = parallel_region(3, body)
        assert [len(r) for r in results] == [4, 4, 4]

    def test_set_replaces_value(self):
        tp = ThreadPrivate(lambda: 0)

        def body(ctx):
            tp.set(ctx.thread_id * 10)
            return tp.value

        assert parallel_region(3, body) == [0, 10, 20]

    def test_set_persists_across_regions(self):
        # Team threads are reused, so region 2 updates region 1's copies
        # instead of registering new ones.
        tp = ThreadPrivate(lambda: 0)
        for r in (1, 2):
            parallel_region(2, lambda ctx: tp.set(10 * r + ctx.thread_id))
        assert sorted(tp.instances()) == [20, 21]
        assert parallel_region(2, lambda ctx: tp.value) == [20, 21]

    def test_set_updates_own_copy_when_thread_names_repeat(self):
        tp = ThreadPrivate(lambda: -1)
        for k in range(4):
            t = threading.Thread(target=tp.set, args=(k,), name="same-name")
            t.start()
            t.join()
        assert tp.instances() == [0, 1, 2, 3]
