"""Tests for the warm thread teams and the lock-gate barrier.

Every thread team (OpenMP regions, thread-executor maps, SPMD ranks,
Chapel tasks) runs on :func:`repro.util.team.run_team`'s parked helper
threads. These tests pin what reusing threads must not change: errors
come back by member index, nested and forked teams still run, helpers
do not pile up, a timed-out team's helpers are abandoned, a
thread-executor map issued on a worker thread runs inline while every
other team still launches, and :class:`~repro.util.team.TeamBarrier`
keeps ``threading.Barrier``'s contract.
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro.chapel import coforall
from repro.core.executor import ThreadExecutor
from repro.mpi import DeadlockError, run_spmd
from repro.openmp import parallel_region
from repro.sanitizer import Sanitizer, use_sanitizer
from repro.util.team import TeamBarrier, become_worker, in_worker, run_team


class TestRunTeam:
    def test_members_run_once_each(self):
        seen = []
        guard = threading.Lock()

        def member(i):
            with guard:
                seen.append(i)

        run = run_team(5, member)
        assert sorted(seen) == [0, 1, 2, 3, 4]
        assert run.errors == [None] * 5 and run.running == []

    def test_empty_team_returns_at_once(self):
        assert run_team(0, lambda i: None).errors == []

    def test_caller_runs_no_member(self):
        caller = threading.get_ident()
        idents = [None] * 3
        run_team(3, lambda i: idents.__setitem__(i, threading.get_ident()))
        assert caller not in idents and len(set(idents)) == 3

    def test_repeated_team_lands_on_the_same_helpers(self):
        first, second = [None] * 3, [None] * 3
        run_team(3, lambda i: first.__setitem__(i, threading.get_ident()))
        run_team(3, lambda i: second.__setitem__(i, threading.get_ident()))
        assert first == second

    def test_errors_come_back_by_member_index(self):
        def member(i):
            if i in (1, 3):
                raise KeyError(i)

        run = run_team(4, member)
        assert [type(e).__name__ if e else None for e in run.errors] == [
            None, "KeyError", None, "KeyError",
        ]
        with pytest.raises(KeyError) as info:
            run.raise_first()
        assert info.value.args == (1,)

    def test_base_exceptions_are_caught_too(self):
        def member(i):
            raise SystemExit(i)

        run = run_team(2, member)
        assert all(isinstance(e, SystemExit) for e in run.errors)
        assert run_team(2, lambda i: None).errors == [None, None]

    def test_timeout_returns_running_members_and_abandons_them(self):
        release = threading.Event()
        helper_threads = {}

        def member(i):
            helper_threads[i] = threading.current_thread()
            if i == 1:
                release.wait(10.0)

        run = run_team(2, member, timeout=0.2)
        assert run.running == [1]
        release.set()
        assert run.wait(5.0) == []
        # The abandoned helper retires instead of parking again.
        helper_threads[1].join(5.0)
        assert not helper_threads[1].is_alive()
        assert helper_threads[0].is_alive()
        # ... and the pool still serves full teams afterwards.
        assert run_team(3, lambda i: None).errors == [None] * 3

    def test_interrupted_wait_abandons_stragglers_and_keeps_the_rest(self):
        main = threading.main_thread().ident
        first_done, release = threading.Event(), threading.Event()
        helper_threads = {}

        def member(i):
            helper_threads[i] = threading.current_thread()
            if i == 0:
                first_done.set()
            else:
                first_done.wait(5.0)
                time.sleep(0.2)  # member 0's helper finishes its bookkeeping
                signal.pthread_kill(main, signal.SIGINT)  # Ctrl-C in the caller
                release.wait(10.0)

        with pytest.raises(KeyboardInterrupt):
            run_team(2, member)
        release.set()
        helper_threads[1].join(5.0)
        assert not helper_threads[1].is_alive()
        # The finished member's helper went back to the pool: the next
        # one-member team lands on it instead of starting a thread.
        reused = []
        run_team(1, lambda i: reused.append(threading.current_thread()))
        assert reused == [helper_threads[0]]


class TestHelperReuse:
    def test_failing_member_then_many_teams(self):
        def body(ctx):
            if ctx.thread_id == 1:
                raise ValueError("member 1")
            if ctx.thread_id == 2:
                raise RuntimeError("member 2")
            return ctx.thread_id

        with pytest.raises(ValueError, match="member 1"):
            parallel_region(3, body)
        for _ in range(100):
            assert parallel_region(3, lambda ctx: ctx.thread_id) == [0, 1, 2]

    def test_thread_count_bounded_over_many_regions(self):
        parallel_region(4, lambda ctx: None)
        before = threading.active_count()
        for _ in range(500):
            parallel_region(4, lambda ctx: ctx.barrier())
        assert threading.active_count() <= before + 4

    def test_nested_teams_complete(self):
        def inner(ctx):
            return ctx.thread_id

        def outer(ctx):
            return parallel_region(2, inner)

        def task(i, item):
            return parallel_region(2, outer)

        assert parallel_region(2, outer) == [[0, 1], [0, 1]]
        out = ThreadExecutor(2).map(task, [0, 1, 2])
        assert out == [[[0, 1], [0, 1]]] * 3
        nested_maps = ThreadExecutor(2).map(
            lambda i, item: ThreadExecutor(2).map(lambda j, x: i * 10 + j, [0, 1]), [0, 1, 2]
        )
        assert nested_maps == [[0, 1], [10, 11], [20, 21]]
        assert coforall([1, 2], lambda x: coforall([x, x], lambda y: y * 2)) == [[2, 2], [4, 4]]

    def test_forked_child_runs_teams(self):
        # Park helpers in the parent first: the child must not wait on them.
        parallel_region(2, lambda ctx: None)
        ThreadExecutor(2).map(lambda i, x: x, [1, 2, 3])
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            code = 1
            try:
                signal.alarm(2)
                ok = parallel_region(2, lambda ctx: ctx.thread_id) == [0, 1]
                ok = ok and ThreadExecutor(2).map(lambda i, x: x * 2, [1, 2, 3]) == [2, 4, 6]
                code = 0 if ok else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status), f"child killed by signal {os.WTERMSIG(status)} (hung)"
        assert os.WEXITSTATUS(status) == 0


def _probe_map(fail=()):
    """Map ``ThreadExecutor(2)`` over four items from the calling thread.

    Returns the caller's ident, the ident each task ran on, the map's
    results (or the exception it raised) and how many threads the map
    started.
    """
    caller = threading.get_ident()
    before = threading.active_count()
    ran_on = {}

    def task(i, item):
        ran_on[i] = threading.get_ident()
        if i in fail:
            raise KeyError(i)
        return item * item

    try:
        out = ThreadExecutor(2).map(task, [1, 2, 3, 4])
    except KeyError as exc:
        out = exc
    return caller, ran_on, out, threading.active_count() - before


#: Ways to be on a worker thread: a thread-map task, an OpenMP member.
_ON_A_WORKER = {
    "executor-task": lambda probe: ThreadExecutor(2).map(lambda i, _: probe(), [0, 1]),
    "region-member": lambda probe: parallel_region(2, lambda ctx: probe()),
}


class TestOneLevelOfFanOut:
    """A thread-executor map issued on a worker thread runs inline."""

    @pytest.mark.parametrize("launch", sorted(_ON_A_WORKER))
    def test_nested_map_runs_on_the_calling_thread(self, launch):
        for caller, ran_on, out, started in _ON_A_WORKER[launch](_probe_map):
            assert caller != threading.get_ident()
            assert ran_on == {0: caller, 1: caller, 2: caller, 3: caller}
            assert out == [1, 4, 9, 16]
            assert started == 0

    @pytest.mark.parametrize("launch", sorted(_ON_A_WORKER))
    def test_nested_map_raises_the_lowest_failing_index(self, launch):
        probes = _ON_A_WORKER[launch](lambda: _probe_map(fail=(1, 3)))
        for caller, ran_on, out, _started in probes:
            # Serial semantics: index 1 raises and later tasks never run.
            assert isinstance(out, KeyError) and out.args == (1,)
            assert ran_on == {0: caller, 1: caller}

    def test_become_worker_marks_its_thread_only(self):
        probes = []

        def service_worker():
            become_worker()
            probes.append((in_worker(), _probe_map()))

        thread = threading.Thread(target=service_worker)
        thread.start()
        thread.join(5.0)
        (marked, (caller, ran_on, out, started)), = probes
        assert marked and set(ran_on.values()) == {caller}
        assert out == [1, 4, 9, 16] and started == 0
        assert not in_worker()

    def test_forked_child_of_a_worker_is_not_a_worker(self):
        # A process worker forked by a marked thread fans out again.
        statuses = []

        def fork_from_worker():
            become_worker()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child process
                os._exit(0 if not in_worker() else 1)
            statuses.append(os.waitpid(pid, 0)[1])

        thread = threading.Thread(target=fork_from_worker)
        thread.start()
        thread.join(5.0)
        assert len(statuses) == 1 and os.WIFEXITED(statuses[0])
        assert os.WEXITSTATUS(statuses[0]) == 0

    def test_top_level_map_still_fans_out(self):
        # Two tasks that wait for each other can only finish on two helpers.
        meet = threading.Barrier(2, timeout=5.0)
        caller = threading.get_ident()
        ran_on = ThreadExecutor(2).map(
            lambda i, _: (meet.wait(), threading.get_ident())[1], [0, 1]
        )
        assert caller not in ran_on and len(set(ran_on)) == 2
        assert not in_worker()

    def test_nested_map_keeps_its_team_under_a_sanitizer(self):
        with use_sanitizer(Sanitizer()):
            probes = _ON_A_WORKER["executor-task"](_probe_map)
        for caller, ran_on, out, _started in probes:
            assert out == [1, 4, 9, 16]
            assert caller not in ran_on.values()

    def test_teams_still_launch_on_a_worker(self):
        # Region members synchronize, so a region nested in a task keeps
        # its own team: the barrier needs both members at once.
        def task(i, _):
            return parallel_region(2, lambda ctx: (ctx.barrier(), threading.get_ident())[1])

        for member_threads in ThreadExecutor(2).map(task, [0, 1]):
            assert len(set(member_threads)) == 2


class TestStress:
    def test_concurrent_launchers_share_the_pool(self):
        # More members than cores, four launching threads, a short switch
        # interval: a helper handed two jobs at once, or a lost member,
        # breaks the per-team tally.
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tallies = [[0] * 5 for _ in range(4)]
            failures = []

            def launcher(slot):
                for _ in range(50):
                    hits = [0] * 5

                    def member(i):
                        hits[i] += 1

                    run = run_team(5, member)
                    if run.errors != [None] * 5 or hits != [1] * 5:
                        failures.append((slot, hits, run.errors))
                    tallies[slot] = [t + h for t, h in zip(tallies[slot], hits)]

            threads = [threading.Thread(target=launcher, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert failures == []
        assert tallies == [[50] * 5] * 4

    def test_barrier_generations_under_preemption(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parties, generations = 6, 200
            barrier = TeamBarrier(parties)
            arrived = [0] * generations
            indices = [[None] * parties for _ in range(generations)]
            guard = threading.Lock()
            early = []

            def member(i):
                for gen in range(generations):
                    with guard:
                        arrived[gen] += 1
                    indices[gen][i] = barrier.wait()
                    if arrived[gen] != parties:
                        early.append((gen, i))

            run = run_team(parties, member, timeout=30.0)
            assert run.running == []
            run.raise_first()
        finally:
            sys.setswitchinterval(old)
        assert early == []
        assert all(sorted(row) == list(range(parties)) for row in indices)


class TestSpmdWallTimeout:
    def test_stuck_rank_then_next_run_works(self):
        def hangs(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=9)

        with pytest.raises(DeadlockError, match=r"rank\(s\) \[1\] never returned"):
            run_spmd(2, hangs, timeout=60.0, wall_timeout=0.3)
        assert run_spmd(2, lambda comm: comm.allreduce(comm.rank + 1)) == [3, 3]

    def test_rank_stuck_outside_the_runtime(self):
        release = threading.Event()

        def hangs(comm):
            if comm.rank == 0:
                release.wait(10.0)

        with pytest.raises(DeadlockError, match=r"rank\(s\) \[0\] ignored the abort"):
            run_spmd(2, hangs, timeout=60.0, wall_timeout=0.2)
        release.set()
        assert run_spmd(3, lambda comm: comm.allreduce(1)) == [3, 3, 3]


class TestTeamBarrier:
    def test_indices_distinct_with_one_zero_per_generation(self):
        barrier = TeamBarrier(3)
        seen = [[None] * 3 for _ in range(4)]

        def member(i):
            for gen in range(4):
                seen[gen][i] = barrier.wait()

        run_team(3, member).raise_first()
        for row in seen:
            assert sorted(row) == [0, 1, 2]

    def test_generations_do_not_overtake(self):
        barrier = TeamBarrier(2)
        log = []
        guard = threading.Lock()

        def member(i):
            for step in range(50):
                with guard:
                    log.append(step)
                barrier.wait()

        run_team(2, member).raise_first()
        # Nobody logs step s+1 before both logged step s.
        assert log == sorted(log)

    def test_single_party_never_blocks(self):
        barrier = TeamBarrier(1)
        assert [barrier.wait() for _ in range(3)] == [0, 0, 0]

    def test_abort_breaks_waiters_and_later_calls(self):
        barrier = TeamBarrier(3)

        def member(i):
            if i == 2:
                while len(barrier._gates) < 2:
                    threading.Event().wait(0.001)
                barrier.abort()
                barrier.abort()  # idempotent
                return
            barrier.wait()

        run = run_team(3, member)
        assert [type(e) for e in run.errors[:2]] == [threading.BrokenBarrierError] * 2
        assert run.errors[2] is None
        with pytest.raises(threading.BrokenBarrierError):
            barrier.wait()

    def test_abort_after_a_completed_generation_spares_it(self):
        barrier = TeamBarrier(2)
        run = run_team(2, lambda i: barrier.wait())
        barrier.abort()
        assert run.errors == [None, None]

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            TeamBarrier(0)
