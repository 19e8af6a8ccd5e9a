"""The mailbox's blocking contract: who wakes a blocked receive, and how.

A blocked receive waits on its own gate until a post, an abort or a
rank death opens it, so each wake here must come from the event itself:
a receive that missed its wake would sit out the whole ``timeout``, and
``wall_timeout`` turns that into a ``DeadlockError`` naming the stuck
rank. A receive whose peer never sends still times out with the same
diagnostic text.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.mpi import DeadlockError, RankFailedError, SpmdAbort, Status, run_spmd

#: Generous bound on the whole run: far above any prompt wake, far
#: below the per-operation ``timeout`` a missed wake would wait out.
WALL = 5.0
TIMEOUT = 60.0


class TestWakes:
    def test_death_wakes_a_blocked_tolerant_receive(self):
        def program(comm):
            if comm.rank == 1:
                time.sleep(0.1)
                raise RuntimeError("dies without sending")
            return comm.recv_tolerant(source=1, tag=0)

        results = run_spmd(
            2, program, on_failure="tolerate", timeout=TIMEOUT, wall_timeout=WALL
        )
        assert results == [None, None]

    def test_abort_wakes_a_blocked_receive(self):
        def program(comm):
            if comm.rank == 1:
                time.sleep(0.1)
                raise RuntimeError("fails the world")
            comm.recv(source=1, tag=0)

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, program, timeout=TIMEOUT, wall_timeout=WALL)
        assert list(excinfo.value.failures) == [1]

    def test_two_threads_of_one_rank_on_different_tags(self):
        """Every post opens every gate: a post that matches the second
        waiter's tag must not be swallowed by the first waiter."""

        def program(comm):
            if comm.rank == 1:
                time.sleep(0.1)  # both receivers are blocked by now
                comm.send("for tag 1", dest=0, tag=1)
                comm.send("for tag 0", dest=0, tag=0)
                return None
            got: dict[int, str] = {}

            def receive(tag: int) -> None:
                got[tag] = comm.recv(source=1, tag=tag)

            threads = [threading.Thread(target=receive, args=(t,)) for t in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return got

        results = run_spmd(2, program, timeout=TIMEOUT, wall_timeout=WALL)
        assert results[0] == {0: "for tag 0", 1: "for tag 1"}

    def test_blocked_probe_sees_a_later_post(self):
        def program(comm):
            if comm.rank == 1:
                time.sleep(0.1)
                comm.send("late", dest=0, tag=4)
                return None
            status = comm.probe(source=1, tag=4)
            return status.tag, comm.recv(source=1, tag=4)

        results = run_spmd(2, program, timeout=TIMEOUT, wall_timeout=WALL)
        assert results[0] == (4, "late")


class TestGatherTolerant:
    def test_live_none_contribution_is_not_missing(self):
        def program(comm):
            if comm.rank == 3:
                raise RuntimeError("dies before contributing")
            return comm.gather_tolerant(None if comm.rank == 1 else comm.rank, root=0)

        results = run_spmd(4, program, on_failure="tolerate", timeout=TIMEOUT, wall_timeout=WALL)
        assert results[0] == ([0, None, 2, None], [3])

    def test_root_none_contribution_is_not_missing(self):
        def program(comm):
            return comm.gather_tolerant(None, root=1)

        results = run_spmd(3, program, on_failure="tolerate", timeout=TIMEOUT)
        assert results[1] == ([None, None, None], [])


def _deadlock_text(program) -> str:
    with pytest.raises(RankFailedError) as excinfo:
        run_spmd(2, program, timeout=0.2)
    failures = excinfo.value.failures
    assert isinstance(failures[0], DeadlockError)
    return str(failures[0])


NEVER_SENT = "likely deadlock (the peer never sent, died, or is itself blocked)"


class TestDeadlockText:
    """The diagnostic of each blocking receive, after a short timeout,
    when its peer returned without sending."""

    @staticmethod
    def _blocked(op):
        def program(comm):
            if comm.rank == 0:
                op(comm)

        return program

    def test_recv(self):
        text = _deadlock_text(self._blocked(lambda c: c.recv(source=1, tag=5)))
        assert text == f"recv(source=rank 1, tag=5) on comm 0 timed out after 0.2s — {NEVER_SENT}"

    def test_probe(self):
        text = _deadlock_text(self._blocked(lambda c: c.probe()))
        assert text == (
            f"probe(source=ANY_SOURCE, tag=ANY_TAG) on comm 0 timed out after 0.2s — {NEVER_SENT}"
        )

    def test_irecv_wait(self):
        text = _deadlock_text(self._blocked(lambda c: c.irecv(source=1, tag=3).wait()))
        assert text == (
            f"irecv.wait(source=rank 1, tag=3) on comm 0 timed out after 0.2s — {NEVER_SENT}"
        )

    def test_recv_tolerant(self):
        text = _deadlock_text(self._blocked(lambda c: c.recv_tolerant(source=1, tag=2)))
        assert text == (
            "recv_tolerant(source=rank 1, tag=2) on comm 0 timed out after 0.2s — "
            "likely deadlock (the peer is alive but never sent)"
        )


class TestNonBlocking:
    def test_test_and_iprobe_do_not_check_for_abort(self):
        """The non-blocking calls only look at the queue; an aborted
        world stops only the calls that would block."""

        def program(comm):
            if comm.rank == 1:
                comm.send("queued", dest=0, tag=0)
                comm.barrier()
                return None
            comm.barrier()
            request = comm.irecv(source=1, tag=1)
            with pytest.raises(SpmdAbort):
                comm.abort()
            seen = comm.iprobe(source=1, tag=0), request.test()
            with pytest.raises(SpmdAbort, match="aborted while waiting"):
                comm.recv(source=1, tag=0)
            return seen

        results = run_spmd(2, program, timeout=TIMEOUT, wall_timeout=WALL)
        assert results[0] == (Status(source=1, tag=0), (False, None))
