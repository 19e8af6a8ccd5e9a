"""Deterministic fault injection and recovery: FaultPlan through run_spmd.

The plan layer (sampling, validation, reproducibility) is exercised
without a world; the runtime layer runs real SPMD programs under
injected crashes, message faults, stragglers, and each recovery policy.
"""

import time

import pytest

from repro.mpi import (
    DeadlockError,
    FaultEvent,
    FaultPlan,
    InjectedCrash,
    RankFailedError,
    run_spmd,
)


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("explode", 0, 0)

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError, match="seconds"):
            FaultEvent("delay", 0, 0, seconds=-0.1)

    def test_duplicate_slot_rejected(self):
        events = [FaultEvent("drop", 1, 5), FaultEvent("crash", 1, 5)]
        with pytest.raises(ValueError, match="one fault event per"):
            FaultPlan(events)

    def test_crash_shorthand(self):
        plan = FaultPlan.crash(2, 13)
        assert plan.trace() == (("crash", 2, 13),)

    def test_sample_same_seed_bit_identical(self):
        kwargs = dict(crash_prob=0.01, drop_prob=0.02, delay_prob=0.01)
        a = FaultPlan.sample(42, size=4, horizon=200, **kwargs)
        b = FaultPlan.sample(42, size=4, horizon=200, **kwargs)
        assert a.trace() == b.trace()
        assert len(a) > 0  # the chosen probabilities do schedule something

    def test_sample_different_seeds_differ(self):
        a = FaultPlan.sample(1, size=4, horizon=300, drop_prob=0.05)
        b = FaultPlan.sample(2, size=4, horizon=300, drop_prob=0.05)
        assert a.trace() != b.trace()

    def test_sample_respects_max_crashes_and_protected_ranks(self):
        plan = FaultPlan.sample(
            7, size=6, horizon=100, crash_prob=0.5, max_crashes=2
        )
        crashes = [e for e in plan.events if e.kind == "crash"]
        assert len(crashes) == 2
        assert all(e.rank != 0 for e in crashes)  # root protected by default

    def test_sample_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            FaultPlan.sample(0, size=2, horizon=10, crash_prob=0.7, drop_prob=0.7)
        # Rejected whatever the seed draws, even when nothing would fire.
        with pytest.raises(ValueError, match="seconds"):
            FaultPlan.sample(0, 4, 50, seconds=-1.0)
        with pytest.raises(ValueError, match="max_crashes"):
            FaultPlan.sample(0, 4, 50, max_crashes=-1)

    def test_for_rank_filters_and_keys_by_op(self):
        plan = FaultPlan([FaultEvent("drop", 0, 3), FaultEvent("crash", 1, 9)])
        assert set(plan.for_rank(1)) == {9}
        assert plan.for_rank(1)[9].kind == "crash"
        assert plan.for_rank(2) == {}


class TestInjection:
    def test_crash_kills_rank_with_injected_crash(self):
        def program(comm):
            comm.barrier()
            return comm.rank

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(3, program, faults=FaultPlan.crash(1, 0), timeout=5.0)
        exc = excinfo.value.failures[1]
        assert isinstance(exc, InjectedCrash)
        assert exc.rank == 1 and exc.op_index == 0

    def test_same_plan_reproduces_same_fired_trace(self):
        # The acceptance criterion: one seed, two runs, identical traces.
        plan = FaultPlan.sample(11, size=4, horizon=50, straggle_prob=0.05, seconds=0.0)

        def program(comm):
            return comm.allreduce(comm.rank)

        traces = []
        for _ in range(2):
            _, report = run_spmd(4, program, faults=plan, return_report=True)
            traces.append(report.trace())
        assert traces[0] == traces[1]
        assert len(traces[0]) > 0

    def test_drop_turns_into_diagnosed_deadlock(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("payload", dest=1, tag=5)
            else:
                return comm.recv(source=0, tag=5)

        plan = FaultPlan([FaultEvent("drop", 0, 0)])
        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, program, faults=plan, timeout=0.3)
        assert any(
            isinstance(e, DeadlockError) for e in excinfo.value.failures.values()
        )

    def test_duplicate_delivers_twice(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=0)
                return None
            return (comm.recv(source=0, tag=0), comm.recv(source=0, tag=0))

        plan = FaultPlan([FaultEvent("duplicate", 0, 0)])
        results = run_spmd(2, program, faults=plan, timeout=5.0)
        assert results[1] == ("x", "x")

    def test_delay_still_delivers(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("late", dest=1, tag=0)
                return None
            return comm.recv(source=0, tag=0)

        plan = FaultPlan([FaultEvent("delay", 0, 0, seconds=0.02)])
        results, report = run_spmd(
            2, program, faults=plan, timeout=5.0, return_report=True
        )
        assert results[1] == "late"
        assert report.trace() == (("delay", 0, 0, "send"),)

    def test_straggle_sleeps_but_completes(self):
        def program(comm):
            return comm.allreduce(1)

        plan = FaultPlan([FaultEvent("straggle", 1, 0, seconds=0.01)])
        t0 = time.perf_counter()
        results, report = run_spmd(
            3, program, faults=plan, timeout=5.0, return_report=True
        )
        assert results == [3, 3, 3]
        assert time.perf_counter() - t0 >= 0.01
        assert ("straggle", 1, 0) in [(k, r, i) for k, r, i, _ in report.trace()]

    def test_message_fault_on_receive_op_is_noop(self):
        def program(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=0)  # rank 0 op 0 is a receive
            comm.send("ok", dest=0, tag=0)
            return None

        plan = FaultPlan([FaultEvent("drop", 0, 0)])
        results, report = run_spmd(
            2, program, faults=plan, timeout=5.0, return_report=True
        )
        assert results[0] == "ok"
        assert report.trace() == ()  # nothing fired: no message to disturb

    def test_report_without_faults_is_clean(self):
        results, report = run_spmd(
            3, lambda comm: comm.rank, return_report=True
        )
        assert results == [0, 1, 2]
        assert report.trace() == ()
        assert report.survivors == [0, 1, 2]
        assert "all ranks survived" in report.summary()


class TestRecoveryPolicies:
    def test_respawn_recovers_injected_crash(self):
        # The op counter survives the respawn, so the crash fires once.
        def program(comm):
            return comm.allreduce(comm.rank)

        results, report = run_spmd(
            3,
            program,
            faults=FaultPlan.crash(1, 0),
            on_failure="respawn",
            timeout=5.0,
            return_report=True,
        )
        assert results == [3, 3, 3]
        assert report.respawns == {1: 1}
        assert report.failures == {}

    def test_respawn_exhaustion_escalates_to_abort(self):
        def always_dies(comm):
            if comm.rank == 1:
                raise ValueError("persistent bug")
            return comm.rank

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(
                2,
                always_dies,
                on_failure="respawn",
                max_respawns=2,
                respawn_backoff=0.001,
                timeout=5.0,
            )
        assert isinstance(excinfo.value.failures[1], ValueError)

    def test_tolerate_keeps_world_running(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("lonely death")
            return comm.rank

        results, report = run_spmd(
            3, program, on_failure="tolerate", timeout=5.0, return_report=True
        )
        assert results == [0, None, 2]
        assert report.dead_ranks == [1]
        assert report.survivors == [0, 2]

    def test_tolerate_raises_when_everyone_dies(self):
        def program(comm):
            raise RuntimeError(f"rank {comm.rank} dies")

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, program, on_failure="tolerate", timeout=5.0)
        assert set(excinfo.value.failures) == {0, 1}

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            run_spmd(2, lambda comm: None, on_failure="ignore")


class TestSurvivorApi:
    @staticmethod
    def _await_death(comm, rank, deadline=5.0):
        end = time.monotonic() + deadline
        while comm.is_alive(rank) and time.monotonic() < end:
            time.sleep(0.001)
        assert not comm.is_alive(rank)

    def test_shrink_rebuilds_smaller_communicator(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("dies before the collective")
            TestSurvivorApi._await_death(comm, 1)
            sub = comm.shrink()
            return (sub.rank, sub.size, sub.allreduce(1))

        results = run_spmd(4, program, on_failure="tolerate", timeout=5.0)
        assert results[1] is None
        assert results[0] == (0, 3, 3)
        assert results[2] == (1, 3, 3)
        assert results[3] == (2, 3, 3)

    def test_recv_tolerant_returns_none_for_dead_sender(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("dies without sending")
            if comm.rank == 0:
                return comm.recv_tolerant(source=1, tag=0)
            return "alive"

        results = run_spmd(3, program, on_failure="tolerate", timeout=5.0)
        assert results[0] is None and results[2] == "alive"

    def test_recv_tolerant_message_wins_over_death(self):
        def program(comm):
            if comm.rank == 1:
                comm.send("last words", dest=0, tag=0)
                raise RuntimeError("dies after sending")
            if comm.rank == 0:
                return comm.recv_tolerant(source=1, tag=0)
            return None

        results = run_spmd(2, program, on_failure="tolerate", timeout=5.0)
        assert results[0] == "last words"

    def test_gather_tolerant_reports_missing(self):
        def program(comm):
            if comm.rank == 2:
                raise RuntimeError("dies before contributing")
            values, missing = comm.gather_tolerant(comm.rank * 10, root=0)
            if comm.rank != 0:
                return (values, missing)
            return (values, missing)

        results = run_spmd(4, program, on_failure="tolerate", timeout=5.0)
        values, missing = results[0]
        assert missing == [2]
        assert values[0] == 0 and values[1] == 10 and values[3] == 30
        assert values[2] is None
        assert results[1] == (None, [])  # non-root contributes, learns nothing


class TestWallTimeout:
    def test_wall_timeout_aborts_hung_world(self):
        def hangs(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=0)  # never sent
            # rank 1 returns immediately

        with pytest.raises(DeadlockError, match="wall_timeout"):
            run_spmd(2, hangs, timeout=60.0, wall_timeout=0.3)

    def test_wall_timeout_names_stuck_ranks(self):
        def hangs(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=9)

        with pytest.raises(DeadlockError, match=r"rank\(s\) \[1\]"):
            run_spmd(2, hangs, timeout=60.0, wall_timeout=0.3)

    def test_wall_timeout_validation(self):
        with pytest.raises(ValueError, match="wall_timeout"):
            run_spmd(2, lambda comm: None, wall_timeout=0.0)

    def test_generous_wall_timeout_is_invisible(self):
        assert run_spmd(2, lambda comm: comm.allreduce(1), wall_timeout=30.0) == [2, 2]


class TestDeadlockDiagnostics:
    def test_recv_timeout_names_operation_and_peer(self):
        def program(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=5)

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, program, timeout=0.3)
        msg = str(excinfo.value.failures[0])
        assert "recv" in msg and "source=rank 1" in msg and "tag=5" in msg

    def test_collective_timeout_names_the_collective(self):
        def program(comm):
            if comm.rank == 1:
                comm.bcast(None, root=0)  # root never broadcasts

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, program, timeout=0.3)
        # Whichever rank is blocked, its message names a system operation,
        # not a raw negative tag number.
        msgs = [str(e) for e in excinfo.value.failures.values()]
        assert any("bcast" in m for m in msgs)
