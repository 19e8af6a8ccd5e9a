"""The instrumentation sites: every layer records what it should."""

import numpy as np
import pytest

from repro.heat.mpi2d import run_mpi_2d, solve_serial_2d
from repro.hpo.monitoring import AccuracyMonitor, StopTraining, learning_curve
from repro.hpo.nn.network import MLP
from repro.hpo.search import HyperParams, train_one
from repro.kmeans import (
    TerminationCriteria,
    kmeans_device,
    kmeans_openmp,
    kmeans_parallel,
    kmeans_sequential,
)
from repro.kmeans.mpi_kmeans import run_kmeans_mpi
from repro.knn.data import make_blobs
from repro.mapreduce import MapReduce
from repro.mpi import FaultPlan, run_spmd
from repro.spark import SparkContext
from repro.trace import Tracer, use_tracer


def _names(tracer, category=None):
    return [
        e.name for e in tracer.events() if category is None or e.category == category
    ]


class TestMpiInstrumentation:
    def test_p2p_send_recv_events_and_metrics(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("payload", dest=1, tag=5)
            elif comm.rank == 1:
                comm.recv(source=0, tag=5)

        tracer = Tracer()
        run_spmd(2, program, tracer=tracer)
        events = {(e.scope, e.name) for e in tracer.events() if e.category == "mpi.p2p"}
        assert ("rank0", "send") in events
        assert ("rank1", "recv") in events
        snap = tracer.metrics.snapshot()
        assert snap["mpi.messages{rank=0}"]["value"] == 1
        assert snap["mpi.payload_bytes{rank=0}"]["value"] > 0

    def test_send_instant_carries_dest_tag_nbytes(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=7)
            else:
                comm.recv(source=0, tag=7)

        tracer = Tracer()
        run_spmd(2, program, tracer=tracer)
        send = next(e for e in tracer.events() if e.name == "send")
        args = dict(send.args)
        assert args["dest"] == 1
        assert args["tag"] == "7"
        assert args["nbytes"] > 0

    def test_collectives_become_spans(self):
        def program(comm):
            comm.bcast("v" if comm.rank == 0 else None, root=0)
            comm.barrier()
            comm.gather(comm.rank, root=0)

        tracer = Tracer()
        run_spmd(3, program, tracer=tracer)
        for rank in range(3):
            scope_names = [
                e.name
                for e in tracer.events()
                if e.scope == f"rank{rank}" and e.category == "mpi.collective"
            ]
            assert scope_names == ["bcast", "barrier", "gather"]

    def test_barrier_wait_histogram(self):
        tracer = Tracer()
        run_spmd(4, lambda comm: comm.barrier(), tracer=tracer)
        snap = tracer.metrics.snapshot()
        for rank in range(4):
            assert snap[f"mpi.barrier_wait_seconds{{rank={rank}}}"]["count"] == 1

    def test_mailbox_queue_depth_gauge(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("a", dest=1)
            else:
                comm.recv(source=0)

        tracer = Tracer()
        run_spmd(2, program, tracer=tracer)
        snap = tracer.metrics.snapshot()
        assert "mailbox.queue_depth{rank=1}" in snap


class TestRuntimeLifecycle:
    def test_run_spmd_and_rank_spans(self):
        tracer = Tracer()
        run_spmd(2, lambda comm: comm.rank, tracer=tracer)
        runtime = [(e.scope, e.name) for e in tracer.events() if e.category == "runtime"]
        assert ("main", "run_spmd") in runtime
        assert ("rank0", "rank") in runtime
        assert ("rank1", "rank") in runtime

    def test_injected_crash_and_death_are_instants(self):
        def program(comm):
            if comm.rank == 2:
                comm.send("x", dest=0)  # the crash fires before this op runs
            return comm.rank

        tracer = Tracer()
        run_spmd(
            3,
            program,
            faults=FaultPlan.crash(2, 0),
            on_failure="tolerate",
            tracer=tracer,
        )
        fault_names = _names(tracer, category="runtime.fault")
        assert "fault.crash" in fault_names
        assert "rank_death" in fault_names
        death = next(e for e in tracer.events() if e.name == "rank_death")
        assert death.scope == "rank2"
        assert dict(death.args)["error"] == "InjectedCrash"

    def test_respawn_emits_instant(self):
        attempts = {}

        def flaky(comm):
            n = attempts.get(comm.rank, 0)
            attempts[comm.rank] = n + 1
            if comm.rank == 1 and n == 0:
                raise RuntimeError("transient")
            return comm.rank

        tracer = Tracer()
        run_spmd(2, flaky, on_failure="respawn", tracer=tracer)
        assert "rank_respawn" in _names(tracer, category="runtime.fault")
        rank_spans = [
            e for e in tracer.events() if e.name == "rank" and e.scope == "rank1"
        ]
        assert len(rank_spans) == 2  # failed attempt + successful retry
        assert dict(rank_spans[0].args).get("error") == "RuntimeError"


class TestMessageStatsBreakdowns:
    def test_per_rank_and_per_pair(self):
        captured = {}

        def program(comm):
            if comm.rank == 0:
                captured["stats"] = comm.stats
                comm.send("aa", dest=1)
                comm.send("bb", dest=2)
            elif comm.rank == 1:
                comm.recv(source=0)
                comm.send("c", dest=2)
            else:
                comm.recv(source=0)
                comm.recv(source=1)

        run_spmd(3, program)
        stats = captured["stats"]  # world joined: counts are final
        per_rank = stats.per_rank()
        assert per_rank[0]["messages"] == 2
        assert per_rank[1]["messages"] == 1
        per_pair = stats.per_pair()
        assert per_pair[(0, 1)]["messages"] == 1
        assert per_pair[(0, 2)]["messages"] == 1
        assert per_pair[(0, 1)]["payload_bytes"] > 0
        # Breakdowns and the aggregate agree.
        assert sum(c["messages"] for c in per_pair.values()) == stats.messages

    def test_snapshot_shape_unchanged(self):
        _, stats = run_spmd(2, lambda comm: comm.rank, return_stats=True)
        assert stats == {"messages": 0, "payload_bytes": 0}


class TestMapReduceInstrumentation:
    def test_stage_spans_and_shuffle_counter(self):
        def program(comm):
            mr = MapReduce(comm)
            mr.map_items(
                ["a b", "b c", "c d", "d a"], lambda line, kv: [kv.add(w, 1) for w in line.split()]
            )
            shipped = mr.aggregate()
            mr.convert()
            mr.reduce(lambda key, values, kv: kv.add(key, sum(values)))
            mr.gather(root=0)
            return shipped

        tracer = Tracer()
        results = run_spmd(2, program, tracer=tracer)
        rank0 = [
            e.name
            for e in tracer.events()
            if e.scope == "rank0" and e.category == "mapreduce"
        ]
        assert rank0 == ["map", "shuffle", "group", "reduce", "gather"]
        snap = tracer.metrics.snapshot()
        total_shuffled = sum(
            s["value"] for k, s in snap.items() if k.startswith("mapreduce.shuffle_pairs")
        )
        # The per-rank counters sum to the global shipped-pair count.
        assert total_shuffled == results[0] > 0


class TestSparkInstrumentation:
    def test_job_and_task_spans(self):
        with use_tracer(Tracer()) as tracer:
            with SparkContext(num_workers=2, default_partitions=3) as sc:
                assert sc.parallelize(range(9)).map(lambda x: x * 2).collect() == [
                    x * 2 for x in range(9)
                ]
        jobs = [e for e in tracer.events() if e.name == "job"]
        assert jobs and all(e.scope == "spark.driver" for e in jobs)
        assert dict(jobs[0].args)["partitions"] == 3
        task_scopes = {e.scope for e in tracer.events() if e.name == "task"}
        assert task_scopes == {"spark.p0", "spark.p1", "spark.p2"}

    def test_untraced_context_records_nothing(self):
        with SparkContext(num_workers=2) as sc:
            sc.parallelize(range(4)).collect()
        # No tracer installed: nothing to assert beyond "it ran" — the
        # disabled default returned the shared no-op span throughout.


class TestKmeansInstrumentation:
    CRITERIA = TerminationCriteria(max_iterations=4)

    def _points(self):
        points, _ = make_blobs(200, 4, 3, seed=0)
        return points

    @pytest.mark.parametrize(
        "model,run",
        [
            ("sequential", lambda self: kmeans_sequential(
                self._points(), 3, criteria=self.CRITERIA
            )),
            ("openmp", lambda self: kmeans_openmp(
                self._points(), 3, num_threads=2, criteria=self.CRITERIA
            )),
            ("device", lambda self: kmeans_device(
                self._points(), 3, block_size=64, criteria=self.CRITERIA
            )),
            ("executor", lambda self: kmeans_parallel(
                self._points(), 3, num_workers=2, backend="serial", criteria=self.CRITERIA
            )),
            ("executor", lambda self: kmeans_parallel(
                self._points(), 3, num_workers=2, backend="process", criteria=self.CRITERIA
            )),
        ],
    )
    def test_shared_memory_models_record_metrics(self, model, run):
        with use_tracer(Tracer()) as tracer:
            result = run(self)
        snap = tracer.metrics.snapshot()
        assert snap[f"kmeans.iterations{{model={model}}}"]["value"] == result.iterations
        assert snap[f"kmeans.iteration_shift{{model={model}}}"]["count"] == result.iterations
        iters = [e for e in tracer.events() if e.name == "kmeans.iteration"]
        assert len(iters) == result.iterations

    def test_mpi_model_records_on_rank0(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = run_kmeans_mpi(2, self._points(), 3, criteria=self.CRITERIA)
        snap = tracer.metrics.snapshot()
        assert snap["kmeans.iterations{model=mpi}"]["value"] == result.iterations
        iters = [e for e in tracer.events() if e.name == "kmeans.iteration"]
        assert len(iters) == result.iterations
        assert all(e.scope == "rank0" for e in iters)


class TestHeatInstrumentation:
    def test_halo_exchange_spans_per_step(self):
        u0 = np.zeros((12, 12))
        u0[0, :] = 1.0
        steps = 3
        with use_tracer(Tracer()) as tracer:
            result = run_mpi_2d(4, u0, 0.25, steps)
        np.testing.assert_array_equal(result, solve_serial_2d(u0, 0.25, steps))
        halos = [e for e in tracer.events() if e.name == "halo_exchange"]
        assert len(halos) == 4 * steps  # every rank, every step
        assert {dict(e.args)["step"] for e in halos} == set(range(steps))
        assert all(e.category == "heat" for e in halos)


class TestHpoInstrumentation:
    def _data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4))
        y = (x[:, 0] > 0).astype(int)
        return x[:40], y[:40], x[40:], y[40:]

    def test_trial_span_and_histogram(self):
        tx, ty, vx, vy = self._data()
        params = HyperParams(hidden_sizes=(8,), epochs=2)
        with use_tracer(Tracer()) as tracer:
            train_one(params, tx, ty, vx, vy)
        (trial,) = [e for e in tracer.events() if e.name == "hpo.trial"]
        assert dict(trial.args)["config"] == params.describe()
        snap = tracer.metrics.snapshot()
        assert snap["hpo.trial_seconds"]["count"] == 1
        assert snap["hpo.trial_seconds"]["max"] >= trial.duration * 0.5
        assert snap["hpo.trials"]["value"] == 1

    def test_accuracy_checks_and_early_stop(self):
        tx, ty, vx, vy = self._data()
        model = MLP((4, 8, 2), seed=0)
        with use_tracer(Tracer()) as tracer:
            history = learning_curve(
                model, tx, ty, vx, vy, epochs=30, interval=1, patience=2
            )
        checks = [e for e in tracer.events() if e.name == "hpo.accuracy_check"]
        assert len(checks) == len(history)
        assert dict(checks[0].args)["epoch"] == history[0][0]
        if len(history) < 30:  # training actually stopped early
            stops = [e for e in tracer.events() if e.name == "hpo.early_stop"]
            assert len(stops) == 1

    def test_monitor_early_stop_instant_direct(self):
        _, _, vx, vy = self._data()
        monitor = AccuracyMonitor(vx, vy, patience=1)
        model = MLP((4, 8, 2), seed=0)
        with use_tracer(Tracer()) as tracer:
            monitor(0, model)  # first check sets the best
            monitor.best_accuracy = 2.0  # force "no improvement" next check
            with pytest.raises(StopTraining):
                monitor(1, model)
        assert "hpo.early_stop" in [e.name for e in tracer.events()]
