"""Fault plans against the MPI wavefront: column-block checkpoint restart.

The contract under test (docs/fault_tolerance.md, extended to the align
family): a world killed mid-sweep by an injected crash, relaunched with
the same :class:`AlignCheckpoint`, finishes **bit-identical** to an
uninterrupted run — integer scoring means exact equality, not a
tolerance. Stragglers and delays must never change the answer at all.
"""

import numpy as np
import pytest

from repro.align import (
    AlignCheckpoint,
    align_sequential,
    generate_pair,
    run_align_mpi,
)
from repro.mpi import FaultPlan, InjectedCrash, RankFailedError
from repro.mpi.faults import FaultEvent

RANKS = 4
#: Column-block width: 35 blocks on the 72 x 70 pair, so the crash
#: points below (rank 1 at op 25, rank 2 at op 60) land mid-sweep,
#: after at least one checkpoint. Each block costs a rank one receive
#: and one send, so at the default tile (3 blocks) neither rank would
#: reach those ops.
TILE = 2


def blocks(b):
    return -(-len(b) // TILE)


@pytest.fixture(scope="module")
def pair():
    return generate_pair(11, 72)


@pytest.fixture(scope="module")
def baseline(pair):
    a, b = pair
    return run_align_mpi(RANKS, a, b)


def assert_results_bit_identical(result, reference):
    np.testing.assert_array_equal(result.matrix, reference.matrix)
    assert result.path == reference.path
    assert result.score == reference.score
    assert result.aligned_a == reference.aligned_a
    assert result.aligned_b == reference.aligned_b
    assert result.best_score == reference.best_score
    assert result.best_cell == reference.best_cell
    assert result.match_events == reference.match_events


class TestAlignCheckpoint:
    def test_empty_checkpoint_restore_raises(self):
        ckpt = AlignCheckpoint()
        assert not ckpt.has_state()
        assert ckpt.block == 0
        with pytest.raises(ValueError, match="empty"):
            ckpt.restore()

    def test_save_copies_state(self):
        ckpt = AlignCheckpoint()
        matrix = np.ones((3, 3), dtype=np.int64)
        ckpt.save(4, matrix)
        matrix[:] = -1  # caller mutation must not reach the checkpoint
        block, restored = ckpt.restore()
        assert block == 4 and ckpt.block == 4
        np.testing.assert_array_equal(restored, np.ones((3, 3), dtype=np.int64))

    def test_checkpointed_run_matches_plain_run(self, pair, baseline):
        a, b = pair
        ckpt = AlignCheckpoint()
        result = run_align_mpi(RANKS, a, b, tile=TILE, checkpoint=ckpt)
        assert_results_bit_identical(result, baseline)
        assert ckpt.block == blocks(b)


class TestCrashRecovery:
    def test_crash_then_resume_is_bit_identical(self, pair, baseline):
        # The restart story end to end: a fresh world killed mid-sweep
        # by an injected crash, then a second world resuming from the
        # column-block checkpoint, finishing exactly where an uninterrupted
        # run does.
        a, b = pair
        ckpt = AlignCheckpoint()
        with pytest.raises(RankFailedError) as excinfo:
            run_align_mpi(
                RANKS, a, b, tile=TILE, checkpoint=ckpt,
                faults=FaultPlan.crash(1, 25), timeout=10.0,
            )
        assert isinstance(excinfo.value.failures[1], InjectedCrash)
        assert 0 < ckpt.block < blocks(b)

        resumed = run_align_mpi(RANKS, a, b, tile=TILE, checkpoint=ckpt)
        assert_results_bit_identical(resumed, baseline)

    def test_late_crash_resumes_from_late_block(self, pair, baseline):
        a, b = pair
        ckpt = AlignCheckpoint()
        with pytest.raises(RankFailedError):
            run_align_mpi(
                RANKS, a, b, tile=TILE, checkpoint=ckpt, checkpoint_every=4,
                faults=FaultPlan.crash(2, 60), timeout=10.0,
            )
        first_stop = ckpt.block
        assert 0 < first_stop < blocks(b)
        resumed = run_align_mpi(RANKS, a, b, tile=TILE, checkpoint=ckpt, checkpoint_every=4)
        assert_results_bit_identical(resumed, baseline)
        assert ckpt.block == blocks(b) > first_stop

    def test_resume_rejects_another_tile(self, pair):
        # Completed blocks are counted in tile widths, so a relaunch
        # must sweep the same column blocks as the run that saved them.
        a, b = pair
        ckpt = AlignCheckpoint()
        run_align_mpi(RANKS, a, b, tile=TILE, checkpoint=ckpt)
        assert ckpt.tile == TILE
        with pytest.raises(RankFailedError, match="tile"):
            run_align_mpi(RANKS, a, b, tile=TILE + 1, checkpoint=ckpt)

    def test_restore_rejects_mismatched_shape(self, pair):
        a, b = pair
        ckpt = AlignCheckpoint()
        ckpt.save(3, np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(RankFailedError, match="checkpoint matrix"):
            run_align_mpi(RANKS, a, b, checkpoint=ckpt)


class TestStragglers:
    def test_straggle_and_delay_do_not_change_the_answer(self, pair, baseline):
        a, b = pair
        plan = FaultPlan(
            [
                FaultEvent("straggle", 2, 10, 0.005),
                FaultEvent("delay", 1, 15, 0.005),
                FaultEvent("straggle", 3, 30, 0.002),
            ]
        )
        result = run_align_mpi(RANKS, a, b, tile=TILE, faults=plan)
        assert_results_bit_identical(result, baseline)

    def test_sampled_nonfatal_plan_is_bit_identical(self, pair, baseline):
        a, b = pair
        plan = FaultPlan.sample(
            17, RANKS, 80, straggle_prob=0.05, delay_prob=0.05, seconds=0.001
        )
        assert len(plan) > 0
        result = run_align_mpi(RANKS, a, b, tile=TILE, faults=plan)
        assert_results_bit_identical(result, baseline)


class TestValidation:
    def test_more_ranks_than_rows_raises_consistently(self):
        with pytest.raises(RankFailedError, match="interior row"):
            run_align_mpi(4, "AC", "ACGT")
