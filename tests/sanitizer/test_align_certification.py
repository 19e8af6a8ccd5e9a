"""Certifying the align race-repair ladder with the schedule explorer.

Same acceptance bar as the k-means certification, on the wavefront
shape: the sanitizer must *find* the intentional races in the
``"racy"`` rung — the ``align.matches`` counter and the ``align.best``
box — with lost updates that physically manifest, and certify
``"critical"``/``"atomic"``/``"reduction"`` race-free across at least
50 explored schedules each. The per-cell ``align.H[i,j]`` annotations
mean a clean certificate also covers the per-tile-diagonal barrier
structure itself: remove a barrier and every rung lights up.

The 8 x 8 pair runs with ``tile=2``: 16 tiles on 7 tile diagonals, so
both threads own tiles on most diagonals and flush the statistics
concurrently. At the default tile the pair is a single tile, one thread
does all the work, and there would be no race left to find.
"""

import pytest

from repro.align import align_openmp, align_sequential, generate_pair
from repro.align.openmp_align import ALL_VARIANTS, VARIANTS
from repro.sanitizer import explore, explore_dfs, run_schedule

SCHEDULES = 50
TILE = 2


@pytest.fixture(scope="module")
def instance():
    a, b = generate_pair(5, 8)
    oracle = align_sequential(a, b)
    return a, b, oracle


def make_body(a, b, variant):
    def body():
        result = align_openmp(a, b, num_threads=2, variant=variant, tile=TILE)
        return (result.match_events, result.best_score, result.best_cell)

    return body


class TestRacyRungIsFlagged:
    def test_detector_flags_racy_variant(self, instance):
        a, b, _oracle = instance
        result = explore(make_body(a, b, "racy"), schedules=SCHEDULES, seed=1)
        assert not result.race_free
        assert len(result.racy_schedules()) >= 1
        cells = {race.cell for race in result.races}
        # Both intentional races: the match counter and the best-cell box.
        assert "align.matches" in cells
        assert "align.best" in cells

    def test_lost_updates_physically_manifest(self, instance):
        # Not just a flag: on adverse schedules the racy counter really
        # loses increments, so the reported statistic is wrong.
        a, b, oracle = instance
        result = explore(make_body(a, b, "racy"), schedules=SCHEDULES, seed=1)
        observed = {outcome.result[0] for outcome in result.outcomes}
        assert any(matches != oracle.match_events for matches in observed)
        assert all(matches <= oracle.match_events for matches in observed)

    def test_racy_schedule_replays_bit_identically(self, instance):
        a, b, _oracle = instance
        body = make_body(a, b, "racy")
        result = explore(body, schedules=10, seed=1)
        target = result.racy_schedules()[0]
        replay = run_schedule(body, seed=1, schedule_id=target.schedule_id)
        assert replay.choice_trace == target.choice_trace
        assert replay.result == target.result
        assert [r.signature for r in replay.races] == [r.signature for r in target.races]

    def test_racy_is_the_only_flagged_variant(self, instance):
        a, b, _oracle = instance
        flagged = {
            variant: not explore(make_body(a, b, variant), schedules=5, seed=2).race_free
            for variant in ALL_VARIANTS
        }
        assert flagged == {"racy": True, "critical": False, "atomic": False, "reduction": False}

    def test_matrix_is_correct_even_on_the_racy_rung(self, instance):
        # The wavefront itself is barrier-synchronized on every rung;
        # only the statistics race. The scores must therefore match the
        # oracle even on schedules that corrupt the counter.
        a, b, oracle = instance

        def body():
            result = align_openmp(a, b, num_threads=2, variant="racy", tile=TILE)
            return (result.score, result.matrix.tobytes())

        result = explore(body, schedules=10, seed=3)
        assert {o.result for o in result.outcomes} == {
            (oracle.score, oracle.matrix.tobytes())
        }


class TestCorrectRungsCertified:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_race_free_across_schedules(self, instance, variant):
        a, b, _oracle = instance
        result = explore(make_body(a, b, variant), schedules=SCHEDULES, seed=1)
        assert result.schedules_run == SCHEDULES
        assert result.race_free, [r.describe() for r in result.races]
        # Coverage sanity: the campaign really explored distinct orders.
        assert result.distinct_interleavings() > 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_result_schedule_independent(self, instance, variant):
        a, b, oracle = instance
        result = explore(make_body(a, b, variant), schedules=10, seed=4)
        outcomes = {o.result for o in result.outcomes}
        assert outcomes == {(oracle.match_events, oracle.best_score, oracle.best_cell)}

    @pytest.mark.slow
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_race_free_under_dfs(self, instance, variant):
        a, b, _oracle = instance
        result = explore_dfs(make_body(a, b, variant), max_schedules=32, max_depth=12)
        assert result.race_free, [r.describe() for r in result.races]

    @pytest.mark.slow
    def test_dfs_also_flags_racy(self, instance):
        a, b, _oracle = instance
        result = explore_dfs(make_body(a, b, "racy"), max_schedules=32, max_depth=12)
        assert not result.race_free
