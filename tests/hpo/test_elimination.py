"""Tests for the elimination tournament (successive halving) variation."""

import numpy as np
import pytest

from repro.hpo import (
    hyperparameter_grid,
    make_digit_dataset,
    run_elimination_mpi,
    successive_halving,
)
from repro.hpo.elimination import _plan


@pytest.fixture(scope="module")
def data():
    x, y = make_digit_dataset(400, noise=0.1, seed=0)
    return x[:280], y[:280], x[280:], y[280:]


@pytest.fixture(scope="module")
def grid():
    return hyperparameter_grid(
        hidden_options=[(8,), (16,), (24,), (32,)],
        lr_options=[0.1, 0.02],
        epochs_options=[1],  # epochs come from the tournament budget
        seeds=[0],
    )


@pytest.fixture(scope="module")
def serial_report(grid, data):
    return successive_halving(grid, *data, total_epoch_budget=24, keep_fraction=0.5)


class TestPlan:
    def test_population_shrinks_to_one(self):
        schedule = _plan(8, 48, 0.5)
        populations = [pop for pop, _ in schedule]
        assert populations[0] == 8
        assert populations[-1] == 1
        assert all(a > b for a, b in zip(populations, populations[1:]))

    def test_survivors_get_more_epochs(self):
        schedule = _plan(8, 48, 0.5)
        epochs = [e for _, e in schedule]
        assert epochs[-1] > epochs[0]

    def test_single_config(self):
        schedule = _plan(1, 10, 0.5)
        assert schedule == [(1, 10)]


class TestSuccessiveHalving:
    def test_rounds_shrink_population(self, serial_report, grid):
        populations = [len(r.scores) for r in serial_report.rounds]
        assert populations[0] == len(grid)
        assert populations[-1] == 1
        assert all(a >= b for a, b in zip(populations, populations[1:]))

    def test_eliminated_are_the_worst(self, serial_report):
        for record in serial_report.rounds[:-1]:
            if not record.eliminated:
                continue
            worst_survivor = min(record.scores[c] for c in record.survivors)
            best_eliminated = max(record.scores[c] for c in record.eliminated)
            # Ties break by config index, so allow equality.
            assert best_eliminated <= worst_survivor

    def test_final_models_survived_everything(self, serial_report):
        final = set(serial_report.final_models)
        assert final == set(serial_report.rounds[-1].survivors)
        assert len(final) == 1

    def test_winner_and_ensemble(self, serial_report):
        winner = serial_report.winner
        assert winner in serial_report.final_models
        ens = serial_report.ensemble()
        assert len(ens) == len(serial_report.final_models)

    def test_winner_is_reasonably_good(self, serial_report, data):
        *_ , val_x, val_y = data
        model = serial_report.final_models[serial_report.winner]
        assert model.accuracy(val_x, val_y) > 0.7

    def test_validation(self, data):
        with pytest.raises(ValueError, match="empty"):
            successive_halving([], *data)
        g = hyperparameter_grid(hidden_options=[(8,)], lr_options=[0.1])
        with pytest.raises(ValueError, match="keep_fraction"):
            successive_halving(g, *data, keep_fraction=1.0)


class TestDistributedElimination:
    @pytest.mark.parametrize("ranks", [1, 2, 3])
    def test_matches_serial_exactly(self, grid, data, serial_report, ranks):
        report = run_elimination_mpi(
            ranks, grid, *data, total_epoch_budget=24, keep_fraction=0.5
        )
        assert len(report.rounds) == len(serial_report.rounds)
        for got, want in zip(report.rounds, serial_report.rounds):
            assert got.survivors == want.survivors
            assert got.eliminated == want.eliminated
            assert got.scores == want.scores
        assert report.winner == serial_report.winner
        got_w = report.final_models[report.winner].get_weights()
        want_w = serial_report.final_models[serial_report.winner].get_weights()
        for a, b in zip(got_w, want_w):
            np.testing.assert_array_equal(a, b)

    def test_resources_reassigned_each_round(self, grid, data):
        # With 4 ranks and 8 configs, after one halving only 4 survive —
        # every rank still gets work (1 config each), which is the point.
        report = run_elimination_mpi(4, grid, *data, total_epoch_budget=24)
        assert len(report.rounds[1].scores) == 4

    def test_empty_grid_rejected(self, data):
        with pytest.raises(ValueError, match="empty"):
            run_elimination_mpi(2, [], *data)

    def test_options_checked_like_serial(self, grid, data):
        with pytest.raises(ValueError, match="keep_fraction"):
            run_elimination_mpi(2, grid, *data, keep_fraction=1.0)
        with pytest.raises(ValueError, match="total_epoch_budget"):
            run_elimination_mpi(2, grid, *data, total_epoch_budget=0)
