import csv

import numpy as np
import pytest
from helpers_oracles import greedy_online_reference

from matchmarket.market import InstanceSampler, make_instance, sample_instance
from matchmarket.online import (
    ArrivalSequence,
    greedy_online,
    online_poa_empirical,
    write_online_csv,
)
from matchmarket.returns import GRID_NODES, MONOPOLY, competition, grid, parametric
from matchmarket.selfish import solve_selfish


class TestGreedyOnline:
    def test_hand_example(self):
        # user 0 arrives first and takes 0.5 of the unit column; user 1
        # gets the remainder: u = (0.5, 0.25), value = pi(0.5) + pi(0.25)
        inst = make_instance([[1.0], [0.5]])
        seq = ArrivalSequence(order=np.array([0, 1]), instance=inst)
        sol = greedy_online(seq, [parametric(0.0)] * 2)
        assert sol.matching.u[0] == pytest.approx(0.5, abs=1e-9)
        assert sol.matching.u[1] == pytest.approx(0.25, abs=1e-9)
        assert sol.value == pytest.approx(0.35789473684, abs=1e-6)

    def test_order_matters(self):
        inst = make_instance([[1.0], [0.5]])
        a = greedy_online(ArrivalSequence(np.array([0, 1]), inst),
                          [parametric(0.0)] * 2)
        b = greedy_online(ArrivalSequence(np.array([1, 0]), inst),
                          [parametric(0.0)] * 2)
        assert a.matching.u[1] != pytest.approx(b.matching.u[1])

    def test_single_user_matches_offline(self):
        rng = np.random.default_rng(4)
        model = [parametric(0.0)]
        for _ in range(20):
            inst = make_instance(rng.random((1, 3)))
            seq = ArrivalSequence(order=np.array([0]), instance=inst)
            online = greedy_online(seq, model)
            offline = solve_selfish(inst, model)
            assert online.value == pytest.approx(offline.value, abs=1e-6)

    def test_zero_weights(self):
        inst = make_instance(np.zeros((2, 2)))
        seq = ArrivalSequence(order=np.array([0, 1]), instance=inst)
        sol = greedy_online(seq, [parametric(0.0)] * 2)
        assert sol.value == 0.0
        assert sol.matching.x.sum() == 0.0

    def test_feasible_after_all_arrivals(self):
        rng = np.random.default_rng(9)
        models = [parametric(0.25)] * 5
        for trial in range(20):
            inst = make_instance(rng.random((5, 3)))
            seq = ArrivalSequence(order=rng.permutation(5), instance=inst)
            sol = greedy_online(seq, models)
            x = sol.matching.x
            assert x.min() >= 0.0
            assert x.sum(axis=1).max() <= 1.0 + 1e-9
            assert x.sum(axis=0).max() <= 1.0 + 1e-9

    def test_never_beats_offline(self):
        rng = np.random.default_rng(21)
        models = [parametric(0.0)] * 3
        for trial in range(15):
            inst = make_instance(rng.beta(2, 2, (3, 3)))
            seq = ArrivalSequence(order=rng.permutation(3), instance=inst)
            online = greedy_online(seq, models)
            offline = solve_selfish(inst, models, seed=trial)
            assert online.value <= offline.value + 1e-7

    def test_ties_prefer_lowest_column(self):
        inst = make_instance([[0.3, 0.3]])
        seq = ArrivalSequence(order=np.array([0]), instance=inst)
        sol = greedy_online(seq, [parametric(0.0)])
        assert sol.matching.x[0, 0] > sol.matching.x[0, 1]

    def test_order_validation(self):
        inst = make_instance([[1.0], [0.5]])
        with pytest.raises(ValueError):
            ArrivalSequence(order=np.array([0, 0]), instance=inst)
        with pytest.raises(ValueError):
            ArrivalSequence(order=np.array([0]), instance=inst)


def _assert_matches_reference(seq, models, stationary=MONOPOLY):
    got = greedy_online(seq, models, stationary)
    ref = greedy_online_reference(seq, models, stationary)
    assert got.matching.x.tobytes() == ref.matching.x.tobytes()
    assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()


class TestGreedyReference:
    """The list-based arrivals give the numpy reference's x and value, bit for bit."""

    def test_online_command_trials(self):
        # the 200 trials of `matchmarket online --m 5 --n 5 --trials 200 --seed 1`
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=1)
        models = [parametric(0.0)] * 5
        for trial in range(200):
            inst = sample_instance(sampler, 5, 5, trial)
            order = np.random.default_rng(np.random.SeedSequence((1, trial, 1))).permutation(5)
            _assert_matches_reference(ArrivalSequence(order, inst), models)

    @pytest.mark.parametrize("w, order", [
        ([[0.3, 0.6, 0.3, 0.6], [0.6, 0.6, 0.6, 0.6]], [0, 1]),  # tied weights in a row
        ([[0.0, 0.0, 0.0], [0.4, 0.0, 0.9], [0.7, 0.0, 0.2]], [1, 0, 2]),  # zero row and column
        ([[0.9, 0.5], [0.8, 0.8], [0.6, 0.7], [0.5, 0.5]], [2, 0, 3, 1]),  # m > n
        ([[0.2, 0.9, 0.9, 0.4, 0.1], [0.3, 0.8, 0.1, 0.8, 0.5]], [1, 0]),  # m < n
        ([[0.1, 0.2, 0.1], [0.05, 0.3, 0.3]], [0, 1]),  # peaks above what a row can reach
    ])
    @pytest.mark.parametrize("stationary", [MONOPOLY, competition(0.1)])
    def test_hand_cases(self, w, order, stationary):
        inst = make_instance(w)
        nodes = np.linspace(0, 1, GRID_NODES)
        mixed = [parametric(0.75), grid(nodes * (1 - nodes) ** 0.5), parametric(0.0),
                 parametric(0.25)][:inst.m]
        for models in ([parametric(0.0)] * inst.m, mixed):
            _assert_matches_reference(ArrivalSequence(np.array(order), inst), models, stationary)


class TestOnlineEmpirical:
    def test_ratios_bounded(self):
        models = [parametric(0.0)] * 3
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=13)
        rep = online_poa_empirical(models, sampler, 3, 3, trials=30)
        assert rep.min_ratio > 0.0
        assert max(rep.ratios) <= 1.0 + 1e-7

    def test_csv_writer(self, tmp_path):
        models = [parametric(0.0)] * 2
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=2)
        rep = online_poa_empirical(models, sampler, 2, 2, trials=5)
        path = tmp_path / "online.csv"
        write_online_csv(rep, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "order_seed", "online_value",
                           "fair_value", "ratio"]
        assert len(rows) == 6
