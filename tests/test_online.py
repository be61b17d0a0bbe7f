import csv

import numpy as np
import pytest

from matchmarket.market import InstanceSampler, make_instance
from matchmarket.online import (
    ArrivalSequence,
    greedy_online,
    online_poa_empirical,
    write_online_csv,
)
from matchmarket.returns import parametric
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
