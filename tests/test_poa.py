import csv
import json

import numpy as np
import pytest
from helpers_oracles import ubar
from scipy.optimize import brentq

from matchmarket.market import InstanceSampler
from matchmarket.poa import (
    BoundError,
    competition_sweep,
    empirical_poa,
    theorem1_bound,
    write_summary_json,
    write_sweep_csv,
    write_trials_csv,
)
from matchmarket.returns import GRID_NODES, MONOPOLY, Evaluator, grid, parametric


class TestTheorem1Bound:
    def test_alpha0_values(self):
        rep = theorem1_bound([parametric(0.0)])
        assert rep.H == pytest.approx(1.0)
        assert rep.L == pytest.approx(0.363, abs=1e-3)
        assert rep.bound == pytest.approx(0.1815, abs=1e-3)

    def test_fixed_point_equation(self):
        rep = theorem1_bound([parametric(0.0), parametric(0.5)])
        assert rep.c == pytest.approx((rep.H / 2.0) * rep.L, abs=1e-7)

    def test_ubars_satisfy_slope_condition(self):
        models = [parametric(a) for a in (0.0, 0.25, 0.75)]
        rep = theorem1_bound(models)
        for mod, ub in zip(models, rep.u_bars):
            assert float(Evaluator([mod], MONOPOLY).pi_prime([ub])[0]) == pytest.approx(
                rep.c, abs=1e-6)

    def test_bound_in_valid_range(self):
        for alphas in ([0.0], [0.5], [0.0, 0.25, 0.5, 0.75]):
            rep = theorem1_bound([parametric(a) for a in alphas])
            assert 0.0 < rep.bound <= 0.5

    def test_alpha0_c_equals_half_ubar(self):
        # with a single model, c = (H/2) L means c = ubar / 2 when H = 1
        rep = theorem1_bound([parametric(0.0)])
        assert rep.c == pytest.approx(rep.L / 2.0, abs=1e-7)

    def test_duplicate_models_do_not_change_bound(self):
        a = theorem1_bound([parametric(0.25)])
        b = theorem1_bound([parametric(0.25)] * 5)
        assert a.bound == b.bound
        assert a.c == b.c

    def test_residual_monotone(self):
        models = [parametric(0.0)]
        rep = theorem1_bound(models)

        def resid(c):
            return (rep.H / 2.0) * ubar(models[0], c) - c

        cs = np.linspace(1e-6, rep.h - 1e-6, 9)
        vals = [resid(c) for c in cs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alphas", [[0.0], [0.25], [0.5], [0.75], [0.1, 0.6, 0.9]])
    def test_matches_nested_brentq_reference(self, alphas):
        """c, L and the bound against the fixed point of c = (H/2) L(c) found
        by brentq on the residual, with every ubar_i(c) found by brentq on
        the closed-form pi_i'; H = q'(0) = 1 for this family."""

        def pi_prime(alpha, u):
            e, r = 1.0 - alpha, 1.0 - u
            q = u * r ** e
            return r ** (e - 1.0) * (r - u * e) / (1.0 + q) ** 2

        def L(c):
            return min(brentq(lambda u, a=a: pi_prime(a, u) - c, 0.0, 1.0 - 1e-12,
                              xtol=1e-15) for a in alphas)

        c_ref = brentq(lambda c: 0.5 * L(c) - c, 1e-12, 1.0 - 1e-12, xtol=1e-15)
        rep = theorem1_bound([parametric(a) for a in alphas])
        assert rep.H == 1.0
        assert rep.c == pytest.approx(c_ref, abs=1e-10)
        assert rep.L == pytest.approx(L(c_ref), abs=1e-10)
        assert rep.bound == pytest.approx(L(c_ref) / 2.0, abs=1e-10)

    def test_non_concave_model_rejected(self):
        vals = np.zeros(GRID_NODES)
        vals[5] = 0.5
        vals[15] = 0.5
        with pytest.raises(BoundError):
            theorem1_bound([grid(vals)])

    def test_flat_model_rejected(self):
        with pytest.raises(BoundError):
            theorem1_bound([grid(np.zeros(GRID_NODES))])


class TestEmpiricalPoA:
    def test_single_slot_ratio_half(self):
        # w = [[1.0]]: fair gives u = 1, selfish stops at the pi peak u = 0.5
        sampler = InstanceSampler("explicit", matrix=np.array([[1.0]]))
        rep = empirical_poa([parametric(0.0)], sampler, 1, 1, trials=1)
        assert rep.min_ratio == pytest.approx(0.5, abs=1e-4)

    def test_ratios_respect_bound(self):
        models = [parametric(0.0)] * 3
        bound = theorem1_bound(models).bound
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=7)
        rep = empirical_poa(models, sampler, 3, 3, trials=20)
        assert rep.min_ratio >= bound - 1e-6
        assert max(rep.ratios) <= 1.0 + 1e-7

    def test_all_degenerate_raises(self):
        sampler = InstanceSampler("explicit", matrix=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="degenerate"):
            empirical_poa([parametric(0.0)] * 2, sampler, 2, 2, trials=3)

    def test_degenerate_counted_with_nan_record(self):
        sampler = InstanceSampler("explicit", matrix=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            empirical_poa([parametric(0.0)], sampler, 1, 1, trials=2)

    def test_trials_validation(self):
        sampler = InstanceSampler("uniform", seed=0)
        with pytest.raises(ValueError):
            empirical_poa([parametric(0.0)], sampler, 1, 1, trials=0)


class TestSweep:
    def test_min_ratio_improves_as_eps_shrinks(self):
        models = [parametric(0.0)] * 2
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=11)
        sweep = competition_sweep(models, sampler, 2, 2, trials=10,
                                  eps_list=[0.1, 0.001])
        assert sweep[0.001].min_ratio >= sweep[0.1].min_ratio - 1e-6


class TestWriters:
    def test_trials_csv(self, tmp_path):
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=1)
        rep = empirical_poa([parametric(0.0)] * 2, sampler, 2, 2, trials=4)
        path = tmp_path / "trials.csv"
        write_trials_csv(rep, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "seed", "fair_value", "selfish_value", "ratio"]
        assert len(rows) == 5

    def test_summary_json(self, tmp_path):
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=1)
        rep = empirical_poa([parametric(0.0)] * 2, sampler, 2, 2, trials=4)
        path = tmp_path / "summary.json"
        write_summary_json(rep, path)
        payload = json.loads(path.read_text())
        assert payload["trials"] == 4
        assert payload["min_ratio"] == pytest.approx(rep.min_ratio)

    def test_sweep_csv_sorted_by_eps_desc(self, tmp_path):
        models = [parametric(0.0)]
        sampler = InstanceSampler("uniform", seed=2)
        sweep = competition_sweep(models, sampler, 1, 1, trials=3,
                                  eps_list=[0.01, 0.5])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "eps"
        assert float(rows[1][0]) > float(rows[2][0])
