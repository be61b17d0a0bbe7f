"""End-to-end acceptance checks for the released behavior of the package.

Each test maps to one acceptance criterion: bound reproduction, Monte-Carlo
dominance of the theoretical bound, oracle equivalence for both solvers,
competition-limit convergence, online-policy dominance, derivative and
concavity certificates, the behavioral-study property suite, and bytewise
determinism of CSV artifacts.
"""

import time

import numpy as np
import pytest
from helpers_oracles import brute_force_fair, oracle_2x2, oracle_single_row

from matchmarket.experiment import STUDY_BETA, StudyConfig, run_batch
from matchmarket.fair import solve_fair
from matchmarket.market import InstanceSampler, make_instance, sample_instance
from matchmarket.online import online_poa_empirical, write_online_csv
from matchmarket.poa import (
    competition_sweep,
    empirical_poa,
    theorem1_bound,
    write_trials_csv,
)
from matchmarket.returns import (
    Evaluator,
    argmax_pi_competition,
    competition,
    eval_q,
    eval_q_prime,
    parametric,
    pi_monopoly,
)
from matchmarket.selfish import GAP_TOL_PER_USER, MONOPOLY, kkt_residual_of, solve_selfish

ALPHAS = [0.0, 0.25, 0.5, 0.75]
SWEEP_EPS = [0.5, 0.1, 0.01, 0.001]  # the default eps list of the CLI's sweep


class TestBoundReproduction:
    def test_example_values_fast(self):
        start = time.perf_counter()
        rep = theorem1_bound([parametric(0.0)])
        elapsed = time.perf_counter() - start
        assert rep.L == pytest.approx(0.363, abs=1e-3)
        assert rep.bound == pytest.approx(0.1815, abs=1e-3)
        assert elapsed < 1.0


class TestEmpiricalDominance:
    def test_ratios_dominate_bound(self):
        start = time.perf_counter()
        for alpha in ALPHAS:
            models = [parametric(alpha)] * 5
            bound = theorem1_bound(models).bound
            sampler = InstanceSampler("beta", 2.0, 2.0, seed=42)
            rep = empirical_poa(models, sampler, 5, 5, trials=500)
            assert rep.degenerate == 0
            assert min(rep.ratios) >= bound - 1e-6
            assert max(rep.ratios) <= 1.0 + 1e-7
        assert time.perf_counter() - start < 120.0


class TestSelfishOracleEquivalence:
    def test_single_row_instances(self):
        rng = np.random.default_rng(17)
        model = parametric(0.0)
        for trial in range(25):
            n = int(rng.integers(1, 4))
            inst = make_instance(rng.random((1, n)))
            sol = solve_selfish(inst, [model], seed=trial)
            assert sol.value == pytest.approx(
                oracle_single_row(inst.w[0], model), abs=2e-3)
            assert sol.fw_gap <= 1e-7
            assert kkt_residual_of(inst, [model], sol).max_residual <= 1e-6

    def test_2x2_instances(self):
        rng = np.random.default_rng(18)
        models = [parametric(0.0)] * 2
        for trial in range(25):
            inst = make_instance(rng.random((2, 2)))
            sol = solve_selfish(inst, models, seed=trial)
            assert sol.value == pytest.approx(
                oracle_2x2(inst.w, models), abs=2e-3)
            assert sol.fw_gap <= 1e-7 * 2
            assert kkt_residual_of(inst, models, sol).max_residual <= 1e-6

    def test_2x2_competition_instances(self):
        # the oracle's grid points are feasible, so a value below it means the
        # multistart solver missed the optimum
        sampler = InstanceSampler(seed=7)
        for eps in SWEEP_EPS:
            stat = competition(eps)
            for alpha in ALPHAS:
                models = [parametric(alpha)] * 2
                for trial in range(3):
                    inst = sample_instance(sampler, 2, 2, trial)
                    sol = solve_selfish(inst, models, stat)
                    oracle = oracle_2x2(inst.w, models, stat)
                    assert oracle - 1e-9 <= sol.value <= oracle + 2e-3, (eps, alpha, trial)


class TestSizeIndependence:
    """Theorem 1's bound holds at every market size, as it depends only on
    the return models. Every alpha runs at every size: on a 2-CPU host the
    alpha 0.75 trials take about 0.7 s at 50x50 and under 0.1 s at 20x20."""

    @pytest.mark.parametrize("dist", ["beta", "uniform"])
    @pytest.mark.parametrize("size, trials", [(10, 6), (20, 3), (50, 2)])
    def test_ratios_dominate_bound(self, dist, size, trials):
        sampler = InstanceSampler(dist, seed=42)
        for alpha in ALPHAS:
            models = [parametric(alpha)] * size
            bound = theorem1_bound(models).bound
            for trial in range(trials):
                inst = sample_instance(sampler, size, size, trial)
                sol = solve_selfish(inst, models, seed=42)
                assert sol.mode == "concave-exact"
                assert sol.fw_gap <= GAP_TOL_PER_USER * size
                assert kkt_residual_of(inst, models, sol).max_residual <= 1e-6
                assert sol.starts_capped == 0
                assert sol.weight_solves_short == 0
                ratio = sol.matching.u.sum() / solve_fair(inst).value
                assert ratio >= bound, (alpha, trial, ratio, bound)


class TestFairOracleEquivalence:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            inst = make_instance(rng.random((m, n)))
            assert solve_fair(inst).value == pytest.approx(
                brute_force_fair(inst), abs=1e-9)


class TestCompetitionLimit:
    def test_argmax_converges_to_one(self):
        model = parametric(0.0)
        stars = [argmax_pi_competition(model, e)
                 for e in (0.1, 0.01, 0.001, 1e-4)]
        assert all(b > a for a, b in zip(stars, stars[1:]))
        assert stars[-1] > 0.98
        assert argmax_pi_competition(model, 0.042667) == pytest.approx(
            0.8, abs=1e-4)

    def test_sweep_min_ratio_nondecreasing(self):
        models = [parametric(0.0)] * 2
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=5)
        sweep = competition_sweep(models, sampler, 2, 2, trials=5,
                                  eps_list=[0.5, 0.1, 0.01, 0.001])
        mins = [sweep[e].min_ratio for e in (0.5, 0.1, 0.01, 0.001)]
        assert all(b >= a - 1e-6 for a, b in zip(mins, mins[1:]))


class TestOnlineDominance:
    def test_online_ratio_and_dominance(self):
        models = [parametric(0.0)] * 5
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=42)
        rep = online_poa_empirical(models, sampler, 5, 5, trials=500)
        assert rep.degenerate == 0
        assert min(rep.ratios) >= 0.1815 - 0.02

    def test_greedy_never_beats_offline_objective(self):
        from matchmarket.online import ArrivalSequence, greedy_online

        models = [parametric(0.0)] * 5
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=42)
        for trial in range(500):
            inst = sample_instance(sampler, 5, 5, trial)
            order_rng = np.random.default_rng(
                np.random.SeedSequence((42, trial, 1)))
            seq = ArrivalSequence(order=order_rng.permutation(5),
                                  instance=inst)
            on = greedy_online(seq, models)
            off = solve_selfish(inst, models, seed=trial)
            assert on.value <= off.value + 1e-7


class TestDerivativesAndConcavity:
    def test_q_prime_central_differences(self):
        us = np.linspace(0.005, 0.95, 99)
        h = 1e-6
        for alpha in ALPHAS:
            m = parametric(alpha)
            numeric = (eval_q(m, us + h) - eval_q(m, us - h)) / (2 * h)
            np.testing.assert_allclose(eval_q_prime(m, us), numeric, atol=1e-5)

    def test_objective_gradient_central_differences(self):
        us = np.linspace(0.005, 0.95, 99)
        h = 1e-6
        for alpha in ALPHAS:
            m = parametric(alpha)
            grad = np.array([float(Evaluator([m], MONOPOLY).pi_prime([u])[0]) for u in us])
            numeric = np.array([
                (float(pi_monopoly(m, u + h)) - float(pi_monopoly(m, u - h)))
                / (2 * h) for u in us
            ])
            np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_pi_second_differences_negative(self):
        us = np.linspace(0.05, 0.95, 99)
        h = 1e-4
        for alpha in ALPHAS:
            m = parametric(alpha)
            second = (np.asarray(pi_monopoly(m, us + h))
                      - 2 * np.asarray(pi_monopoly(m, us))
                      + np.asarray(pi_monopoly(m, us - h))) / h**2
            assert second.max() <= -1e-8


@pytest.fixture(scope="module")
def study_batches():
    start = time.perf_counter()
    out = {}
    for study in ("A", "B", "C"):
        cfg = StudyConfig(study=study, seed=11)
        out[study] = run_batch(cfg, pairs=200)
    assert time.perf_counter() - start < 300.0
    return out


class TestBehavioralStudies:
    @staticmethod
    def _matched_mean(results, arm):
        payoffs = np.concatenate(
            [res.arms[arm].matched_payoffs for res in results])
        return float(payoffs.mean())

    def test_a_fair_dominates_and_gap_ordering(self, study_batches):
        gaps = {}
        for study, (results, _agg) in study_batches.items():
            fair = self._matched_mean(results, "Fair")
            selfish = self._matched_mean(results, "Selfish")
            assert fair >= selfish
            a, b = STUDY_BETA[study]
            study_mean = 20.0 * a / (a + b)
            gaps[study] = (fair - selfish) / study_mean
        assert gaps["A"] > gaps["B"] > gaps["C"]

    def test_b_selfish_engagement_higher(self, study_batches):
        for results, agg in study_batches.values():
            assert agg["selfish_engagement"] > agg["fair_engagement"]

    def test_c_drop_difference_not_sign_stable(self, study_batches):
        for results, _agg in study_batches.values():
            diffs = [res.metrics["fair_drop_rate"]
                     - res.metrics["selfish_drop_rate"] for res in results]
            assert not all(d > 0 for d in diffs)
            assert not all(d < 0 for d in diffs)

    def test_d_fair_random_selfish_ordering(self, study_batches):
        for results, _agg in study_batches.values():
            fair = self._matched_mean(results, "Fair")
            random = self._matched_mean(results, "Random")
            selfish = self._matched_mean(results, "Selfish")
            assert fair >= random >= selfish


class TestDeterminism:
    def test_poa_csv_byte_identical(self, tmp_path):
        models = [parametric(0.0)] * 3
        paths = []
        for name in ("a.csv", "b.csv"):
            sampler = InstanceSampler("beta", 2.0, 2.0, seed=21)
            rep = empirical_poa(models, sampler, 3, 3, trials=10)
            path = tmp_path / name
            write_trials_csv(rep, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_online_csv_byte_identical(self, tmp_path):
        models = [parametric(0.0)] * 3
        paths = []
        for name in ("a.csv", "b.csv"):
            sampler = InstanceSampler("beta", 2.0, 2.0, seed=22)
            rep = online_poa_empirical(models, sampler, 3, 3, trials=10)
            path = tmp_path / name
            write_online_csv(rep, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sim_metrics_byte_identical(self, tmp_path):
        from matchmarket.experiment import write_metrics_csv

        paths = []
        for name in ("a.csv", "b.csv"):
            _, agg = run_batch(StudyConfig(study="B", seed=23), pairs=5)
            path = tmp_path / name
            write_metrics_csv(agg, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
