import warnings
from functools import cache
from unittest import mock

import numpy as np
import pytest
from helpers_oracles import (
    correct_weights_reference,
    openblas_core,
    oracle_2x2,
    oracle_single_row,
    solve_selfish_integral,
)

from matchmarket import selfish
from matchmarket.market import InstanceSampler, make_instance, sample_instance
from matchmarket.returns import GRID_NODES, ReturnModelError, grid, parametric, pi_monopoly
from matchmarket.selfish import (
    Stationary,
    competition,
    kkt_residual,
    kkt_residual_of,
    solve_selfish,
)


class TestExamples:
    def test_single_user_alpha0(self):
        sol = solve_selfish(make_instance([[1.0]]), [parametric(0.0)])
        assert sol.value == pytest.approx(0.2, abs=1e-6)
        assert sol.matching.u[0] == pytest.approx(0.5, abs=1e-6)

    def test_single_user_two_slots(self):
        sol = solve_selfish(make_instance([[0.4, 1.0]]), [parametric(0.0)])
        assert sol.value == pytest.approx(0.2, abs=1e-6)
        assert sol.matching.u[0] == pytest.approx(0.5, abs=1e-6)

    def test_zero_weights(self):
        sol = solve_selfish(make_instance(np.zeros((2, 2))),
                            [parametric(0.0)] * 2)
        assert sol.value == 0.0

    def test_self_sabotage(self):
        # every user is held at or below the peak of q even when w allows more
        inst = make_instance(np.ones((3, 3)))
        sol = solve_selfish(inst, [parametric(0.0)] * 3)
        assert np.all(sol.matching.u <= 0.5 + 1e-9)

    def test_competition_near_fair(self):
        sol = solve_selfish(make_instance([[1.0]]), [parametric(0.0)],
                            competition(1e-4))
        assert sol.matching.u[0] >= 0.99
        assert sol.mode == "multistart-local"


class TestOracle:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_single_row_matches_grid_search(self, alpha):
        rng = np.random.default_rng(11)
        model = parametric(alpha)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            w = rng.random((1, n))
            sol = solve_selfish(make_instance(w), [model])
            assert sol.value == pytest.approx(
                oracle_single_row(w[0], model), abs=2e-3)

    def test_2x2_matches_grid_search(self):
        rng = np.random.default_rng(23)
        models = [parametric(0.0)] * 2
        for trial in range(10):
            w = rng.random((2, 2))
            sol = solve_selfish(make_instance(w), models, seed=trial)
            assert sol.value == pytest.approx(oracle_2x2(w, models), abs=2e-3)

    def test_competition_single_row(self):
        rng = np.random.default_rng(3)
        stat = Stationary("competition", 0.05)
        model = parametric(0.0)
        for _ in range(10):
            w = rng.random((1, 2))
            sol = solve_selfish(make_instance(w), [model], stat)
            assert sol.value == pytest.approx(
                oracle_single_row(w[0], model, stat), abs=2e-3)


class TestCertificates:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.75])
    def test_gap_and_kkt(self, alpha):
        rng = np.random.default_rng(5)
        models = [parametric(alpha)] * 4
        for trial in range(10):
            inst = make_instance(rng.beta(2, 2, (4, 4)))
            sol = solve_selfish(inst, models, seed=trial)
            assert sol.fw_gap <= 1e-7 * inst.m
            rep = kkt_residual_of(inst, models, sol)
            assert rep.max_residual <= 1e-6

    def test_perturbed_point_fails_kkt(self):
        inst = make_instance([[1.0]])
        models = [parametric(0.0)]
        x = np.array([[0.8]])  # past the peak: stationarity must be violated
        rep = kkt_residual(inst, models, x, beta=np.zeros(1),
                           sigma=np.zeros(1))
        assert rep.max_residual > 0.1

    def test_jensen_dominance(self):
        rng = np.random.default_rng(19)
        models = [parametric(0.25)] * 3
        for trial in range(20):
            inst = make_instance(rng.random((3, 3)))
            frac = solve_selfish(inst, models, seed=trial).value
            integral = solve_selfish_integral(inst, models).value
            assert frac >= integral - 1e-7

    def test_deterministic(self):
        inst = make_instance(np.random.default_rng(2).random((4, 4)))
        models = [parametric(0.25)] * 4
        a = solve_selfish(inst, models, seed=9)
        b = solve_selfish(inst, models, seed=9)
        np.testing.assert_array_equal(a.matching.x, b.matching.x)


class TestMixedModels:
    def test_four_model_groups_certified(self):
        # every user has its own model, so the evaluator runs four groups
        rng = np.random.default_rng(7)
        models = [parametric(a) for a in (0.0, 0.25, 0.5, 0.75)]
        for trial in range(3):
            inst = make_instance(rng.beta(2, 2, (4, 4)))
            sol = solve_selfish(inst, models, seed=trial)
            assert sol.mode == "concave-exact"
            assert sol.fw_gap <= 1e-7 * inst.m
            assert kkt_residual_of(inst, models, sol).max_residual <= 1e-6

    def test_grid_model_user_certified(self):
        # a grid model is never certified concave, so the market is solved
        # from multiple starts; every start runs the same engine
        nodes = np.linspace(0, 1, GRID_NODES)
        rng = np.random.default_rng(7)
        models = [parametric(a) for a in (0.0, 0.25, 0.5)] + [grid(nodes * np.sqrt(1 - nodes))]
        for trial in range(3):
            inst = make_instance(rng.beta(2, 2, (4, 4)))
            sol = solve_selfish(inst, models, seed=trial)
            assert sol.mode == "multistart-local"
            assert sol.fw_gap <= 1e-7 * inst.m
            assert kkt_residual_of(inst, models, sol).max_residual <= 1e-6

    def test_multi_peaked_model_rejected(self):
        vals = np.zeros(GRID_NODES)
        vals[5] = 0.5
        vals[15] = 0.5
        inst = make_instance(np.full((2, 2), 0.5))
        with pytest.raises(ReturnModelError):
            solve_selfish(inst, [parametric(0.0), grid(vals)])


class TestCompetition:
    """Competition markets run every start through the Frank-Wolfe engine."""

    @staticmethod
    def _sweep_instances():
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=5)
        return [sample_instance(sampler, 2, 2, trial) for trial in range(5)]

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 0.001])
    def test_sweep_instances_certified_without_cap(self, eps):
        models = [parametric(0.0)] * 2
        stat = competition(eps)
        for inst in self._sweep_instances():
            sol = solve_selfish(inst, models, stat, seed=5)
            assert sol.mode == "multistart-local"
            assert sol.starts_capped == 0
            assert sol.fw_gap <= 1e-7 * inst.m
            assert kkt_residual_of(inst, models, sol, stat).max_residual <= 1e-6

    def test_mixed_alphas_converge_from_every_start(self, monkeypatch):
        # pi is convex on part of [0, 1] at eps = 0.1; such users enter the
        # Newton weight step with zero curvature, and every start converges
        # far inside the cap
        monkeypatch.setattr(selfish, "MAX_ITERS", 50)
        models = [parametric(a) for a in (0.5, 0.0, 0.75, 0.25)]
        stat = competition(0.1)
        sampler = InstanceSampler("beta", 2.0, 2.0, seed=0)
        for trial in range(2):
            inst = sample_instance(sampler, 4, 3, trial)
            sol = solve_selfish(inst, models, stat, seed=trial)
            assert sol.starts_capped == 0
            assert sol.weight_solves_short == 0
            assert sol.fw_gap <= 1e-7 * inst.m
            assert kkt_residual_of(inst, models, sol, stat).max_residual <= 1e-6

    def test_capped_starts_are_reported(self, monkeypatch):
        monkeypatch.setattr(selfish, "MAX_ITERS", 1)
        inst = self._sweep_instances()[0]
        sol = solve_selfish(inst, [parametric(0.0)] * 2, competition(0.1), seed=5)
        assert sol.starts_capped > 0


def _seed42(alpha, trials):
    models = [parametric(alpha)] * 5
    sampler = InstanceSampler("beta", 2.0, 2.0, seed=42)
    for trial in range(trials):
        inst = sample_instance(sampler, 5, 5, trial)
        yield inst, models, solve_selfish(inst, models, seed=42)


@cache
def _seed42_recorded(alpha):
    """The 50 seed-42 5x5 solves at ``alpha``, run once, and every weight
    solve they made as ((ev, UV, lam, tol), (lam, converged))."""
    calls = []
    solve = selfish._correct_weights

    def recording(ev, UV, lam, tol):
        args = (ev, UV.copy(), lam.copy(), tol)
        out = solve(ev, UV, lam, tol)
        calls.append((args, out))
        return out

    with mock.patch.object(selfish, "_correct_weights", recording):
        solves = list(_seed42(alpha, 50))
    return solves, calls


class TestWeightSolve:
    """The Newton weight step reaches its own gap tolerance, and a weight
    solve that stops short of it is counted in the solution."""

    # sum and max of the Frank-Wolfe iterations over trials 0-49 per alpha,
    # per OpenBLAS core: the weight solve's matrix products and LAPACK solve
    # round as the loaded library's kernels do. On 5 users every pi' and pi''
    # is computed on Python floats, so numpy's SIMD dispatch does not enter.
    FW_ITERATIONS = {
        "SkylakeX": {0.0: (205, 10), 0.25: (291, 14), 0.5: (405, 17), 0.75: (266, 10)},
        "Haswell": {0.0: (206, 10), 0.25: (295, 14), 0.5: (402, 17), 0.75: (266, 10)},
        "Sandybridge": {0.0: (207, 10), 0.25: (287, 14), 0.5: (407, 17), 0.75: (266, 10)},
        # OPENBLAS_CORETYPE=Prescott loads the core that reports itself as Katmai
        "Katmai": {0.0: (206, 10), 0.25: (293, 13), 0.5: (409, 18), 0.75: (266, 10)},
    }

    @classmethod
    def fw_iterations(cls, alpha, counted):
        core = openblas_core()
        if core not in cls.FW_ITERATIONS:
            pytest.fail(f"no pinned Frank-Wolfe iterations for OpenBLAS core {core!r}"
                        f" (this run counted {counted} at alpha {alpha})")
        return cls.FW_ITERATIONS[core][alpha]

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
    def test_converges_without_cap_on_seed42(self, alpha):
        solves, _ = _seed42_recorded(alpha)
        for inst, models, sol in solves:
            assert sol.mode == "concave-exact"
            assert sol.weight_solves_short == 0
            assert sol.starts_capped == 0
            assert sol.fw_gap <= 1e-7 * inst.m
            assert kkt_residual_of(inst, models, sol).max_residual <= 1e-6
        iterations = [sol.iterations for _, _, sol in solves]
        counted = (sum(iterations), max(iterations))
        assert counted == self.fw_iterations(alpha, counted)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
    def test_matches_reference_weight_solve(self, alpha):
        _, calls = _seed42_recorded(alpha)
        for (ev, UV, lam0, tol), (lam, converged) in calls:
            ref_lam, ref_converged = correct_weights_reference(ev, ev.peaks, UV, lam0, tol)
            assert lam.tobytes() == ref_lam.tobytes()
            assert converged == ref_converged
        # one per non-final FW iteration
        assert len(calls) == self.fw_iterations(alpha, len(calls) + 50)[0] - 50

    def test_capped_weight_solves_are_reported(self, monkeypatch):
        monkeypatch.setattr(selfish, "WEIGHT_MAX_ITERS", 1)
        short = 0
        for inst, models, sol in _seed42(0.25, 10):
            short += sol.weight_solves_short
            assert sol.fw_gap <= 1e-7 * inst.m
            assert kkt_residual_of(inst, models, sol).max_residual <= 1e-6
        assert short > 0

    def test_non_ascending_direction_is_reported(self, monkeypatch):
        # a weight solve whose Newton direction does not ascend keeps its
        # weights, returns unconverged and is counted in the solution
        monkeypatch.setattr(selfish, "_newton_direction",
                            lambda UV, g, curv, face: np.zeros(len(g)))
        monkeypatch.setattr(selfish, "MAX_ITERS", 3)
        _, calls = _seed42_recorded(0.25)
        # a recorded weight solve that moved its weights
        args = next(a for a, (out, _) in calls if out.tobytes() != a[2].tobytes())
        lam, converged = selfish._correct_weights(*args)
        assert lam.tobytes() == args[2].tobytes() and not converged
        inst = make_instance(np.random.default_rng(5).beta(2, 2, (4, 4)))
        sol = solve_selfish(inst, [parametric(0.25)] * 4)
        assert (sol.weight_solves_short, sol.starts_capped) == (3, 1)

    def test_singular_system_raises(self, monkeypatch):
        # without the ridge, two equal face rows at zero curvature make the
        # KKT system singular: np.linalg.solve's LinAlgError, and no warning
        monkeypatch.setattr(selfish, "WEIGHT_RIDGE", 0.0)
        UV = np.array([[0.5, 0.25], [0.5, 0.25], [0.125, 0.75]])
        g = np.array([0.375, 0.375, 0.25])
        face = np.array([True, True, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                selfish._newton_direction(UV, g, np.zeros(2), face)

    def test_seed42_solves_emit_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (0.0, 0.25, 0.5, 0.75):
                assert len(list(_seed42(alpha, 50))) == 50


class TestIntegral:
    def test_picks_best_per_edge_value(self):
        # pi(0.4) > pi(1.0) = 0 for q = u(1-u)
        inst = make_instance([[0.4, 1.0]])
        sol = solve_selfish_integral(inst, [parametric(0.0)])
        assert sol.matching.u[0] == pytest.approx(0.4)
        assert sol.value == pytest.approx(float(pi_monopoly(parametric(0.0), 0.4)))

    def test_mode_label(self):
        sol = solve_selfish_integral(make_instance([[0.5]]), [parametric(0.0)])
        assert sol.mode == "integral"
