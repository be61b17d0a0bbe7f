import hashlib
import itertools
import warnings
from functools import cache
from unittest import mock

import numpy as np
import pytest
from helpers_oracles import (
    correct_weights_reference,
    oracle_2x2,
    oracle_single_row,
    solve_selfish_integral,
)

from matchmarket import selfish
from matchmarket.fair import best_matching
from matchmarket.market import InstanceSampler, make_instance, sample_instance
from matchmarket.returns import (
    GRID_NODES,
    Evaluator,
    ReturnModelError,
    grid,
    parametric,
    pi_monopoly,
)
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


class TestLiveRowOracle:
    """The Frank-Wolfe oracle searches only the rows with a positive clamped
    gradient. On tied, degenerate and rectangular inputs it reaches the value
    of a search of every row, and its matching wherever the live rows'
    optimum is unique, on both arithmetics."""

    @staticmethod
    def _live_optima(g, live):
        """The optimum over matchings of the live rows and the distinct sets
        of positive edges that reach it, by enumeration; g's entries are
        dyadic, so every sum is exact."""
        best, optima = 0.0, {frozenset()}
        for cols in itertools.product(range(-1, g.shape[1]), repeat=len(live)):
            taken = [j for j in cols if j >= 0]
            if len(taken) != len(set(taken)):
                continue
            edges = frozenset((i, j) for i, j in zip(live, cols) if j >= 0 and g[i, j] > 0.0)
            value = sum(g[i, j] for i, j in edges)
            if value > best:
                best, optima = value, {edges}
            elif value == best:
                optima.add(edges)
        return best, optima

    @staticmethod
    def _cases():
        rng = np.random.default_rng(29)
        for _ in range(300):
            m, n = rng.integers(2, 6, 2)
            grow = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], m)
            w = rng.choice([0.0, 0.25, 0.5, 1.0], (m, n))
            yield grow, w
        for m, n in ((2, 5), (5, 2), (4, 4)):
            yield np.zeros(m), np.ones((m, n))  # every row at its peak
            yield np.ones(m), np.zeros((m, n))  # live rows of zero weight
            yield np.array([0.0] * (m - 1) + [1.0]), np.ones((m, n))

    def test_matches_a_search_of_every_row(self):
        cases = list(self._cases())
        unique = 0
        for grow, w in cases:
            m = len(grow)
            g = grow[:, None] * w
            full_match, full_value, _, _ = best_matching(g)
            live = [i for i in range(m) if grow[i] > 0.0]
            best, optima = self._live_optima(g, live)
            assert full_value == best
            ev = Evaluator([parametric(0.5)] * m)
            for ar, gr in ((selfish._Floats(ev, w.tolist()), grow.tolist()),
                           (selfish._Arrays(ev, w), grow)):
                row_match, value = selfish._oracle(ar, gr)
                assert value == full_value
                assert frozenset((i, j) for i, j in enumerate(row_match) if j >= 0) in optima
                if len(optima) == 1:
                    assert row_match == full_match
            unique += len(optima) == 1
        assert 0 < unique < len(cases)


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
    solve they made as ((ar, UV, lam, state, tol), (lam, converged, state))."""
    calls = []
    solve = selfish._correct_weights

    def recording(*args):
        out = solve(*args)
        calls.append((args, out))
        return out

    with mock.patch.object(selfish, "_correct_weights", recording):
        solves = list(_seed42(alpha, 50))
    return solves, calls


def _kkt_reference(UV, g, curv, face):
    """The Newton direction from np.linalg.solve on the full (p+1)x(p+1)
    KKT system of the face, [[H - r I, 1], [1^T, 0]], with H = A diag(curv)
    A^T for the face's rows A and the ridge r that ``_newton_direction``
    takes from the reduced system's diagonal."""
    A = np.asarray(UV, dtype=float)[face]
    p = len(A)
    H = (A * curv) @ A.T
    B = A[:-1] - A[-1]
    r = selfish.WEIGHT_RIDGE * (1.0 + np.diag(-(B * curv) @ B.T).max(initial=0.0))
    K = np.zeros((p + 1, p + 1))
    K[:p, :p] = H - r * np.eye(p)
    K[:p, p] = K[p, :p] = 1.0
    d = np.zeros(len(g))
    d[face] = np.linalg.solve(K, np.append(-np.asarray(g)[face], 0.0))[:p]
    return d


class _LineTrials:
    """An engine arithmetic that records what ``_ascent_step`` asks of it:
    the initial slope s0 (its one ``dot``) and each trial step's (t, slope)."""

    def __init__(self, ar):
        self.ar, self.dots, self.trials = ar, [], []

    def __getattr__(self, name):
        return getattr(self.ar, name)

    def dot(self, a, b):
        self.dots.append(self.ar.dot(a, b))
        return self.dots[-1]

    def slope(self, u0, t, du):
        self.trials.append((t, self.ar.slope(u0, t, du)))
        return self.trials[-1][1]


class TestWeightSolve:
    """The Newton weight step reaches its own gap tolerance, and a weight
    solve that stops short of it is counted in the solution."""

    # sum and max of the Frank-Wolfe iterations over trials 0-49 per alpha.
    # On 5 users the engine runs on Python floats with exactly rounded
    # products, so the counts do not depend on the host's BLAS or SIMD
    # dispatch.
    FW_ITERATIONS = {0.0: (267, 11), 0.25: (313, 16), 0.5: (444, 18), 0.75: (337, 13)}
    # the Newton directions that the weight solves of those trials computed
    # (``newton_steps``), summed per alpha
    NEWTON_STEPS = {0.0: 355, 0.25: 408, 0.5: 589, 0.75: 389}

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
        assert (sum(iterations), max(iterations)) == self.FW_ITERATIONS[alpha]

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
    def test_newton_steps_pinned_on_seed42(self, alpha):
        solves, _ = _seed42_recorded(alpha)
        assert sum(sol.newton_steps for _, _, sol in solves) == self.NEWTON_STEPS[alpha]

    @pytest.mark.parametrize("stationary", [Stationary("monopoly"), competition(0.5)])
    def test_newton_steps_count_every_direction(self, stationary):
        # one start, or 16 random starts and the fair matching
        calls = []
        direction = selfish._newton_direction

        def counting(*args):
            calls.append(args)
            return direction(*args)

        inst = make_instance(np.random.default_rng(5).beta(2, 2, (4, 4)))
        with mock.patch.object(selfish, "_newton_direction", counting):
            sol = solve_selfish(inst, [parametric(0.25)] * 4, stationary)
        assert sol.newton_steps == len(calls) > 0

    def test_weight_tolerance_follows_the_gap(self):
        # over the seed-42 solves and the 17 starts of the 4x4 competition
        # market above: each weight solve's tol lies in [floor, gap) for the
        # FW gap it was set from, and is the floor where the oracle's vertex
        # already has positive weight or the gap is already below gap_tol. A
        # run that ends below gap_tol ends after a tight correction, or at
        # its start (one vertex of weight 1, so a weight gap of 0), or at a
        # gap at most the floor
        events = []
        afw, oracle, correct = selfish._afw, selfish._oracle, selfish._correct_weights

        def recording_afw(inst, ev, gap_tol, start):
            events.append(("start", gap_tol))
            out = afw(inst, ev, gap_tol, start)
            events.append(("end", out[1]))
            return out

        def recording_oracle(ar, grow):
            out = oracle(ar, grow)
            events.append(("oracle", ar, grow, out))
            return out

        def recording_correct(ar, UV, lam, state, tol):
            events.append(("correct", UV, lam, state, tol))
            return correct(ar, UV, lam, state, tol)

        with mock.patch.multiple(selfish, _afw=recording_afw, _oracle=recording_oracle,
                                 _correct_weights=recording_correct):
            for alpha in (0.0, 0.25, 0.5, 0.75):
                assert len(list(_seed42(alpha, 50))) == 50
            inst = make_instance(np.random.default_rng(5).beta(2, 2, (4, 4)))
            solve_selfish(inst, [parametric(0.25)] * 4, competition(0.5))
        counts = {"loose": 0, "positive": 0, "below": 0, "runs": 0}
        for event in events:
            kind, *args = event
            if kind == "start":
                gap_tol = args[0]
                floor = selfish.WEIGHT_GAP_FRACTION * gap_tol
                last_tol = None
            elif kind == "oracle":
                ar, grow, (row_match, value) = args
            elif kind == "correct":
                UV, lam, state, tol = args
                assert state[1] is grow
                gap = value - ar.dot(grow, state[0])
                vertex = [ar.w[i][j] if j >= 0 else 0.0 for i, j in enumerate(row_match)]
                (k,) = [k for k, row in enumerate(UV) if list(map(float, row)) == vertex]
                assert floor <= tol < gap
                if lam[k] > 0.0 or gap <= gap_tol:
                    assert tol == floor
                    counts["positive" if lam[k] > 0.0 else "below"] += 1
                else:
                    counts["loose"] += tol > floor
                last_tol = tol
            else:
                counts["runs"] += 1
                if args[0] <= gap_tol:
                    assert last_tol in (None, floor) or args[0] <= floor
        assert counts["runs"] == 200 + 17
        assert min(counts.values()) > 0, counts

    def test_full_newton_step_is_kept(self):
        # near the optimum a Newton step lands on the line's maximizer, so
        # the slope at its end is negative only by rounding. Replay each line
        # search of seed-42 trial 3 at alpha 0.5 whose full step tmax = 1
        # overshoots the maximizer by at most 1e-9 of its length: the step
        # kept must be at least 0.999 tmax, and the slope there non-negative
        calls = []
        step = selfish._ascent_step

        def recording(*args):
            calls.append(args)
            return step(*args)

        inst = sample_instance(InstanceSampler("beta", 2.0, 2.0, seed=42), 5, 5, 3)
        with mock.patch.object(selfish, "_ascent_step", recording):
            solve_selfish(inst, [parametric(0.5)] * 5)
        replayed = 0
        for ar, UV, lam, state, d in calls:
            line = _LineTrials(ar)
            out = step(line, UV, lam, state, d)
            if out is None:
                continue
            (tmax, s_max), s0 = line.trials[0], line.dots[0]
            if not (tmax == 1.0 and -1e-9 * s0 <= s_max < 0.0):
                continue
            replayed += 1
            assert max(t for t, s in line.trials if s >= 0.0) >= 0.999 * tmax
            u, grow, _ = out[1]
            assert ar.dot(grow, [a - b for a, b in zip(u, state[0])]) >= 0.0
        assert replayed > 0

    # SHA-256 over the full bits of the 200 solves above, alpha by alpha and
    # trial by trial: x, beta, sigma, mu, then value and fw_gap as float64,
    # then iterations and weight_solves_short as int64. The counts above and
    # the CLI's 9-digit CSVs would not see a change in the last bits.
    SOLVES_SHA256 = "72cdfffbac5c6ebdfc6fc90f246b58270adfc00be68b476bf0b85c2462c27644"

    def test_seed42_solves_pinned_bit_for_bit(self):
        digest = hashlib.sha256()
        for alpha in self.FW_ITERATIONS:
            for _, _, sol in _seed42_recorded(alpha)[0]:
                for arr in (sol.matching.x, sol.beta, sol.sigma, sol.mu):
                    digest.update(np.asarray(arr, dtype=np.float64).tobytes())
                digest.update(np.array([sol.value, sol.fw_gap]).tobytes())
                digest.update(np.array([sol.iterations, sol.weight_solves_short],
                                       dtype=np.int64).tobytes())
        assert digest.hexdigest() == self.SOLVES_SHA256

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
    def test_matches_reference_weight_solve(self, alpha):
        # both solves stop at the weight problem's FW gap tol, which bounds
        # each one's distance to the optimum of that concave problem
        _, calls = _seed42_recorded(alpha)
        ev = Evaluator([parametric(alpha)] * 5)

        def objective(UV, lam):
            return ev.objective(np.minimum(np.asarray(lam) @ UV, ev.peaks))

        for (_, UV, lam0, _, tol), (lam, converged, _) in calls:
            UV = np.array(UV)
            ref_lam, ref_converged = correct_weights_reference(
                ev, ev.peaks, UV, np.array(lam0), tol)
            assert converged == ref_converged
            assert objective(UV, lam) == pytest.approx(objective(UV, ref_lam), rel=0, abs=tol)
        # one per non-final FW iteration
        assert len(calls) == self.FW_ITERATIONS[alpha][0] - 50

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
                            lambda ar, UV, g, curv, face: [0.0] * len(g))
        monkeypatch.setattr(selfish, "MAX_ITERS", 3)
        _, calls = _seed42_recorded(0.25)
        # a recorded weight solve that moved its weights
        args = next(a for a, (out, _, _) in calls if out != a[2])
        lam, converged, _ = selfish._correct_weights(*args)
        assert lam == args[2] and not converged
        inst = make_instance(np.random.default_rng(5).beta(2, 2, (4, 4)))
        sol = solve_selfish(inst, [parametric(0.25)] * 4)
        assert (sol.weight_solves_short, sol.starts_capped) == (3, 1)

    def test_singular_system_raises(self, monkeypatch):
        # without the ridge, two equal face rows at zero curvature make the
        # Newton system singular: LinAlgError, and no warning, on Python
        # floats and on arrays
        monkeypatch.setattr(selfish, "WEIGHT_RIDGE", 0.0)
        UV = np.array([[0.5, 0.25], [0.5, 0.25], [0.125, 0.75]])
        for ar, rows in ((selfish._Floats, UV.tolist()), (selfish._Arrays, UV)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError):
                    selfish._newton_direction(ar, rows, [0.375, 0.375, 0.25], [0.0, 0.0],
                                              [True, True, False])

    @pytest.mark.parametrize("m", range(1, 11))
    def test_newton_direction_matches_kkt_solve(self, m):
        # the Python-float null-space solve against LAPACK on the full KKT
        # system, on faces of 1 to 11 vertices, also larger than the user
        # count. Where the face's reduced Hessian is rank-deficient, the
        # 1e-12 ridge sets the system's condition: both solves then agree
        # with an exact rational solve to about 2e-4 of the step, and the
        # Newton model's value at the step to about 1e-9
        rng = np.random.default_rng(m)
        for p in range(1, 12):
            for _ in range(3):
                UV = rng.uniform(0.0, 1.0, (p + 2, m))
                curv = -rng.uniform(0.1, 10.0, m)
                grow = rng.uniform(0.0, 1.0, m)
                past = rng.random(m) < 0.2  # users at their peaks
                curv[past] = grow[past] = 0.0
                g = UV @ grow
                face = [True] * p + [False] * 2
                rng.shuffle(face)
                d = np.array(selfish._newton_direction(selfish._Floats, UV.tolist(), g.tolist(),
                                                       curv.tolist(), face))
                if p == 1:
                    assert not d.any()
                    continue
                ref = _kkt_reference(UV, g, curv, face)
                rtol = 1e-7 if p - 1 <= (curv < 0).sum() else 1e-3
                np.testing.assert_allclose(d, ref, rtol=0, atol=rtol * np.abs(ref).max())
                H = (UV * curv) @ UV.T
                model = [g @ x + 0.5 * x @ H @ x for x in (d, ref)]
                assert model[0] == pytest.approx(model[1], rel=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_curvature_fails_cleanly(self, bad):
        # a NaN or infinite curvature ends in LinAlgError or a short weight
        # solve: no warning, and no ValueError from math.fsum's inf - inf
        ev = Evaluator([parametric(0.25)] * 3)
        UV = [[0.0, 0.0, 0.0], [0.75, 0.25, 0.5], [0.25, 0.75, 0.5], [0.5, 0.5, 0.25]]
        lam = [0.25, 0.5, 0.25, 0.0]
        u = selfish._Floats.combine(lam, UV)
        grow = ev.clamped_prime_list(u)
        for curv in ([bad] * 3, [bad, -1.0, -2.0], [-1.0, bad, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    _, converged, _ = selfish._correct_weights(
                        selfish._Floats(ev, [[0.0]] * 3), UV, lam, (u, grow, curv), 1e-12)
                except np.linalg.LinAlgError:
                    continue
                assert not converged

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
