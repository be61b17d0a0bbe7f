import hashlib
import math
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.differentiate import derivative
from helpers_oracles import (
    ELEMENT_ALPHAS,
    NPY_AVX512_OFF,
    _outputs,
    element_path_cases,
    pi_derivs,
    pi_second_reference,
    tiny_eps_derivs,
)

import matchmarket
from matchmarket import returns
from matchmarket.returns import (
    ELEMENT_MAX_USERS,
    GRID_NODES,
    MONOPOLY,
    U_CLAMP,
    Evaluator,
    ReturnModelError,
    argmax_pi,
    argmax_pi_competition,
    cached_evaluator,
    competition,
    eval_q,
    eval_q_prime,
    grid,
    parametric,
    peak_utility,
    pi_competition,
    pi_monopoly,
    pi_monopoly_second,
    q_peak,
    strictly_concave,
    _pow,
)

ALPHAS = [0.0, 0.25, 0.5, 0.75]


def _rows(f, U) -> np.ndarray:
    """f on each row of U, one utility vector per call, stacked."""
    return np.array([f(u) for u in U])


class TestModels:
    def test_parametric_validation(self):
        parametric(0.0)
        parametric(0.999)
        with pytest.raises(ReturnModelError):
            parametric(1.0)
        with pytest.raises(ReturnModelError):
            parametric(-0.1)

    def test_grid_validation(self):
        grid(np.linspace(0, 1, GRID_NODES) * 0.5)
        grid((np.linspace(0, 1, GRID_NODES) * 0.5).tolist())
        for bad in (np.zeros(GRID_NODES - 1), np.full(GRID_NODES, 1.5),
                    np.full(GRID_NODES, np.nan)):
            for values in (bad, bad.tolist()):
                with pytest.raises(ReturnModelError):
                    grid(values)
        with pytest.raises(ReturnModelError):
            grid([[0.5]] * GRID_NODES)
        one_nan = [0.5] * GRID_NODES
        one_nan[7] = float("nan")
        with pytest.raises(ReturnModelError):
            grid(one_nan)

    def test_grid_endpoints_pinned(self):
        source = np.full(GRID_NODES, 0.5)
        for values in (source, source.tolist()):
            g = grid(values)
            assert g.values[0] == 0.0
            assert g.values[-1] == 0.0
            assert not g.values.flags.writeable
        assert source[0] == 0.5  # the model keeps its own copy


class TestEvalQ:
    def test_known_values(self):
        m = parametric(0.0)
        assert eval_q(m, 0.5) == pytest.approx(0.25)
        assert eval_q(m, 0.0) == 0.0
        assert eval_q(m, 1.0) == 0.0

    def test_alpha_changes_shape(self):
        # q(u) = u (1-u)^(1-alpha): larger alpha decays less before u=1
        assert eval_q(parametric(0.5), 0.5) == pytest.approx(0.5 * 0.5**0.5)

    def test_domain_check(self):
        with pytest.raises(ReturnModelError):
            eval_q(parametric(0.0), 1.5)

    @pytest.mark.parametrize("u", [np.nan, [0.5, np.nan]])
    def test_nan_rejected(self, u):
        m = parametric(0.5)
        for f in (eval_q, eval_q_prime, pi_monopoly, pi_monopoly_second):
            with pytest.raises(ReturnModelError):
                f(m, u)
        with pytest.raises(ReturnModelError):
            pi_competition(m, u, 0.1)

    def test_empty_and_edge_inputs(self):
        m = parametric(0.5)
        assert eval_q(m, []).shape == (0,)
        # within 1e-12 of the domain, utilities are clipped onto it
        np.testing.assert_array_equal(eval_q(m, [-1e-13, 1.0 + 1e-13]), [0.0, 0.0])

    def test_grid_interpolation(self):
        vals = np.zeros(GRID_NODES)
        vals[10] = 0.8  # node u = 0.5
        g = grid(vals)
        assert eval_q(g, 0.5) == pytest.approx(0.8)
        assert eval_q(g, 0.475) == pytest.approx(0.4)


class TestDerivatives:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_central_differences(self, alpha):
        m = parametric(alpha)
        us = np.linspace(0.005, 0.95, 99)
        h = 1e-6
        numeric = (eval_q(m, us + h) - eval_q(m, us - h)) / (2 * h)
        np.testing.assert_allclose(eval_q_prime(m, us), numeric, atol=1e-5)

    def test_slope_at_zero_is_one(self):
        for alpha in ALPHAS:
            assert eval_q_prime(parametric(alpha), 0.0) == pytest.approx(1.0)

    def test_grid_derivative(self):
        nodes = np.linspace(0, 1, GRID_NODES)
        g = grid(nodes * (1 - nodes))
        # piecewise-linear: slope between first two nodes
        expected = (g.values[1] - g.values[0]) / 0.05
        assert eval_q_prime(g, 0.025) == pytest.approx(expected, abs=1e-6)


class TestStationary:
    def test_pi_monopoly_value(self):
        assert pi_monopoly(parametric(0.0), 0.5) == pytest.approx(0.2)

    def test_pi_monopoly_prime_matches_differences(self):
        m = parametric(0.25)
        us = np.linspace(0.01, 0.9, 50)
        h = 1e-6
        numeric = (pi_monopoly(m, us + h) - pi_monopoly(m, us - h)) / (2 * h)
        np.testing.assert_allclose(_rows(Evaluator([m]).pi_prime, us[:, None])[:, 0], numeric,
                                   atol=1e-5)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_pi_monopoly_second_matches_differences(self, alpha):
        m = parametric(alpha)
        us = np.linspace(0.005, 0.95, 99)
        h = 1e-6
        pi_prime = Evaluator([m]).pi_prime
        numeric = (_rows(pi_prime, (us + h)[:, None])
                   - _rows(pi_prime, (us - h)[:, None]))[:, 0] / (2 * h)
        np.testing.assert_allclose(pi_monopoly_second(m, us), numeric, atol=1e-5)
        assert pi_monopoly_second(m, us).max() < 0.0

    def test_pi_monopoly_second_grid_model(self):
        nodes = np.linspace(0, 1, GRID_NODES)
        g = grid(nodes * (1 - nodes))
        # q is linear between nodes, so pi'' = -2 q'^2 / (1 + q)^3 there
        u = 0.525
        q = float(eval_q(g, u))
        qp = float(eval_q_prime(g, u))
        assert pi_monopoly_second(g, u) == pytest.approx(-2 * qp**2 / (1 + q) ** 3, abs=1e-6)

    def test_pi_competition_below_monopoly(self):
        m = parametric(0.0)
        us = np.linspace(0.0, 1.0, 101)
        for eps in (0.01, 0.1, 0.5, 1.0):
            assert np.all(pi_competition(m, us, eps) <= pi_monopoly(m, us) + 1e-12)

    def test_pi_competition_eps_validation(self):
        # Stationary's rule: a subnormal eps overflows q / eps, and the two
        # checked functions took it, pi as [0, 0] and the argmax as 1.0
        model = parametric(0.5)
        for eps in (5e-324, 0.0, 1.5, float("nan")):
            with pytest.raises(ReturnModelError, match="eps must lie in"):
                pi_competition(model, [0.5, 1.0], eps)
            with pytest.raises(ReturnModelError, match="eps must lie in"):
                argmax_pi_competition(model, eps)
            with pytest.raises(ReturnModelError, match="eps must lie in"):
                competition(eps)

    def test_pi_competition_accepts_smallest_normal_eps(self):
        model, eps = parametric(0.5), sys.float_info.min
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi = pi_competition(model, [0.5, 1.0], eps)
            star = argmax_pi_competition(model, eps)
        assert np.all(np.isfinite(pi)) and 0.0 < star <= 1.0

    def test_stationary_eps_is_a_normal_float(self):
        # below the smallest normal float q / eps overflows and pi' is NaN
        with pytest.raises(ValueError, match="eps must lie in"):
            competition(5e-324)
        assert competition(sys.float_info.min).eps == sys.float_info.min


class TestEvaluator:
    """The evaluator agrees with the checked per-model functions on a market
    whose users have different models."""

    @staticmethod
    def _mixed():
        nodes = np.linspace(0, 1, GRID_NODES)
        models = [parametric(0.0), grid(nodes * (1 - nodes) ** 0.5), parametric(0.5),
                  parametric(0.0), grid(np.sin(np.pi * nodes) * 0.3)]
        # cell midpoints of the grid give room for central differences
        rng = np.random.default_rng(4)
        U = 0.05 * rng.integers(0, 19, (30, len(models))) + 0.025
        U += rng.uniform(-0.01, 0.01, U.shape)
        return models, U

    @pytest.mark.parametrize("eps", [None, 0.1])
    def test_pi_and_pi_prime_match_checked_functions(self, eps):
        models, U = self._mixed()
        stat = MONOPOLY if eps is None else competition(eps)
        ev = Evaluator(models, stat)

        def pi(model, u):
            return pi_monopoly(model, u) if eps is None else pi_competition(model, u, eps)

        h = 1e-6
        for i, model in enumerate(models):
            one = Evaluator([model], stat)  # its objective is pi_i alone
            np.testing.assert_allclose(_rows(one.objective, U[:, [i]]), pi(model, U[:, i]),
                                       rtol=1e-12)
            numeric = (pi(model, U[:, i] + h) - pi(model, U[:, i] - h)) / (2 * h)
            np.testing.assert_allclose(_rows(ev.pi_prime, U)[:, i], numeric, atol=1e-5)
        checked = sum(pi(model, U[:, i]) for i, model in enumerate(models))
        np.testing.assert_allclose(_rows(ev.objective, U), checked, rtol=1e-12)

    def test_pi_second_matches_checked_function(self):
        models, U = self._mixed()
        ev = Evaluator(models)
        for i, model in enumerate(models):
            np.testing.assert_allclose(_rows(lambda u: pi_derivs(ev, u)[1], U)[:, i],
                                       pi_monopoly_second(model, U[:, i]), rtol=1e-12)
        # the competition chain has no checked pi'', so second differences
        # of the checked pi stand in for it
        eps, h = 0.1, 1e-4
        ev = Evaluator(models, competition(eps))
        for i, model in enumerate(models):
            pis = [pi_competition(model, U[:, i] + k * h, eps) for k in (-1, 0, 1)]
            numeric = (pis[0] - 2 * pis[1] + pis[2]) / h**2
            np.testing.assert_allclose(_rows(lambda u: pi_derivs(ev, u)[1], U)[:, i], numeric,
                                       atol=1e-5)

    @pytest.mark.parametrize("eps", [None, 0.1])
    def test_pi_derivs_matches_pi_prime_and_pi_second(self, eps):
        # one derivative pass gives the bits of pi_prime and of the separate
        # pi'' pass, below, at and above each user's peak and at the clamp;
        # the one-user evaluators of parametric models take the element path.
        # The competition chain's closed-form pi'' of parametric users is
        # checked against scipy's derivative of pi' instead
        if eps is not None:
            self._check_competition_second()
        models, U = self._mixed()
        stat = MONOPOLY if eps is None else competition(eps)
        peaks = np.array([peak_utility(mod, stat) for mod in models])
        exact = np.array([eps is None or mod.kind == "grid" for mod in models])
        near_one = 1.0 - np.array([[2e-9], [1e-9], [1e-9], [5e-10], [0.0]])
        rows = [U, peaks[None, :], np.clip(peaks + np.array([[-1e-3], [1e-3]]), 0.0, 1.0),
                np.repeat(near_one, len(models), axis=1)]
        V = np.vstack(rows)
        evaluators = [(Evaluator(models, stat), V, peaks, exact)] + [
            (Evaluator([mod], stat), V[:, [i]], peaks[[i]], exact[[i]])
            for i, mod in enumerate(models)]
        for ev, W, pk, ex in evaluators:
            for u in W:
                prime, second = pi_derivs(ev, u)
                assert prime.tobytes() == ev.pi_prime(u).tobytes()
                assert second[ex].tobytes() == pi_second_reference(ev, u)[ex].tobytes()
                # the clamped objective's one clamp: the unclamped path at
                # min(u, cap), cap = min(peak, U_CLAMP), gives the bits of the
                # public path at min(u, peak); peaks at 1 let U_CLAMP bind
                for p in (pk, np.ones_like(pk)):
                    at_cap = np.minimum(u, np.minimum(p, U_CLAMP))
                    at_peak = np.minimum(u, p)
                    assert ev._prime(at_cap).tobytes() == ev.pi_prime(at_peak).tobytes()
                    for a, b in zip(pi_derivs(ev, at_cap), pi_derivs(ev, at_peak), strict=True):
                        assert a.tobytes() == b.tobytes()

    @staticmethod
    def _check_competition_second():
        """The competition pi'' of both paths is scipy's derivative of the
        array path's pi' kernel within 1e-8 max(1, |pi''|), at 200 utilities
        in (0, peak] for every alpha and eps below."""
        for alpha in ELEMENT_ALPHAS:
            model = parametric(alpha)
            for eps in (1.0, 0.5, 0.1, 0.01, 0.001):
                stat = competition(eps)
                u = np.linspace(0.0, peak_utility(model, stat), 201)[1:]
                ref = derivative(
                    lambda v: returns._pi_prime(*returns._q_terms(model, v, 1), v, eps),
                    u, initial_step=np.minimum(u, 1.0 - u) / 8).df
                wide = Evaluator([model] * u.size, stat)
                one = Evaluator([model], stat)
                assert not wide.floats and one.floats
                on_floats = np.array([pi_derivs(one, [v])[1][0] for v in u.tolist()])
                for second in (pi_derivs(wide, u)[1], on_floats):
                    err = np.abs(second - ref) / np.maximum(1.0, np.abs(second))
                    assert err.max() <= 1e-8, (alpha, eps, err.max())

    @pytest.mark.parametrize("eps", [None, 0.1])
    def test_one_group_matches_grouped(self, eps):
        # a market of one model takes the whole-array path, and gives the
        # same bits as that model's columns in the grouped evaluator; its
        # columns are repeated past ELEMENT_MAX_USERS so that a parametric
        # model stays on the array path too
        models, U = self._mixed()
        stat = MONOPOLY if eps is None else competition(eps)
        grouped = Evaluator(models, stat)
        for model in models:
            ix = [i for i, mod in enumerate(models) if mod.cache_key() == model.cache_key()]
            reps = ELEMENT_MAX_USERS // len(ix) + 1
            one = Evaluator([model] * (len(ix) * reps), stat)
            assert not one.floats
            for u in U:
                for f in (Evaluator.pi_prime, pi_derivs):
                    np.testing.assert_array_equal(
                        f(one, np.tile(u[ix], reps)),
                        np.tile(np.asarray(f(grouped, u))[..., ix], reps))

    def test_no_users(self):
        ev = Evaluator([])
        assert ev.objective(np.zeros(0)) == 0.0
        assert ev.pi_prime(np.zeros(0)).shape == pi_derivs(ev, np.zeros(0))[1].shape == (0,)
        assert ev.clamped_prime(np.zeros(0)).shape == ev.clamped_derivs(np.zeros(0))[1].shape

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_shared_terms_round_as_separate_formulas(self, alpha):
        # q, q' and q'' from one r = 1 - u give the bits of each formula
        # written out on its own, as 1 - u - u e evaluates as (1 - u) - u e:
        # on the array path with numpy's **, on the element path with _pow
        u = np.linspace(0.0, 0.999, 1001)
        e = 1.0 - alpha

        def formulas(u, pw):
            q = u * pw(1.0 - u, 1.0 - alpha)
            qp = pw(1.0 - u, e - 1.0) * (1.0 - u - u * e)
            qpp = e * pw(1.0 - u, e - 2.0) * (u * (1.0 + e) - 2.0)
            return (qp / pw(1.0 + q, 2.0),
                    qpp / pw(1.0 + q, 2.0) - 2.0 * qp * qp / pw(1.0 + q, 3.0))

        wide = Evaluator([parametric(alpha)] * (ELEMENT_MAX_USERS + 1))
        one = Evaluator([parametric(alpha)])
        assert not wide.floats and one.floats
        U = np.repeat(u[:, None], wide.m, axis=1)
        on_floats = np.array([formulas(v, _pow) for v in u.tolist()]).T
        for ev, V, (prime, second) in ((wide, U, formulas(U, operator.pow)),
                                       (one, u[:, None], on_floats[:, :, None])):
            np.testing.assert_array_equal(_rows(ev.pi_prime, V), prime)
            np.testing.assert_array_equal(_rows(lambda v: pi_derivs(ev, v)[1], V), second)


class TestElementPath:
    """Markets of at most ELEMENT_MAX_USERS parametric users are evaluated on
    Python floats, user by user, with the array path's formulas."""

    # SHA-256 of every element-path evaluator output (helpers_oracles._outputs)
    # over element_path_cases, both chains; the monopoly outputs were recorded
    # while pi' and pi'' were still taken through _q_terms and _pow, and the
    # competition outputs with the closed-form pi''. Both paths call the same
    # kernels, so the comparison of the two paths below would not see a
    # change that moves both; this pin does.
    ELEMENT_OUTPUTS_SHA256 = "169f865e2ba99de6380d4bc1369fa7fc9c08ccf334f9e550d745803a4aaffb51"

    def test_element_path_golden(self):
        digest, count = hashlib.sha256(), 0
        for label, models, stat, U, _ in element_path_cases():
            ev = Evaluator(models, stat)
            assert ev.floats, label
            for out in _outputs(ev, U).values():
                digest.update(out)
                count += 1
        assert count == 2688
        assert digest.hexdigest() == self.ELEMENT_OUTPUTS_SHA256

    def test_matches_array_path_without_avx512(self):
        # numpy's AVX-512 power loop rounds differently from the C library's
        # pow, so the two paths are compared in a process where it is off
        env = dict(os.environ, **NPY_AVX512_OFF, PYTHONPATH=os.pathsep.join(
            [str(Path(matchmarket.__file__).resolve().parent.parent), str(Path(__file__).parent)]))
        script = ("import sys\n"
                  "from helpers_oracles import (element_path_mismatches, numpy_power_is_libm,\n"
                  "                             tiny_eps_derivs)\n"
                  "assert numpy_power_is_libm(), 'numpy power differs from pow without AVX-512'\n"
                  "bad = element_path_mismatches() + [\n"
                  "    label for label, element, array in tiny_eps_derivs()\n"
                  "    if element.tobytes() != array.tobytes()]\n"
                  "print(len(bad), *bad[:20], sep='\\n')\n"
                  "sys.exit(bool(bad))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[0] == "0"

    def test_competition_derivs_finite_at_tiny_eps(self):
        # at the smallest eps a competition chain accepts, t^2 overflows and
        # pi' is 0; pi' and pi'' stay finite on both paths, and no power of t
        # raises an OverflowError on floats
        for label, element, array in tiny_eps_derivs():
            for prime, second in (element, array):
                assert np.isfinite(prime).all(), label
                assert np.isfinite(second).all(), label
                assert (prime == 0.0).any(), label
        # the element loops give the kernels' bits there, clamps included
        u = np.linspace(0.0, 1.0, 201)
        for eps in (1e-300, sys.float_info.min):
            for alpha in ELEMENT_ALPHAS:
                ev = Evaluator([parametric(alpha)], competition(eps))
                V = u[:, None]
                grad, curv = _rows(lambda v: pi_derivs(ev, np.minimum(v, ev.cap)), V)[:, :, 0].T
                past = u >= ev.peaks
                grad[past] = 0.0
                curv = np.where(past, 0.0, np.minimum(curv, 0.0))
                got = _rows(ev.clamped_derivs, V)[:, :, 0].T
                assert got.tobytes() == np.array([grad, curv]).tobytes(), (alpha, eps)
                prime = _rows(lambda v: pi_derivs(ev, v)[0], V)
                assert _rows(ev.pi_prime, V).tobytes() == prime.tobytes(), (alpha, eps)

    def test_parametric_derivs_take_no_central_difference(self, monkeypatch):
        # every parametric derivative is a closed form, on both paths and
        # both chains; central differences serve grid models only
        def central(f, u):
            raise AssertionError("central difference on a parametric model")

        monkeypatch.setattr(returns, "_central", central)
        u = np.linspace(0.05, 0.99, ELEMENT_MAX_USERS + 1)
        for stat in (MONOPOLY, competition(0.1)):
            for models in ([parametric(0.25)] * (ELEMENT_MAX_USERS + 1),
                           [parametric(a) for a in (0.0, 0.5, 0.75)] * 3):
                for m in (len(models), 1):
                    ev = Evaluator(models[:m], stat)
                    assert ev.floats == (m <= ELEMENT_MAX_USERS)
                    grad, curv = ev.clamped_derivs(u[:m])
                    assert np.isfinite(grad).all() and (curv <= 0.0).all()

    def test_clamps_match_minimum_and_masked_store(self):
        # the clamped objective's clamps in the element loop give the bits of
        # np.minimum and the masked store on the same kernels
        for label, models, stat, U, peaks in element_path_cases():
            ev = Evaluator(models, stat)
            assert ev.floats, label
            assert ev.peaks.tobytes() == peaks.tobytes(), label
            cap = np.minimum(peaks, U_CLAMP)
            assert [par[5:] for par in ev.element_params] == list(
                zip(peaks.tolist(), cap.tolist())), label
            for u in U:
                grad = ev._prime(np.minimum(u, cap))
                grad[u >= peaks] = 0.0
                assert ev.clamped_prime(u).tobytes() == grad.tobytes()
                grad, curv = pi_derivs(ev, np.minimum(u, cap))
                grad[u >= peaks] = 0.0
                curv = np.where(u >= peaks, 0.0, np.minimum(curv, 0.0))
                for a, b in zip(ev.clamped_derivs(u), (grad, curv), strict=True):
                    assert a.tobytes() == b.tobytes(), label

    def test_slope_is_one_fsum_of_clamped_prime(self):
        # clamped_slope_list's one loop gives the bits of clamped_prime_list
        # at u0 + t du, multiplied by du and summed by fsum
        rng = np.random.default_rng(8)
        for label, models, stat, U, _ in element_path_cases():
            ev = Evaluator(models, stat)
            for u0 in U.tolist():
                du = rng.uniform(-0.5, 0.5, len(u0)).tolist()
                for t in (0.0, 0.125, 0.7, 1.0):
                    at = [a + t * b for a, b in zip(u0, du)]
                    want = math.fsum(map(operator.mul, ev.clamped_prime_list(at), du))
                    got = ev.clamped_slope_list(u0, t, du)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), label

    def test_market_size_selects_the_path(self):
        nodes = np.linspace(0, 1, GRID_NODES)
        small = [parametric(0.25)] * ELEMENT_MAX_USERS
        assert Evaluator(small).element_params is not None
        assert Evaluator(small + [parametric(0.25)]).element_params is None
        assert Evaluator(small[1:] + [grid(nodes * (1 - nodes))]).element_params is None
        assert Evaluator([]).element_params is None

    def test_pow_fast_paths(self):
        # numpy's ** on arrays with these exponents calls square, positive,
        # ones_like, reciprocal and sqrt, which _pow reproduces exactly; the
        # C library's pow differs from x * x, 1 / x and sqrt(x) for about
        # one input in a thousand, so 50,000 inputs tell them apart
        x = np.random.default_rng(3).uniform(1e-6, 3.0, 50_000)
        for y in (2.0, 1.0, 0.0, -1.0, 0.5):
            assert np.array([_pow(v, y) for v in x.tolist()]).tobytes() == (x ** y).tobytes()
        # zero and negative bases give numpy's values, not a Python error or a complex
        with np.errstate(all="ignore"):
            for v, y in ((0.0, -1.0), (0.0, -1.5), (0.0, 0.75), (-0.5, 0.75), (-0.5, 0.5)):
                assert np.array(_pow(v, y)).tobytes() == (np.array([v]) ** y)[0].tobytes()

    @pytest.mark.parametrize("alpha", ELEMENT_ALPHAS + (1e-17,))
    def test_bound_powers_match_pow(self, alpha):
        # the element path's powers, bound once per model for e, e - 1 and
        # e - 2 (e = 1 - alpha) and for 3, give _pow's bits on positive
        # bases; at alpha 1e-17, e rounds to 1.0 and all three take numpy's
        # fast paths
        e, *powers = returns._parametric_powers(parametric(alpha), returns._float_power)
        assert e == 1.0 - alpha
        if alpha == 1e-17:
            assert e == 1.0 and powers[:3] == [returns._FAST_POWERS[y] for y in (1.0, 0.0, -1.0)]
        x = np.random.default_rng(4).uniform(1e-6, 3.0, 50_000).tolist()
        for y, p in zip((e, e - 1.0, e - 2.0, 3.0), powers, strict=True):
            assert np.array([p(v) for v in x]).tobytes() == np.array([_pow(v, y) for v in x]).tobytes()


class TestCachedEvaluator:
    """``cached_evaluator`` keeps one evaluator per market: the users' models,
    the chain and the element-path choice."""

    def test_equal_keys_share_one_evaluator(self):
        ev = cached_evaluator([parametric(0.25)] * 5, competition(0.1))
        assert cached_evaluator((parametric(0.25) for _ in range(5)), competition(0.1)) is ev
        others = [cached_evaluator([parametric(0.5)] * 5, competition(0.1)),
                  cached_evaluator([parametric(0.25)] * 5, competition(0.2)),
                  cached_evaluator([parametric(0.25)] * 5),
                  cached_evaluator([parametric(0.25)] * 4, competition(0.1))]
        assert len({id(e) for e in [ev, *others]}) == 5

    def test_element_path_choice_is_in_the_key(self, monkeypatch):
        models = [parametric(0.75)] * 5
        element = cached_evaluator(models)
        monkeypatch.setattr(returns, "ELEMENT_MAX_USERS", 4)
        array = cached_evaluator(models)
        assert element.floats and not array.floats
        assert cached_evaluator(models) is array
        monkeypatch.undo()
        assert cached_evaluator(models) is element

    def test_arrays_are_read_only(self):
        nodes = np.linspace(0, 1, GRID_NODES)
        for models in ([parametric(0.5)] * 3, [parametric(0.5), grid(nodes * (1 - nodes))]):
            ev = cached_evaluator(models)
            for arr in (ev.peaks, ev.cap, *(ix for _, ix in ev.groups)):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0

    def test_outputs_match_a_fresh_evaluator(self, monkeypatch):
        # the element path, then the array path on the same markets
        for limit in (ELEMENT_MAX_USERS, 0):
            monkeypatch.setattr(returns, "ELEMENT_MAX_USERS", limit)
            for label, models, stat, U, _ in element_path_cases():
                cached, fresh = cached_evaluator(models, stat), Evaluator(models, stat)
                assert cached is not fresh and cached.floats == fresh.floats == (limit > 0)
                assert _outputs(cached, U) == _outputs(fresh, U), label

    def test_numpy_scalar_alpha_is_stored_as_a_float(self):
        """``parametric(np.float64(0.3))`` holds a Python float alpha, so its
        element path binds float powers and returns floats, and its outputs
        are those of ``parametric(0.3)``, bit for bit."""
        model = parametric(np.float64(0.3))
        assert type(model.alpha) is float
        assert model.cache_key() == parametric(0.3).cache_key()
        u = np.array([0.0, 0.1, 0.4, 0.55, 0.9, 1.0])
        assert eval_q(model, u).tobytes() == eval_q(parametric(0.3), u).tobytes()
        U = np.vstack([np.linspace(0.0, 1.0, 7)[k:k + 3] for k in range(5)])
        for stat in (MONOPOLY, competition(0.1)):
            scalar, ref = Evaluator([model] * 3, stat), Evaluator([parametric(0.3)] * 3, stat)
            assert scalar.floats and type(scalar.element_params[0][0]) is float
            assert type(scalar.clamped_prime_list([0.4] * 3)[0]) is float
            assert _outputs(scalar, U) == _outputs(ref, U), stat


class TestAssumptions:
    @pytest.mark.parametrize("alpha", ALPHAS + [1.0 - 1e-12])
    def test_parametric_family_passes(self, alpha):
        # a sampled second difference of q at alpha = 1 - 1e-12 rounds to
        # +2.8e-17; the family's certificate does not sample
        assert strictly_concave(parametric(alpha))

    def test_non_concave_grid_fails_a3(self):
        vals = np.zeros(GRID_NODES)
        vals[5] = 0.5
        vals[15] = 0.5
        assert not strictly_concave(grid(vals))
        # linear between nodes, so even a concave-shaped grid is not strictly concave
        us = np.linspace(0.0, 1.0, GRID_NODES)
        assert not strictly_concave(grid(us * (1.0 - us)))


class TestPeaks:
    # SHA-256 of argmax_pi's float64 bits over ``_argmax_cases``, recorded
    # while argmax_pi evaluated pi and pi' through a one-user Evaluator
    ARGMAX_PI_SHA256 = "01a0fc89b2846cffce356cde8722fd0f45a7338e012466fd5e4bdcd814cd851d"

    @staticmethod
    def _argmax_cases():
        """300 seeded grid models, half of them uniform noise and half noisy
        humps, and 5 parametric ones, under the monopoly chain and the
        competition chain at eps 0.1 and 0.001: 915 (model, chain) pairs."""
        rng = np.random.default_rng(14)
        nodes = np.linspace(0.0, 1.0, GRID_NODES)
        models = [grid(rng.uniform(0.0, 1.0, GRID_NODES)) for _ in range(150)]
        models += [grid(4.0 * nodes * (1.0 - nodes) * rng.uniform(0.5, 1.0, GRID_NODES))
                   for _ in range(150)]
        models += [parametric(a) for a in (0.0, 0.25, 0.5, 0.75, 0.9)]
        return [(mod, stat) for stat in (MONOPOLY, competition(0.1), competition(0.001))
                for mod in models]

    def test_argmax_pi_golden(self):
        got = np.array([argmax_pi(mod, stat) for mod, stat in self._argmax_cases()])
        assert got.shape == (915,)
        assert hashlib.sha256(got.tobytes()).hexdigest() == self.ARGMAX_PI_SHA256

    @pytest.mark.parametrize("alpha,eps", [(0.9, 1e-12), (0.5, 1e-15)])
    def test_argmax_pi_peak_past_the_clamp(self, alpha, eps, monkeypatch):
        # pi' is still positive at U_CLAMP, where it is taken for every u
        # above; the bracket moves to u itself, so the bisection still ends
        model, stat = parametric(alpha), competition(eps)
        assert Evaluator([model], stat).pi_prime(np.array([1.0]))[0] > 0.0
        kernel, calls = returns._pi_prime, []

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 100, "the bisection does not end"
            return kernel(*args)

        monkeypatch.setattr(returns, "_pi_prime", counted)
        assert argmax_pi(model, stat) == 0.9999999999995344

    @pytest.mark.parametrize("stat", [MONOPOLY, competition(0.1), competition(0.001)],
                             ids=["monopoly", "eps0.1", "eps0.001"])
    def test_evaluator_peaks_are_peak_utility(self, stat, monkeypatch):
        # each evaluator fills its own empty cache, so its peaks are computed,
        # not read back from the list below; mixed markets take the array
        # path, and the all-parametric one the element path
        nodes = np.linspace(0, 1, GRID_NODES)
        mixed = [parametric(0.0), grid(nodes * (1 - nodes) ** 0.5), parametric(0.5),
                 grid(np.sin(np.pi * nodes) * 0.3), parametric(0.75)]
        for models in (mixed, mixed * 3, [parametric(a) for a in (0.0, 0.5, 0.0, 0.9)]):
            monkeypatch.setattr(returns, "_peak_cache", {})
            want = np.array([peak_utility(mod, stat) for mod in models])
            monkeypatch.setattr(returns, "_peak_cache", {})
            ev = Evaluator(models, stat)
            assert ev.peaks.tobytes() == want.tobytes()
            assert ev.cap.tobytes() == np.minimum(want, U_CLAMP).tobytes()
        assert Evaluator([], stat).peaks.shape == Evaluator([], stat).cap.shape == (0,)

    def test_q_peak_alpha0(self):
        assert q_peak(parametric(0.0)) == pytest.approx(0.5, abs=1e-8)

    def test_q_peak_rejects_grid(self):
        us = np.linspace(0.0, 1.0, GRID_NODES)
        with pytest.raises(ReturnModelError):
            q_peak(grid(us * (1.0 - us)))

    def test_argmax_pi_competition_example(self):
        # eps = -q(0.8)^2 / q'(0.8) = 0.0256 / 0.6 for q = u(1-u)
        u = argmax_pi_competition(parametric(0.0), 0.0256 / 0.6)
        assert u == pytest.approx(0.8, abs=1e-4)

    def test_argmax_monotone_in_eps(self):
        m = parametric(0.0)
        us = [argmax_pi_competition(m, e) for e in (0.1, 0.01, 0.001, 1e-4)]
        assert all(b > a for a, b in zip(us, us[1:]))
        assert us[-1] > 0.98

    def test_argmax_is_actual_maximizer(self):
        m = parametric(0.25)
        for eps in (0.05, 0.005):
            star = argmax_pi_competition(m, eps)
            us = np.linspace(0.0, 1.0, 2001)
            best = us[int(np.argmax(pi_competition(m, us, eps)))]
            assert abs(star - best) < 1e-3

    @pytest.mark.parametrize("eps", [None, 0.5, 0.01])
    def test_argmax_pi_matches_certified_peaks(self, eps):
        for alpha in ALPHAS:
            m = parametric(alpha)
            if eps is None:
                star, stat = q_peak(m), MONOPOLY
            else:
                star, stat = argmax_pi_competition(m, eps), competition(eps)
            assert argmax_pi(m, stat) == pytest.approx(star, abs=1e-8)

    def test_argmax_requires_concavity(self):
        vals = np.zeros(GRID_NODES)
        vals[5] = 0.5
        vals[15] = 0.5
        with pytest.raises(ReturnModelError):
            argmax_pi_competition(grid(vals), 0.1)
