import numpy as np
import pytest
from helpers_oracles import brute_force_fair, jv_assign_numpy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from matchmarket.fair import _jv_assign, best_matching, max_weight_assignment, solve_fair
from matchmarket.market import MarketError, make_instance

# a small value set, so optimal matchings tie; negative entries are never used
VALUES = (-0.5, 0.0, 0.25, 0.5, 1.0)


@st.composite
def weight_matrices(draw):
    """Matrices up to 60x60, about one in ten up to 200x200, with tied,
    negative and zeroed rows and columns; entries come from a drawn seed."""
    size = draw(st.sampled_from((60,) * 9 + (200,)))
    m = draw(st.integers(1, size))
    n = draw(st.integers(1, size))
    palette = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=5, unique=True))
    p_zero_row = draw(st.sampled_from((0.0, 0.2, 0.5)))
    p_zero_col = draw(st.sampled_from((0.0, 0.2, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.choice(palette, size=(m, n))
    g[rng.random(m) < p_zero_row] = 0.0
    g[:, rng.random(n) < p_zero_col] = 0.0
    return g


class TestSolveFair:
    def test_identity(self):
        sol = solve_fair(make_instance(np.eye(3)))
        assert sol.value == pytest.approx(3.0)
        np.testing.assert_allclose(sol.matching.u, 1.0)

    def test_rectangular(self):
        sol = solve_fair(make_instance([[0.4, 1.0]]))
        assert sol.value == pytest.approx(1.0)
        assert sol.assignment.row_match[0] == 1

    def test_more_rows_than_cols(self):
        sol = solve_fair(make_instance([[0.9], [0.8], [0.7]]))
        assert sol.value == pytest.approx(0.9)
        assert list(sol.assignment.row_match).count(-1) == 2

    def test_zero_matrix_unmatched(self):
        sol = solve_fair(make_instance(np.zeros((3, 3))))
        assert sol.value == 0.0
        assert all(j == -1 for j in sol.assignment.row_match)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            inst = make_instance(rng.random((m, n)))
            assert solve_fair(inst).value == pytest.approx(
                brute_force_fair(inst), abs=1e-9)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(7)
        w = rng.random((3, 5))
        a = solve_fair(make_instance(w)).value
        b = solve_fair(make_instance(w.T)).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_ties_resolve_to_lowest_column(self):
        assert best_matching(np.ones((3, 5)))[0] == [0, 1, 2]
        assert best_matching(np.ones((5, 3)))[0] == [0, 1, 2, -1, -1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(MarketError, match="finite"):
            max_weight_assignment([[bad, bad], [0.2, 0.3]])
        with pytest.raises(MarketError, match="finite"):
            max_weight_assignment([[0.5, bad], [0.2, 0.3]])

    def test_deterministic(self):
        w = np.full((4, 4), 0.5)  # fully degenerate ties
        a = solve_fair(make_instance(w))
        b = solve_fair(make_instance(w))
        np.testing.assert_array_equal(a.assignment.row_match,
                                      b.assignment.row_match)


class TestDuals:
    def test_certificate(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            g = rng.random((5, 4)) * 2 - 0.5  # includes negative entries
            res = max_weight_assignment(g)
            assert res.beta.min() >= -1e-9
            assert res.sigma.min() >= -1e-9
            slack = res.beta[:, None] + res.sigma[None, :] - g
            assert slack.min() >= -1e-9
            # strong duality: dual objective equals primal value
            x = res.x_matrix(g.shape)
            used_rows = x.sum(axis=1)
            used_cols = x.sum(axis=0)
            comp = (res.beta * (1 - used_rows)).sum() + \
                (res.sigma * (1 - used_cols)).sum()
            assert res.beta.sum() + res.sigma.sum() - comp == pytest.approx(
                res.value, abs=1e-8)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(weight_matrices())
    def test_optimal_and_certified(self, g):
        """Value against scipy, and duals that certify it within 1e-9:
        feasible, complementary, with dual objective equal to the value; the
        assignment loop returns the reference numpy loop's (row_match, u, v)
        bit for bit, so ties go to the lowest column as there;
        ``best_matching`` returns those potentials as they are, and
        ``max_weight_assignment``'s duals are them clipped as numpy would."""
        res = max_weight_assignment(g)
        clipped = np.maximum(g, 0.0)
        rows, cols = linear_sum_assignment(clipped, maximize=True)
        assert res.value == pytest.approx(clipped[rows, cols].sum(), abs=1e-9)
        matched = res.row_match[res.row_match >= 0]
        assert len(set(matched.tolist())) == len(matched)
        assert res.beta.min() >= 0.0
        assert res.sigma.min() >= 0.0
        slack = res.beta[:, None] + res.sigma[None, :] - g
        assert slack.min() >= -1e-9
        x = res.x_matrix(g.shape)
        assert np.abs(slack * x).max() <= 1e-9
        assert np.abs(res.beta * (1.0 - x.sum(axis=1))).max() <= 1e-9
        assert np.abs(res.sigma * (1.0 - x.sum(axis=0))).max() <= 1e-9
        assert res.beta.sum() + res.sigma.sum() == pytest.approx(res.value, abs=1e-9)
        cost = -np.pad(clipped, ((0, 0), (0, max(g.shape) - g.shape[1])))
        ref = jv_assign_numpy(cost)
        assert [np.asarray(a).tobytes() for a in _jv_assign(cost.tolist(), cost.shape[1])] == \
            [a.tobytes() for a in ref]
        # best_matching builds the same cost on lists, and max_weight_assignment
        # clips its potentials into the duals
        row_match, _, u, v = best_matching(g)
        assert np.array(row_match).tobytes() == res.row_match.tobytes()
        assert [np.array(u).tobytes(), np.array(v).tobytes()] == \
            [ref[1].tobytes(), ref[2].tobytes()]
        assert res.beta.tobytes() == np.maximum(-ref[1], 0.0).tobytes()
        assert res.sigma.tobytes() == np.maximum(-ref[2][:g.shape[1]], 0.0).tobytes()

    @pytest.mark.parametrize("row", [
        [0.7],
        [0.5, 0.5, 0.5],
        [1.0, -0.5, -0.5, 2.0, -0.5],
        [-0.0, -0.0, -0.0, -0.0],
        [0.0, -0.0],
        [-0.0, 0.0],
        [-0.25, -1.0, -3.0, -1.0],
        [0.0, -np.inf, -np.inf],
        [-np.inf],
        [np.inf, np.inf],
        [np.inf, 1.0],
        [0.3, np.nan, -0.2],
        [np.nan, 0.3, -0.2],
        [np.nan, np.nan],
        [np.nan, -np.inf, -0.0],
    ])
    def test_one_row_matches_reference(self, row):
        """A 1 x k cost (``_jv_assign``'s one-row shortcut, or the loop when
        the row starts with NaN) gives the reference loop's (row_match, u, v)
        bit for bit: ties to the lowest column, signed zeros, negative and
        infinite entries, and NaN entries, which lose every comparison."""
        with np.errstate(invalid="ignore"):  # the reference's inf - inf
            ref = jv_assign_numpy(np.array([row]))
        got = _jv_assign([list(row)], len(row))
        assert [np.asarray(a).tobytes() for a in got] == [a.tobytes() for a in ref]

    def test_negative_edges_never_used(self):
        res = max_weight_assignment(np.array([[-0.5, -0.2]]))
        assert res.row_match[0] == -1
        assert res.value == 0.0


class TestBruteForce:
    def test_limits(self):
        with pytest.raises(ValueError):
            brute_force_fair(make_instance(np.ones((9, 9)) * 0.5))

    def test_small_exact(self):
        inst = make_instance([[0.8, 0.6], [0.7, 0.9]])
        assert brute_force_fair(inst) == pytest.approx(1.7)
