"""Exact maximum-weight bipartite matching (the fair program) with its duals.

The solver is the shortest-augmenting-path assignment algorithm of Jonker and
Volgenant (Computing 38, 1987) on the short side: it augments from each row
of a matrix with at most as many rows as columns, and runs on the transpose
of one with more users than items, as scipy's ``linear_sum_assignment`` does
(Crouse, IEEE Trans. Aerospace and Electronic Systems 52(4), 2016). So it
never pads with slack columns, and a tall m x n matrix costs n augmentations
over m columns rather than m over m: on the host named below, a call took
0.12 ms at 20x10 and 0.33 ms at 50x25, against 0.49 and 4.8 ms padded. Edges
with nonpositive weight are never used.

It is one loop on Python lists, and ``best_matching`` builds its cost (the
clip at zero and the negation) on Python lists as well and returns lists,
rounding as numpy would; ``max_weight_assignment`` clips the duals into
arrays. A one-row cost, the most common case in the behavioral study, is one
``min`` over the row. The program solves thousands of small problems (5x5
markets in the price-of-anarchy loop, at most 3x13 per round of the
behavioral study), where a numpy step costs more in call overhead than in
arithmetic. Against the same loop on numpy arrays (kept in the tests as the
reference it must match bit for bit), a call took, on a 2-CPU Xeon with
Python 3.11 and numpy 2.4: 0.013 against 0.12 ms at 5x5, 0.33 against 2.1 ms
at 20x20, 11 against 18 ms at 100x100, and about the same at 200x200. Larger
inputs cost more than they would on numpy: 194 against 140 ms at 300x300,
1.8 against 1.2 s at 300x300 with tied values, and 8.3 against 3.8 s at
500x500 with tied values.

The optimal duals of the inequality-form LP (row duals beta, column duals
sigma) are the negated row and column potentials of the augmenting-path
searches; on a transposed matrix, a row potential is a column dual. The
searches keep every reduced cost nonnegative (dual feasibility) and zero on
matched edges (complementary slackness). A search lowers only columns it
reaches, which stay matched, and never lowers the column matched last, which
bounds every row potential by zero: so beta, sigma >= 0, and users or items
left unmatched carry a zero dual (see ``max_weight_assignment``). The duals
certify the fair optimum and feed the KKT checks of the selfish solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import FractionalMatching, MarketError, MarketInstance


@dataclass(frozen=True)
class AssignmentResult:
    """Solution of max <g, x> over the doubly-substochastic polytope."""

    row_match: np.ndarray  # column index per row, -1 if unmatched
    value: float
    beta: np.ndarray  # row duals, >= 0
    sigma: np.ndarray  # column duals, >= 0

    def x_matrix(self, shape) -> np.ndarray:
        return vertex_matrix(self.row_match, shape)


def vertex_matrix(row_match, shape) -> np.ndarray:
    """0/1 matrix of a matching given as the column per row, -1 if unmatched."""
    x = np.zeros(shape)
    for i, j in enumerate(row_match):
        if j >= 0:
            x[i, j] = 1.0
    return x


@dataclass(frozen=True)
class FairSolution:
    matching: FractionalMatching
    value: float
    assignment: AssignmentResult


def _jv_assign(cost: list[list[float]],
               k: int) -> tuple[list[int], list[float], list[float]]:
    """Jonker-Volgenant shortest augmenting paths, minimization, m <= k.

    ``cost`` holds m rows of k floats as Python lists. Returns the assigned
    column per row and the row and column potentials u, v, with
    cost - u - v >= 0 everywhere and = 0 on assigned edges, as Python lists.
    Each row's search is Dijkstra over the columns: a step scans the
    still-free columns in ascending order, so ties resolve to the lowest
    column index and the output is reproducible. Only the rows and columns
    the search has reached take the step's potential change; the free
    columns' distances take it lazily, at the next scan.

    One row is one scan from zero potentials: the first minimum of the row,
    u = 0.0 + that minimum and v left at zero, the loop's bits (x - 0.0 is x,
    signed zeros included). ``min`` returns NaN only when the row starts with
    NaN, where the loop, which skips NaN, takes over.
    """
    c = cost
    m = len(c)
    if m == 1:
        row = c[0]
        best = min(row)
        if best == best:
            return [row.index(best)], [0.0 + best], [0.0] * k
    inf = float("inf")
    u = [0.0] * m
    v = [0.0] * k
    col_row = [-1] * k  # row matched to each column, -1 = free
    way = [-1] * k  # previous column on the search path, -1 = the root row
    for i in range(m):
        minv = [inf] * k
        free = list(range(k))
        rows = [i]  # rows reached: the root, then the rows of reached columns
        cols: list[int] = []  # columns reached
        i0, j0, delta = i, -1, 0.0
        while True:
            row = c[i0]
            ui = u[i0]
            best = inf
            j1 = free[0]
            for j in free:
                mj = minv[j] - delta
                cur = row[j] - ui - v[j]
                if cur < mj:
                    mj = cur
                    way[j] = j0
                minv[j] = mj
                if mj < best:
                    best = mj
                    j1 = j
            delta = best
            for r in rows:
                u[r] += delta
            for j in cols:
                v[j] -= delta
            free.remove(j1)
            i0 = col_row[j1]
            if i0 < 0:
                break
            rows.append(i0)
            cols.append(j1)
            j0 = j1
        while j1 >= 0:  # augment along the path back to the root row
            j0 = way[j1]
            col_row[j1] = col_row[j0] if j0 >= 0 else i
            j1 = j0
    row_match = [-1] * m
    for j, r in enumerate(col_row):
        if r >= 0:
            row_match[r] = j
    return row_match, u, v


def best_matching(g) -> tuple[list[int], float, list[float], list[float]]:
    """Optimal matching and value for max <g, x>, with the assignment potentials.

    Returns (row_match, value, u, v) as Python lists and a float: the column
    per row (-1 if unmatched), the value, and the raw row and column
    potentials of ``_jv_assign`` on the negated cost, m row entries and n
    column entries. With more rows than columns the search runs on the
    transpose, n rows over m columns, and its row potentials are v and its
    column potentials u; on ties it may return another optimal matching
    than a search of every row would. ``max_weight_assignment`` turns the
    potentials into the duals of ``AssignmentResult``. The unchecked
    kernel, for matrices the program builds: the Frank-Wolfe oracle of
    ``selfish._afw`` and ``experiment._assign``, whose rows are checked by
    ``assign_round`` or clipped by the sim arm that builds them.
    ``max_weight_assignment`` is the checked entry point. ``g`` is an
    array, or a non-empty list of equal-length rows of floats, used as is.

    The clip at zero and the negation into a cost run on the rows of ``g``
    as Python lists, with numpy's rounding and signs of zeros:
    ``-0.0 if x <= 0.0 else -x`` is ``-np.maximum(x, 0.0)`` (which maps -0.0
    to +0.0 and keeps NaN).
    """
    if isinstance(g, list):
        rows = g
        m, n = len(rows), len(rows[0])
    else:
        g = np.asarray(g, dtype=float)
        m, n = g.shape
        rows = g.tolist()
    if m <= n:
        row_match, u, v = _jv_assign(
            [[-0.0 if x <= 0.0 else -x for x in row] for row in rows], n)
    else:
        col_match, v, u = _jv_assign(
            [[-0.0 if x <= 0.0 else -x for x in col] for col in zip(*rows)], m)
        row_match = [-1] * m
        for j, i in enumerate(col_match):  # n < m: every column is matched
            row_match[i] = j
    # drop edges that only existed through clipping; the value adds up in
    # row order with +=, since the builtin sum of floats is compensated from
    # Python 3.12 on
    value = 0.0
    for i, (j, row) in enumerate(zip(row_match, rows)):
        if j < 0 or row[j] <= 0.0:
            row_match[i] = -1
        else:
            value += row[j]
    return row_match, value, u, v


def max_weight_assignment(g) -> AssignmentResult:
    """Maximize <g, x> over row/column sums <= 1, x >= 0 (integral optimum).

    Entries of g may be negative; such edges are simply never used. Raises
    ``MarketError`` for NaN or infinite entries.
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise MarketError("assignment weights must be finite")
    row_match, value, u, v = best_matching(g)
    # Invariant, in the search that ``best_matching`` ran (on the transpose
    # when m > n): every column with a negative potential was reached by
    # some search, so it is matched. The column j* matched last was free
    # before the last search, so it was never lowered: its potential is 0,
    # and feasibility bounds every row potential by -clipped <= 0. Hence
    # beta = -u >= 0 and sigma = -v >= 0. A pair whose edge ``best_matching``
    # dropped (clipped weight) has beta_i + sigma_j = clipped[i, j] = 0 with
    # both terms >= 0, so both are 0; unmatched rows and columns keep a zero
    # dual. The clip at 0 only removes rounding; ``0.0 if x >= 0.0 else -x``
    # is ``np.maximum(-x, 0.0)``, bit for bit.
    beta = np.array([0.0 if x >= 0.0 else -x for x in u])
    sigma = np.array([0.0 if x >= 0.0 else -x for x in v])
    return AssignmentResult(row_match=np.array(row_match, dtype=int), value=value,
                            beta=beta, sigma=sigma)


def solve_fair(inst: MarketInstance) -> FairSolution:
    """Maximize total utility sum_i u_i over the matching polytope."""
    res = max_weight_assignment(inst.w)
    x = res.x_matrix(inst.w.shape)
    matching = FractionalMatching.from_x(inst, x)
    return FairSolution(matching=matching, value=res.value, assignment=res)

