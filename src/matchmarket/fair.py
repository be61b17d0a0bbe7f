"""Exact maximum-weight bipartite matching (the fair program) with its duals.

The solver is a shortest-augmenting-path assignment algorithm over the
rectangular weight matrix padded with zero-weight slack columns, so leaving a
user unmatched costs nothing. Edges with nonpositive weight are never used.
The optimal duals of the inequality-form LP (row duals beta, column duals
sigma) are the negated row and column potentials of the augmenting-path
searches. The searches keep every reduced cost nonnegative (dual
feasibility) and zero on matched edges (complementary slackness). A search
lowers only columns it reaches, which stay matched, and never lowers the
column matched last, which bounds every row potential by zero: so beta,
sigma >= 0, and users or items left unmatched carry a zero dual (see
``best_matching``). The duals certify the fair optimum and feed the KKT
checks of the selfish solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import FractionalMatching, MarketInstance


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


def _jv_assign(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jonker-Volgenant shortest augmenting paths, minimization, m <= K.

    Returns the assigned column per row and the row and column potentials
    u, v, with cost - u - v >= 0 everywhere and = 0 on assigned edges. 1-based
    internal indexing follows the classic formulation; ties in the Dijkstra
    step resolve to the lowest column index, which makes the output
    reproducible.
    """
    m, k = cost.shape
    INF = float("inf")
    u = np.zeros(m + 1)
    v = np.zeros(k + 1)
    p = np.zeros(k + 1, dtype=int)  # row matched to column j (1-based), 0 = free
    way = np.zeros(k + 1, dtype=int)
    for i in range(1, m + 1):
        p[0] = i
        j0 = 0
        minv = np.full(k + 1, INF)
        used = np.zeros(k + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            upd = free & (cur < minv[1:])
            minv[1:][upd] = cur[upd]
            way[1:][upd] = j0
            cand = np.where(free, minv[1:], INF)
            j1 = int(np.argmin(cand)) + 1  # ties resolve to the lowest column
            delta = cand[j1 - 1]
            u[p[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_match = np.full(m, -1, dtype=int)
    for j in range(1, k + 1):
        if p[j] != 0:
            row_match[p[j] - 1] = j - 1
    return row_match, u[1:], v[1:]


def best_matching(g) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Optimal matching, value and duals (beta, sigma) for max <g, x>.

    Returns (row_match, value, beta, sigma); see ``AssignmentResult``.
    """
    g = np.asarray(g, dtype=float)
    m, n = g.shape
    k = max(m, n)
    clipped = np.zeros((m, k))
    clipped[:, :n] = np.maximum(g, 0.0)
    row_match, u, v = _jv_assign(-clipped)
    # Invariant: every column with v < 0 was reached by some search, so it is
    # matched. The column j* matched last was free before the last search, so
    # it was never lowered: v[j*] = 0, and feasibility gives
    # u_i <= -clipped[i, j*] <= 0 for every row. Hence beta = -u >= 0 and
    # sigma = -v >= 0. A row whose edge is dropped below (slack column or
    # clipped weight) has beta_i + sigma_j = clipped[i, j] = 0 with both terms
    # >= 0, so both are 0; unmatched columns keep sigma = 0. The clip at 0
    # only removes rounding.
    beta = np.maximum(-u, 0.0)
    sigma = np.maximum(-v[:n], 0.0)
    # drop slack columns and edges that only existed through clipping
    for i in range(m):
        j = row_match[i]
        if j >= n or g[i, j] <= 0.0:
            row_match[i] = -1
    value = float(sum(g[i, j] for i, j in enumerate(row_match) if j >= 0))
    return row_match, value, beta, sigma


def max_weight_assignment(g) -> AssignmentResult:
    """Maximize <g, x> over row/column sums <= 1, x >= 0 (integral optimum).

    Entries of g may be negative; such edges are simply never used.
    """
    row_match, value, beta, sigma = best_matching(g)
    return AssignmentResult(row_match=row_match, value=value, beta=beta, sigma=sigma)


def solve_fair(inst: MarketInstance) -> FairSolution:
    """Maximize total utility sum_i u_i over the matching polytope."""
    res = max_weight_assignment(inst.w)
    x = res.x_matrix(inst.w.shape)
    matching = FractionalMatching.from_x(inst, x)
    return FairSolution(matching=matching, value=res.value, assignment=res)

