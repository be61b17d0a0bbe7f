"""Exact maximum-weight bipartite matching (the fair program) with dual recovery.

The solver is a shortest-augmenting-path assignment algorithm over the
rectangular weight matrix padded with zero-weight slack columns, so leaving a
user unmatched costs nothing. Edges with nonpositive weight are never used.
Optimal dual multipliers (row and column potentials of the inequality-form LP)
are reconstructed from the optimal matching by difference-constraint
relaxation; they certify optimality and feed the KKT checks of the selfish
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import perm as n_perm

import numpy as np

from .market import FractionalMatching, MarketInstance

_DUAL_TOL = 1e-9


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


def _jv_assign(cost: np.ndarray) -> np.ndarray:
    """Jonker-Volgenant shortest augmenting paths, minimization, m <= K.

    Returns the assigned column per row. 1-based internal indexing follows
    the classic formulation; ties in the Dijkstra step resolve to the lowest
    column index, which makes the output reproducible.
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
    return row_match


def _recover_duals(g: np.ndarray, row_match: np.ndarray):
    """Least feasible duals of the inequality-form assignment LP.

    Builds the pointwise-minimal sigma satisfying sigma >= 0, sigma_k >= g_ik
    for unmatched rows i, and sigma_k >= sigma_j + g_ik - g_ij for rows
    matched to j; beta then follows from complementary slackness. At an
    optimal matching this system is feasible and Bellman-Ford style
    relaxation reaches the fixpoint in at most n passes.
    """
    m, n = g.shape
    matched = row_match >= 0
    sigma = np.zeros(n)
    if (~matched).any():
        sigma = np.maximum(sigma, g[~matched].max(axis=0))
        sigma = np.maximum(sigma, 0.0)
    rows = np.nonzero(matched)[0]
    cols = row_match[rows]
    for _ in range(n + 2):
        if len(rows) == 0:
            break
        offset = sigma[cols] - g[rows, cols]
        cand = (g[rows] + offset[:, None]).max(axis=0)
        new = np.maximum(sigma, cand)
        if np.all(new <= sigma + 1e-15):
            break
        sigma = new
    beta = np.zeros(m)
    beta[rows] = g[rows, cols] - sigma[cols]
    # sanity: dual feasibility and complementarity must hold at an optimum
    if beta.min() < -_DUAL_TOL:
        raise RuntimeError("dual recovery failed: negative row potential")
    slack = beta[:, None] + sigma[None, :] - g
    if slack.min() < -_DUAL_TOL:
        raise RuntimeError("dual recovery failed: infeasible duals")
    return np.maximum(beta, 0.0), np.maximum(sigma, 0.0)


def best_matching(g) -> tuple[np.ndarray, float]:
    """Optimal matching and value for max <g, x> without dual recovery."""
    g = np.asarray(g, dtype=float)
    m, n = g.shape
    k = max(m, n)
    clipped = np.zeros((m, k))
    clipped[:, :n] = np.maximum(g, 0.0)
    row_match = _jv_assign(-clipped)
    # drop slack columns and edges that only existed through clipping
    for i in range(m):
        j = row_match[i]
        if j >= n or g[i, j] <= 0.0:
            row_match[i] = -1
    value = float(sum(g[i, j] for i, j in enumerate(row_match) if j >= 0))
    return row_match, value


def max_weight_assignment(g) -> AssignmentResult:
    """Maximize <g, x> over row/column sums <= 1, x >= 0 (integral optimum).

    Entries of g may be negative; such edges are simply never used.
    """
    g = np.asarray(g, dtype=float)
    row_match, value = best_matching(g)
    beta, sigma = _recover_duals(g, row_match)
    return AssignmentResult(row_match=row_match, value=value, beta=beta, sigma=sigma)


def solve_fair(inst: MarketInstance) -> FairSolution:
    """Maximize total utility sum_i u_i over the matching polytope."""
    res = max_weight_assignment(inst.w)
    x = res.x_matrix(inst.w.shape)
    matching = FractionalMatching.from_x(inst, x)
    return FairSolution(matching=matching, value=res.value, assignment=res)


def brute_force_fair(inst: MarketInstance) -> float:
    """Exact fair optimum by enumerating injections of the smaller side."""
    w = inst.w if inst.m <= inst.n else inst.w.T
    small, large = w.shape
    if small > 8:
        raise ValueError("brute force limited to min(m, n) <= 8")
    if n_perm(large, small) > 5_000_000:
        raise ValueError("instance too large for brute-force enumeration")
    best = 0.0
    rows = np.arange(small)
    for cols in permutations(range(large), small):
        best = max(best, float(w[rows, list(cols)].sum()))
    return best
