"""Brute-force oracles shared by the unit and acceptance tests."""

from itertools import permutations
from math import perm as n_perm

import numpy as np

from matchmarket.market import MarketInstance
from matchmarket.returns import MONOPOLY, Evaluator


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


def jv_assign_numpy(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference Jonker-Volgenant loop on numpy arrays, minimization, m <= K.

    Each Dijkstra step updates every column at once and takes the first
    argmin, so ties resolve to the lowest column. Returns the assigned column
    per row and the row and column potentials u, v; ``fair._jv_assign`` must
    return the same three, bit for bit.
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


def max_single_row_utility(w) -> float:
    """Fractional-knapsack maximum of u for one user with unit row mass."""
    w = np.sort(np.asarray(w, dtype=float))[::-1]
    u_max = 0.0
    mass = 1.0
    for wj in w:
        take = min(1.0, mass)
        u_max += take * wj
        mass -= take
        if mass <= 0:
            break
    return min(u_max, 1.0)


def oracle_single_row(w, model, stationary=MONOPOLY, step=1e-3) -> float:
    """Grid-search optimum of pi over the achievable utility interval."""
    u_max = max_single_row_utility(w)
    us = np.arange(0.0, u_max + step, step)
    us = np.clip(us, 0.0, u_max)
    return float(np.max(Evaluator([model], stationary).pi(us[:, None])))


def _convex_hull(pts):
    """Andrew's monotone chain; returns hull vertices in CCW order."""
    pts = sorted({(float(x), float(y)) for x, y in pts})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_mask(pts, g1, g2):
    """Membership of grid points in the convex hull of 2-D points."""
    hull = _convex_hull(pts)
    inside = np.ones(g1.shape, dtype=bool)
    if len(hull) == 1:
        x, y = hull[0]
        return (np.abs(g1 - x) <= 1e-9) & (np.abs(g2 - y) <= 1e-9)
    if len(hull) == 2:
        (ax, ay), (bx, by) = hull
        cross = (bx - ax) * (g2 - ay) - (by - ay) * (g1 - ax)
        inside = np.abs(cross) <= 1e-9
        dot = (g1 - ax) * (bx - ax) + (g2 - ay) * (by - ay)
        seg = (bx - ax) ** 2 + (by - ay) ** 2
        return inside & (dot >= -1e-9) & (dot <= seg + 1e-9)
    k = len(hull)
    for i in range(k):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % k]
        cross = (bx - ax) * (g2 - ay) - (by - ay) * (g1 - ax)
        inside &= cross >= -1e-9
    return inside


def oracle_2x2(w, models, stationary=MONOPOLY, step=1e-3) -> float:
    """Grid search over achievable (u1, u2) for a 2x2 instance.

    The achievable utility vectors form the convex hull of the projections
    of the polytope's vertices: the empty matching, the four single edges,
    and the two perfect matchings.
    """
    w = np.asarray(w, dtype=float)
    verts = np.array([
        (0.0, 0.0),
        (w[0, 0], 0.0), (w[0, 1], 0.0),
        (0.0, w[1, 0]), (0.0, w[1, 1]),
        (w[0, 0], w[1, 1]), (w[0, 1], w[1, 0]),
    ])
    u1 = np.arange(0.0, verts[:, 0].max() + step, step)
    u2 = np.arange(0.0, verts[:, 1].max() + step, step)
    g1, g2 = np.meshgrid(u1, u2, indexing="ij")
    mask = _hull_mask(verts, g1, g2)
    vals = Evaluator(models, stationary).objective(
        np.stack([np.clip(g1, 0, 1), np.clip(g2, 0, 1)], axis=-1))
    vals = np.where(mask, vals, -np.inf)
    return float(vals.max())
