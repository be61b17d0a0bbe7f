"""Selfish matching: maximize expected returning users over the matching polytope.

The objective sum_i pi_i(u_i) is concave for monopoly stationaries with
strictly concave q, and the solver then runs fully-corrective Frank-Wolfe:
each iteration adds the vertex of an assignment problem on the per-edge
gradient weights to an active set of matchings, then reoptimizes the convex
weights of that set by Newton ascent on the simplex, which stops on the
weight problem's own Frank-Wolfe gap. Each pi_i is single-peaked, so the
objective is clamped at the per-user peak utility; this leaves the optimum
unchanged (rows can always be scaled down) while making the clamped
objective monotone, and the returned matching is row-shrunk so no user
lands past their peak.

For competition stationaries or learned (non-concave) models the objective is
not concave; the solver falls back to multistart local search from random
polytope vertices plus the fair solution.

Every value of pi, pi' and pi'' comes from ``returns.Evaluator``; this module
holds the optimization only. ``Stationary``, ``MONOPOLY`` and ``competition``
are defined in ``returns`` and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import returns
from .fair import best_matching, max_weight_assignment, solve_fair, vertex_matrix
from .market import FractionalMatching, MarketInstance
from .returns import MONOPOLY, Evaluator, ReturnModel, Stationary, competition  # noqa: F401

MAX_ITERS = 10_000
GAP_TOL_PER_USER = 1e-7
MULTISTART_RESTARTS = 16
WEIGHT_GAP_FRACTION = 0.01  # weight solves stop at this share of the FW gap tolerance
WEIGHT_MAX_ITERS = 100
WEIGHT_RIDGE = 1e-12  # relative ridge on the rank-deficient weight Hessian
LINE_MAX_ITERS = 60

_peak_cache: dict[tuple, float] = {}
_concavity_cache: dict[tuple, bool] = {}


def peak_utility(model: ReturnModel, stat: Stationary) -> float:
    """Utility maximizing pi for this user; pi is increasing below, decreasing above."""
    key = (model.cache_key(), stat.kind, stat.eps)
    cached = _peak_cache.get(key)
    if cached is None:
        if stat.kind == "monopoly":
            cached = returns.q_peak(model)
        else:
            cached = returns.argmax_pi_competition(model, stat.eps)
        _peak_cache[key] = cached
    return cached


def _is_concave(model: ReturnModel) -> bool:
    key = model.cache_key()
    cached = _concavity_cache.get(key)
    if cached is None:
        cached = returns.check_assumptions(model).a3_ok
        _concavity_cache[key] = cached
    return cached


@dataclass(frozen=True)
class KKTReport:
    stationarity: float
    complementary_slackness: float
    dual_feasibility: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.complementary_slackness, self.dual_feasibility)


@dataclass(frozen=True)
class SelfishSolution:
    matching: FractionalMatching
    value: float
    fw_gap: float
    iterations: int
    beta: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    mode: str  # "concave-exact" | "multistart-local"
    # weight solves of the concave path that stopped at their iteration cap
    # or without an ascent step, short of their gap tolerance
    weight_solves_short: int = 0


def _check_models(inst: MarketInstance, models) -> list[ReturnModel]:
    models = list(models)
    if len(models) != inst.m:
        raise ValueError(f"need one return model per row: got {len(models)} for m={inst.m}")
    return models


def _line_search(f_batch, gamma_max: float, points: int = 129, max_stages: int = 24) -> float:
    """Exact-enough 1-D maximization via repeated vectorized grid refinement.

    Each stage evaluates the slice on a uniform grid and zooms into the cells
    adjacent to the best point, shrinking the bracket by ~points/2 per stage;
    refinement continues until the bracket is negligible relative to the best
    step found. On a concave slice this is exact bracketing; on a non-concave
    one the first dense grid makes missing the global cell unlikely.
    """
    lo, hi = 0.0, gamma_max
    best_g, best_v = 0.0, -np.inf
    for _ in range(max_stages):
        gs = np.linspace(lo, hi, points)
        vals = f_batch(gs)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_v = float(vals[k])
            best_g = float(gs[k])
        lo = gs[max(k - 1, 0)]
        hi = gs[min(k + 1, points - 1)]
        if hi - lo <= 1e-10 * (1.0 + best_g):
            break
    return best_g


def _shrink_to_peaks(inst: MarketInstance, x: np.ndarray, peaks) -> np.ndarray:
    """Scale down rows whose utility exceeds the user's peak."""
    x = x.copy()
    u = (inst.w * x).sum(axis=1)
    for i in range(inst.m):
        if u[i] > peaks[i] > 0.0:
            x[i] *= peaks[i] / u[i]
    return x


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _clamped_grad(ev: Evaluator, peaks, u: np.ndarray) -> np.ndarray:
    """Per-user slope of the clamped objective: pi'(u_i) below the peak, 0 from it on."""
    return np.where(u >= peaks, 0.0, ev.pi_prime(np.minimum(u, peaks)))


def _newton_direction(UV: np.ndarray, g: np.ndarray, curv: np.ndarray,
                      face: np.ndarray) -> np.ndarray:
    """Newton ascent direction of the weight problem on the face ``face``.

    Maximizes g.d + d.H.d / 2 over directions d supported on the face with
    sum(d) = 0, where H = UV diag(curv) UV^T. H has rank at most m, so the
    (k+1)x(k+1) KKT system gets a tiny ridge; the gradient vanishes along
    H's null space, so the ridge only picks the shortest of the equal steps.
    """
    A = UV[face]
    p = len(A)
    H = (A * curv) @ A.T
    K = np.zeros((p + 1, p + 1))
    K[:p, :p] = H - WEIGHT_RIDGE * (1.0 + np.abs(np.diag(H)).max()) * np.eye(p)
    K[:p, p] = 1.0
    K[p, :p] = 1.0
    d = np.zeros(len(g))
    d[face] = np.linalg.solve(K, np.append(-g[face], 0.0))[:p]
    return d


def _ascent_step(ev: Evaluator, peaks, UV, lam, grow, d):
    """Move the weights along d to near the maximum of the clamped objective.

    A ratio test caps the step at tmax <= 1, where the first weight reaches
    zero. The objective is concave along the line, so a step at which its
    slope is still non-negative lies short of the line's maximizer and
    cannot lower the objective. The step is tmax if the slope there is
    non-negative; otherwise a safeguarded secant search on the slope brackets
    its root and stops at a step whose slope is non-negative and at most a
    tenth of the initial one. Returns (lam, grow) at the new weights, or None
    when d does not ascend.
    """
    # near the optimum g is nearly constant, so sum(d) must vanish to the
    # rounding of d, not of lam, for the slopes below to keep their sign
    moved = d != 0.0
    if not moved.any():
        return None
    d = np.where(moved, d - d[moved].mean(), 0.0)
    du = d @ UV
    s0 = float(grow @ du)
    neg = d < 0.0
    ratios = lam[neg] / -d[neg]
    tmax = min(1.0, float(ratios.min(initial=np.inf)))
    if not (s0 > 0.0 and tmax > 0.0):
        return None
    u0 = lam @ UV
    lo, s_lo, hi, s_hi = 0.0, s0, tmax, 0.0
    t, found = tmax, False
    for _ in range(LINE_MAX_ITERS):
        s = float(_clamped_grad(ev, peaks, u0 + t * du) @ du)
        if s >= 0.0:
            lo, s_lo, found = t, s, True
            if t == tmax or s <= 0.1 * s0:
                break
        else:
            hi, s_hi = t, s
        width = hi - lo
        secant = lo + width * s_lo / (s_lo - s_hi)
        t = min(max(secant, lo + 0.1 * width), hi - 0.1 * width)
    if not found:
        return None
    new = np.maximum(lam + lo * d, 0.0)
    if lo == tmax and tmax < 1.0:
        new[np.flatnonzero(neg)[np.argmin(ratios)]] = 0.0
    return new, _clamped_grad(ev, peaks, new @ UV)


def _correct_weights(ev: Evaluator, peaks, UV: np.ndarray, lam: np.ndarray,
                     tol: float) -> tuple[np.ndarray, bool]:
    """Maximize the clamped objective over convex weights of the active set.

    ``UV[k]`` is the per-user utility vector of active vertex k, so the
    weight problem is F(lam) = sum_i pi_i(min((lam @ UV)_i, peak_i)) over the
    simplex, which is concave. Each iteration takes a Newton step on the face
    of positive weights, widened by the vertex of largest gradient; a vertex
    at zero weight that the step would push negative leaves the face. The
    Hessian uses pi'' below each user's peak and 0 from the peak on, where
    the clamped objective is flat. A projected-gradient step stands in when
    the Newton direction does not ascend.

    Stops when the weight problem's own Frank-Wolfe gap max(g) - lam.g is at
    most ``tol`` and returns (lam, True); returns (lam, False) when no
    ascent step is found, or when ``WEIGHT_MAX_ITERS`` steps leave the gap
    above ``tol``.
    """
    grow = _clamped_grad(ev, peaks, lam @ UV)
    for _ in range(WEIGHT_MAX_ITERS):
        g = UV @ grow
        j = int(np.argmax(g))
        if g[j] - lam @ g <= tol:
            return lam, True
        u = lam @ UV
        curv = np.where(u >= peaks, 0.0, ev.pi_second(np.minimum(u, peaks)))
        face = lam > 0.0
        face[j] = True
        while True:
            d = _newton_direction(UV, g, curv, face)
            pushed = face & (lam <= 0.0) & (d < 0.0)
            if not pushed.any():
                break
            face &= ~pushed
        step = _ascent_step(ev, peaks, UV, lam, grow, d)
        if step is None:
            scale = max(float(-((UV * UV) @ curv).min()), tol)
            step = _ascent_step(ev, peaks, UV, lam, grow,
                                _project_simplex(lam + g / scale) - lam)
            if step is None:
                return lam, False
        lam, grow = step
    g = UV @ grow
    return lam, bool(g.max() - lam @ g <= tol)


def _afw(inst: MarketInstance, ev: Evaluator, peaks, gap_tol: float):
    """Fully-corrective Frank-Wolfe on the clamped objective.

    Each iteration adds the LP-oracle vertex to the active set and then
    reoptimizes the convex weights over the whole active set with the Newton
    weight solve ``_correct_weights``, which avoids the zig-zagging of plain
    pairwise steps on the clamped (flat-beyond-peak) objective. The empty
    matching stays in the active set so total mass may stay below 1. Stops
    when the FW gap is at most ``gap_tol``; returns (x, gap, iterations,
    number of weight solves that stopped short of their tolerance).
    """
    w = inst.w
    m, n = w.shape
    empty = tuple([-1] * m)
    active: dict[tuple, float] = {empty: 1.0}
    vertices: dict[tuple, np.ndarray] = {empty: np.zeros((m, n))}
    x = np.zeros((m, n))
    gap = np.inf
    short = 0
    it = 0
    for it in range(1, MAX_ITERS + 1):
        u = (w * x).sum(axis=1)
        grad = _clamped_grad(ev, peaks, u)[:, None] * w
        row_match, s_value = best_matching(grad)
        gap = float(s_value - (grad * x).sum())
        if gap <= gap_tol:
            break
        s_key = tuple(row_match)
        vertices.setdefault(s_key, vertex_matrix(row_match, (m, n)))
        active.setdefault(s_key, 0.0)
        keys = sorted(active)
        lam = np.array([active[k] for k in keys])
        UV = np.stack([(w * vertices[k]).sum(axis=1) for k in keys])
        lam, converged = _correct_weights(ev, peaks, UV, lam,
                                          WEIGHT_GAP_FRACTION * gap_tol)
        short += not converged
        active = {k: float(a) for k, a in zip(keys, lam) if a > 0.0}
        active.setdefault(empty, 0.0)
        vertices = {k: vertices[k] for k in active}
        x = np.zeros((m, n))
        for k, a in active.items():
            x = x + a * vertices[k]
    return x, gap, it, short


def _random_vertex(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(n)
    keep = rng.random(m) < 0.7
    x = np.zeros((m, n))
    for i in range(min(m, n)):
        if keep[i]:
            x[i, perm[i]] = 1.0
    return x


def _local_fw(inst: MarketInstance, models, stat, x0: np.ndarray, iters: int = 2000):
    """Vanilla Frank-Wolfe ascent with dense line search (non-concave objectives)."""
    w = inst.w
    ev = Evaluator(models, stat)
    x = x0.copy()
    gap = np.inf
    it = 0
    prev = -np.inf
    for it in range(1, iters + 1):
        u = (w * x).sum(axis=1)
        grow = ev.pi_prime(u)
        g = grow[:, None] * w
        row_match, s_value = best_matching(g)
        s = vertex_matrix(row_match, w.shape)
        gap = float(s_value - (g * x).sum())
        if abs(gap) <= 1e-9 * max(1, inst.m):
            break
        du = (w * (s - x)).sum(axis=1)

        def slice_obj(gammas):
            U = np.clip(u[None, :] + np.outer(gammas, du), 0.0, 1.0)
            return ev.objective(U)

        gamma = _line_search(slice_obj, 1.0)
        val = float(slice_obj(np.array([gamma]))[0])
        if gamma <= 1e-15 or val <= prev + 1e-14:
            break
        prev = val
        x = x + gamma * (s - x)
    return x, gap, it


def solve_selfish(
    inst: MarketInstance,
    models,
    stationary: Stationary = MONOPOLY,
    seed: int = 0,
) -> SelfishSolution:
    models = _check_models(inst, models)
    ev = Evaluator(models, stationary)
    concave = stationary.kind == "monopoly" and all(_is_concave(mod) for mod in models)
    gap_tol = GAP_TOL_PER_USER * inst.m

    if concave:
        peaks = np.array([peak_utility(mod, stationary) for mod in models])
        x, gap, iters, weight_short = _afw(inst, ev, peaks, gap_tol)
        x = _shrink_to_peaks(inst, x, peaks)
        mode = "concave-exact"
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        starts = [_random_vertex(inst.m, inst.n, rng) for _ in range(MULTISTART_RESTARTS)]
        starts.append(solve_fair(inst).matching.x.copy())
        best = None
        for x0 in starts:
            cand = _local_fw(inst, models, stationary, x0)
            if best is None:
                best = cand
                continue
            val_c = float(ev.objective((inst.w * cand[0]).sum(axis=1)))
            val_b = float(ev.objective((inst.w * best[0]).sum(axis=1)))
            if val_c > val_b + 1e-12 or (
                abs(val_c - val_b) <= 1e-12
                and tuple(cand[0].ravel()) < tuple(best[0].ravel())
            ):
                best = cand
        x, gap, iters = best
        mode = "multistart-local"
        weight_short = 0

    x = np.clip(x, 0.0, None)
    matching = FractionalMatching.from_x(inst, x)
    value = float(ev.objective(matching.u))
    grow = ev.pi_prime(matching.u)
    if concave:
        grow = np.where(matching.u >= peaks - 1e-15, 0.0, grow)
    final = max_weight_assignment(grow[:, None] * inst.w)
    beta, sigma = final.beta, final.sigma
    mu = beta[:, None] + sigma[None, :] - grow[:, None] * inst.w
    return SelfishSolution(
        matching=matching,
        value=value,
        fw_gap=max(gap, 0.0),
        iterations=iters,
        beta=beta,
        sigma=sigma,
        mu=mu,
        mode=mode,
        weight_solves_short=weight_short,
    )


def kkt_residual(
    inst: MarketInstance,
    models,
    x,
    beta,
    sigma,
    mu=None,
    stationary: Stationary = MONOPOLY,
) -> KKTReport:
    """Residuals of the first-order optimality system at (x, beta, sigma, mu).

    If mu is omitted it is recovered from stationarity, so the reported
    stationarity residual is zero and all slackness lands in the other terms.
    """
    models = _check_models(inst, models)
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if beta.shape != (inst.m,) or sigma.shape != (inst.n,):
        raise ValueError("multiplier shapes do not match the instance")
    u = (inst.w * x).sum(axis=1)
    g = Evaluator(models, stationary).pi_prime(u)[:, None] * inst.w
    lag = beta[:, None] + sigma[None, :] - g
    if mu is None:
        mu = lag
    mu = np.asarray(mu, dtype=float)
    stat_res = float(np.abs(lag - mu).max())
    comp = max(
        float(np.abs(mu * x).max()),
        float(np.abs(beta * (x.sum(axis=1) - 1.0)).max()),
        float(np.abs(sigma * (x.sum(axis=0) - 1.0)).max()),
    )
    dual = max(0.0, -float(min(beta.min(), sigma.min(), mu.min())))
    return KKTReport(stationarity=stat_res, complementary_slackness=comp, dual_feasibility=dual)


def kkt_residual_of(inst: MarketInstance, models, sol: SelfishSolution,
                    stationary: Stationary = MONOPOLY) -> KKTReport:
    return kkt_residual(inst, models, sol.matching.x, sol.beta, sol.sigma,
                        mu=sol.mu, stationary=stationary)


def solve_selfish_integral(
    inst: MarketInstance,
    models,
    stationary: Stationary = MONOPOLY,
) -> SelfishSolution:
    """Best integral matching: per-edge objective pi_i(w_ij) reduces to assignment."""
    ev = Evaluator(_check_models(inst, models), stationary)
    # users on the last axis: column j of w.T holds user j's edge utilities
    res = max_weight_assignment(ev.pi(inst.w.T).T)
    x = res.x_matrix(inst.w.shape)
    matching = FractionalMatching.from_x(inst, x)
    grow = ev.pi_prime(matching.u)
    mu = res.beta[:, None] + res.sigma[None, :] - grow[:, None] * inst.w
    return SelfishSolution(
        matching=matching,
        value=res.value,
        fw_gap=float("nan"),
        iterations=0,
        beta=res.beta,
        sigma=res.sigma,
        mu=mu,
        mode="integral",
    )
