"""Selfish matching: maximize expected returning users over the matching polytope.

One engine solves every market: fully-corrective Frank-Wolfe. Each iteration
adds the vertex of an assignment problem on the per-edge gradient weights to
an active set of matchings, then reoptimizes the convex weights of that set
by Newton ascent on the simplex, stopping on the weight problem's own
Frank-Wolfe gap. Where a non-concave pi_i is locally convex, its curvature
enters the Newton model as 0, so the model stays concave. Each accepted
Newton step takes the gradient and curvature at its new weights from one
derivative pass (``Evaluator.clamped_derivs``); line-search trial points
evaluate pi' only (``Evaluator.clamped_prime``). A weight solve whose Newton
direction does not ascend stops there and is counted in the solution's
``weight_solves_short``. The Newton system is solved by ``np.linalg.solve``,
and the ratio test runs on Python floats with the pick ``np.argmin`` makes.

The objective is clamped at each user's peak utility, the global maximizer
of pi_i; this leaves the optimum unchanged (rows can always be scaled down)
while making the clamped objective flat past the peak, and the returned
matching is row-shrunk so no user lands past their peak. Return models whose
q rises again after falling are rejected: the clamp flattens pi only past
the highest peak and leaves their lower peaks in place.

The objective sum_i pi_i(u_i) is concave for monopoly stationaries with
strictly concave q: one run from the empty matching solves it (mode
``concave-exact``). Otherwise (competition stationaries, grid models) the
engine runs from random polytope vertices plus the fair matching and keeps
the best stationary point (mode ``multistart-local``); starts that stop at
the iteration cap are counted in the solution.

Every value of pi, pi' and pi'', every peak and every clamp of the objective
comes from ``returns.Evaluator``; this module holds the optimization only.
``Stationary``, ``MONOPOLY`` and ``competition`` are defined in ``returns``
and re-exported here.
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
    # weight solves, over all starts, that stopped at their iteration cap or
    # without an ascent step, short of their gap tolerance
    weight_solves_short: int = 0
    # starts whose Frank-Wolfe run stopped at MAX_ITERS above the gap tolerance
    starts_capped: int = 0


def _check_models(inst: MarketInstance, models) -> list[ReturnModel]:
    models = list(models)
    if len(models) != inst.m:
        raise ValueError(f"need one return model per row: got {len(models)} for m={inst.m}")
    return models


def _shrink_to_peaks(inst: MarketInstance, x: np.ndarray, peaks) -> np.ndarray:
    """Scale down rows whose utility exceeds the user's peak."""
    x = x.copy()
    u = (inst.w * x).sum(axis=1)
    for i in range(inst.m):
        if u[i] > peaks[i] > 0.0:
            x[i] *= peaks[i] / u[i]
    return x


def _newton_direction(UV: np.ndarray, g: np.ndarray, curv: np.ndarray,
                      face: np.ndarray) -> np.ndarray:
    """Newton ascent direction of the weight problem on the face ``face``.

    Maximizes g.d + d.H.d / 2 over directions d supported on the face with
    sum(d) = 0, where H = UV diag(curv) UV^T. H has rank at most m, so the
    (k+1)x(k+1) KKT system gets a tiny ridge on its diagonal; the gradient
    vanishes along H's null space, so the ridge only picks the shortest of
    the equal steps. ``np.linalg.solve`` raises its ``LinAlgError``, and
    emits no warning, for a singular system.
    """
    A = UV[face]
    p = len(A)
    K = np.ones((p + 1, p + 1))
    K[:p, :p] = (A * curv) @ A.T
    K[p, p] = 0.0
    diag = K.ravel()[:p * (p + 2):p + 2]  # a view of H's diagonal
    diag -= WEIGHT_RIDGE * (1.0 + np.maximum.reduce(np.abs(diag)))
    rhs = np.zeros(p + 1)
    np.negative(g[face], out=rhs[:p])
    d = np.zeros(len(g))
    d[face] = np.linalg.solve(K, rhs)[:p]
    return d


def _ascent_step(ev: Evaluator, UV, lam, u0, grow, d):
    """Move the weights along d to near the maximum of the clamped objective.

    ``u0`` is lam @ UV and ``grow`` the clamped gradient there
    (``Evaluator.clamped_prime``). A ratio test on Python floats caps the step at
    tmax <= 1, where the first weight reaches zero; of equal smallest ratios
    the first index is that weight, as ``np.argmin`` would pick. Where
    the objective is concave along the line, a step at which its slope is
    still non-negative lies short of the line's maximizer and cannot lower
    the objective. The step is tmax if the slope there is non-negative;
    otherwise a safeguarded secant search on the slope brackets its root and
    stops at a step whose slope is non-negative and at most a tenth of the
    initial one. Trial steps evaluate pi' only. Returns (lam, u, grow, curv)
    at the new weights, the clamped gradient and curvature from one
    ``Evaluator.clamped_derivs`` pass, or None when d does not ascend.
    """
    # near the optimum g is nearly constant, so sum(d) must vanish to the
    # rounding of d, not of lam, for the slopes below to keep their sign
    still = d == 0.0
    dm = d[~still]
    if not dm.size:
        return None
    d = d - np.add.reduce(dm) / dm.size
    d[still] = 0.0
    du = d @ UV
    s0 = float(grow @ du)
    tmax, first = 1.0, -1
    for k, (a, b) in enumerate(zip(lam.tolist(), d.tolist())):
        if b < 0.0 and a / -b < tmax:
            tmax, first = a / -b, k
    if not (s0 > 0.0 and tmax > 0.0):
        return None
    lo, s_lo, hi, s_hi = 0.0, s0, tmax, 0.0
    t, found = tmax, False
    for _ in range(LINE_MAX_ITERS):
        s = float(ev.clamped_prime(u0 + t * du) @ du)
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
        new[first] = 0.0
    u = new @ UV
    return (new, u, *ev.clamped_derivs(u))


def _correct_weights(ev: Evaluator, UV: np.ndarray, lam: np.ndarray,
                     tol: float) -> tuple[np.ndarray, bool]:
    """Maximize the clamped objective over convex weights of the active set.

    ``UV[k]`` is the per-user utility vector of active vertex k, so the
    weight problem is F(lam) = sum_i pi_i(min((lam @ UV)_i, peak_i)) over the
    simplex, which is concave when every pi_i is. Each iteration takes a
    Newton step on the face of positive weights, widened by the vertex of
    largest gradient; if the step would push that vertex's zero weight
    negative, the vertex leaves the face and the step is taken again. The
    Hessian uses min(pi'', 0) below each user's peak and 0 from the peak on,
    where the clamped objective is flat, so it stays negative semidefinite
    and the step ascends even where a non-concave pi_i is convex. The
    utilities u = lam @ UV and the clamped gradient and curvature there come
    from one ``Evaluator.clamped_derivs`` pass at entry and one at each accepted
    step, and are carried into the next iteration, not computed again.

    Stops when the weight problem's own Frank-Wolfe gap max(g) - lam.g is at
    most ``tol`` and returns (lam, True); returns (lam, False) when the
    Newton direction does not ascend, or when ``WEIGHT_MAX_ITERS`` steps
    leave the gap above ``tol``. ``_afw`` counts such solves, and
    ``solve_selfish`` reports them as ``weight_solves_short``.
    """
    u = lam @ UV
    grow, curv = ev.clamped_derivs(u)
    for _ in range(WEIGHT_MAX_ITERS):
        g = UV @ grow
        j = int(g.argmax())
        if g[j] - lam @ g <= tol:
            return lam, True
        face = lam > 0.0
        face[j] = True
        d = _newton_direction(UV, g, curv, face)
        if lam[j] <= 0.0 and d[j] < 0.0:  # j is the face's one vertex at zero weight
            face[j] = False
            d = _newton_direction(UV, g, curv, face)
        step = _ascent_step(ev, UV, lam, u, grow, d)
        if step is None:
            return lam, False
        lam, u, grow, curv = step
    g = UV @ grow
    return lam, bool(g.max() - lam @ g <= tol)


def _afw(inst: MarketInstance, ev: Evaluator, gap_tol: float, start):
    """Fully-corrective Frank-Wolfe on the clamped objective from ``start``.

    ``start`` is a matching given as the column per row, -1 if unmatched; the
    active set begins with it at weight 1. Each iteration adds the LP-oracle
    vertex to the active set and then reoptimizes the convex weights over the
    whole active set with ``_correct_weights``, which avoids the zig-zagging
    of plain Frank-Wolfe steps on the clamped (flat-beyond-peak) objective
    (the fully-corrective variant of Lacoste-Julien and Jaggi, NeurIPS 2015).
    Each active vertex, keyed by its column per row, keeps its weight and
    its per-user utility row, so the weight problem's matrix is stacked
    from stored rows; x adds each weight into its vertex's cells in key order.
    The empty matching stays in the active set so total mass may stay below
    1. Stops when the FW gap is at most ``gap_tol`` or after ``MAX_ITERS``
    iterations; returns (x, gap, iterations, number of weight solves that
    stopped short of their tolerance).
    """
    w = inst.w
    m, n = w.shape
    w_rows = w.tolist()

    def utility_row(key):
        return [w_rows[i][j] if j >= 0 else 0.0 for i, j in enumerate(key)]

    empty = tuple([-1] * m)
    first = tuple(int(j) for j in start)
    active = {empty: 0.0} | {first: 1.0}
    util = {k: utility_row(k) for k in active}
    x = vertex_matrix(first, (m, n))
    gap = np.inf
    short = 0
    it = 0
    for it in range(1, MAX_ITERS + 1):
        u = (w * x).sum(axis=1)
        grad = ev.clamped_prime(u)[:, None] * w
        row_match, s_value, _, _ = best_matching(grad)
        gap = float(s_value - (grad * x).sum())
        if gap <= gap_tol:
            break
        s_key = tuple(row_match)
        if s_key not in util:
            util[s_key] = utility_row(s_key)
        active.setdefault(s_key, 0.0)
        keys = sorted(active)
        lam, converged = _correct_weights(ev, np.array([util[k] for k in keys]),
                                          np.array([active[k] for k in keys]),
                                          WEIGHT_GAP_FRACTION * gap_tol)
        short += not converged
        active = {k: a for k, a in zip(keys, lam.tolist()) if a > 0.0}
        active.setdefault(empty, 0.0)
        util = {k: util[k] for k in active}
        cells = [[0.0] * n for _ in range(m)]
        for k, a in active.items():
            for i, j in enumerate(k):
                if j >= 0:
                    cells[i][j] += a
        x = np.array(cells)
    return x, gap, it, short


def _random_start(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A random matching as the column per row: a random permutation of the
    columns, each of the first min(m, n) rows kept with probability 0.7."""
    perm = rng.permutation(n)
    keep = rng.random(m) < 0.7
    start = np.full(m, -1)
    k = min(m, n)
    start[:k] = np.where(keep[:k], perm[:k], -1)
    return start


def solve_selfish(
    inst: MarketInstance,
    models,
    stationary: Stationary = MONOPOLY,
    seed: int = 0,
) -> SelfishSolution:
    """Maximize sum_i pi_i(u_i) over fractional matchings, with certificates.

    Raises ``ReturnModelError`` for a return model whose q is not
    single-peaked (``returns.single_peaked``).
    """
    models = _check_models(inst, models)
    if not all(returns.single_peaked(mod) for mod in models):
        raise returns.ReturnModelError("solve_selfish needs single-peaked return models")
    ev = Evaluator(models, stationary)
    concave = stationary.kind == "monopoly" and all(
        returns.strictly_concave(mod) for mod in models)
    gap_tol = GAP_TOL_PER_USER * inst.m

    if concave:
        starts = [np.full(inst.m, -1)]
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        starts = [_random_start(inst.m, inst.n, rng) for _ in range(MULTISTART_RESTARTS)]
        starts.append(solve_fair(inst).assignment.row_match)
    best = None
    weight_short = capped = 0
    for start in starts:
        x, gap, iters, short = _afw(inst, ev, gap_tol, start)
        weight_short += short
        capped += gap > gap_tol
        x = _shrink_to_peaks(inst, x, ev.peaks)
        val = ev.objective((inst.w * x).sum(axis=1))
        if best is None or val > best[0] + 1e-12 or (
            abs(val - best[0]) <= 1e-12 and tuple(x.ravel()) < tuple(best[1].ravel())
        ):
            best = (val, x, gap, iters)
    _, x, gap, iters = best

    x = np.clip(x, 0.0, None)
    matching = FractionalMatching.from_x(inst, x)
    value = ev.objective(matching.u)
    grow = ev.pi_prime(matching.u)
    grow = np.where(matching.u >= ev.peaks - 1e-15, 0.0, grow)
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
        mode="concave-exact" if concave else "multistart-local",
        weight_solves_short=weight_short,
        starts_capped=capped,
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

