"""Selfish matching: maximize expected returning users over the matching polytope.

One engine solves every market: fully-corrective Frank-Wolfe. Each iteration
adds the vertex of an assignment problem on the per-edge gradient weights of
the users below their peak to an active set of matchings, then reoptimizes
the convex weights of that set by Newton ascent on the simplex, stopping on
the weight problem's own Frank-Wolfe gap. That solve is inexact while the
active set grows: it stops at ``WEIGHT_GAP_SHARE`` times the current FW
gap, and at the floor, ``WEIGHT_GAP_FRACTION`` times the FW gap tolerance,
only once the FW gap is within that tolerance or the oracle's vertex
already has positive weight. Frank-Wolfe stops only after such a tight
solve, or at a FW gap within the floor, so every returned point meets both
tolerances. Where a non-concave pi_i is locally convex, its curvature
enters the Newton model as 0, so the model stays concave. Each accepted
Newton step takes the gradient and curvature at its new weights from one
derivative pass (``Evaluator.clamped_derivs``); each line-search trial
point takes its slope along the search direction du from one pass over pi'
only, the arithmetic's ``slope(u0, t, du)``. The line search accepts only
steps whose slope is non-negative, so no step lowers the objective; its
first secant trial below a full step whose end slope is negative may come
within ``LINE_FIRST_MARGIN`` of that step, so near the optimum a Newton
step keeps at least 0.999 of its length rather than 0.9. The solution
counts the Newton directions in ``newton_steps``. A weight solve whose
Newton direction does not ascend stops there and is counted in the
solution's ``weight_solves_short``. The weights, gains and directions of
the weight solve are lists of Python floats. On a market of at most
``returns.ELEMENT_MAX_USERS`` parametric users (``Evaluator.floats``) so is
everything else: every product is an exactly rounded ``math.fsum`` and the
Newton system is eliminated in Python, so the solution does not depend on
the host's BLAS or SIMD dispatch. Other markets keep utilities and slopes in
numpy arrays, with numpy's products and LAPACK's solve. The two differ only
in their arithmetic (``_Floats``, ``_Arrays``); the engine is written once.

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
comes from ``returns.Evaluator``, one per market from
``returns.cached_evaluator``; this module holds the optimization only.
``Stationary``, ``MONOPOLY`` and ``competition`` are defined in ``returns``
and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import fsum
from operator import mul, neg, sub, truediv

import numpy as np

from . import returns
from .fair import best_matching, max_weight_assignment, solve_fair
from .market import FractionalMatching, MarketInstance, keyed_rng
from .returns import MONOPOLY, Evaluator, ReturnModel, Stationary, competition  # noqa: F401

MAX_ITERS = 10_000
GAP_TOL_PER_USER = 1e-7
MULTISTART_RESTARTS = 16
# the floor of every weight solve's tolerance, as a share of the FW gap
# tolerance: the tight solves stop there, and so Frank-Wolfe's last one
WEIGHT_GAP_FRACTION = 0.01
# a weight solve on a growing active set stops at this share of the FW gap.
# It must stay below 1: the new vertex's gain gap starts equal to the FW
# gap, so at 1 the solve would return at once and the weights never move
WEIGHT_GAP_SHARE = 0.5
WEIGHT_MAX_ITERS = 100
WEIGHT_RIDGE = 1e-12  # relative ridge on the rank-deficient weight Hessian
LINE_MAX_ITERS = 60
# the first secant trial's margin below a rejected full step, as a share of
# the bracket: a Newton step that lands on the line's maximum ends at a
# slope negative only by rounding, and the 0.1 margin of later trials would
# cut it to 90% and leave the weight solve converging linearly
LINE_FIRST_MARGIN = 1e-3

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
    # Newton directions computed by the weight solves, over all starts
    newton_steps: int = 0


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


def _newton_direction(ar, UV, g, curv, face) -> list[float]:
    """Newton ascent direction of the weight problem on the face ``face``.

    Maximizes g.d + d.H.d / 2 over directions d supported on the face with
    sum(d) = 0, where H = UV diag(curv) UV^T is negative semidefinite. With
    d = Z e for Z = [I; -1^T], the face's last vertex takes minus the sum of
    the others, and e solves (Z^T N Z) e = Z^T g for N = -H + r I. With B
    the face's other rows less its last row and G = -B diag(curv) B^T,
    that is (G + r (I + 1 1^T)) e = Z^T g, positive definite for a ridge
    r = ``WEIGHT_RIDGE`` (1 + max diag G). G has rank at most m, and Z^T g
    vanishes along its null space, so the ridge only picks the shortest of
    the equal steps. ``ar.solve`` builds and solves the system; one it
    cannot solve raises ``LinAlgError``, with no warning first.
    """
    idx = [k for k, f in enumerate(face) if f]
    d = [0.0] * len(g)
    if len(idx) < 2:
        return d
    last = idx.pop()
    e = ar.solve(UV, idx, last, curv, [g[k] - g[last] for k in idx])
    for k, v in zip(idx, e):
        d[k] = v
    d[last] = e[-1]
    return d


class _Rows(list):
    """The weight problem's matrix on Python floats: its rows, as a list,
    and its columns, transposed once, in ``cols``."""

    def __init__(self, rows):
        super().__init__(rows)
        self.cols = list(zip(*self))


class _Floats:
    """The engine's arithmetic for an element-path market (``Evaluator.floats``).

    Utilities, slopes and curvatures are lists of Python floats, the weight
    problem's matrix is a ``_Rows`` of rows, and every product is
    ``math.fsum(map(operator.mul, a, b))``, exactly rounded, so no result
    depends on the host's BLAS, its SIMD dispatch or the Python version.
    ``slope`` is ``Evaluator.clamped_slope_list``: pi' at u0 + t du and its
    product with du in one pass. ``newton_steps`` counts the Newton
    directions that ``_correct_weights`` computes on this arithmetic.
    """

    def __init__(self, ev: Evaluator, w: list[list[float]]):
        self.slope = ev.clamped_slope_list
        self.derivs = ev.clamped_derivs_list
        self.w = w
        self.newton_steps = 0

    vector = staticmethod(list)
    matrix = _Rows

    @staticmethod
    def dot(a, b) -> float:
        return fsum(map(mul, a, b))

    @staticmethod
    def combine(lam, UV) -> list[float]:
        """lam @ UV, from the columns a ``_Rows`` keeps or, for a plain list
        of rows, from its transpose."""
        cols = UV.cols if isinstance(UV, _Rows) else zip(*UV)
        return [fsum(map(mul, lam, col)) for col in cols]

    @staticmethod
    def gains(UV, v) -> list[float]:
        """UV @ v, a list."""
        return [fsum(map(mul, row, v)) for row in UV]

    def scaled(self, grow):
        """The rows i whose clamped gradient grow_i is positive, and their
        per-edge gradient grow_i w_ij."""
        live = [i for i, a in enumerate(grow) if a > 0.0]
        return live, [[grow[i] * b for b in self.w[i]] for i in live]

    @staticmethod
    def solve(UV, idx, last, curv, rhs) -> list[float]:
        """e of ``_newton_direction`` for the face rows ``idx`` and ``last``,
        then -sum(e).

        Elimination without pivoting, in the LDL^T order that reads the
        symmetric system once: with Gamma = -diag(curv), row i of W = L D
        is W_ij = M_ij - sum_k L_ik W_jk, and each such entry, from the
        products in M_ij = (B Gamma B^T)_ij + r (1 + [i = j]) on, is one
        exactly rounded ``fsum``. A pivot D_i that is not positive (NaN
        included) raises ``LinAlgError``, as do infinite products
        (``fsum``'s inf - inf).
        """
        base = UV[last]
        B = [list(map(sub, UV[k], base)) for k in idx]
        gamma = list(map(neg, curv))
        GB = [list(map(mul, gamma, b)) for b in B]
        try:
            diag = [fsum(map(mul, gb, b)) for gb, b in zip(GB, B)]
            ridge = WEIGHT_RIDGE * (1.0 + max(diag))
            L, NW, D = [], [], []  # L's rows, -W's rows and the pivots
            for i, gb in enumerate(GB):
                Li, NWi = [], []
                for j, Dj in enumerate(D):
                    wij = fsum(chain(map(mul, gb, B[j]), (ridge,), map(mul, Li, NW[j])))
                    NWi.append(-wij)
                    Li.append(wij / Dj)
                pivot = fsum(chain((diag[i], 2.0 * ridge), map(mul, Li, NWi)))
                if not pivot > 0.0:
                    raise np.linalg.LinAlgError("Newton system is not positive definite")
                L.append(Li)
                NW.append(NWi)
                D.append(pivot)
            y = []
            for Li, b in zip(L, rhs):
                y.append(b - fsum(map(mul, Li, y)))
            e = list(map(truediv, y, D))
            for k in range(len(e) - 1, 0, -1):
                ek = e[k]
                e[:k] = [a - b * ek for a, b in zip(e, L[k])]
            e.append(-fsum(e))
        except (ValueError, OverflowError) as err:
            raise np.linalg.LinAlgError(f"Newton system is not finite: {err}") from None
        return e


class _Arrays:
    """The engine's arithmetic for every other market: utilities, slopes
    and curvatures are numpy arrays, with numpy's products and LAPACK's
    solve. The engine's weights, gains and directions stay lists;
    ``newton_steps`` counts as on ``_Floats``."""

    def __init__(self, ev: Evaluator, w: np.ndarray):
        self.prime = ev.clamped_prime
        self.derivs = ev.clamped_derivs
        self.w = w
        self.newton_steps = 0

    vector = matrix = staticmethod(np.array)

    @staticmethod
    def dot(a, b) -> float:
        return float(a @ b)

    @staticmethod
    def combine(lam, UV) -> np.ndarray:
        return np.array(lam) @ UV

    @staticmethod
    def gains(UV, v) -> list[float]:
        return (UV @ v).tolist()

    def slope(self, u0, t, du) -> float:
        """The clamped objective's slope along du at u0 + t du."""
        return float(self.prime(u0 + t * du) @ du)

    def scaled(self, grow) -> tuple[list[int], np.ndarray]:
        live = np.flatnonzero(grow > 0.0)
        return live.tolist(), grow[live, None] * self.w[live]

    @staticmethod
    def solve(UV, idx, last, curv, rhs) -> list[float]:
        B = UV[idx] - UV[last]
        M = (B * curv) @ B.T
        np.negative(M, out=M)
        diag = M.ravel()[::len(M) + 1]  # a view of M's diagonal
        ridge = WEIGHT_RIDGE * (1.0 + np.maximum.reduce(diag))
        M += ridge
        diag += ridge
        e = np.linalg.solve(M, rhs).tolist()
        e.append(-fsum(e))
        return e


def _ascent_step(ar, UV, lam, state, d):
    """Move the weights along d to near the maximum of the clamped objective.

    ``state`` is (u, grow, curv) at lam: u = lam @ UV and the clamped
    gradient and curvature there. A ratio test caps the step at tmax <= 1,
    where the first weight reaches zero; of equal smallest ratios the first
    index is that weight. Where the objective is concave along the line, a
    step at which its slope is still non-negative lies short of the line's
    maximizer and cannot lower the objective. The step is tmax if the slope
    there is non-negative; otherwise a safeguarded secant search on the
    slope brackets its root and stops at a step whose slope is non-negative
    and at most a tenth of the initial one. Each secant trial is kept a tenth
    of the bracket inside it, except the first below a rejected tmax, which
    may come within ``LINE_FIRST_MARGIN`` of it: near the optimum a Newton
    step lands on the line's maximizer, its slope at tmax is negative only
    by rounding, and a step cut to 0.9 tmax would shrink the weight gap
    only tenfold per Newton step. Trial steps evaluate pi' only.
    Returns (lam, state) at the new weights, the clamped gradient and
    curvature from one derivative pass, or None when d does not ascend.
    """
    # near the optimum g is nearly constant, so sum(d) must vanish to the
    # rounding of d, not of lam, for the slopes below to keep their sign
    moved = [b for b in d if b != 0.0]
    if not moved:
        return None
    mean = fsum(moved) / len(moved)
    d = [b - mean if b != 0.0 else 0.0 for b in d]
    u0, grow, _ = state
    du = ar.combine(d, UV)
    s0 = ar.dot(grow, du)
    tmax, first = 1.0, -1
    for k, (a, b) in enumerate(zip(lam, d)):
        if b < 0.0 and a / -b < tmax:
            tmax, first = a / -b, k
    if not (s0 > 0.0 and tmax > 0.0):
        return None
    lo, s_lo, hi, s_hi = 0.0, s0, tmax, 0.0
    t, found, margin = tmax, False, LINE_FIRST_MARGIN
    for _ in range(LINE_MAX_ITERS):
        s = ar.slope(u0, t, du)
        if s >= 0.0:
            lo, s_lo, found = t, s, True
            if t == tmax or s <= 0.1 * s0:
                break
        else:
            hi, s_hi = t, s
        width = hi - lo
        secant = lo + width * s_lo / (s_lo - s_hi)
        t = min(max(secant, lo + 0.1 * width), hi - margin * width)
        margin = 0.1
    if not found:
        return None
    new = [a + lo * b for a, b in zip(lam, d)]
    new = [v if v > 0.0 else 0.0 for v in new]
    if lo == tmax and tmax < 1.0:
        new[first] = 0.0
    u = ar.combine(new, UV)
    return new, (u, *ar.derivs(u))


def _correct_weights(ar, UV, lam: list[float], state, tol: float):
    """Maximize the clamped objective over convex weights of the active set.

    ``UV[k]`` is the per-user utility vector of active vertex k, so the
    weight problem is F(lam) = sum_i pi_i(min((lam @ UV)_i, peak_i)) over the
    simplex, which is concave when every pi_i is. Each iteration takes a
    Newton step on the face of positive weights, widened by the vertex of
    largest gradient; if the step would push that vertex's zero weight
    negative, the vertex leaves the face and the step is taken again. The
    Hessian uses min(pi'', 0) below each user's peak and 0 from the peak on,
    where the clamped objective is flat, so it stays negative semidefinite
    and the step ascends even where a non-concave pi_i is convex. ``state``
    is (u, grow, curv) at lam: the utilities u = lam @ UV and the clamped
    gradient and curvature there, from one ``Evaluator`` derivative pass at
    each accepted step. Each Newton direction computed is counted in
    ``ar.newton_steps``.

    Stops when the weight problem's own Frank-Wolfe gap max(g) - lam.g is at
    most ``tol``, which ``_afw`` sets from its own FW gap, and returns (lam,
    True, state); returns (lam, False, state) when the Newton direction does
    not ascend, or when ``WEIGHT_MAX_ITERS`` steps leave the gap above
    ``tol``. ``_afw`` counts such solves, and ``solve_selfish`` reports them
    as ``weight_solves_short``.
    """
    for _ in range(WEIGHT_MAX_ITERS):
        g = ar.gains(UV, state[1])
        j = g.index(max(g))  # the first largest
        if g[j] - fsum(map(mul, lam, g)) <= tol:
            return lam, True, state
        face = [a > 0.0 for a in lam]
        face[j] = True
        d = _newton_direction(ar, UV, g, state[2], face)
        ar.newton_steps += 1
        if lam[j] <= 0.0 and d[j] < 0.0:  # j is the face's one vertex at zero weight
            face[j] = False
            d = _newton_direction(ar, UV, g, state[2], face)
            ar.newton_steps += 1
        step = _ascent_step(ar, UV, lam, state, d)
        if step is None:
            return lam, False, state
        lam, state = step
    g = ar.gains(UV, state[1])
    return lam, max(g) - fsum(map(mul, lam, g)) <= tol, state


def _oracle(ar, grow) -> tuple[list[int], float]:
    """The Frank-Wolfe vertex: (column per row, -1 if unmatched, and value)
    of the matching that maximizes the per-edge gradient grow_i w_ij.

    Only the rows whose clamped gradient grow_i is positive go to
    ``best_matching``; the others, users at or past their peak, have all-zero
    rows, which it would leave unmatched, and stay unmatched. So the value
    is the optimum of a search of every row, and so is the matching wherever
    the live rows' optimum is unique. Of tied optima the two may return
    different ones: in ``_jv_assign`` a zero row can take a column and push
    a later row onto another column of equal value.
    """
    live, g = ar.scaled(grow)
    row_match = [-1] * len(grow)
    if not live:
        return row_match, 0.0
    live_match, value, _, _ = best_matching(g)
    for i, j in zip(live, live_match):
        row_match[i] = j
    return row_match, value


def _afw(inst: MarketInstance, ev: Evaluator, gap_tol: float, start):
    """Fully-corrective Frank-Wolfe on the clamped objective from ``start``.

    ``start`` is a matching given as the column per row, -1 if unmatched; the
    active set begins with it at weight 1. Each iteration adds the LP-oracle
    vertex to the active set and then reoptimizes the convex weights over the
    whole active set with ``_correct_weights``, which avoids the zig-zagging
    of plain Frank-Wolfe steps on the clamped (flat-beyond-peak) objective
    (the fully-corrective variant of Lacoste-Julien and Jaggi, NeurIPS 2015).
    As their section 4 allows, the correction is approximate while the
    active set grows: it stops at a weight gap of ``WEIGHT_GAP_SHARE`` times
    the FW gap. It is tight, stopping at the floor ``WEIGHT_GAP_FRACTION``
    gap_tol, when the FW gap is already at most ``gap_tol`` or the oracle's
    vertex already has positive weight, so that the active set does not
    grow. A loose tolerance is thus above ``WEIGHT_GAP_SHARE`` gap_tol, and
    so above the floor. Each active vertex, keyed by its column per row,
    keeps its weight and its per-user utility row, so the weight problem's
    matrix is stacked from stored rows. The utilities u = lam @ UV and the
    clamped gradient and curvature there come out of each weight solve and
    into the next iteration: the oracle's weights are the gradient's, and
    the FW gap is the oracle value less grow.u. The oracle (``_oracle``)
    searches only the rows of users below their peak, on both arithmetics;
    where several vertices tie for its optimum it may add another than a
    search of every row would, of the same value. On an element-path market
    every vector is a list of Python floats (``_Floats``), else a numpy
    array (``_Arrays``); the control flow is the same. The empty matching
    stays in the active set so total mass may stay below 1.

    Stops when the FW gap is at most ``gap_tol`` and the active set's own
    gap is known to be at most the floor: the last correction was tight, or
    the run is still at its start (one vertex of weight 1, so a gap of 0),
    or the FW gap, which bounds the active set's, is itself at most the
    floor. Otherwise stops after ``MAX_ITERS`` iterations. Returns (x, gap,
    iterations, number of weight solves that stopped short of their
    tolerance, number of Newton directions they computed), x adding each
    weight into its vertex's cells in key order.
    """
    w = inst.w
    m, n = w.shape
    w_rows = w.tolist()
    ar = _Floats(ev, w_rows) if ev.floats else _Arrays(ev, w)

    def utility_row(key):
        return [w_rows[i][j] if j >= 0 else 0.0 for i, j in enumerate(key)]

    empty = tuple([-1] * m)
    first = tuple(int(j) for j in start)
    active = {empty: 0.0} | {first: 1.0}
    util = {k: utility_row(k) for k in active}
    u = ar.vector(util[first])
    state = (u, *ar.derivs(u))
    floor = WEIGHT_GAP_FRACTION * gap_tol
    gap = np.inf
    short = 0
    it = 0
    tight = True  # at the start one vertex has all the weight: a weight gap of 0
    for it in range(1, MAX_ITERS + 1):
        u, grow, _ = state
        row_match, s_value = _oracle(ar, grow)
        gap = s_value - ar.dot(grow, u)
        if gap <= gap_tol and (tight or gap <= floor):
            break
        s_key = tuple(row_match)
        if s_key not in util:
            util[s_key] = utility_row(s_key)
        tight = gap <= gap_tol or active.get(s_key, 0.0) > 0.0
        active.setdefault(s_key, 0.0)
        keys = sorted(active)
        lam, converged, state = _correct_weights(
            ar, ar.matrix([util[k] for k in keys]), [active[k] for k in keys], state,
            floor if tight else WEIGHT_GAP_SHARE * gap)
        short += not converged
        active = {k: a for k, a in zip(keys, lam) if a > 0.0}
        active.setdefault(empty, 0.0)
        util = {k: util[k] for k in active}
    cells = [[0.0] * n for _ in range(m)]
    for k, a in active.items():
        for i, j in enumerate(k):
            if j >= 0:
                cells[i][j] += a
    return np.array(cells), gap, it, short, ar.newton_steps


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
    ev = returns.cached_evaluator(models, stationary)
    concave = stationary.kind == "monopoly" and all(
        returns.strictly_concave(mod) for mod in models)
    gap_tol = GAP_TOL_PER_USER * inst.m

    if concave:
        starts = [np.full(inst.m, -1)]
    else:
        rng = keyed_rng(seed, 1)
        starts = [_random_start(inst.m, inst.n, rng) for _ in range(MULTISTART_RESTARTS)]
        starts.append(solve_fair(inst).assignment.row_match)
    best = None
    weight_short = capped = newton_steps = 0
    for start in starts:
        x, gap, iters, short, steps = _afw(inst, ev, gap_tol, start)
        weight_short += short
        newton_steps += steps
        capped += gap > gap_tol
        x = _shrink_to_peaks(inst, x, ev.peaks)
        # a single start has nothing to be compared with
        val = ev.objective((inst.w * x).sum(axis=1)) if len(starts) > 1 else 0.0
        if best is None or val > best[0] + 1e-12 or (
            abs(val - best[0]) <= 1e-12 and tuple(x.ravel()) < tuple(best[1].ravel())
        ):
            best = (val, x, gap, iters)
    _, x, gap, iters = best

    matching = FractionalMatching.from_x(inst, x)
    value = ev.objective(matching.u)
    grow = ev.clamped_prime(matching.u)
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
        newton_steps=newton_steps,
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
    g = returns.cached_evaluator(models, stationary).pi_prime(u)[:, None] * inst.w
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

