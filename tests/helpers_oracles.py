"""Brute-force and reference oracles shared by the unit and acceptance tests."""

import sys
from itertools import permutations
from math import perm as n_perm
from unittest import mock

import numpy as np

from matchmarket import returns
from matchmarket.experiment import (
    PAYOFF_BINS,
    ArmLog,
    BehaviorModel,
    RoundRecord,
    StudyConfig,
    assign_round,
    generate_market,
)
from matchmarket.fair import max_weight_assignment
from matchmarket.market import FractionalMatching, MarketInstance
from matchmarket.online import _CAP_TOL, ArrivalSequence, OnlineSolution
from matchmarket.poa import _ubars
from matchmarket.returns import (
    GRID_NODES,
    MONOPOLY,
    Evaluator,
    ReturnModel,
    _central,
    _pi_prime,
    _q_terms,
    peak_utility,
)
from matchmarket.selfish import (
    LINE_MAX_ITERS,
    WEIGHT_MAX_ITERS,
    WEIGHT_RIDGE,
    SelfishSolution,
    Stationary,
    _check_models,
)


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


# ---- reference pi'' --------------------------------------------------------
# ``Evaluator.pi_second`` as it was before pi' and pi'' came from one pass:
# per group of users with one model, central differences of the model's own
# pi' for grid models on either chain, and for the parametric family the
# analytic two-state pi'' or, on the competition chain, central differences
# of pi' at min(u, ``U_CLAMP``). On the array path, ``Evaluator._derivs`` must
# give the same bits, save the competition chain's parametric users: their
# closed-form pi'' differs from the central difference by its truncation
# error, and is checked against scipy's derivative instead; the reference
# weight solve below still takes the central difference. On the element path
# the two-state pi'' is taken from ``element_derivs``, whose one-pass bits
# ``test_shared_terms_round_as_separate_formulas`` checks against the separate
# formulas on floats.

def _pi_second_two_state(model: ReturnModel, u):
    if model.kind == "parametric-alpha":
        q, qp = _q_terms(model, u, 1)
        e = 1.0 - model.alpha
        qpp = e * (1.0 - u) ** (e - 2.0) * (u * (1.0 + e) - 2.0)
        t = 1.0 + q
        return qpp / t ** 2.0 - 2.0 * qp * qp / t ** 3.0
    return _central(lambda v: _pi_prime(*_q_terms(model, v, 1), v, None), u)


def _pi_second_competition(model: ReturnModel, u, eps):
    cap = returns.U_CLAMP if model.kind == "parametric-alpha" else 1.0

    def prime(v):
        v = np.minimum(v, cap)
        return _pi_prime(*_q_terms(model, v, 1), v, eps)

    return _central(prime, u)


def element_derivs(ev: Evaluator, u: list[float]) -> list[tuple[float, float]]:
    """(pi_i'(u_i), pi_i''(u_i)) on the element path, user by user: the
    vector kernel of the chain, ``returns._parametric_derivs`` or
    ``returns._competition_derivs``, called on a float with the powers that
    ``Evaluator.element_params`` binds. The element loops write the same
    arithmetic out, and they show pi'' only as min(pi'', 0) below the peak;
    this gives it whole."""
    out = []
    for v, (e, p0, p1, p2, p3, _, _) in zip(u, ev.element_params):
        if ev.eps is None:
            out.append(returns._parametric_derivs(e, p0, p1, p2, p3, v))
        else:
            out.append(returns._competition_derivs(e, p0, p1, p2, ev.eps, v))
    return out


def pi_derivs(ev: Evaluator, u) -> tuple[np.ndarray, np.ndarray]:
    """(pi_i'(u_i), pi_i''(u_i)) at min(u_i, ``U_CLAMP``) for one utility
    vector: ``Evaluator._derivs`` on the array path, ``element_derivs`` on
    the element path."""
    u = np.minimum(u, returns.U_CLAMP)
    if not ev.floats:
        return ev._derivs(u)
    pairs = np.array(element_derivs(ev, u.tolist()))
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def pi_second_reference(ev: Evaluator, u) -> np.ndarray:
    """pi_i''(u_i) at min(u_i, 1 - 1e-9), on the separate pi'' path described above."""
    u = np.minimum(u, 1.0 - 1e-9)
    if ev.eps is not None:
        return ev._by_group(lambda mod, v: [_pi_second_competition(mod, v, ev.eps)], u)[0]
    if ev.floats:
        return pi_derivs(ev, u)[1]
    return ev._by_group(lambda mod, v: [_pi_second_two_state(mod, v)], u)[0]


# ---- element path against array path ---------------------------------------
# Markets small enough for ``Evaluator``'s element path, with utilities
# below, at and past each user's peak, at U_CLAMP and at 1. The element path
# must give the array path's bits wherever numpy's power calls the C
# library's pow (``NPY_AVX512_OFF`` turns numpy's AVX-512 loops off).

NPY_AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "AVX512F AVX512CD AVX512_SKX AVX512_CLX "
                                              "AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"}
# every fast-path exponent of returns._pow: e, e - 1 and e - 2 with
# e = 1 - alpha are 1, 0 and -1 at alpha 0 and 0.5 at alpha 0.5
ELEMENT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 0.9)


def numpy_power_is_libm() -> bool:
    """Whether numpy's power loop gives the C library's pow bits (Python's
    ``**``) on a sample of bases and exponents."""
    x = np.random.default_rng(0).uniform(1e-9, 2.5, 20_000)
    return all((x ** y).tolist() == [v ** y for v in x.tolist()] for y in (0.75, -1.25, 3.0))


def element_path_cases():
    """(label, models, stationary, U, peaks) for every size 1..ELEMENT_MAX_USERS:
    a market cycling through ``ELEMENT_ALPHAS`` and one market per alpha, under
    the monopoly chain and the eps-0.1 competition chain."""
    rng = np.random.default_rng(13)
    for m in range(1, returns.ELEMENT_MAX_USERS + 1):
        markets = [[returns.parametric(ELEMENT_ALPHAS[i % len(ELEMENT_ALPHAS)])
                    for i in range(m)]]
        markets += [[returns.parametric(a)] * m for a in ELEMENT_ALPHAS]
        for models in markets:
            for stat in (MONOPOLY, returns.competition(0.1)):
                peaks = np.array([peak_utility(mod, stat) for mod in models])
                U = np.vstack([rng.uniform(0.0, 1.0, (2, m)) * peaks, peaks,
                               np.minimum(peaks + 1e-3, 1.0), np.full(m, returns.U_CLAMP),
                               np.ones(m), np.zeros(m)])
                label = f"m={m} alphas={[mod.alpha for mod in models]} {stat.kind}"
                yield label, models, stat, U, peaks


def _outputs(ev: Evaluator, U: np.ndarray) -> dict:
    """Every public evaluator quantity on each row of U."""
    return {f"{name} row {k}": np.asarray(getattr(ev, name)(u)).tobytes()
            for name in ("objective", "pi_prime", "clamped_prime", "clamped_derivs")
            for k, u in enumerate(U)}


def element_path_mismatches() -> list[str]:
    """The quantities on which an element-path evaluator and an array-path
    evaluator of the same market differ in any bit, over ``element_path_cases``."""
    bad = []
    for label, models, stat, U, _ in element_path_cases():
        element = Evaluator(models, stat)
        with mock.patch.object(returns, "ELEMENT_MAX_USERS", 0):
            array = Evaluator(models, stat)
        assert element.floats and not array.floats
        got, want = _outputs(element, U), _outputs(array, U)
        bad += [f"{label}: {name}" for name in want if got[name] != want[name]]
    return bad


def tiny_eps_derivs():
    """(label, element-path (pi', pi''), array-path (pi', pi'')) of the
    competition chain at eps 1e-300 and at the smallest normal float, for
    every ``ELEMENT_ALPHAS`` model at 200 utilities in [0, U_CLAMP]. There
    t = 1 + q + (q/eps)(1 - u) reaches 1e307, so t^2 overflows and pi' is 0."""
    u = np.linspace(0.0, returns.U_CLAMP, 200)
    for eps in (1e-300, sys.float_info.min):
        stat = returns.competition(eps)
        for alpha in ELEMENT_ALPHAS:
            model = returns.parametric(alpha)
            one, wide = Evaluator([model], stat), Evaluator([model] * u.size, stat)
            assert one.floats and not wide.floats
            element = np.array([pi_derivs(one, [v]) for v in u.tolist()])[:, :, 0].T
            with np.errstate(over="ignore"):
                array = np.array(pi_derivs(wide, u))
            yield f"alpha={alpha} eps={eps!r}", element, array


# ---- reference weight solve ------------------------------------------------
# The selfish weight solve on numpy arrays, as it was before its numpy calls
# were trimmed: it rebuilds u = lam @ UV in every step, solves the full KKT
# system (built with np.eye, np.diag and np.append) with LAPACK, clamps with
# np.where, takes pi'' in a pass of its own, and keeps the projected-gradient
# fallback that the library dropped. ``selfish._correct_weights``, which
# solves small markets on Python floats, must reach the same converged flag
# and a weight-problem objective within the solve's tolerance of this one's.
# Its line search keeps the 0.1 margin on every secant trial, where the
# library's first one may come within ``LINE_FIRST_MARGIN`` of a full step,
# so the two take different steps to the same optimum.

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
    zero. Where the objective is concave along the line, a step at which its
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


def correct_weights_reference(ev: Evaluator, peaks, UV: np.ndarray, lam: np.ndarray,
                              tol: float) -> tuple[np.ndarray, bool]:
    """Maximize the clamped objective over convex weights of the active set.

    ``UV[k]`` is the per-user utility vector of active vertex k, so the
    weight problem is F(lam) = sum_i pi_i(min((lam @ UV)_i, peak_i)) over the
    simplex, which is concave when every pi_i is. Each iteration takes a
    Newton step on the face of positive weights, widened by the vertex of
    largest gradient; a vertex at zero weight that the step would push
    negative leaves the face. The Hessian uses min(pi'', 0) below each
    user's peak and 0 from the peak on, where the clamped objective is flat,
    so it stays negative semidefinite and the step ascends even where a
    non-concave pi_i is convex. A projected-gradient step stands in when the
    Newton direction does not ascend.

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
        curv = np.where(u >= peaks, 0.0,
                        np.minimum(pi_second_reference(ev, np.minimum(u, peaks)), 0.0))
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


# ---- reference behavioral-study arm ----------------------------------------
# One arm of a sim game as it was before its set-up moved to once per game:
# every arm seeds its own generators with default_rng, builds the prior and
# the assignment sub-matrix with numpy, calls ``BehaviorModel``'s methods for
# every decision, learns on numpy arrays and copies each snapshot.
# ``experiment.run_study`` must return the same ArmLogs, bit for bit.


def _prior_q_reference() -> ReturnModel:
    nodes = np.linspace(0.0, 1.0, GRID_NODES)
    return returns.grid(nodes * (1.0 - nodes))


def _bins_to_grid_reference(bin_fractions: np.ndarray) -> np.ndarray:
    nodes = np.arange(GRID_NODES)
    return bin_fractions[np.minimum(nodes // 2, PAYOFF_BINS - 1)]


def _q_update_reference(q_round: ReturnModel, f_round: np.ndarray,
                        alpha_learn: float) -> ReturnModel:
    old = np.asarray(q_round.values)
    observed = np.isfinite(f_round)
    new = old.copy()
    new[observed] = alpha_learn * old[observed] \
        + (1.0 - alpha_learn) * np.clip(f_round[observed], 0.0, 1.0)
    return returns.grid(new)


def _action_reference(payoff_cents: float, round_index: int,
                      behavior: BehaviorModel, u: float) -> str:
    """Action of a matched player who stayed past this round's drop decision,
    from the round's switch uniform ``u``."""
    if u < behavior.switch_prob(payoff_cents, round_index):
        return "Rematch"
    return "Continue"


def _random_assign_reference(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    k, l = weights.shape
    match = np.full(k, -1, dtype=int)
    free = list(range(l))
    for a in rng.permutation(k):
        allowed = [b for b in free if weights[a, b] > 0.0]
        if allowed:
            b = allowed[int(rng.integers(len(allowed)))]
            match[a] = b
            free.remove(b)
    return match


def run_arm_reference(condition: str, config: StudyConfig, behavior: BehaviorModel,
                      mean_payoffs: np.ndarray, player_seeds, arm_seed,
                      q0: ReturnModel | None = None) -> ArmLog:
    n, m, R = config.players_per_condition, config.slots, config.rounds
    outside = config.outside_per_round
    # per player, one array per random decision, indexed by round - 1
    drop_u, normal_z, switch_u = [], [], []
    for seed in player_seeds:
        rng = np.random.default_rng(seed)
        drop_u.append(rng.random(R))
        normal_z.append(rng.standard_normal(R))
        switch_u.append(rng.random(R))
    arm_rng = np.random.default_rng(arm_seed)
    norm = np.clip(mean_payoffs / config.payoff_scale, 0.0, 1.0)
    means = mean_payoffs.tolist()
    q = q0 if q0 is not None else _prior_q_reference()
    log = ArmLog(condition=condition)
    active = [True] * n
    slot_of = [-1] * n
    forbidden = [set() for _ in range(n)]
    totals = [0.0] * n
    plays = [0] * n

    for r in range(1, R + 1):
        drops = 0
        for i in range(n):
            if not active[i]:
                continue
            mean = totals[i] / plays[i] if plays[i] else None
            if drop_u[i][r - 1] < behavior.drop_prob(mean, outside):
                active[i] = False
                slot_of[i] = -1
                totals[i] += outside * (R - r + 1)
                drops += 1
                log.records.append(RoundRecord(condition, r, i, -1, 0.0, "Exit"))
        log.drop_count_per_round.append(drops)

        held = set(slot_of)
        open_slots = [j for j in range(m) if j not in held]
        requesters = [i for i in range(n) if active[i] and slot_of[i] < 0]
        if requesters and open_slots:
            sub = norm.take(requesters, axis=0).take(open_slots, axis=1)
            for a, i in enumerate(requesters):
                for b, j in enumerate(open_slots):
                    if j in forbidden[i]:
                        sub[a, b] = 0.0
            if condition == "Random":
                match = _random_assign_reference(sub, arm_rng)
            else:
                match = assign_round(condition, sub, q, config.selfish_objective)
            for i, b in zip(requesters, match.tolist()):
                if b >= 0:
                    slot_of[i] = open_slots[b]

        switch_obs = []
        round_total = 0.0
        rematches = matched = 0
        for i in range(n):
            if not active[i]:
                continue
            j = slot_of[i]
            if j < 0:
                log.records.append(RoundRecord(condition, r, i, -1, 0.0, "Wait"))
                continue
            p = float(max(0.0, means[i][j] + config.noise_sd * normal_z[i][r - 1]))
            totals[i] += p
            plays[i] += 1
            log.matched_payoffs.append(p)
            round_total += p
            matched += 1
            action = _action_reference(p, r, behavior, switch_u[i][r - 1])
            if action == "Rematch":
                rematches += 1
                forbidden[i].add(j)
                slot_of[i] = -1
            switch_obs.append((p, action == "Rematch"))
            log.records.append(RoundRecord(condition, r, i, j, p, action))
        log.engagement_per_round.append(rematches / matched if matched else 0.0)
        log.mean_payoff_per_round.append(round_total / matched if matched else 0.0)

        if condition == "Selfish" and switch_obs:
            counts = [0] * PAYOFF_BINS
            hits = [0] * PAYOFF_BINS
            width = config.payoff_scale / PAYOFF_BINS
            for p, switched in switch_obs:
                b = min(int(min(p, config.payoff_scale) / width), PAYOFF_BINS - 1)
                counts[b] += 1
                hits[b] += switched
            bins = np.array([h / c if c else np.nan for h, c in zip(hits, counts)])
            q = _q_update_reference(q, _bins_to_grid_reference(bins), config.alpha_learn)
        log.q_snapshots.append(np.asarray(q.values).copy())

    log.totals = np.array(totals)
    return log


def run_study_arms_reference(config: StudyConfig, behavior: BehaviorModel,
                             game_index: int,
                             selfish_q0: ReturnModel | None) -> dict[str, ArmLog]:
    """The Fair, Selfish and Random arms of one game, each set up on its own."""
    _, _, mean_payoffs = generate_market(config, game_index)
    player_seeds = [np.random.SeedSequence((config.seed, game_index, 2, i))
                    for i in range(config.players_per_condition)]
    arm_seed = np.random.SeedSequence((config.seed, game_index, 3))
    return {
        name: run_arm_reference(name, config, behavior, mean_payoffs, player_seeds,
                                arm_seed, q0=selfish_q0 if name == "Selfish" else None)
        for name in ("Fair", "Selfish", "Random")
    }


# ---- reference integral selfish solve and single-user ubar -----------------
# No library code needs these two: the ``sim`` arms take their integral
# matchings from ``experiment.assign_round``, and ``poa.theorem1_bound``
# bisects every user at once in ``poa._ubars``.

def solve_selfish_integral(
    inst: MarketInstance,
    models,
    stationary: Stationary = MONOPOLY,
) -> SelfishSolution:
    """Best integral matching: per-edge objective pi_i(w_ij) reduces to assignment."""
    models = _check_models(inst, models)
    ev = Evaluator(models, stationary)
    # pi_i(w_ij) from a one-user evaluator per row
    res = max_weight_assignment(np.array([
        [one.objective([wij]) for wij in row.tolist()]
        for one, row in zip((Evaluator([mod], stationary) for mod in models), inst.w)]))
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


def ubar(model: ReturnModel, c: float) -> float:
    """``poa._ubars`` for a single user: the root of pi'(u) = c."""
    return float(_ubars(Evaluator([model]), c)[0])


# ---- reference greedy online policy ----------------------------------------
# ``online.greedy_online`` as it was before its arrivals moved to Python
# lists: numpy rows, np.nonzero for the open columns, a stable argsort on -w
# and numpy scalar reads. ``greedy_online`` must return the same x and value,
# bit for bit.

def greedy_online_reference(seq: ArrivalSequence, models,
                            stationary: Stationary = MONOPOLY) -> OnlineSolution:
    inst = seq.instance
    models = _check_models(inst, models)
    w = inst.w
    cap = np.ones(inst.n)
    x = np.zeros_like(w)
    for i in seq.order:
        open_cols = np.nonzero((cap > _CAP_TOL) & (w[i] > 0.0))[0]
        if len(open_cols) == 0:
            continue
        # stable sort on -w keeps lowest column index first among ties
        open_cols = open_cols[np.argsort(-w[i, open_cols], kind="stable")]
        budget = 1.0  # row mass
        target = peak_utility(models[i], stationary)
        achieved = 0.0
        for j in open_cols:
            if budget <= 0.0 or achieved >= target - 1e-15:
                break
            take = min(cap[j], budget, (target - achieved) / w[i, j])
            x[i, j] = take
            cap[j] -= take
            budget -= take
            achieved += take * w[i, j]
    matching = FractionalMatching.from_x(inst, x)
    value = Evaluator(models, stationary).objective(matching.u)
    return OnlineSolution(matching=matching, value=value)


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


def _pi_on_array(model, u, stationary):
    """pi through the checked entry points, whose kernels run on the whole
    array: a grid search over a million utilities would take seconds on the
    evaluator's element path, which small markets take."""
    if stationary.kind == "monopoly":
        return returns.pi_monopoly(model, u)
    return returns.pi_competition(model, u, stationary.eps)


def oracle_single_row(w, model, stationary=MONOPOLY, step=1e-3) -> float:
    """Grid-search optimum of pi over the achievable utility interval."""
    u_max = max_single_row_utility(w)
    us = np.arange(0.0, u_max + step, step)
    us = np.clip(us, 0.0, u_max)
    return float(np.max(_pi_on_array(model, us, stationary)))


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
    vals = (_pi_on_array(models[0], np.clip(g1, 0, 1), stationary)
            + _pi_on_array(models[1], np.clip(g2, 0, 1), stationary))
    vals = np.where(mask, vals, -np.inf)
    return float(vals.max())
