"""Return-probability models q(u) and the stationary probabilities they induce.

Two model families are supported: the parametric family q(u) = u(1-u)^(1-alpha)
with alpha in [0, 1), and grid models (21 uniform nodes on [0, 1], linear
interpolation, endpoints pinned to 0) used for learned return behavior.

``Stationary`` names the Markov chain: the two-state (monopoly) chain with
pi = q / (1 + q), or the three-state competition chain. This module is the
only place a formula for q, q', q'', pi, pi' or pi'' is written. The kernels
take trusted utilities; ``eval_q``, ``eval_q_prime``, ``pi_monopoly``,
``pi_monopoly_second`` and ``pi_competition`` check the domain first, and
``Evaluator`` applies the kernels to a batch of users, grouped by model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

GRID_NODES = 21
GRID_DERIV_STEP = 1e-5  # central-difference step for grid-model derivatives
PEAK_SAMPLES = 2001  # uniform samples of pi that bracket its global maximizer


class ReturnModelError(ValueError):
    pass


@dataclass(frozen=True)
class ReturnModel:
    """A return-probability function q: [0,1] -> [0,1] with q(0) = q(1) = 0."""

    kind: str  # "parametric-alpha" | "grid"
    alpha: float = 0.0
    values: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind == "parametric-alpha":
            if not (0.0 <= self.alpha < 1.0):
                raise ReturnModelError("alpha must lie in [0, 1)")
        elif self.kind == "grid":
            v = np.asarray(self.values, dtype=float)
            if v.shape != (GRID_NODES,):
                raise ReturnModelError(f"grid models need {GRID_NODES} node values")
            if v.min() < 0.0 or v.max() > 1.0:
                raise ReturnModelError("grid values must lie in [0, 1]")
            v = v.copy()
            v[0] = 0.0
            v[-1] = 0.0
            v.flags.writeable = False
            object.__setattr__(self, "values", v)
        else:
            raise ReturnModelError(f"unknown model kind {self.kind!r}")

    def cache_key(self) -> tuple:
        """Hashable identity used to memoize peaks and assumption checks."""
        if self.kind == "parametric-alpha":
            return ("parametric-alpha", self.alpha)
        return ("grid", self.values.tobytes())

    def to_json(self) -> str:
        if self.kind == "parametric-alpha":
            return json.dumps({"alpha": self.alpha})
        return json.dumps(list(self.values))

    @classmethod
    def from_json(cls, text: str) -> "ReturnModel":
        data = json.loads(text)
        if isinstance(data, dict):
            return parametric(float(data["alpha"]))
        return grid(data)


def parametric(alpha: float) -> ReturnModel:
    return ReturnModel(kind="parametric-alpha", alpha=alpha)


def grid(values) -> ReturnModel:
    return ReturnModel(kind="grid", values=np.asarray(values, dtype=float))


@dataclass(frozen=True)
class Stationary:
    """Which Markov chain drives the return objective."""

    kind: str = "monopoly"  # "monopoly" | "competition"
    eps: float = 1.0

    def __post_init__(self):
        if self.kind not in ("monopoly", "competition"):
            raise ValueError(f"unknown stationary kind {self.kind!r}")
        if self.kind == "competition" and not (0.0 < self.eps <= 1.0):
            raise ValueError("eps must lie in (0, 1]")


MONOPOLY = Stationary("monopoly")


def competition(eps: float) -> Stationary:
    return Stationary("competition", eps)


# ---- kernels: each formula once, without the domain check -------------------

_NODES = np.linspace(0.0, 1.0, GRID_NODES)


def _central(f, u):
    """Central difference of f with step ``GRID_DERIV_STEP``, one-sided at 0 and 1."""
    h = GRID_DERIV_STEP
    lo = np.clip(u - h, 0.0, 1.0)
    hi = np.clip(u + h, 0.0, 1.0)
    return (f(hi) - f(lo)) / (hi - lo)


def _q(model: ReturnModel, u):
    if model.kind == "parametric-alpha":
        return u * (1.0 - u) ** (1.0 - model.alpha)
    return np.interp(u, _NODES, model.values)


def _q_prime(model: ReturnModel, u):
    if model.kind == "parametric-alpha":
        e = 1.0 - model.alpha
        return (1.0 - u) ** (e - 1.0) * (1.0 - u - u * e)
    return _central(lambda v: _q(model, v), u)


def _pi(q, u, eps):
    """pi from q = q(u): the two-state chain when eps is None, else the
    three-state competition chain with return probability eps."""
    if eps is None:
        return q / (1.0 + q)
    return q / (1.0 + q + (q / eps) * (1.0 - u))


def _pi_prime(q, qp, u, eps):
    """d/du of ``_pi`` given q = q(u) and qp = q'(u)."""
    if eps is None:
        return qp / (1.0 + q) ** 2
    return (qp + q * q / eps) / (1.0 + q + (q / eps) * (1.0 - u)) ** 2


def _pi_second(model: ReturnModel, u):
    """d^2/du^2 of the two-state pi.

    Analytic for the parametric family, q''/(1+q)^2 - 2 q'^2/(1+q)^3 with
    q''(u) = e (1-u)^(e-2) (u(1+e) - 2) and e = 1 - alpha; central
    differences of pi' for grid models, whose q is piecewise linear.
    """
    if model.kind == "parametric-alpha":
        e = 1.0 - model.alpha
        q = _q(model, u)
        qp = _q_prime(model, u)
        qpp = e * (1.0 - u) ** (e - 2.0) * (u * (1.0 + e) - 2.0)
        return qpp / (1.0 + q) ** 2 - 2.0 * qp * qp / (1.0 + q) ** 3
    return _central(lambda v: _pi_prime(_q(model, v), _q_prime(model, v), v, None), u)


# ---- checked entry points for utilities from outside the program -----------

def _check_domain(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise ReturnModelError("utility outside [0, 1]")
    return np.clip(u, 0.0, 1.0)


def eval_q(model: ReturnModel, u):
    """q(u); grid models interpolate linearly between nodes."""
    return _q(model, _check_domain(u))


def eval_q_prime(model: ReturnModel, u):
    """dq/du.

    Analytic for the parametric family; central differences with step
    ``GRID_DERIV_STEP`` for grid models. For alpha > 0 the derivative
    diverges at u = 1.
    """
    return _q_prime(model, _check_domain(u))


def pi_monopoly(model: ReturnModel, u):
    """Stationary in-system probability q(u) / (1 + q(u)) of the two-state chain."""
    u = _check_domain(u)
    return _pi(_q(model, u), u, None)


def pi_monopoly_second(model: ReturnModel, u):
    """d^2/du^2 of the two-state stationary probability; diverges at u = 1 for alpha > 0."""
    return _pi_second(model, _check_domain(u))


def pi_competition(model: ReturnModel, u, eps: float):
    """Stationary in-system probability of the three-state competition chain.

    pi(u) = q(u) / (1 + q(u) + (q(u)/eps)(1-u)); eps is the per-step
    probability of coming back from the competing site.
    """
    if eps <= 0.0:
        raise ReturnModelError("eps must be positive")
    u = _check_domain(u)
    return _pi(_q(model, u), u, eps)


class Evaluator:
    """Batch pi_i, pi_i' and pi_i'' for users on the last axis.

    Users with identical models are grouped, so a market whose users share one
    model costs one numpy expression per quantity regardless of m; that single
    group is indexed by ``slice(None)``, a view, not a gathered copy.
    Utilities are not checked: they come from matchings the program built.
    """

    def __init__(self, models, stat: Stationary = MONOPOLY):
        models = list(models)
        self.m = len(models)
        self.eps = stat.eps if stat.kind == "competition" else None
        grouped: dict[tuple, tuple[ReturnModel, list[int]]] = {}
        for i, mod in enumerate(models):
            grouped.setdefault(mod.cache_key(), (mod, []))[1].append(i)
        self.groups = [(mod, np.array(ix) if len(grouped) > 1 else slice(None))
                       for mod, ix in grouped.values()]

    def _by_group(self, kernel, U: np.ndarray) -> np.ndarray:
        out = np.empty(U.shape)
        for mod, ix in self.groups:
            out[..., ix] = kernel(mod, U[..., ix])
        return out

    def pi(self, U) -> np.ndarray:
        """pi_i(U[..., i])."""
        U = np.asarray(U, dtype=float)
        return _pi(self._by_group(_q, U), U, self.eps)

    def objective(self, U) -> np.ndarray:
        """Sum_i pi_i(U[..., i]) for a batch of utility vectors."""
        return self.pi(U).sum(axis=-1)

    def pi_prime(self, u) -> np.ndarray:
        """pi_i'(u_i), evaluated at min(u_i, 1 - 1e-9) since pi' diverges at 1 for alpha > 0."""
        u = np.minimum(u, 1.0 - 1e-9)
        return _pi_prime(self._by_group(_q, u), self._by_group(_q_prime, u), u, self.eps)

    def pi_second(self, u) -> np.ndarray:
        """pi_i''(u_i), evaluated at min(u_i, 1 - 1e-9); the competition chain
        takes central differences of ``pi_prime``."""
        u = np.minimum(u, 1.0 - 1e-9)
        if self.eps is None:
            return self._by_group(_pi_second, u)
        return _central(self.pi_prime, u)


@dataclass(frozen=True)
class AssumptionReport:
    a1_ok: bool
    a2_ok: bool
    a3_ok: bool
    max_second_diff: float

    @property
    def all_ok(self) -> bool:
        return self.a1_ok and self.a2_ok and self.a3_ok


def check_assumptions(model: ReturnModel, grid_size: int = 201) -> AssumptionReport:
    """Numerically check boundary, smoothness, and strict concavity of q.

    Also asserts the stationary probability of the two-state chain inherits
    strict concavity (its sampled second differences stay negative).
    """
    if grid_size < 11:
        raise ReturnModelError("grid_size must be at least 11")
    us = np.linspace(0.0, 1.0, grid_size)
    qs = eval_q(model, us)
    a1 = abs(qs[0]) < 1e-12 and abs(qs[-1]) < 1e-12
    d2 = qs[2:] - 2.0 * qs[1:-1] + qs[:-2]
    a2 = bool(np.all(np.isfinite(d2)))
    max_d2 = float(d2.max()) if a2 else float("nan")
    a3 = a2 and max_d2 < 0.0
    if a3:
        pis = pi_monopoly(model, us)
        pi_d2 = pis[2:] - 2.0 * pis[1:-1] + pis[:-2]
        a3 = bool(np.all(pi_d2 < 0.0))
    return AssumptionReport(a1_ok=a1, a2_ok=a2, a3_ok=a3, max_second_diff=max_d2)


def single_peaked(model: ReturnModel) -> bool:
    """Whether q never rises again once it has fallen; grid models are
    checked on their node values, between which q is linear."""
    if model.kind == "parametric-alpha":
        return True
    d = np.diff(model.values)
    falls = np.flatnonzero(d < 0.0)
    return not (falls.size and (d[falls[0]:] > 0.0).any())


def q_peak(model: ReturnModel) -> float:
    """The utility u' in (0, 1) where q'(u') = 0 (unique for concave models)."""
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eval_q_prime(model, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def argmax_pi_competition(model: ReturnModel, eps: float, tol: float = 1e-10) -> float:
    """Utility maximizing the competition stationary probability.

    Solves eps = -q(u)^2 / q'(u) on [u', 1] by bisection, where u' is the peak
    of q. The left side of that interval sends the ratio to +inf and the right
    side to q(1)^2-driven 0, so the root is unique; as eps shrinks the
    maximizer climbs toward 1.
    """
    if eps <= 0.0 or eps > 1.0:
        raise ReturnModelError("eps must lie in (0, 1]")
    if not check_assumptions(model).a3_ok:
        raise ReturnModelError("argmax_pi_competition needs a strictly concave model")

    def ratio(u: float) -> float:
        qp = eval_q_prime(model, u)
        if qp >= 0.0:
            return float("inf")
        return -eval_q(model, u) ** 2 / qp

    lo = q_peak(model)
    hi = 1.0 - 1e-12
    if ratio(hi) >= eps:
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ratio(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def argmax_pi(model: ReturnModel, stat: Stationary) -> float:
    """Global maximizer of pi for any model, concave or not.

    The best of ``PEAK_SAMPLES`` uniform samples of pi brackets the maximizer
    with its two neighbours; bisection on the sign of pi' then refines it,
    so pi' from ``Evaluator`` changes sign at the returned utility.
    """
    ev = Evaluator([model], stat)
    us = np.linspace(0.0, 1.0, PEAK_SAMPLES)
    k = int(np.argmax(ev.pi(us[:, None])[:, 0]))
    lo, hi = us[max(k - 1, 0)], us[min(k + 1, PEAK_SAMPLES - 1)]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if ev.pi_prime(np.array([mid]))[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))
