"""Return-probability models q(u) and the stationary probabilities they induce.

Two model families are supported: the parametric family q(u) = u(1-u)^(1-alpha)
with alpha in [0, 1), and grid models (21 uniform nodes on [0, 1], linear
interpolation, endpoints pinned to 0) used for learned return behavior.

``Stationary`` names the Markov chain: the two-state (monopoly) chain with
pi = q / (1 + q), or the three-state competition chain. This module is the
only place a formula for q, q', q'', pi, pi' or pi'' is written, as
arithmetic that works on numpy arrays and on Python floats alike, with the
powers supplied by the caller. A parametric model's pi' and its (pi', pi'')
are each one closed-form kernel call; ``_parametric_kernels`` binds the
powers and picks the chain's kernel, ``_parametric_derivs`` (two-state) or
``_competition_derivs`` (three-state). Grid models, whose q is piecewise
linear, take central differences for q' and pi''. The kernels take trusted
utilities; ``eval_q``, ``eval_q_prime``, ``pi_monopoly``,
``pi_monopoly_second`` and ``pi_competition`` check the domain first.

``Evaluator`` applies the kernels to one utility vector, one entry per user.
A market of at most ``ELEMENT_MAX_USERS`` users, all parametric, is
evaluated user by user on Python floats (the element path), which spares
numpy's per-call cost on the paper's 5-user markets; there each model's
powers x ** y for y = e, e - 1 and e - 2 (e = 1 - alpha) and y = 3 are bound
once: numpy's fast path for y where there is one, else y's own
``__rpow__``, ``_pow``'s bits for every positive base. pi' and pi'' see only
positive bases, as they are taken at utilities clamped to ``U_CLAMP``; the
objective sees 1 - u = 0 at u = 1, and below 0 after rounding, so it keeps
``_pow``, which gives numpy's values there. Every other market is evaluated
on arrays with numpy's ``**``, in one call when its users share a model,
else once per group of users with the same model. The two paths agree bit
for bit wherever numpy's ``**`` calls the C library's ``pow``; numpy's
AVX-512 (SVML) power loop rounds differently in the last bit for about 5% of
its inputs, and ``NPY_DISABLE_CPU_FEATURES`` with the AVX-512 features turns
it off.

``cached_evaluator`` keeps one ``Evaluator`` per market for the life of the
process, keyed by the users' models, the chain and the element-path choice;
the selfish solver and the greedy online policy take theirs from it, so the
paper's Monte-Carlo loops build one per market rather than one per solve.

``strictly_concave`` decides assumption A3 of Theorem 1 from the model
family alone, with a proof instead of samples: it holds for every
parametric model and for no grid model. The peak u' of a parametric q has
the closed form 1 / (2 - alpha). ``peak_utility``, the utility maximizing
pi, depends only on the model and the chain; ``Evaluator`` holds one per
user and the slopes of the objective clamped there, sum_i pi_i(min(u_i, peak_i)).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import partial
from math import fsum

import numpy as np

GRID_NODES = 21
GRID_DERIV_STEP = 1e-5  # central-difference step for grid-model derivatives
PEAK_SAMPLES = 2001  # uniform samples of pi that bracket its global maximizer
U_CLAMP = 1.0 - 1e-9  # pi' diverges at u = 1 for alpha > 0, so it is taken at min(u, U_CLAMP)
# markets of at most this many users, all parametric, take the element path,
# and the selfish engine solves them on Python floats too; there whole selfish
# solves are faster than on arrays up to 8 users and slower from 9, where the
# Python Newton solve falls behind LAPACK (the table is in CHANGES.md)
ELEMENT_MAX_USERS = 8


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
            # a Python float, so that a numpy scalar alpha gives float
            # kernels and the cache key of the same float alpha
            object.__setattr__(self, "alpha", float(self.alpha))
        elif self.kind == "grid":
            v = np.array(self.values, dtype=float)  # the model's own copy
            if v.shape != (GRID_NODES,):
                raise ReturnModelError(f"grid models need {GRID_NODES} node values")
            # the ufunc reductions, not the ndarray.min/max wrappers; both
            # propagate NaN, so the test also rejects it
            if not (np.minimum.reduce(v) >= 0.0 and np.maximum.reduce(v) <= 1.0):
                raise ReturnModelError("grid values must be finite and lie in [0, 1]")
            v[0] = 0.0
            v[-1] = 0.0
            v.flags.writeable = False
            object.__setattr__(self, "values", v)
        else:
            raise ReturnModelError(f"unknown model kind {self.kind!r}")

    def cache_key(self) -> tuple:
        """Hashable identity used to memoize peaks and to group users by model."""
        if self.kind == "parametric-alpha":
            return ("parametric-alpha", self.alpha)
        return ("grid", self.values.tobytes())


def parametric(alpha: float) -> ReturnModel:
    return ReturnModel(kind="parametric-alpha", alpha=alpha)


def grid(values) -> ReturnModel:
    """A grid model from ``GRID_NODES`` node values (an array or a list)."""
    return ReturnModel(kind="grid", values=values)


def _check_eps(eps: float) -> None:
    """The competition chain's eps lies in [sys.float_info.min, 1]: below the
    smallest normal float, q / eps overflows."""
    if not sys.float_info.min <= eps <= 1.0:
        raise ReturnModelError(f"eps must lie in [{sys.float_info.min!r}, 1]")


@dataclass(frozen=True)
class Stationary:
    """Which Markov chain drives the return objective; ``_check_eps`` gives
    the competition chain's eps rule."""

    kind: str = "monopoly"  # "monopoly" | "competition"
    eps: float = 1.0

    def __post_init__(self):
        if self.kind not in ("monopoly", "competition"):
            raise ValueError(f"unknown stationary kind {self.kind!r}")
        if self.kind == "competition":
            _check_eps(self.eps)


MONOPOLY = Stationary("monopoly")


def competition(eps: float) -> Stationary:
    return Stationary("competition", eps)


# ---- kernels: each formula once, without the domain check -------------------

_NODES = np.linspace(0.0, 1.0, GRID_NODES)

# numpy's ``**`` on a float array with one of these exponents calls another
# ufunc instead of ``power``: square, positive, ones_like, reciprocal, sqrt
_FAST_POWERS = {
    2.0: lambda x: x * x,
    1.0: lambda x: x,
    0.0: lambda x: 1.0,
    -1.0: lambda x: 1.0 / x,
    0.5: math.sqrt,
}


def _pow(x: float, y: float) -> float:
    """x ** y on a float, as numpy's ``**`` computes it on an array of x.

    For x > 0 it takes numpy's fast paths for the exponents above, and any
    other exponent goes to Python's ``**``, which is the C library's
    ``pow``. Zero, negative and NaN bases go to numpy itself, so they give
    numpy's inf or NaN and its warning, never a Python error or a complex.
    """
    if x > 0.0:
        fast = _FAST_POWERS.get(y)
        return x ** y if fast is None else fast(x)
    return float(np.array(x) ** y)


def _central(f, u):
    """Central difference of f with step ``GRID_DERIV_STEP``, one-sided at 0
    and 1: the derivatives of grid models, whose q is piecewise linear."""
    h = GRID_DERIV_STEP
    lo = np.clip(u - h, 0.0, 1.0)
    hi = np.clip(u + h, 0.0, 1.0)
    return (f(hi) - f(lo)) / (hi - lo)


def _grid_q(values, u):
    """q(u) of the grid model with node values ``values`` (an array): linear
    interpolation between the nodes. The experiment's Selfish arm calls it
    on the node values it learns, without a model around them."""
    return np.interp(u, _NODES, values)


def _q_terms(model: ReturnModel, u, order: int, pw=operator.pow) -> list:
    """[q(u), q'(u)][:order + 1], order 0 or 1, with pw(x, y) for x ** y.

    The parametric family shares r = 1 - u: q = u r^e and
    q' = r^(e-1) (r - u e), with e = 1 - alpha. Grid models interpolate q
    linearly and take central differences for q'; they are evaluated on
    arrays only.
    """
    if model.kind == "parametric-alpha":
        e = 1.0 - model.alpha
        r = 1.0 - u
        terms = [u * pw(r, e)]
        if order >= 1:
            terms.append(pw(r, e - 1.0) * (r - u * e))
        return terms

    q = partial(_grid_q, model.values)
    terms = [q(u)]
    if order >= 1:
        terms.append(_central(q, u))
    return terms


def _pi(q, u, eps):
    """pi from q = q(u): the two-state chain when eps is None, else the
    three-state competition chain with return probability eps."""
    if eps is None:
        return q / (1.0 + q)
    return q / (1.0 + q + (q / eps) * (1.0 - u))


def _pi_prime(q, qp, u, eps):
    """d/du of ``_pi`` given q = q(u) and qp = q'(u). Squares are written
    t * t, the bits of numpy's ``t ** 2`` on arrays; the C library's
    pow(t, 2) rounds differently for about one input in a thousand."""
    if eps is None:
        t = 1.0 + q
        return qp / (t * t)
    t = 1.0 + q + (q / eps) * (1.0 - u)
    return (qp + q * q / eps) / (t * t)


def _parametric_prime(e, p0, p1, eps, u):
    """pi'(u) of the parametric model with e = 1 - alpha, in one call:
    ``_pi_prime(*_q_terms(model, u, 1), u, eps)`` in its operation order,
    with p0(x) = x ** e and p1(x) = x ** (e - 1) bound once per model."""
    r = 1.0 - u
    return _pi_prime(u * p0(r), p1(r) * (r - u * e), u, eps)


def _parametric_derivs(e, p0, p1, p2, p3, u):
    """(pi'(u), pi''(u)) of the two-state chain for the parametric model
    with e = 1 - alpha, from one pass of q, q' = r^(e-1) (r - u e) and
    q'' = e r^(e-2) (u(1+e) - 2) with r = 1 - u; pk(x) = x ** (e - k) for
    k = 0, 1, 2 and p3(x) = x ** 3, bound once per model.

    With t = 1 + q, pi' = q'/t^2 comes from ``_pi_prime`` and
    pi'' = q''/t^2 - 2 q'^2/t^3.
    """
    r = 1.0 - u
    q = u * p0(r)
    qp = p1(r) * (r - u * e)
    t = 1.0 + q
    return (_pi_prime(q, qp, u, None),
            e * p2(r) * (u * (1.0 + e) - 2.0) / (t * t) - 2.0 * qp * qp / p3(t))


def _competition_derivs(e, p0, p1, p2, eps, u):
    """(pi'(u), pi''(u)) of the three-state chain from the r = 1 - u, q, q'
    and q'' of ``_parametric_derivs``. With t = 1 + q + (q/eps) r and
    n = q' + q^2/eps, pi' = n/t^2 comes from ``_pi_prime``, and
    pi'' = (q'' + 2 q q'/eps - 2 n t'/t)/t^2 with t' = q'(1 + r/eps) - q/eps,
    taken as (q''/t + 2 q' (q/eps)/t)/t - 2 pi' t'/t: down to the smallest
    normal eps only t * t can overflow (pi' = 0 there), never q q'/eps or
    n t', and no power of t is taken, which would raise on floats."""
    r = 1.0 - u
    q = u * p0(r)
    qp = p1(r) * (r - u * e)
    qpp = e * p2(r) * (u * (1.0 + e) - 2.0)
    prime = _pi_prime(q, qp, u, eps)
    qe = q / eps
    t = 1.0 + q + qe * r  # _pi_prime's t, in its operation order
    tp = qp * (1.0 + r / eps) - qe
    return prime, (qpp / t + 2.0 * qp * (qe / t)) / t - 2.0 * prime * (tp / t)


def _float_power(y: float):
    """x ** y as a function of a float x > 0, with the bits of ``_pow(x, y)``:
    numpy's fast path for y where ``_FAST_POWERS`` has one, else y's own
    ``__rpow__``, Python's ``**``. Zero and negative bases are not served:
    there ``__rpow__`` raises or returns a complex."""
    fast = _FAST_POWERS.get(y)
    return y.__rpow__ if fast is None else fast


def _array_power(y: float):
    """x ** y as a function of an array x: numpy's ``**``, fast paths included."""
    return lambda x: x ** y


def _parametric_powers(model: ReturnModel, power) -> tuple:
    """(e, x ** e, x ** (e - 1), x ** (e - 2), x ** 3) for the parametric
    model with e = 1 - alpha, each power bound by ``power``."""
    e = 1.0 - model.alpha
    return (e, *map(power, (e, e - 1.0, e - 2.0, 3.0)))


def _parametric_kernels(model: ReturnModel, eps, power) -> tuple:
    """(pi', (pi', pi'')) of a parametric model as functions of u, with
    every power bound by ``power``, once: ``_parametric_prime`` and, by the
    chain, ``_parametric_derivs`` (eps None) or ``_competition_derivs``."""
    e, p0, p1, p2, p3 = _parametric_powers(model, power)
    prime = partial(_parametric_prime, e, p0, p1, eps)
    if eps is None:
        return prime, partial(_parametric_derivs, e, p0, p1, p2, p3)
    return prime, partial(_competition_derivs, e, p0, p1, p2, eps)


def _pi_prime_second(model: ReturnModel, u, eps=None) -> tuple:
    """(pi'(u), pi''(u)) of the chain ``_pi`` names by eps, on arrays or
    numpy scalars: the parametric kernel with numpy's ``**``, or for a grid
    model the central difference of pi'."""
    if model.kind == "parametric-alpha":
        return _parametric_kernels(model, eps, _array_power)[1](u)

    def prime(v):
        return _pi_prime(*_q_terms(model, v, 1), v, eps)

    return prime(u), _central(prime, u)


# ---- checked entry points for utilities from outside the program -----------

def _check_domain(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    lo, hi = u.min(initial=0.0), u.max(initial=0.0)
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):  # also rejects NaN
        raise ReturnModelError("utility is NaN or outside [0, 1]")
    if lo < 0.0 or hi > 1.0:
        u = np.clip(u, 0.0, 1.0)
    return u[()]  # a 0-d input comes back as a scalar, as np.clip returns it


def eval_q(model: ReturnModel, u):
    """q(u); grid models interpolate linearly between nodes."""
    return _q_terms(model, _check_domain(u), 0)[0]


def eval_q_prime(model: ReturnModel, u):
    """dq/du.

    Analytic for the parametric family; central differences with step
    ``GRID_DERIV_STEP`` for grid models. For alpha > 0 the derivative
    diverges at u = 1.
    """
    return _q_terms(model, _check_domain(u), 1)[1]


def pi_monopoly(model: ReturnModel, u):
    """Stationary in-system probability q(u) / (1 + q(u)) of the two-state chain."""
    u = _check_domain(u)
    return _pi(_q_terms(model, u, 0)[0], u, None)


def pi_monopoly_second(model: ReturnModel, u):
    """d^2/du^2 of the two-state stationary probability; diverges at u = 1 for alpha > 0."""
    return _pi_prime_second(model, _check_domain(u))[1]


def pi_competition(model: ReturnModel, u, eps: float):
    """Stationary in-system probability of the three-state competition chain.

    pi(u) = q(u) / (1 + q(u) + (q(u)/eps)(1-u)); eps is the per-step
    probability of coming back from the competing site, in
    [sys.float_info.min, 1] as for ``Stationary``.
    """
    _check_eps(eps)
    u = _check_domain(u)
    return _pi(_q_terms(model, u, 0)[0], u, eps)


def _element_kernels(model: ReturnModel, eps):
    """(pi, pi', (pi', pi'')) of one parametric user as functions of a
    float: the array path's kernels with powers bound by ``_float_power``,
    and pi with ``_pow``, as the module docstring explains."""
    prime, derivs = _parametric_kernels(model, eps, _float_power)

    def pi(u):
        return _pi(_q_terms(model, u, 0, _pow)[0], u, eps)

    return pi, prime, derivs


def _element_path(models: list[ReturnModel]) -> bool:
    """Whether a market takes the element path: at most ``ELEMENT_MAX_USERS``
    users, at least one, all parametric."""
    return 0 < len(models) <= ELEMENT_MAX_USERS and all(
        mod.kind == "parametric-alpha" for mod in models)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Evaluator:
    """sum_i pi_i(u_i), pi_i'(u_i) and the clamped objective's slopes at one
    utility vector u of shape (m,), one entry per user.

    A market of at most ``ELEMENT_MAX_USERS`` users whose models are all
    parametric takes the element path: ``element_pi``, ``element_prime``
    and ``element_derivs`` hold one function of a float per user, every
    quantity is evaluated user by user on Python floats, and ``floats`` is
    True. There ``clamped_prime_list``, ``clamped_derivs_list`` and
    ``clamped_slope_list`` take lists, for callers that keep their vectors
    on Python floats.
    Other markets keep the functions None and take the array path: when
    every user shares one model, each quantity is one kernel call on the
    whole vector; otherwise users are grouped by model, and each group's
    kernel results are scattered into full-width arrays. ``pi_prime`` takes
    q and q' from one kernel pass. ``clamped_prime`` and ``clamped_derivs``
    give the slope and curvature of the objective clamped at each user's
    ``peak_utility`` (``peaks``), the two from one derivative pass.
    Utilities are not checked: they come from matchings the program built.
    ``peaks``, ``cap`` and the groups' user indices are read-only, so one
    evaluator can serve every solve of its market (``cached_evaluator``).
    """

    def __init__(self, models, stat: Stationary = MONOPOLY):
        models = list(models)
        self.m = len(models)
        self.eps = stat.eps if stat.kind == "competition" else None
        grouped: dict[tuple, tuple[ReturnModel, list[int]]] = {}
        for i, mod in enumerate(models):
            grouped.setdefault(mod.cache_key(), (mod, []))[1].append(i)
        self.groups = [(mod, _read_only(np.array(ix))) for mod, ix in grouped.values()]
        # the one shared model, or None for a mixed market; without users any
        # model serves, as every kernel maps empty arrays to empty arrays
        self.model = (None if len(self.groups) > 1 else
                      self.groups[0][0] if self.groups else parametric(0.0))
        self.element_pi = self.element_prime = self.element_derivs = None
        if _element_path(models):
            kernels = {key: _element_kernels(mod, self.eps)
                       for key, (mod, _) in grouped.items()}
            self.element_pi, self.element_prime, self.element_derivs = zip(
                *(kernels[mod.cache_key()] for mod in models))
        self.floats = self.element_prime is not None
        self.peaks = _read_only(np.array([peak_utility(mod, stat) for mod in models]))
        self.cap = _read_only(np.minimum(self.peaks, U_CLAMP))
        self._peak_cap = tuple(zip(self.peaks.tolist(), self.cap.tolist()))

    def _by_group(self, kernel, u: np.ndarray, *args):
        """kernel(model, u[users], *args) for every group of users; the
        kernel returns a list of arrays shaped like its input."""
        if self.model is not None:
            return kernel(self.model, u, *args)
        outs = None
        for mod, ix in self.groups:
            parts = kernel(mod, u[ix], *args)
            if outs is None:
                outs = [np.empty(self.m) for _ in parts]
            for out, part in zip(outs, parts):
                out[ix] = part
        return outs

    def objective(self, u) -> float:
        """sum_i pi_i(u_i)."""
        u = np.asarray(u, dtype=float)
        if self.floats:
            pis = np.array([f(v) for f, v in zip(self.element_pi, u.tolist())])
        else:
            pis = _pi(self._by_group(_q_terms, u, 0)[0], u, self.eps)
        return float(np.add.reduce(pis))

    def pi_prime(self, u) -> np.ndarray:
        """pi_i'(u_i), evaluated at min(u_i, ``U_CLAMP``)."""
        return self._prime(np.minimum(u, U_CLAMP))

    def _prime(self, u: np.ndarray) -> np.ndarray:
        """``pi_prime`` at utilities already clamped to at most ``U_CLAMP``."""
        if self.floats:
            return np.array([f(v) for f, v in zip(self.element_prime, u.tolist())])
        q, qp = self._by_group(_q_terms, u, 1)
        return _pi_prime(q, qp, u, self.eps)

    def _derivs(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pi_i'(u_i), pi_i''(u_i)) on the array path, at utilities already
        clamped to at most ``U_CLAMP``: ``_pi_prime_second`` of the chain,
        one kernel pass per model."""
        return tuple(self._by_group(_pi_prime_second, u, self.eps))

    def clamped_prime(self, u: np.ndarray) -> np.ndarray:
        """Per-user slope of the clamped objective: pi_i'(u_i) below the
        peak, 0 from it on, taken at min(u_i, cap_i)."""
        if self.floats:
            return np.array(self.clamped_prime_list(u.tolist()))
        grad = self._prime(np.minimum(u, self.cap))
        grad[u >= self.peaks] = 0.0
        return grad

    def clamped_prime_list(self, u: list[float]) -> list[float]:
        """``clamped_prime`` of a list of utilities, as a list, on the element
        path only (``floats``). The clamp and the zeroing run in one loop,
        with the bits of np.minimum and of the masked store."""
        return [0.0 if v >= p else f(v if v < c else c)
                for f, v, (p, c) in zip(self.element_prime, u, self._peak_cap)]

    def clamped_derivs(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-user slope and curvature of the clamped objective from one
        derivative pass: pi_i'(u_i) and min(pi_i''(u_i), 0) below the peak,
        0 from the peak on, at min(u_i, cap_i) as in ``clamped_prime``. The
        curvature is that of a Newton model, so it stays concave."""
        if self.floats:
            return tuple(map(np.array, self.clamped_derivs_list(u.tolist())))
        grad, curv = self._derivs(np.minimum(u, self.cap))
        past = u >= self.peaks
        grad[past] = 0.0
        np.minimum(curv, 0.0, out=curv)
        curv[past] = 0.0
        return grad, curv

    def clamped_derivs_list(self, u: list[float]) -> tuple[list[float], list[float]]:
        """``clamped_derivs`` of a list of utilities, as two lists, on the
        element path only (``floats``), in one loop."""
        grad, curv = [], []
        add_grad, add_curv = grad.append, curv.append
        for f, v, (p, c) in zip(self.element_derivs, u, self._peak_cap):
            g, h = (0.0, 0.0) if v >= p else f(v if v < c else c)
            add_grad(g)
            add_curv(h if h < 0.0 else 0.0)
        return grad, curv

    def clamped_slope_list(self, u0: list[float], t: float, du: list[float]) -> float:
        """The clamped objective's slope along du at u0 + t du, on the element
        path only (``floats``): the products of ``clamped_prime_list`` at
        u0 + t du with du, summed by one exactly rounded ``math.fsum``."""
        return fsum([(0.0 if v >= p else f(v if v < c else c)) * b
                     for f, b, (p, c), v in zip(self.element_prime, du, self._peak_cap,
                                                [a + t * b for a, b in zip(u0, du)])])


def strictly_concave(model: ReturnModel) -> bool:
    """Whether q and the two-state pi are strictly concave on [0, 1]
    (assumption A3 of Theorem 1), decided exactly from the model family.

    Every parametric model qualifies: with e = 1 - alpha > 0,
    q''(u) = e (1-u)^(e-2) (u(1+e) - 2) < 0 on [0, 1), and
    pi = q / (1 + q) is an increasing concave function of q, so the
    composition pi(q(u)) is strictly concave too (Boyd and Vandenberghe,
    Convex Optimization, section 3.2.4). No grid model qualifies: q is
    linear between nodes.
    """
    return model.kind == "parametric-alpha"


def single_peaked(model: ReturnModel) -> bool:
    """Whether q never rises again once it has fallen; grid models are
    checked on their node values, between which q is linear."""
    if model.kind == "parametric-alpha":
        return True
    d = np.diff(model.values)
    falls = np.flatnonzero(d < 0.0)
    return not (falls.size and (d[falls[0]:] > 0.0).any())


def q_peak(model: ReturnModel) -> float:
    """The utility u' = 1 / (2 - alpha) where q'(u') = 0, for a parametric model:
    q'(u) = (1-u)^(e-1) (1 - u(1+e)) with e = 1 - alpha."""
    if not strictly_concave(model):
        raise ReturnModelError("q_peak needs a parametric model")
    return 1.0 / (2.0 - model.alpha)


def argmax_pi_competition(model: ReturnModel, eps: float, tol: float = 1e-10) -> float:
    """Utility maximizing the competition stationary probability.

    Solves eps = -q(u)^2 / q'(u) on [u', 1] by bisection, where u' is the peak
    of q. The left side of that interval sends the ratio to +inf and the right
    side to q(1)^2-driven 0, so the root is unique; as eps shrinks the
    maximizer climbs toward 1.
    """
    _check_eps(eps)
    if not strictly_concave(model):
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
    eps = stat.eps if stat.kind == "competition" else None
    us = np.linspace(0.0, 1.0, PEAK_SAMPLES)
    k = int(np.argmax(_pi(_q_terms(model, us, 0)[0], us, eps)))
    lo, hi = us[max(k - 1, 0)], us[min(k + 1, PEAK_SAMPLES - 1)]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        v = min(float(mid), U_CLAMP)  # as Evaluator clamps; lo and hi stay unclamped
        if _pi_prime(*_q_terms(model, v, 1, _pow), v, eps) > 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


_peak_cache: dict[tuple, float] = {}


def peak_utility(model: ReturnModel, stat: Stationary) -> float:
    """Utility maximizing pi for this user.

    Models that ``strictly_concave`` certifies use the peak conditions of a
    concave q (``q_peak``, ``argmax_pi_competition``); any other model gets
    the global maximizer ``argmax_pi``.
    """
    key = (model.cache_key(), stat.kind, stat.eps)
    cached = _peak_cache.get(key)
    if cached is None:
        if not strictly_concave(model):
            cached = argmax_pi(model, stat)
        elif stat.kind == "monopoly":
            cached = q_peak(model)
        else:
            cached = argmax_pi_competition(model, stat.eps)
        _peak_cache[key] = cached
    return cached


_evaluator_cache: dict[tuple, Evaluator] = {}


def cached_evaluator(models, stat: Stationary = MONOPOLY) -> Evaluator:
    """The one ``Evaluator`` of a market, built on its first request.

    The key is every user's ``cache_key``, the chain and whether the market
    takes the element path, which ``ELEMENT_MAX_USERS`` decides when the
    evaluator is built. Like ``_peak_cache``, the memo lives as long as the
    process: the paper's loops solve hundreds of markets of one key each.
    """
    models = list(models)
    key = (tuple(mod.cache_key() for mod in models), stat, _element_path(models))
    ev = _evaluator_cache.get(key)
    if ev is None:
        ev = _evaluator_cache[key] = Evaluator(models, stat)
    return ev
