"""Price-of-anarchy bound and its Monte-Carlo verification.

The constant lower bound on selfish-vs-fair welfare depends only on the
return functions: with H = max_i q_i'(0), the bound is L/2 where
L = min_i ubar_i(c), ubar_i(c) is the utility at which the stationary
probability's derivative equals c, and c is the fixed point of
c = (H/2) L(c). The fixed point has a closed form in per-user roots (see
``theorem1_bound``), so one monotone bisection finds it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import returns
from .fair import solve_fair
from .market import InstanceSampler, MarketError, sample_instance
from .returns import MONOPOLY, Evaluator, Stationary
from .selfish import solve_selfish

INNER_TOL = 1e-12


class BoundError(ValueError):
    pass


@dataclass(frozen=True)
class PoABoundReport:
    H: float
    h: float  # min_i q_i'(0), the admissible upper end for c (diagnostic)
    c: float
    L: float
    bound: float
    u_bars: np.ndarray


@dataclass(frozen=True)
class EmpiricalPoAReport:
    trials: int
    ratios: list[float]
    degenerate: int
    settings: dict = field(default_factory=dict)
    # per-trial rows (trial, seed, benchmark_value, achieved_value, ratio);
    # degenerate trials keep a row with ratio = nan
    records: list[tuple] = field(default_factory=list)

    @property
    def min_ratio(self) -> float:
        return min(self.ratios) if self.ratios else float("nan")

    @property
    def mean_ratio(self) -> float:
        return float(np.mean(self.ratios)) if self.ratios else float("nan")


def _ubars(ev: Evaluator, c: float, slope: float = 0.0) -> np.ndarray:
    """Per-user unique positive root of pi_i'(u) = c + slope u, slope >= 0;
    pi' decreases from q'(0) to q'(1) < 0. Bisects all users at once, each
    until its own bracket is at most ``INNER_TOL`` wide."""
    lo = np.zeros(ev.m)
    hi = np.full(ev.m, 1.0 - 1e-12)
    live = hi - lo > INNER_TOL
    while live.any():
        mid = 0.5 * (lo + hi)
        rise = ev.pi_prime(mid) > c + slope * mid
        lo = np.where(live & rise, mid, lo)
        hi = np.where(live & ~rise, mid, hi)
        live = hi - lo > INNER_TOL
    return 0.5 * (lo + hi)


def theorem1_bound(models) -> PoABoundReport:
    """Constant lower bound on the price of anarchy for concave return models.

    The fixed point of c = (H/2) L(c), with L(c) = min_i ubar_i(c), is
    c* = (H/2) min_i L_i, where L_i is the root of pi_i'(L) = (H/2) L.

    Proof. Each pi_i' is strictly decreasing (strict concavity) and
    (H/2) L is increasing, so L_i is unique; let L* = min_i L_i and
    c* = (H/2) L*. For the user attaining the minimum, pi_i'(L*) = c*, so
    ubar_i(c*) = L*. For every other user, pi_i'(L*) >= pi_i'(L_i) =
    (H/2) L_i >= c*, and since pi_i' decreases, ubar_i(c*) >= L*. So
    L(c*) = L* and c* = (H/2) L(c*). The residual (H/2) L(c) - c is
    strictly decreasing, as every ubar_i is nonincreasing in c, so this
    fixed point is the only one.
    """
    models = list(models)
    for mod in models:
        if not returns.strictly_concave(mod):
            raise BoundError("all return models must be strictly concave on [0, 1]")
    ev = returns.cached_evaluator(models)
    slopes0 = ev.pi_prime(np.zeros(len(models)))  # pi'(0) = q'(0) as q(0) = 0
    H = float(slopes0.max())
    h = float(slopes0.min())
    if H <= 0.0:
        raise BoundError("needs a model with positive slope at zero utility")
    c = (H / 2.0) * float(_ubars(ev, 0.0, H / 2.0).min())
    u_bars = _ubars(ev, c)
    Lc = float(u_bars.min())
    return PoABoundReport(H=H, h=h, c=c, L=Lc, bound=Lc / 2.0, u_bars=u_bars)


def _run_trials(sampler: InstanceSampler, m: int, n: int, trials: int,
                policy, settings: dict) -> EmpiricalPoAReport:
    """Monte-Carlo trials of ``policy`` against the fair optimum.

    Trial t samples instance t of ``sampler`` (its own RNG stream) and solves
    the fair program; ``policy(inst, t)`` returns the policy's total
    utility. Trials whose fair optimum is zero have an undefined ratio; they
    keep a row with ratio nan and are counted as degenerate; if all are,
    the sampler's markets are unusable (``MarketError``). ``settings``
    extends the report's m, n, sampler and seed settings.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")

    def one(trial: int) -> tuple:
        inst = sample_instance(sampler, m, n, trial)
        fair = solve_fair(inst)
        if fair.value <= 0.0:
            return (trial, sampler.seed, fair.value, 0.0, float("nan"))
        value = policy(inst, trial)
        return (trial, sampler.seed, fair.value, value, value / fair.value)

    records = [one(t) for t in range(trials)]
    ratios = [rec[4] for rec in records if rec[4] == rec[4]]
    if not ratios:
        raise MarketError("all trials degenerate: every fair optimum was zero")
    settings = {"m": m, "n": n, "sampler": sampler.distribution, "seed": sampler.seed,
                **settings}
    return EmpiricalPoAReport(trials=trials, ratios=ratios, degenerate=trials - len(ratios),
                              settings=settings, records=records)


def empirical_poa(
    models,
    sampler: InstanceSampler,
    m: int,
    n: int,
    trials: int,
    stationary: Stationary = MONOPOLY,
) -> EmpiricalPoAReport:
    """Ratio of selfish to fair total utility across random weight matrices.

    Trials whose fair optimum is zero are counted as degenerate. Trials run
    one after another.
    """
    models = list(models)

    def selfish_value(inst, trial: int) -> float:
        return float(solve_selfish(inst, models, stationary, seed=sampler.seed).matching.u.sum())

    return _run_trials(sampler, m, n, trials, selfish_value, {
        "stationary": stationary.kind,
        "eps": stationary.eps if stationary.kind == "competition" else None,
    })


def competition_sweep(
    models,
    sampler: InstanceSampler,
    m: int,
    n: int,
    trials: int,
    eps_list,
) -> dict[float, EmpiricalPoAReport]:
    """Empirical PoA under the competition chain for each eps, mirroring
    the convergence of selfish matching to fair matching as eps shrinks."""
    out: dict[float, EmpiricalPoAReport] = {}
    for eps in eps_list:
        out[float(eps)] = empirical_poa(models, sampler, m, n, trials,
                                        Stationary("competition", float(eps)))
    return out


def write_trials_csv(report: EmpiricalPoAReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "fair_value", "selfish_value", "ratio"])
        for trial, seed, fv, sv, ratio in report.records:
            writer.writerow([trial, seed, f"{fv:.9g}", f"{sv:.9g}", f"{ratio:.9g}"])


def write_summary_json(report: EmpiricalPoAReport, path) -> None:
    payload = {
        "trials": report.trials,
        "degenerate": report.degenerate,
        "min_ratio": report.min_ratio,
        "mean_ratio": report.mean_ratio,
        "settings": report.settings,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_sweep_csv(sweep: dict[float, EmpiricalPoAReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "min_ratio", "mean_ratio", "degenerate"])
        for eps in sorted(sweep, reverse=True):
            rep = sweep[eps]
            writer.writerow([f"{eps:.9g}", f"{rep.min_ratio:.9g}",
                             f"{rep.mean_ratio:.9g}", rep.degenerate])
