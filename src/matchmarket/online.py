"""Greedy online selfish policy: users arrive one by one and each grabs the
assignment probabilities that maximize their own stationary probability over
the capacity left by earlier arrivals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import FractionalMatching, InstanceSampler, MarketInstance, keyed_rng, write_table
from .poa import EmpiricalPoAReport, _run_trials
from .returns import MONOPOLY, Stationary, cached_evaluator
from .selfish import _check_models

_CAP_TOL = 1e-9  # residual column capacity below this counts as exhausted


@dataclass(frozen=True)
class ArrivalSequence:
    order: np.ndarray  # permutation of rows 0..m-1
    instance: MarketInstance

    def __post_init__(self):
        order = np.asarray(self.order, dtype=int)
        if sorted(order.tolist()) != list(range(self.instance.m)):
            raise ValueError("order must be a permutation of the users")
        order = order.copy()
        order.flags.writeable = False
        object.__setattr__(self, "order", order)


@dataclass(frozen=True)
class OnlineSolution:
    matching: FractionalMatching
    value: float  # sum of stationary probabilities achieved by the greedy play


def greedy_online(
    seq: ArrivalSequence,
    models,
    stationary: Stationary = MONOPOLY,
) -> OnlineSolution:
    """Each arriving user maximizes their own pi over the residual capacities.

    The per-arrival problem is one-dimensional: the objective depends only on
    u_i, achievable utilities form the interval [0, U_max] (U_max by greedy
    fractional knapsack over the remaining column capacity), and pi_i rises to
    its peak and falls after it, so the best feasible utility is
    min(peak_i, U_max). The target is realized by filling higher-quality
    columns first, which uses the fewest columns; ties break to the lowest
    column index. The arrivals run on Python floats: numpy's float64 bits.
    """
    inst = seq.instance
    models = _check_models(inst, models)
    ev = cached_evaluator(models, stationary)
    targets = ev.peaks.tolist()
    rows = inst.w.tolist()
    cap = [1.0] * inst.n
    x = [[0.0] * inst.n for _ in rows]
    for i in seq.order.tolist():
        row, xi, target = rows[i], x[i], targets[i]
        # a stable sort, reversed, keeps the lowest column index first among ties
        open_cols = sorted((j for j, wij in enumerate(row) if cap[j] > _CAP_TOL and wij > 0.0),
                           key=row.__getitem__, reverse=True)
        budget = 1.0  # row mass
        achieved = 0.0
        for j in open_cols:
            if budget <= 0.0 or achieved >= target - 1e-15:
                break
            take = min(cap[j], budget, (target - achieved) / row[j])
            xi[j] = take
            cap[j] -= take
            budget -= take
            achieved += take * row[j]
    matching = FractionalMatching.from_x(inst, np.array(x))
    value = ev.objective(matching.u)
    return OnlineSolution(matching=matching, value=value)


def online_poa_empirical(
    models,
    sampler: InstanceSampler,
    m: int,
    n: int,
    trials: int,
    stationary: Stationary = MONOPOLY,
) -> EmpiricalPoAReport:
    """Ratio of greedy-online to fair total utility with a fresh random
    arrival order per trial."""

    def greedy_value(inst: MarketInstance, trial: int) -> float:
        order_rng = keyed_rng(sampler.seed, trial, 1)
        seq = ArrivalSequence(order=order_rng.permutation(m), instance=inst)
        return float(greedy_online(seq, models, stationary).matching.u.sum())

    return _run_trials(sampler, m, n, trials, greedy_value,
                       {"stationary": stationary.kind, "policy": "greedy-online"})


def write_online_csv(report: EmpiricalPoAReport, path) -> None:
    """One row per trial. ``order_seed`` is the sampler seed on every row:
    trial t's arrival order is keyed (order_seed, t, 1), as in
    ``online_poa_empirical``."""
    write_table(path, [(trial, seed, ov, fv, ratio)
                       for trial, seed, fv, ov, ratio in report.records],
                ["trial", "order_seed", "online_value", "fair_value", "ratio"])
