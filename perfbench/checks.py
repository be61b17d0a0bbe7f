"""Correctness checks behind ``fail_frac``; none of them runs while timing.

An operation is one trial, solve, bound or game. The artifact checks read the
CSV and JSON files a pass wrote and compare them with references computed
here from the commands' arguments: the fair optimum from
``scipy.optimize.linear_sum_assignment`` on the re-sampled instance and the
Theorem-1 bound from a root of its fixed-point equation. The solve checks run
in the traced process on the calls the tracer captured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, linear_sum_assignment

from workloads import option
from tracer import ancestor

BOUND_TOL = 1e-6  # Theorem-1 bound against its reference, and trial ratios against it
RATIO_MAX = 1.0 + 1e-7  # no policy beats the fair optimum
FAIR_TOL = 1e-9
ONLINE_SLACK = 0.02
SWEEP_TOL = 1e-6
GAP_TOL_PER_USER = 1e-7
KKT_TOL = 1e-6
OBJ_TOL = 1e-12
SWEEP_EPS = (0.5, 0.1, 0.01, 0.001)  # the CLI's default --eps list
BETA_A = BETA_B = 2.0  # the CLI's default sampler


def reference_bound(alpha: float) -> float:
    """Theorem-1 bound for identical models q(u) = u (1-u)^(1-alpha).

    Every such model has q'(0) = 1, so the fixed point c = L/2 with
    pi'(L) = c makes the bound L/2 where pi'(L) = L/2.
    """
    e = 1.0 - alpha

    def f(u: float) -> float:
        q = u * (1.0 - u) ** e
        qp = (1.0 - u) ** (e - 1.0) * (1.0 - u - u * e)
        return qp / (1.0 + q) ** 2 - u / 2.0

    return brentq(f, 0.0, 1.0 / (1.0 + e), xtol=1e-14) / 2.0


def fair_optimum(w: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(w[rows, cols].sum())


def resample(seed: int, trial: int, m: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    return rng.beta(BETA_A, BETA_B, size=(m, n))


def _printed_tol(ref: float) -> float:
    """FAIR_TOL plus half a unit in the ninth significant digit the CSVs keep."""
    if ref == 0.0:
        return FAIR_TOL
    return FAIR_TOL + 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 8)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def operations(cmd: list[str]) -> int:
    if cmd[0] == "bound":
        return 1
    if cmd[0] == "sim":
        return int(option(cmd, "--pairs"))
    trials = int(option(cmd, "--trials"))
    return trials * len(SWEEP_EPS) if cmd[0] == "sweep" else trials


def check_command(cmd: list[str], out: Path) -> list[str]:
    """Failure messages, one per failed operation of a command that exited 0."""
    try:
        return _CHECKS[cmd[0]](cmd, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{' '.join(cmd)}: unreadable artifacts: {exc!r}"] * operations(cmd)


def _check_bound(cmd, out):
    alpha = float(option(cmd, "--alpha"))
    got = json.loads((out / "bound.json").read_text())["bound"]
    ref = reference_bound(alpha)
    if abs(got - ref) > BOUND_TOL:
        return [f"bound alpha={alpha:g}: {got!r} vs reference {ref!r}"]
    return []


def _check_trials(cmd, out):
    alpha = float(option(cmd, "--alpha", "0"))
    m, n = int(option(cmd, "--m")), int(option(cmd, "--n"))
    seed, trials = int(option(cmd, "--seed")), int(option(cmd, "--trials"))
    online = cmd[0] == "online"
    rows = _rows(out / ("online_trials.csv" if online else "poa_trials.csv"))
    bound = reference_bound(alpha)
    lo = bound - (ONLINE_SLACK if online else BOUND_TOL)
    fails = []
    if len(rows) != trials:
        return [f"{cmd[0]} alpha={alpha:g}: {len(rows)} rows for {trials} trials"] * trials
    for row in rows:
        trial, ratio = int(row["trial"]), float(row["ratio"])
        tag = f"{cmd[0]} alpha={alpha:g} trial {trial}"
        ref = fair_optimum(resample(seed, trial, m, n))
        fair = float(row["fair_value"])
        if ratio != ratio:
            fails.append(f"{tag}: degenerate")
        elif not lo <= ratio <= RATIO_MAX:
            fails.append(f"{tag}: ratio {ratio!r} outside [{lo:.9g}, {RATIO_MAX!r}]")
        elif abs(fair - ref) > _printed_tol(ref):
            fails.append(f"{tag}: fair value {fair!r} vs scipy {ref!r}")
    return fails


def _check_sweep(cmd, out):
    trials = int(option(cmd, "--trials"))
    rows = _rows(out / "sweep.csv")
    eps = tuple(float(r["eps"]) for r in rows)
    if eps != SWEEP_EPS:
        return [f"sweep: eps rows {eps} instead of {SWEEP_EPS}"] * operations(cmd)
    fails, prev = [], None
    for row in rows:
        e, lo, mean = float(row["eps"]), float(row["min_ratio"]), float(row["mean_ratio"])
        degenerate = int(row["degenerate"])
        fails += [f"sweep eps={e:g}: degenerate trial"] * degenerate
        if prev is not None and lo < prev - SWEEP_TOL:
            fails += [f"sweep eps={e:g}: min ratio {lo!r} fell below {prev!r}"] * (trials - degenerate)
        elif not lo <= mean <= RATIO_MAX:
            fails += [f"sweep eps={e:g}: ratios min {lo!r} mean {mean!r}"] * (trials - degenerate)
        prev = lo
    return fails


def _check_sim(cmd, out):
    metrics = {r["metric"]: float(r["value"]) for r in _rows(out / "metrics.csv")}
    ok = all(metrics[k] > 0.0 and math.isfinite(metrics[k])
             for k in ("fair_mean_total", "selfish_mean_total", "random_mean_total"))
    ok = ok and all(0.0 <= metrics[k] <= 1.0 for k in ("fair_engagement", "selfish_engagement"))
    ok = ok and len(_rows(out / "round_log_game0.csv")) > 0
    return [] if ok else [f"sim study {option(cmd, '--study')}: bad metrics {metrics}"] * operations(cmd)


_CHECKS = {"bound": _check_bound, "poa": _check_trials, "online": _check_trials,
           "sweep": _check_sweep, "sim": _check_sim}


def csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def pass_digest(cmds: list[list[str]], dirs: list[Path]) -> str:
    """SHA-256 over the CSV artifacts of a pass, independent of command order."""
    h = hashlib.sha256()
    for key, d in sorted((" ".join(c), d) for c, d in zip(cmds, dirs)):
        h.update(key.encode() + b"\0" + csv_digest(d).encode())
    return h.hexdigest()


# ---- checks on the calls a traced pass captured ---------------------------------


def _pi(alpha: float, u: np.ndarray, stat) -> np.ndarray:
    q = u * (1.0 - u) ** (1.0 - alpha)
    if stat.kind == "monopoly":
        return q / (1.0 + q)
    return q / (1.0 + q + (q / stat.eps) * (1.0 - u))


def _solve_args(span, default_stat):
    args, kwargs, sol = span.call
    inst, models = args[0], list(args[1])
    stat = args[2] if len(args) > 2 else kwargs.get("stationary", default_stat)
    return inst, models, stat, sol


def check_solves(spans, pkg) -> tuple[int, list[str], float]:
    """Certificates of every selfish and fair solve: (checked, failures, kkt max)."""
    checked, fails, kkt_max = 0, [], 0.0
    for s in spans:
        if s.name == "selfish.solve":
            inst, models, stat, sol = _solve_args(s, pkg.MONOPOLY)
            checked += 1
            tag = f"selfish solve {inst.m}x{inst.n} {stat.kind} eps={stat.eps:g}"
            if sol.mode == "concave-exact":
                kkt = pkg.kkt_residual_of(inst, models, sol, stat).max_residual
                kkt_max = max(kkt_max, kkt)
                if sol.fw_gap > GAP_TOL_PER_USER * inst.m or kkt > KKT_TOL:
                    fails.append(f"{tag}: fw_gap {sol.fw_gap!r} kkt {kkt!r}")
            if stat.kind == "competition":
                rows, cols = linear_sum_assignment(inst.w, maximize=True)
                u = np.zeros(inst.m)
                u[rows] = inst.w[rows, cols]
                alpha = models[0].alpha
                fair_obj = float(_pi(alpha, np.clip(u, 0.0, 1.0), stat).sum())
                if sol.value < fair_obj - OBJ_TOL:
                    fails.append(f"{tag}: objective {sol.value!r} below fair {fair_obj!r}")
        elif s.name == "fair.solve":
            (inst,), _, sol = s.call
            checked += 1
            ref = fair_optimum(inst.w)
            if abs(sol.value - ref) > FAIR_TOL:
                fails.append(f"fair solve {inst.m}x{inst.n}: {sol.value!r} vs scipy {ref!r}")
    return checked, fails, kkt_max


UNITS = ("selfish.solve", "experiment.study", "poa.bound", "online.greedy")


def _unit_key(span):
    args, kwargs, result = span.call
    if span.name == "selfish.solve":
        inst, models, stat = args[0], args[1], args[2] if len(args) > 2 else None
        return (span.name, inst.w.tobytes(), repr(stat), models[0].cache_key(), len(models))
    if span.name == "experiment.study":
        q0 = kwargs.get("selfish_q0", args[3] if len(args) > 3 else None)
        game = kwargs.get("game_index", args[2] if len(args) > 2 else 0)
        return (span.name, repr(args[0]), game, None if q0 is None else q0.cache_key())
    if span.name == "poa.bound":
        return (span.name, tuple(mod.cache_key() for mod in args[0]))
    seq = args[0]
    return (span.name, seq.instance.w.tobytes(), seq.order.tobytes(), args[1][0].cache_key())


def unit_counts(spans) -> dict:
    """Exact work counts per unit of work: spans of each name below it, and FW iterations."""
    counts = {id(s): Counter() for s in spans if s.name in UNITS}
    for s in spans:
        unit = ancestor(s, UNITS)
        if unit is not None and id(unit) in counts:
            counts[id(unit)][s.name] += 1
    out: dict = {}
    for s in spans:
        if s.name in UNITS and s.call is not None:
            c = counts[id(s)]
            if s.name == "selfish.solve":
                c["fw_iters"] = s.call[2].iterations
            out.setdefault(_unit_key(s), []).append(dict(c))
    return out


def check_repeat(first: dict, again: dict) -> tuple[int, list[str]]:
    """Units run again must repeat their counts exactly."""
    checked, fails = 0, []
    for key, runs in again.items():
        for counts in runs:
            checked += 1
            ref = first.get(key)
            if ref is None or any(r != counts for r in ref):
                fails.append(f"{key[0]}: counts {counts} did not repeat {ref}")
    return checked, fails
