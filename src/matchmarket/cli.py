"""Command-line interface: bound, match, poa, sweep, online, sim.

Every command writes its artifacts into an output directory and finishes by
writing a run manifest listing all produced files; the manifest doubles as an
atomic completion marker. ``main`` builds the argument parser on its first
call and reuses it for every later call in the process (``_parser``), as
parsing leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, experiment, online, poa, returns, svgplot
from .fair import solve_fair
from .market import (InstanceSampler, MarketError, keyed_rng, read_instance, write_json,
                     write_table)
from .online import ArrivalSequence, greedy_online
from .returns import ReturnModelError
from .selfish import MONOPOLY, Stationary, kkt_residual_of, solve_selfish

EXIT_USAGE = 1
EXIT_ASSUMPTIONS = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``CliError``, not as argparse's exit 2."""

    def error(self, message: str):
        raise CliError(message)


class _Run:
    """Collects output files and writes the manifest last."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.seed = args.seed
        self.started = time.time()
        self.outputs: list[str] = []
        payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        self.config_hash = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out_dir / name

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tool_version": __version__,
            "started": self.started,
            "finished": time.time(),
            "outputs": self.outputs,
        }
        write_json(self.out_dir / "manifest.json", manifest)


def _models(args, m: int) -> list:
    if not (0.0 <= args.alpha < 1.0):
        raise CliError(f"invalid alpha {args.alpha}: must lie in [0, 1)",
                       EXIT_ASSUMPTIONS)
    return [returns.parametric(args.alpha)] * m


def _competition(eps: float) -> Stationary:
    try:
        return returns.competition(eps)
    except ValueError as exc:
        raise CliError(f"invalid --eps {eps}: {exc}") from exc


def _stationary(args) -> Stationary:
    return MONOPOLY if args.eps is None else _competition(args.eps)


def _check_count(args, name: str) -> None:
    value = getattr(args, name)
    if value < 1:
        raise CliError(f"invalid --{name} {value}: must be at least 1")


def cmd_bound(args) -> int:
    _check_count(args, "users")
    models = _models(args, args.users)
    run = _Run("bound", args)
    rep = poa.theorem1_bound(models)
    print(f"H = {rep.H:.9g}")
    print(f"c = {rep.c:.9g}")
    print(f"L = {rep.L:.9g}")
    print(f"bound = {rep.bound:.9g}")
    write_json(run.path("bound.json"), {
        "H": rep.H, "h": rep.h, "c": rep.c, "L": rep.L, "bound": rep.bound,
        "u_bars": list(rep.u_bars),
    })
    run.finish()
    return 0


def cmd_match(args) -> int:
    inst = read_instance(args.instance)
    models = _models(args, inst.m)
    stat = _stationary(args)
    run = _Run("match", args)
    extra: dict = {}
    if args.mode == "fair":
        sol = solve_fair(inst)
        x, u, value = sol.matching.x, sol.matching.u, sol.value
    elif args.mode == "selfish":
        sol = solve_selfish(inst, models, stat, seed=args.seed)
        x, u = sol.matching.x, sol.matching.u
        value = sol.value
        kkt = kkt_residual_of(inst, models, sol, stat)
        extra = {"fw_gap": sol.fw_gap, "mode": sol.mode,
                 "kkt_max_residual": kkt.max_residual,
                 "kkt_stationarity": kkt.stationarity}
    else:
        rng = keyed_rng(args.seed, 1)
        seq = ArrivalSequence(order=rng.permutation(inst.m), instance=inst)
        sol = greedy_online(seq, models, stat)
        x, u, value = sol.matching.x, sol.matching.u, sol.value
        extra = {"order": [int(i) for i in seq.order]}
    write_table(run.path("x.csv"), x)
    write_table(run.path("utilities.csv"), [u])
    write_json(run.path("solution.json"), {"mode": args.mode, "value": value, **extra})
    print(f"value = {value:.9g}")
    run.finish()
    return 0


def _sampler(args) -> InstanceSampler:
    return InstanceSampler(distribution=args.dist, a=args.beta_a, b=args.beta_b,
                           seed=args.seed)


def cmd_poa(args) -> int:
    models = _models(args, args.m)
    stat = _stationary(args)
    _check_count(args, "trials")
    run = _Run("poa", args)
    rep = poa.empirical_poa(models, _sampler(args), args.m, args.n, args.trials, stat)
    poa.write_trials_csv(rep, run.path("poa_trials.csv"))
    poa.write_summary_json(rep, run.path("poa_summary.json"))
    print(f"min_ratio = {rep.min_ratio:.9g}")
    print(f"mean_ratio = {rep.mean_ratio:.9g}")
    run.finish()
    return 0


def cmd_sweep(args) -> int:
    try:
        eps_list = [float(tok) for tok in args.eps.split(",") if tok]
    except ValueError as exc:
        raise CliError(f"invalid --eps list: {exc}") from exc
    if not eps_list:
        raise CliError("invalid --eps list: no values")
    for e in eps_list:
        _competition(e)
    _check_count(args, "trials")
    models = _models(args, args.m)
    run = _Run("sweep", args)
    sweep = poa.competition_sweep(models, _sampler(args), args.m, args.n,
                                  args.trials, eps_list)
    poa.write_sweep_csv(sweep, run.path("sweep.csv"))
    eps_sorted = sorted(sweep, reverse=True)
    svgplot.plot_lines(
        run.path("sweep.svg"),
        [("min ratio", eps_sorted, [sweep[e].min_ratio for e in eps_sorted]),
         ("mean ratio", eps_sorted, [sweep[e].mean_ratio for e in eps_sorted])],
        title="Empirical PoA vs eps", xlabel="eps", ylabel="ratio", log_x=True)
    for e in eps_sorted:
        print(f"eps={e:g}: min_ratio={sweep[e].min_ratio:.9g}")
    run.finish()
    return 0


def cmd_online(args) -> int:
    models = _models(args, args.m)
    stat = _stationary(args)
    _check_count(args, "trials")
    run = _Run("online", args)
    rep = online.online_poa_empirical(models, _sampler(args), args.m, args.n,
                                      args.trials, stat)
    online.write_online_csv(rep, run.path("online_trials.csv"))
    poa.write_summary_json(rep, run.path("online_summary.json"))
    print(f"min_ratio = {rep.min_ratio:.9g}")
    print(f"mean_ratio = {rep.mean_ratio:.9g}")
    run.finish()
    return 0


def _sim_setup(args):
    cfg_kwargs = {"study": args.study, "seed": args.seed}
    beh_kwargs: dict = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config: {exc}") from exc
        if not isinstance(data, dict):
            raise CliError("config must be a JSON object")
        behavior_part = data.pop("behavior", {})
        if not isinstance(behavior_part, dict):
            raise CliError("config key 'behavior' must be an object")
        cfg_kwargs.update(data)
        beh_kwargs = behavior_part
    try:
        config = experiment.StudyConfig(**cfg_kwargs)
        behavior = experiment.BehaviorModel(**beh_kwargs)
    except (experiment.ExperimentError, TypeError) as exc:  # TypeError names an unknown key
        raise CliError(f"invalid config: {exc}") from exc
    return config, behavior


# the per-round lists of the Fair and Selfish arms that sim averages over its
# games, with the plot and y label of each
_SIM_PLOTS = (
    ("mean_payoff_per_round", "utility_per_round.svg", "mean payoff (cents)"),
    ("engagement_per_round", "engagement_per_round.svg", "engagement rate"),
    ("drop_count_per_round", "drops_per_round.svg", "drops"),
)


def cmd_sim(args) -> int:
    config, behavior = _sim_setup(args)
    run = _Run("sim", args)
    # the batch's games one at a time: game 0's logs are kept, and of every
    # game only its metrics and the per-round lists the plots average
    first, metrics = None, []
    per_round = {(arm, metric): [] for arm in ("Fair", "Selfish")
                 for metric, _, _ in _SIM_PLOTS}
    for res in experiment.iter_batch(config, behavior, pairs=args.pairs):
        if first is None:
            first = res
        metrics.append(res.metrics)
        for (arm, metric), rows in per_round.items():
            rows.append(getattr(res.arms[arm], metric))
    agg = experiment.summarize_batch(config, metrics)
    experiment.write_metrics_csv(agg, run.path("metrics.csv"))
    experiment.write_round_log_csv(first, run.path("round_log_game0.csv"))

    hist = experiment.realized_payoff_histogram(first)
    write_table(run.path("histograms.csv"),
                [(name, data["edges"][k], data["edges"][k + 1], int(count))
                 for name, data in hist.items() for k, count in enumerate(data["counts"])],
                ["condition", "bin_lo", "bin_hi", "count"])

    rounds = list(range(1, config.rounds + 1))
    for metric, fname, ylabel in _SIM_PLOTS:
        series = [(arm, rounds, list(np.mean(per_round[arm, metric], axis=0)))
                  for arm in ("Fair", "Selfish")]
        svgplot.plot_lines(run.path(fname), series, title=metric,
                           xlabel="round", ylabel=ylabel)
    poa_vals = [m["poa_pair"] for m in metrics if m["poa_pair"] == m["poa_pair"]]
    svgplot.plot_lines(
        run.path("poa_pairs.svg"),
        [("per-pair PoA", list(range(len(poa_vals))), poa_vals),
         ("mean", [0, len(poa_vals) - 1], [float(np.mean(poa_vals))] * 2)],
        title="Selfish/Fair welfare per pair", xlabel="pair", ylabel="ratio")
    for key in ("fair_mean_total", "selfish_mean_total", "fair_engagement",
                "selfish_engagement", "poa_pair"):
        print(f"{key} = {agg[key]:.9g}")
    run.finish()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matchmarket",
        description="Fair vs. selfish matching: bounds, solvers, simulations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default="out")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored: trials run serially")

    def sampled(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, default=5)
        p.add_argument("--n", type=int, default=5)
        p.add_argument("--trials", type=int, default=500)
        p.add_argument("--dist", choices=("beta", "uniform"), default="beta")
        p.add_argument("--beta-a", type=float, default=2.0)
        p.add_argument("--beta-b", type=float, default=2.0)

    p = sub.add_parser("bound", help="constant PoA lower bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--users", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("match", help="solve one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=("fair", "selfish", "online"),
                   default="fair")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=None,
                   help="competition chain return probability")
    common(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("poa", help="empirical PoA by Monte Carlo")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=None)
    sampled(p)
    common(p)
    p.set_defaults(func=cmd_poa)

    p = sub.add_parser("sweep", help="competition sweep over eps")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--eps", default="0.5,0.1,0.01,0.001")
    sampled(p)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("online", help="online greedy PoA")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=None)
    sampled(p)
    common(p)
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("sim", help="behavioral study simulation")
    p.add_argument("--study", choices=("A", "B", "C"), default="B")
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--config", default=None,
                   help="JSON file with StudyConfig/BehaviorModel overrides")
    common(p)
    p.set_defaults(func=cmd_sim)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.seed < 0:
            raise CliError(f"invalid --seed {args.seed}: must be at least 0")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ReturnModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    except (MarketError, experiment.ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy's message gives the size
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
