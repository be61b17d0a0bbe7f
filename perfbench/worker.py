"""One workload process: import the package, warm up, then run passes.

    python3 perfbench/worker.py --mode {setup,run,trace} --workload NAME
        --seed N --seconds S --work DIR --spawn T

``--spawn`` is the parent's ``time.monotonic()`` just before it started this
process, so the set-up time covers interpreter start, ``import matchmarket``
and the warm-up commands. The result goes to ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from hostspeed import host_slowdown, spin_up  # noqa: E402

REPEAT_SIZE = 1  # trials or games per command when the traced run repeats its units


def _import_package():
    sys.path.insert(0, str(SRC))
    import matchmarket
    from matchmarket import cli

    if Path(matchmarket.__file__).resolve().parent != SRC / "matchmarket":
        raise SystemExit(f"matchmarket imported from {matchmarket.__file__}, not {SRC}")
    return matchmarket, cli


def peak_rss_mb() -> float:
    """Peak resident set of this process, or of its largest waited-for child
    process if that was larger.

    This process's own ``ru_maxrss`` is not used: Linux carries it across
    exec, so it would also count the parent's resident set at the moment it
    forked.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next((int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")), own)
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def children_cpu_s() -> float:
    """User+sys CPU time of this process's waited-for child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_pass(main, cmds, out: Path) -> dict:
    """Time each command and the host's slowdown at its two ends.

    ``cpu_s`` counts this process and the child processes a command waited
    for. ``ref_wall_s`` and ``ref_cpu_s`` divide each command's time by the
    mean of the slowdowns probed just before and just after it, when no
    package code runs, giving its time on a host where the kernel takes
    KERNEL_REF_S.
    """
    dirs = [out / str(k) for k in range(len(cmds))]
    rcs, walls, cpus, factors = [], [], [], []
    before = host_slowdown()
    for cmd, d in zip(cmds, dirs):
        cpu0 = time.process_time() + children_cpu_s()
        t0 = time.perf_counter()
        try:
            rcs.append(main(cmd + ["--out-dir", str(d)]))
        except Exception:  # a traceback is a failed command, not a failed benchmark
            traceback.print_exc()
            rcs.append(1)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() + children_cpu_s() - cpu0)
        after = host_slowdown()
        factors.append((before + after) / 2)
        before = after
    return {"wall_s": sum(walls), "cpu_s": sum(cpus),
            "ref_wall_s": sum(w / f for w, f in zip(walls, factors)),
            "ref_cpu_s": sum(c / f for c, f in zip(cpus, factors)),
            "slowdown": statistics.fmean(factors), "rcs": rcs, "dirs": [str(d) for d in dirs]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--work", required=True)
    p.add_argument("--spawn", type=float, required=True)
    args = p.parse_args(argv)

    from workloads import WORKLOADS, warmup_commands

    work = Path(args.work)
    cmds = WORKLOADS[args.workload].commands(args.seed)
    pkg, cli = _import_package()
    devnull = open(os.devnull, "w")
    with devnull, contextlib.redirect_stdout(devnull):
        warm = warmup_commands(cmds)
        warm_rcs = [cli.main(c + ["--out-dir", str(work / "warmup" / str(k))])
                    for k, c in enumerate(warm)]
        if any(warm_rcs):
            raise SystemExit(f"warm-up commands exited {warm_rcs}")
        result = {"setup_s": time.monotonic() - args.spawn}
        if args.mode != "setup":
            spin_up()
        if args.mode == "run":
            # passes repeat while the next one, as long as the last, still fits
            passes, start = [], time.perf_counter()
            while not passes or (time.perf_counter() - start
                                 + passes[-1]["wall_s"] <= args.seconds):
                passes.append(run_pass(cli.main, cmds, work / f"pass{len(passes)}"))
            result["passes"] = passes
            result["peak_rss_mb"] = peak_rss_mb()
        elif args.mode == "trace":
            result.update(_traced(pkg, cli, cmds, work))
    (work / "result.json").write_text(json.dumps(result))
    return 0


def _traced(pkg, cli, cmds, work: Path) -> dict:
    """One traced pass, then its commands again at one trial or game each,
    whose units of work must repeat their counts exactly."""
    import checks
    from tracer import Tracer, layer_metrics
    from workloads import resized

    tracer = Tracer(pkg)
    tracer.install()
    try:
        main = tracer.wrap(cli.main, "cli.main", "cli")
        traced = run_pass(main, cmds, work / "pass0")
        mark = len(tracer.spans)
        again = [resized(c, REPEAT_SIZE) for c in cmds]
        repeat = run_pass(main, again, work / "repeat")
    finally:
        tracer.uninstall()
    tracer.finish()
    spans, rerun = tracer.spans[:mark], tracer.spans[mark:]
    metrics = layer_metrics(spans, pkg)
    solves_checked, solve_fails, kkt_max = checks.check_solves(spans, pkg)
    metrics["selfish.kkt_max"] = kkt_max
    units_checked, unit_fails = checks.check_repeat(checks.unit_counts(spans),
                                                    checks.unit_counts(rerun))
    tracer.write(work / "spans.jsonl")
    return {"pass": traced, "repeat_rcs": repeat["rcs"], "metrics": metrics,
            "checked": solves_checked + units_checked,
            "failures": solve_fails + unit_fails}


if __name__ == "__main__":
    sys.exit(main())
