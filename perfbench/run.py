"""matchmarket benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload {poa_paper,poa_scarce,sweep_comp,sim,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports ``src/matchmarket``.
With ``--trace 0`` it reports the end-to-end metrics: the median wall and CPU
time of a pass over the workload's commands (passes repeat while the next
still fits in ``--seconds``, at least one), both corrected for the host's
measured speed, the median set-up time of several fresh processes, the peak
RSS of the workload process and the share of operations that passed
the correctness checks. With ``--trace 1`` it runs one untraced
and one traced pass, each in a fresh process, and reports per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object; the exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7  # fresh processes that only set up; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s, workers included
OUT = ROOT / ".perfbench_out"


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


class Failed(Exception):
    """A worker process did not produce a result."""


def spawn(mode: str, workload: str, seed: int, seconds: float, work: Path,
          deadline: float) -> dict:
    work.mkdir(parents=True)
    t = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work", str(work), "--spawn", repr(t)]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise Failed(f"{mode} worker passed the deadline")
    if rc != 0:
        raise Failed(f"{mode} worker exited with {rc}")
    return json.loads((work / "result.json").read_text())


def _failed_commands(cmds, rcs, tag) -> list[str]:
    import checks

    fails = []
    for cmd, rc in zip(cmds, rcs):
        if rc != 0:
            fails += [f"{tag}: {' '.join(cmd)} exited {rc}"] * checks.operations(cmd)
    return fails


def check_passes(cmds, passes) -> tuple[int, list[str], str]:
    """Check the first pass's artifacts; later passes must write the same CSVs."""
    import checks

    first = passes[0]
    fails = _failed_commands(cmds, first["rcs"], "pass 0")
    for cmd, rc, d in zip(cmds, first["rcs"], first["dirs"]):
        if rc == 0:
            fails += checks.check_command(cmd, Path(d))
    per_pass = sum(checks.operations(c) for c in cmds)
    digests = [checks.csv_digest(Path(d)) for d in first["dirs"]]
    for k, p in enumerate(passes[1:], start=1):
        fails += _failed_commands(cmds, p["rcs"], f"pass {k}")
        for cmd, rc, d, ref in zip(cmds, p["rcs"], p["dirs"], digests):
            if rc == 0 and checks.csv_digest(Path(d)) != ref:
                fails += [f"pass {k}: {' '.join(cmd)} CSVs differ from pass 0"] \
                    * checks.operations(cmd)
    digest = checks.pass_digest(cmds, [Path(d) for d in first["dirs"]])
    return per_pass * len(passes), fails, digest


def artifact_bytes(dirs) -> int:
    return sum(f.stat().st_size for d in dirs for f in Path(d).rglob("*") if f.is_file())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Metrics and human-readable lines of one workload run."""
    deadline = time.monotonic() + DEADLINE_S
    cmds = WORKLOADS[name].commands(seed)
    work = OUT / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    lines = [f"workload {name}: seed {seed}, {len(cmds)} commands, "
             f"trace {int(trace)}, closed loop with one client"]
    try:
        if trace:
            base = spawn("run", name, seed, 0.0, work / "untraced", deadline)
            traced = spawn("trace", name, seed, 0.0, work / "traced", deadline)
            # the traced pass counts as a second pass: same exit codes, same CSVs
            attempted, fails, digest = check_passes(cmds, base["passes"] + [traced["pass"]])
            fails += [f"repeat pass: {' '.join(c)} exited {rc}"
                      for c, rc in zip(cmds, traced["repeat_rcs"]) if rc != 0]
            fails += traced["failures"]
            attempted += len(cmds) + traced["checked"]
            untraced_wall = base["passes"][0]["ref_wall_s"]
            metrics = dict(traced["metrics"])
            metrics["trace.overhead_frac"] = \
                (traced["pass"]["ref_wall_s"] - untraced_wall) / untraced_wall
            metrics["cli.artifact_bytes"] = artifact_bytes(traced["pass"]["dirs"])
            units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
            reported = {k: {"value": metrics[k], "unit": units[k]} for k in units}
            lines.append(f"  untraced wall {untraced_wall:.6g} s, traced wall "
                         f"{traced['pass']['ref_wall_s']:.6g} s (host-speed corrected)")
            lines += [f"  {k:<32} {v:.6g} {units.get(k, '(diagnostic)')}" for k, v in metrics.items()]
        else:
            run = spawn("run", name, seed, seconds, work / "run", deadline)
            # probed after the run, so no probe starts on a vCPU waking from idle
            probes = [spawn("setup", name, seed, 0.0, work / f"setup{k}", deadline)
                      for k in range(SETUP_PROBES)]
            passes = run["passes"]
            attempted, fails, digest = check_passes(cmds, passes)
            fail_frac = len(fails) / attempted
            values = {
                "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
                "cpu_s": statistics.median(p["ref_cpu_s"] for p in passes),
                # not divided by the host slowdown: the kernel's speed did not
                # track set-up time, which numpy's import and exec dominate
                "setup_s": statistics.median(p["setup_s"] for p in probes),
                "peak_rss_mb": run["peak_rss_mb"],
                "ok_frac": 1.0 - fail_frac,
            }
            units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
            reported = {k: {"value": values[k], "unit": units[k]} for k in units}
            items = attempted // len(passes)
            lines.append(f"  passes {len(passes)}, {items} operations per pass "
                         f"({items / values['wall_s']:.4g} per second)")
            lines.append(f"  setup_s as measured {[round(r['setup_s'], 4) for r in probes]}")
            for label, runs, key in (("wall_s", passes, "wall_s"), ("cpu_s", passes, "cpu_s")):
                lines.append(f"  {label} as measured {[round(r[key], 4) for r in runs]}, "
                             f"host slowdown {[round(r['slowdown'], 3) for r in runs]}")
            reported_lines = dict(values, fail_frac=fail_frac)
            for k, v in reported_lines.items():
                unit = units.get(k, "ratio")
                lines.append(f"  {k:<12} {v:.6g} {unit}")
    except Failed as exc:
        raise SystemExit(f"error: workload {name}: {exc}")
    finally:
        if trace and (work / "traced" / "spans.jsonl").exists():
            OUT.mkdir(exist_ok=True)
            shutil.copy(work / "traced" / "spans.jsonl", OUT / f"{name}.spans.jsonl")
        shutil.rmtree(work, ignore_errors=True)
    lines.append(f"  failed {len(fails)} of {attempted} operations")
    lines += [f"  FAIL {f}" for f in fails[:20]]
    lines.append(f"  csv_sha256 {digest}")
    result = {"correct": not fails, "attempted": attempted, "failed": len(fails),
              "metrics": reported}
    return result, lines


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "matchmarket" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'matchmarket'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
