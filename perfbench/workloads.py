"""The benchmark's workloads: CLI command lists generated from a seed.

Every workload is a closed loop: one client runs its commands back to back
through ``matchmarket.cli.main`` in one process, each command starting when
the previous one has returned.

The seeds of the solver and simulation commands are pinned to the inputs the
paper's checks run on. Their per-solve cost is heavy-tailed (9 ms to 12 s on
2x2 competition instances) and the slow solves are the defects the benchmark
must keep showing: sampler seed 5, trials 2-4 of ``sweep`` stall in the
multistart path, and trials 0-49 at seed 42 carry the Frank-Wolfe tail of the
price-of-anarchy loop. The benchmark seed therefore varies only what does not
change the amount of work: the order the commands of a pass run in, and the
sampler seed of the greedy online run, whose cost per trial is flat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

PAPER_ALPHAS = (0.0, 0.25, 0.5, 0.75)

# Flags that set how many trials or games a command runs.
SIZE_FLAGS = ("--trials", "--pairs")


def _poa(alpha: float, m: int, n: int, trials: int, seed: int, threads: int) -> list[str]:
    return ["poa", "--alpha", f"{alpha:g}", "--m", str(m), "--n", str(n),
            "--trials", str(trials), "--seed", str(seed), "--threads", str(threads)]


def _poa_paper(seed: int) -> list[list[str]]:
    cmds = [["bound", "--alpha", f"{a:g}", "--users", "5"] for a in PAPER_ALPHAS]
    cmds += [_poa(a, 5, 5, 50, 42, 1) for a in PAPER_ALPHAS]
    cmds.append(["online", "--m", "5", "--n", "5", "--trials", "200",
                 "--seed", str(seed), "--threads", "1"])
    return cmds


def _poa_scarce(seed: int) -> list[list[str]]:
    return [_poa(a, 20, 10, 8, 42, 2) for a in (0.0, 0.5)]


def _sweep_comp(seed: int) -> list[list[str]]:
    return [["sweep", "--m", "2", "--n", "2", "--trials", "5", "--seed", "5"]]


def _sim(seed: int) -> list[list[str]]:
    return [["sim", "--study", s, "--pairs", "200", "--seed", "11"] for s in "ABC"]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[list[str]]]

    def commands(self, seed: int) -> list[list[str]]:
        """The commands of one pass, in the order the seed picks."""
        cmds = self.build(seed)
        random.Random(seed).shuffle(cmds)
        return cmds


WORKLOADS = {w.name: w for w in (
    Workload("poa_paper", _poa_paper),
    Workload("poa_scarce", _poa_scarce),
    Workload("sweep_comp", _sweep_comp),
    Workload("sim", _sim),
)}


def option(cmd: list[str], flag: str, default: str | None = None) -> str | None:
    """Value of ``flag`` in a command; every option takes exactly one value."""
    opts = dict(zip(cmd[1::2], cmd[2::2]))
    return opts.get(flag, default)


def resized(cmd: list[str], size: int) -> list[str]:
    """The command with its trial or pair count capped at ``size``."""
    out = list(cmd)
    for k in range(1, len(out) - 1, 2):
        if out[k] in SIZE_FLAGS:
            out[k + 1] = str(min(int(out[k + 1]), size))
    return out


def warmup_commands(cmds: list[list[str]]) -> list[list[str]]:
    """One tiny run per distinct model the workload's solver commands use.

    It fills the per-model peak and concavity caches and imports every code
    path, so the timed passes and the count checks see warm caches.
    """
    out, seen = [], set()
    for cmd in cmds:
        if cmd[0] == "bound":
            continue
        key = (cmd[0], option(cmd, "--alpha"), option(cmd, "--study"))
        if key in seen:
            continue
        seen.add(key)
        small = resized(cmd, 1)
        if cmd[0] != "sim":
            small = _with(small, "--m", "2")
            small = _with(small, "--n", "2")
            small = _with(small, "--threads", "1")
        out.append(small)
    return out


def _with(cmd: list[str], flag: str, value: str) -> list[str]:
    out = list(cmd)
    for k in range(1, len(out) - 1, 2):
        if out[k] == flag:
            out[k + 1] = value
            return out
    return out + [flag, value]
