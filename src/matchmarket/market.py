"""Market instances, fractional matchings, seeded instance samplers, and
``keyed_rng``, the one place a seed key becomes a random generator."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEAS_TOL = 1e-9
_WORD = 1 << 32


class MarketError(ValueError):
    """Invalid market data (bad weights, dimension mismatch, bad sampler)."""


@dataclass(frozen=True)
class MarketInstance:
    """A two-sided market given by its m-by-n matrix of match qualities."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise MarketError("weight matrix must be a non-empty 2-D array")
        if not np.all(np.isfinite(w)):
            raise MarketError("weight matrix contains NaN or infinite entries")
        if w.min() < 0.0 or w.max() > 1.0:
            raise MarketError("weights must lie in [0, 1]")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]


def make_instance(w) -> MarketInstance:
    return MarketInstance(np.asarray(w, dtype=float))


@dataclass(frozen=True)
class FractionalMatching:
    """A doubly-substochastic assignment x together with the utilities it induces."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if x.min() < -1e-12:
            raise MarketError("assignment probabilities must be nonnegative")
        if x.sum(axis=1).max() > 1.0 + FEAS_TOL:
            raise MarketError("a row sum exceeds 1")
        if x.sum(axis=0).max() > 1.0 + FEAS_TOL:
            raise MarketError("a column sum exceeds 1")
        if u.min() < -FEAS_TOL or u.max() > 1.0 + FEAS_TOL:
            raise MarketError("utilities must lie in [0, 1]")
        x = x.copy()
        u = u.copy()
        x.flags.writeable = False
        u.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @classmethod
    def from_x(cls, inst: MarketInstance, x) -> "FractionalMatching":
        x = np.asarray(x, dtype=float)
        return cls(x=x, u=utilities(inst, x))


def utilities(inst: MarketInstance, x) -> np.ndarray:
    """Per-row utilities u_i = sum_j w_ij x_ij."""
    x = np.asarray(x, dtype=float)
    if x.shape != inst.w.shape:
        raise MarketError(
            f"assignment shape {x.shape} does not match instance {inst.w.shape}"
        )
    return (inst.w * x).sum(axis=1)


def keyed_rng(*key) -> np.random.Generator:
    """The generator of a key, ``default_rng(SeedSequence(key))`` state for state.

    Every generator of the package comes from here. ``SeedSequence`` turns a
    tuple key into 32-bit words part by part, in Python; a part that is an
    ``int`` in [0, 2**32) becomes one word, its value. So a key of such parts
    goes in as the ``uint32`` array of those words, which numpy takes as it
    is and mixes to the same state, in under half the time. Any other key
    (a larger or negative int, a numpy integer, a float) goes in as the
    tuple, with the same stream or the same ``ValueError`` or ``TypeError``.
    """
    for k in key:
        if type(k) is not int or not 0 <= k < _WORD:
            entropy = key
            break
    else:
        entropy = np.array(key, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class InstanceSampler:
    """Seeded sampler of random weight matrices.

    Identical (seed, trial, m, n) always reproduces the same instance: each
    draw uses a fresh generator keyed by ``(seed, trial)`` (``keyed_rng``),
    so parallel trials get independent reproducible streams.
    """

    distribution: str = "beta"  # "beta" | "uniform" | "explicit"
    a: float = 2.0
    b: float = 2.0
    seed: int = 0
    matrix: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.distribution not in ("beta", "uniform", "explicit"):
            raise MarketError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "beta" and not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise MarketError("Beta parameters must be positive and finite")
        if self.distribution == "explicit" and self.matrix is None:
            raise MarketError("explicit sampler needs a matrix")

    def rng(self, trial: int = 0) -> np.random.Generator:
        return keyed_rng(self.seed, trial)


def sample_instance(sampler: InstanceSampler, m: int, n: int, trial: int = 0) -> MarketInstance:
    if m < 1 or n < 1:
        raise MarketError("m and n must be at least 1")
    if sampler.distribution == "explicit":
        return make_instance(sampler.matrix)
    rng = sampler.rng(trial)
    if sampler.distribution == "beta":
        w = rng.beta(sampler.a, sampler.b, size=(m, n))
    else:
        w = rng.uniform(0.0, 1.0, size=(m, n))
    return MarketInstance(w)


def write_table(path, rows, header=None) -> None:
    """Write ``rows`` as CSV, after ``header`` if one is given: every float
    cell (numpy's float64 included) with 9 significant digits, any other
    cell as ``csv`` writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.9g}" if isinstance(v, float) else v for v in row])


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def write_instance(inst: MarketInstance, csv_path, source: str = "", seed: int | None = None):
    """Write an instance as a CSV matrix plus a JSON sidecar with metadata."""
    write_table(csv_path, inst.w)
    write_json(Path(csv_path).with_suffix(".json"),
               {"m": inst.m, "n": inst.n, "source": source, "seed": seed})


def read_instance(csv_path) -> MarketInstance:
    rows = []
    with open(csv_path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise MarketError(f"{csv_path}: line {lineno}: {exc}") from exc
    if not rows:
        raise MarketError(f"{csv_path}: empty instance file")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise MarketError(f"{csv_path}: line {lineno}: ragged row")
    return make_instance(rows)
