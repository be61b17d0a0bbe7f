"""Round-based slot-machine market with synthetic behavioral agents.

Three players per condition play ten rounds against thirteen slots. A central
matcher assigns requesting players to open slots, either maximizing total
mean payoff (Fair) or maximizing the stationary return probability under a
return model learned online from observed switching (Selfish). Agents react
to realized payoffs by continuing, requesting a re-match, or exiting to a
risk-free outside payment. A random-assignment arm on the same market serves
as the universal baseline for payoff histograms.

Each round of an arm (``_run_arm``) has four phases: drop (each active
player exits with a probability that rises when their running mean payoff is
below the outside option), assignment (one call of the assignment kernel,
or one random matching, for the players without a slot over the open slots,
with slots a player left by re-matching zeroed), payoff and action (noisy
payoff, then Continue or Rematch), and, in the Selfish arm, learning
(``q_update``'s mix from this round's switch rates). ``assign_round``
checks its weights and calls ``_assign``, the unchecked kernel that the arm
calls directly, since its rows come from clipped payoffs and pass the checks
by construction. The kernel is one ``fair.best_matching`` call on the
per-edge matrix of its objective (mean payoffs, pi of the learned model, or
its raw q), with no market instance, matching object or certificate built
around it; ``best_matching`` returns the matching as a list, and its one-row
case, most of a pass's assignments, is one ``min``. Per-player state lives
in Python lists of bools, ints and floats, and means come from running float
sums. An arm reads its config and behavior fields and the players' bound
``random`` and ``standard_normal`` methods once, takes a payoff as
``mean + noise_sd * standard_normal()``, which is numpy's ``normal``
bit for bit, and takes ``BehaviorModel.switch_prob`` and ``drop_prob``
inline with the same operations. It builds each ``RoundRecord`` with
``tuple.__new__``, the call the tuple's generated constructor makes. Each
arm keeps its own copy of the normalized payoff rows and zeroes in it the
slot a player leaves by re-matching, so the assignment sub-matrix is one
list comprehension of reads from those rows; the Fair arm hands it to
``best_matching`` as it is, and the Selfish arm builds one array for
``np.interp`` and the pi kernel. The Selfish arm keeps its learned model as
node values only, with no ``ReturnModel`` built per round: a list of 21
Python floats that ``_learn`` mixes, with ``q_update``'s expression, at the
nodes of the payoff bins it observed (at most two per player), and one
read-only array of them per learning round that is both the round's
snapshot and the interpolation input. ``_learn`` keeps every node in
[0, 1] and the endpoints at 0, so the array holds the bytes the grid
constructor would. The loop calls numpy only to draw random numbers, in
the Selfish arm's assignment, and to build those arrays. A payoff sum that
overflows a float, in an arm or over a batch, raises ``ExperimentError``.

``run_study`` builds what the three arms of a game share once: the mean and
normalized payoff rows as lists, the player and Random-arm generators, and
a record of each player's stream. Every generator comes from
``market.keyed_rng``: the market's from the key ``(seed, game, 0)``, player
i's from ``(seed, game, 2, i)`` and the Random arm's from ``(seed, game, 3)``.
The arms share the player streams as common random numbers, each value drawn
once a game: player i's record holds every value its generator has yielded,
with its kind (uniform or normal), and the generator stands at its end. Each
arm reads the record with its own cursor, inline at its three draw sites
(drop, payoff, switch); the first arm to reach a position draws it and
extends the record. An arm whose draw k differs in kind from the record's,
as when a player Waits in one arm but not in another, takes that draw and
the player's later ones from a fresh generator of the player's key that has
replayed the record's first k kinds (``_fork``), so every arm sees the
stream a freshly seeded generator would give. Only the Random arm draws
from its own generator. Its matching skips the permutation of a single
requester and the draw among a single allowed slot, which take nothing
from the stream. ``run_batch`` carries the learned model from game to game
through the grid constructor, one check per game.
``prior_q`` returns one shared module-level model.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fair, returns
from .market import MarketError, keyed_rng
from .returns import GRID_NODES, ReturnModel

STUDY_BETA = {"A": (1.0, 2.0), "B": (2.0, 2.0), "C": (2.0, 1.0)}
PAYOFF_BINS = 10  # 2-cent bins on [0, payoff_scale]


class ExperimentError(ValueError):
    pass


def _check_finite(obj, names) -> None:
    """Each named field of ``obj`` must be a finite real number, not a bool."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not math.isfinite(value):
            raise ExperimentError(f"{name} must be a finite number, got {value!r}")


def _check_payoff_sum(total: float) -> None:
    """A sum of payoffs that overflows a float makes every mean and ratio
    built on it meaningless; the sums are nonnegative, so every partial sum
    of a finite one is finite too."""
    if not math.isfinite(total):
        raise ExperimentError(
            "payoff sums overflow a float; lower payoff_scale, noise_sd or outside_per_round")


@dataclass(frozen=True)
class StudyConfig:
    study: str = "B"
    players_per_condition: int = 3
    slots: int = 13
    rounds: int = 10
    outside_per_round: float = 6.0
    payoff_scale: float = 20.0
    noise_sd: float = math.sqrt(3.0)
    alpha_learn: float = 0.7
    seed: int = 0
    selfish_objective: str = "stationary"  # "stationary" | "raw-q"

    def __post_init__(self):
        if self.study not in STUDY_BETA:
            raise ExperimentError(f"unknown study {self.study!r}")
        for name in ("players_per_condition", "slots", "rounds", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ExperimentError(f"{name} must be an integer, got {value!r}")
        _check_finite(self, ("outside_per_round", "payoff_scale", "noise_sd", "alpha_learn"))
        if self.seed < 0:
            raise ExperimentError("seed must be non-negative")
        # the learning step divides payoffs by the bin width, which must not
        # underflow to 0 (it does for subnormal scales up to 2.5e-323)
        if not self.payoff_scale / PAYOFF_BINS > 0.0:
            raise ExperimentError("payoff_scale must be positive, with a positive bin width")
        if self.noise_sd < 0.0:
            raise ExperimentError("noise_sd must be non-negative")
        if self.outside_per_round < 0.0:
            raise ExperimentError("outside_per_round must be non-negative")
        if self.players_per_condition < 1:
            raise ExperimentError("need at least one player per condition")
        if self.slots < self.players_per_condition:
            raise ExperimentError("need at least as many slots as players")
        if self.rounds < 1:
            raise ExperimentError("rounds must be at least 1")
        if not (0.0 <= self.alpha_learn <= 1.0):
            raise ExperimentError("alpha_learn must lie in [0, 1]")
        if self.selfish_objective not in ("stationary", "raw-q"):
            raise ExperimentError("selfish_objective must be 'stationary' or 'raw-q'")


@dataclass(frozen=True)
class BehaviorModel:
    """Synthetic stand-in for human switching/dropping behavior.

    Switching probability decreases linearly in the realized payoff and is
    damped geometrically in later rounds; the drop probability rises when the
    running mean payoff falls below the outside option.
    """

    switch_hi: float = 0.9
    switch_slope: float = 0.04
    switch_lo: float = 0.05
    risk_decay: float = 0.93
    drop_base: float = 0.02
    drop_low_bonus: float = 0.10

    def __post_init__(self):
        _check_finite(self, ("switch_hi", "switch_slope", "switch_lo", "risk_decay",
                             "drop_base", "drop_low_bonus"))
        if self.switch_slope < 0.0:
            raise ExperimentError("switch_slope must be non-negative")
        if not (0.0 <= self.switch_lo <= self.switch_hi <= 1.0):
            raise ExperimentError("need 0 <= switch_lo <= switch_hi <= 1")
        if not (0.0 < self.risk_decay <= 1.0):
            raise ExperimentError("risk_decay must lie in (0, 1]")
        if self.drop_base < 0.0 or self.drop_low_bonus < 0.0 \
                or self.drop_base + self.drop_low_bonus > 1.0:
            raise ExperimentError("drop probabilities must stay in [0, 1]")

    def switch_prob(self, payoff_cents: float, round_index: int) -> float:
        base = min(max(self.switch_hi - self.switch_slope * payoff_cents,
                       self.switch_lo), self.switch_hi)
        return base * self.risk_decay ** round_index

    def drop_prob(self, running_mean: float | None, outside: float) -> float:
        low = running_mean is not None and running_mean < outside
        return self.drop_base + (self.drop_low_bonus if low else 0.0)


class RoundRecord(NamedTuple):
    condition: str
    round: int  # 1-based
    player: int
    slot: int  # -1 when unassigned
    payoff: float  # realized cents for this round (0 when unassigned)
    action: str  # Continue | Rematch | Exit | Wait


@dataclass
class ArmLog:
    condition: str
    records: list[RoundRecord] = field(default_factory=list)
    engagement_per_round: list[float] = field(default_factory=list)
    drop_count_per_round: list[int] = field(default_factory=list)
    mean_payoff_per_round: list[float] = field(default_factory=list)
    q_snapshots: list[np.ndarray] = field(default_factory=list)
    totals: np.ndarray | None = None  # cents per player incl. outside payments
    matched_payoffs: list[float] = field(default_factory=list)

    @property
    def welfare(self) -> float:
        return float(self.totals.sum())

    @property
    def engagement_rate(self) -> float:
        rematch = sum(1 for r in self.records if r.action == "Rematch")
        matched = sum(1 for r in self.records if r.slot >= 0)
        return rematch / matched if matched else 0.0

    @property
    def drop_rate(self) -> float:
        players = len(self.totals)
        return sum(self.drop_count_per_round) / players


@dataclass
class StudyResult:
    config: StudyConfig
    w_slots: np.ndarray
    eps_players: np.ndarray
    arms: dict[str, ArmLog]
    metrics: dict[str, float]


def generate_market(config: StudyConfig, game_index: int = 0):
    """Slot means, player offsets, and mean payoffs shared by all conditions."""
    rng = keyed_rng(config.seed, game_index, 0)
    a, b = STUDY_BETA[config.study]
    w_slots = rng.beta(a, b, size=config.slots) * config.payoff_scale
    eps_players = rng.normal(0.0, config.noise_sd,
                             size=config.players_per_condition)
    mean_payoffs = eps_players[:, None] + w_slots[None, :]
    return w_slots, eps_players, mean_payoffs


_NODES = np.linspace(0.0, 1.0, GRID_NODES)
_PRIOR = returns.grid(_NODES * (1.0 - _NODES))
# the payoff bin each grid node reads: nodes 2b and 2b + 1 read bin b
_NODE_BIN = [min(k // 2, PAYOFF_BINS - 1) for k in range(GRID_NODES)]
# the interior nodes that read each bin, at most two; the grid constructor
# pins the endpoints to 0 whatever they read
_BIN_NODES = [[k for k in range(1, GRID_NODES - 1) if _NODE_BIN[k] == b]
              for b in range(PAYOFF_BINS)]


def prior_q() -> ReturnModel:
    """The prior return model q(u) = u (1 - u) on the grid: one shared,
    immutable model (its values are read-only)."""
    return _PRIOR


def bins_to_grid(bin_fractions) -> list:
    """Spread 2-cent-bin switch fractions onto the 21 grid nodes (NaN kept).

    Takes a sequence of ``PAYOFF_BINS`` values and returns a list of
    ``GRID_NODES``; node k reads bin min(k // 2, PAYOFF_BINS - 1).
    """
    if len(bin_fractions) != PAYOFF_BINS:
        raise ExperimentError(f"expected {PAYOFF_BINS} payoff bins")
    return [bin_fractions[b] for b in _NODE_BIN]


def _mix(old: float, f: float, alpha_learn: float, keep: float) -> float:
    """One node of the learning step, with keep = 1 - alpha_learn:
    alpha * old + (1 - alpha) * clip(f, 0, 1) on Python floats, the same IEEE
    operations in the same order as on numpy arrays; ``min(max(f, 0.0), 1.0)``
    is ``np.clip`` for finite f, signed zeros included."""
    return alpha_learn * old + keep * min(max(f, 0.0), 1.0)


def q_update(q_round: ReturnModel, f_round, alpha_learn: float) -> ReturnModel:
    """Convex mix of the prior grid with observed switch fractions.

    ``f_round`` holds one value per grid node; NaN (any non-finite value)
    marks unobserved nodes, which keep their prior value. Endpoints are
    re-pinned to 0 by the grid constructor. Each observed node takes
    ``_mix``, which ``_learn`` applies to the nodes of the observed bins
    alone.
    """
    if q_round.kind != "grid":
        raise ExperimentError("q_update needs a grid model")
    f_round = np.asarray(f_round, dtype=float)
    if f_round.shape != (GRID_NODES,):
        raise ExperimentError("misaligned grids")
    if not (0.0 <= alpha_learn <= 1.0):
        raise ExperimentError("alpha_learn must lie in [0, 1]")
    keep = 1.0 - alpha_learn
    return returns.grid([
        _mix(old, f, alpha_learn, keep) if math.isfinite(f) else old
        for old, f in zip(q_round.values.tolist(), f_round.tolist())
    ])


def _learn(values: list, switch_obs, payoff_scale: float, alpha_learn: float) -> None:
    """The Selfish arm's learning step on its model's node values, in place.

    ``switch_obs`` holds one (payoff, switched) pair per matched player. Each
    payoff falls in one of ``PAYOFF_BINS`` bins on [0, payoff_scale]; each
    interior node of an observed bin takes ``_mix`` with the bin's switch
    fraction, and every other node keeps its value. That is ``q_update`` on
    the ``bins_to_grid`` vector with NaN for the unobserved bins, bit for bit,
    once the grid constructor has pinned the endpoints.

    Node values in [0, 1] with endpoints 0 stay so, which is why the arm
    needs no grid check per round. The endpoints are never touched. For an
    interior node, with a = alpha_learn in [0, 1], k = fl(1 - a), f clipped
    to [0, 1] and old in [0, 1]: rounding is monotone and a and k are
    floats, so fl(a * old) <= a and fl(k * f) <= k, and the mix
    fl(fl(a * old) + fl(k * f)) is at most fl(a + k). For a >= 1/2, 1 - a
    is exact (Sterbenz), so a + k = 1. For a < 1/2, k lies in [1/2, 1] and
    is off 1 - a by at most 2^-54, half an ulp there, so a + k lies within
    2^-54 of 1; above 1 that is less than half an ulp, so fl(a + k) <= 1.
    Every term is nonnegative, so the mix lies in [0, 1].
    """
    keep = 1.0 - alpha_learn
    width = payoff_scale / PAYOFF_BINS
    counts = [0] * PAYOFF_BINS
    hits = [0] * PAYOFF_BINS
    for p, switched in switch_obs:
        b = min(int(min(p, payoff_scale) / width), PAYOFF_BINS - 1)
        counts[b] += 1
        hits[b] += switched
    for b, c in enumerate(counts):
        if c:
            f = hits[b] / c
            for k in _BIN_NODES[b]:
                values[k] = _mix(values[k], f, alpha_learn, keep)


def _assign(condition: str, rows: list, values, selfish_objective: str) -> list:
    """The unchecked assignment kernel: the chosen column per row as a list,
    -1 for unassigned, from one ``fair.best_matching`` call on the per-edge
    matrix of the condition's objective.

    ``rows`` is a non-empty list of equal-length lists of weights in [0, 1]
    and ``values`` the grid model's node values, an array. The Fair objective
    is the rows as they are; the Selfish one builds one array for
    ``returns._grid_q`` and the pi kernel.
    """
    if condition == "Fair":
        g = rows
    elif condition == "Selfish":
        w = np.array(rows, dtype=float)
        g = returns._grid_q(values, w)
        if selfish_objective != "raw-q":
            g = returns._pi(g, w, None)
    else:
        raise ExperimentError(f"unknown condition {condition!r}")
    # looked up on the module, so a wrapper installed on fair sees the call
    return fair.best_matching(g)[0]


def assign_round(condition: str, weights, learned_q: ReturnModel,
                 selfish_objective: str = "stationary") -> np.ndarray:
    """Integral assignment of requesting players (rows) to open slots (cols).

    ``weights`` (an array, or a list of rows) are normalized mean payoffs in
    [0, 1]; disallowed pairs must already be zeroed (zero-value edges are
    never matched). ``learned_q`` is a grid model, read by the Selfish
    objective only. Returns the chosen column per row as an integer array,
    -1 for unassigned. Each objective is one ``best_matching`` call on its
    per-edge matrix, the same matching that ``solve_fair`` and
    ``max_weight_assignment`` return, without their duals, instances or
    matching objects. The weights are checked as Python lists here; the
    matching comes from ``_assign``, the kernel that ``_run_arm`` calls on
    rows that pass these checks by construction.
    """
    rows = weights if isinstance(weights, list) else np.asarray(weights, dtype=float).tolist()
    n = len(rows[0]) if rows else 0
    if not n:
        return np.full(len(rows), -1, dtype=int)
    for row in rows:
        if len(row) != n:
            raise MarketError("weight rows must have equal lengths")
        for x in row:
            if not 0.0 <= x <= 1.0:  # also rejects NaN
                raise MarketError("weights must be finite and lie in [0, 1]")
    if condition == "Selfish" and learned_q.kind != "grid":
        raise ExperimentError("the Selfish objective needs a grid model")
    return np.array(_assign(condition, rows, learned_q.values, selfish_objective))


class _Game(NamedTuple):
    """What the three arms of one game share, built once by ``run_study``."""

    means: list  # mean payoffs in cents, one list per player
    norm: list  # means / payoff_scale clipped to [0, 1], one list per player
    key: tuple  # (seed, game): player i's generator is keyed_rng(*key, 2, i)
    rngs: list  # one generator per player, at the end of its record
    drawn: list  # per player, the values its generator has yielded
    normal: list  # per player, each value's kind: True for a standard normal
    arm_rng: np.random.Generator  # the Random arm's generator


def _fork(game: _Game, i: int, k: int, want_normal: bool, drawn: list, normal: list,
          random: list, standard_normal: list) -> float:
    """Player i's draw k, of the other kind than the record's, from a fresh
    generator of the player's key replayed through the record's first k
    kinds. The arm's entries for player i become that generator's methods
    and private copies of the record up to this draw, so the arm extends
    them for the rest of its draws."""
    rng = keyed_rng(*game.key, 2, i)
    kinds = normal[i][:k]
    for was_normal in kinds:
        if was_normal:
            rng.standard_normal()
        else:
            rng.random()
    random[i], standard_normal[i] = rng.random, rng.standard_normal
    x = rng.standard_normal() if want_normal else rng.random()
    drawn[i] = drawn[i][:k] + [x]
    normal[i] = kinds + [want_normal]
    return x


def _run_arm(condition: str, config: StudyConfig, behavior: BehaviorModel,
             game: _Game, q0: ReturnModel | None = None) -> ArmLog:
    """One arm of a game, reading player i's stream from its record in
    ``game`` at the arm's cursor ``pos[i]``."""
    n, m, R = config.players_per_condition, config.slots, config.rounds
    outside, noise_sd = config.outside_per_round, float(config.noise_sd)
    objective, scale = config.selfish_objective, config.payoff_scale
    alpha_learn = config.alpha_learn
    learning = condition == "Selfish"
    # BehaviorModel.switch_prob and drop_prob, read once per arm: the same
    # operations in the same order, so the same bits
    hi, slope, lo = behavior.switch_hi, behavior.switch_slope, behavior.switch_lo
    risk_decay = behavior.risk_decay
    drop_low = behavior.drop_base + behavior.drop_low_bonus  # mean below outside
    drop_other = behavior.drop_base + 0.0
    # the arm's views of the records and generators, which _fork may
    # replace for one player
    drawn, normal = list(game.drawn), list(game.normal)
    random = [rng.random for rng in game.rngs]
    # numpy's normal(loc, scale) is loc + scale * standard_normal(), the
    # same bits from the same draw
    standard_normal = [rng.standard_normal for rng in game.rngs]
    pos = [0] * n
    means, norm = game.means, game.norm
    # the model is its node values: ``values`` is mixed in place, and
    # ``snap`` is a read-only array of them, rebuilt after each learning
    # step, that is both the round's snapshot and the interpolation input
    snap = (q0 if q0 is not None else prior_q()).values
    values = snap.tolist()
    log = ArmLog(condition=condition)
    records = log.records
    # the call RoundRecord's generated __new__ makes, without its argument
    # binding: new(RoundRecord, fields) is RoundRecord(*fields)
    new = tuple.__new__
    matched_payoffs = log.matched_payoffs
    snapshots = log.q_snapshots
    active = [True] * n
    slot_of = [-1] * n
    # each player's normalized payoffs with the slots they left by re-matching
    # zeroed: a copy per arm, so the rows of the round's sub-matrix are reads
    avail = [row[:] for row in norm]
    # totals[i] is player i's payoff sum, added in play order, until the exit
    # adds the outside payments; plays[i] counts the payoffs in it
    totals = [0.0] * n
    plays = [0] * n

    for r in range(1, R + 1):
        # drop phase: decide before playing the round
        drops = 0
        for i in range(n):
            if not active[i]:
                continue
            low = plays[i] and totals[i] / plays[i] < outside
            # each draw site reads, extends or forks player i's record
            k = pos[i]
            pos[i] = k + 1
            rec = drawn[i]
            if k == len(rec):
                u = random[i]()
                rec.append(u)
                normal[i].append(False)
            elif normal[i][k]:
                u = _fork(game, i, k, False, drawn, normal, random, standard_normal)
            else:
                u = rec[k]
            if u < (drop_low if low else drop_other):
                active[i] = False
                slot_of[i] = -1
                totals[i] += outside * (R - r + 1)
                drops += 1
                records.append(new(RoundRecord, (condition, r, i, -1, 0.0, "Exit")))
        log.drop_count_per_round.append(drops)

        # assignment phase
        requesters = [i for i in range(n) if active[i] and slot_of[i] < 0]
        if requesters:
            held = set(slot_of)
            open_slots = [j for j in range(m) if j not in held]
            if open_slots:
                rows = [avail[i] for i in requesters]
                sub = [[row[j] for j in open_slots] for row in rows]
                # avail's rows are norm's, clipped to [0, 1], with zeros, so
                # they pass assign_round's checks and its kernel serves
                if condition == "Random":
                    match = _random_assign(sub, game.arm_rng)
                else:
                    match = _assign(condition, sub, snap, objective)
                for i, b in zip(requesters, match):
                    if b >= 0:
                        slot_of[i] = open_slots[b]

        # payoff + action phase
        decay = risk_decay ** r
        switch_obs: list[tuple[float, bool]] = []
        round_total = 0.0
        rematches = matched = 0
        for i in range(n):
            if not active[i]:
                continue
            j = slot_of[i]
            if j < 0:
                records.append(new(RoundRecord, (condition, r, i, -1, 0.0, "Wait")))
                continue
            k = pos[i]
            pos[i] = k + 2
            rec = drawn[i]
            if k == len(rec):
                z = standard_normal[i]()
                rec.append(z)
                normal[i].append(True)
            elif normal[i][k]:
                z = rec[k]
            else:
                z = _fork(game, i, k, True, drawn, normal, random, standard_normal)
                rec = drawn[i]
            p = max(0.0, means[i][j] + noise_sd * z)
            totals[i] += p
            plays[i] += 1
            matched_payoffs.append(p)
            round_total += p
            matched += 1
            k += 1
            if k == len(rec):
                u = random[i]()
                rec.append(u)
                normal[i].append(False)
            elif normal[i][k]:
                u = _fork(game, i, k, False, drawn, normal, random, standard_normal)
            else:
                u = rec[k]
            switched = u < min(max(hi - slope * p, lo), hi) * decay
            if switched:
                rematches += 1
                avail[i][j] = 0.0
                slot_of[i] = -1
            switch_obs.append((p, switched))
            records.append(new(RoundRecord, (condition, r, i, j, p,
                                             "Rematch" if switched else "Continue")))
        log.engagement_per_round.append(rematches / matched if matched else 0.0)
        log.mean_payoff_per_round.append(round_total / matched if matched else 0.0)

        # learning phase (Selfish condition only)
        if learning and switch_obs:
            # _learn keeps the nodes in [0, 1] and the endpoints at 0, so the
            # array holds the bytes returns.grid would
            _learn(values, switch_obs, scale, alpha_learn)
            snap = np.array(values)
            snap.flags.writeable = False
        snapshots.append(snap)

    _check_payoff_sum(sum(totals))
    log.totals = np.array(totals)
    return log


def _random_assign(weights: list, rng: np.random.Generator) -> list[int]:
    """Uniform random matching among positive-weight open slots.

    ``weights`` holds one list of floats per row; returns the chosen column
    per row, -1 for unassigned. Rows take their turns in the order of
    ``rng.permutation``, and each takes ``rng.integers`` over its allowed
    slots. Neither draws on one item (``permutation(1)`` is ``[0]`` and
    ``integers(1)`` is 0, the generator state unchanged), so those calls
    are skipped: the same matching from the same stream.
    """
    k = len(weights)
    match = [-1] * k
    free = list(range(len(weights[0])))
    for a in rng.permutation(k).tolist() if k > 1 else range(k):
        row = weights[a]
        allowed = [b for b in free if row[b] > 0.0]
        if allowed:
            b = allowed[int(rng.integers(len(allowed)))] if len(allowed) > 1 else allowed[0]
            match[a] = b
            free.remove(b)
    return match


def run_study(config: StudyConfig, behavior: BehaviorModel | None = None,
              game_index: int = 0,
              selfish_q0: ReturnModel | None = None) -> StudyResult:
    """One paired game: Fair, Selfish, and Random arms on the same market.

    ``selfish_q0`` seeds the Selfish matcher's return model, letting a batch
    of games model a platform that keeps learning across sessions.
    """
    behavior = behavior or BehaviorModel()
    w_slots, eps_players, mean_payoffs = generate_market(config, game_index)
    n = config.players_per_condition
    game = _Game(
        means=mean_payoffs.tolist(),
        norm=np.clip(mean_payoffs / config.payoff_scale, 0.0, 1.0).tolist(),
        key=(config.seed, game_index),
        rngs=[keyed_rng(config.seed, game_index, 2, i) for i in range(n)],
        drawn=[[] for _ in range(n)],
        normal=[[] for _ in range(n)],
        arm_rng=keyed_rng(config.seed, game_index, 3),
    )
    # the arms share each player's stream through its record in ``game``:
    # every arm reads the values a freshly seeded generator gives, and each
    # is drawn once. Only the Random arm draws from arm_rng
    arms = {name: _run_arm(name, config, behavior, game,
                           q0=selfish_q0 if name == "Selfish" else None)
            for name in ("Fair", "Selfish", "Random")}
    fair_log, selfish = arms["Fair"], arms["Selfish"]
    metrics = {
        "fair_mean_total": fair_log.welfare / n,
        "selfish_mean_total": selfish.welfare / n,
        "random_mean_total": arms["Random"].welfare / n,
        "fair_engagement": fair_log.engagement_rate,
        "selfish_engagement": selfish.engagement_rate,
        "fair_drop_rate": fair_log.drop_rate,
        "selfish_drop_rate": selfish.drop_rate,
        "poa_pair": (selfish.welfare / fair_log.welfare if fair_log.welfare > 0
                     else float("nan")),
    }
    return StudyResult(config=config, w_slots=w_slots, eps_players=eps_players,
                       arms=arms, metrics=metrics)


def run_batch(config: StudyConfig, behavior: BehaviorModel | None = None,
              pairs: int = 200,
              carry_learning: bool = True) -> tuple[list[StudyResult], dict[str, float]]:
    """Paired games over independent markets plus aggregate metrics.

    With ``carry_learning`` the Selfish matcher keeps its learned return
    model across the games of the batch, modeling a platform that serves many
    player groups in sequence; disable it to reset learning every game.
    A batch in which no game has positive Fair welfare has no welfare ratio
    to aggregate and raises ``ExperimentError``.
    """
    if pairs < 1:
        raise ExperimentError("pairs must be at least 1")
    results = []
    q_carry: ReturnModel | None = None
    for g in range(pairs):
        res = run_study(config, behavior, g, selfish_q0=q_carry)
        results.append(res)
        if carry_learning:
            q_carry = returns.grid(res.arms["Selfish"].q_snapshots[-1])
    # the batch's payoff sum bounds every sum of payoffs or their means taken
    # over its games: the aggregates below and the CLI's per-round plots
    _check_payoff_sum(config.players_per_condition * sum(
        res.metrics[k] for res in results
        for k in ("fair_mean_total", "selfish_mean_total", "random_mean_total")))
    if not any(res.metrics["fair_mean_total"] > 0 for res in results):
        raise ExperimentError("all games degenerate: no game had positive Fair welfare")
    keys = results[0].metrics.keys()
    agg = {k: float(np.nanmean([res.metrics[k] for res in results])) for k in keys}
    agg["poa_min"] = float(np.nanmin([res.metrics["poa_pair"] for res in results]))
    agg["poa_max"] = float(np.nanmax([res.metrics["poa_pair"] for res in results]))
    return results, agg


def realized_payoff_histogram(result: StudyResult, bins: int = PAYOFF_BINS):
    """Binned matched-payoff distributions per arm; Random is the universal
    baseline of assigning players to slots at random on the same market."""
    scale = result.config.payoff_scale
    edges = np.linspace(0.0, scale, bins + 1)
    out = {}
    for name, log in result.arms.items():
        payoffs = np.asarray(log.matched_payoffs)
        counts, _ = np.histogram(np.clip(payoffs, 0.0, scale), bins=edges)
        mean = float(payoffs.mean()) if payoffs.size else 0.0
        out[name] = {"edges": edges, "counts": counts, "mean": mean}
    return out


def write_round_log_csv(result: StudyResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", "round", "player", "slot", "payoff", "action"])
        for name in ("Fair", "Selfish", "Random"):
            for rec in result.arms[name].records:
                writer.writerow([rec.condition, rec.round, rec.player, rec.slot,
                                 f"{rec.payoff:.9g}", rec.action])


def write_metrics_csv(agg: dict[str, float], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for key, value in agg.items():
            writer.writerow([key, f"{value:.9g}"])
