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
below the outside option), assignment (one ``assign_round`` call, or one
random matching, for the players without a slot over the open slots, with
slots a player left by re-matching zeroed), payoff and action (noisy payoff,
then Continue or Rematch), and, in the Selfish arm, learning (``q_update``
from this round's switch rates). Per-player state lives in Python lists of
bools, ints and floats, and means come from running float sums, so the loop
makes numpy calls only to draw random numbers, to build the assignment
sub-matrix, and to update and snapshot the learned return model. The player
and arm seed sequences are hashed once per game and shared by the three arms.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import returns
from .fair import max_weight_assignment, solve_fair
from .market import make_instance
from .returns import GRID_NODES, ReturnModel
from .selfish import MONOPOLY, solve_selfish_integral

STUDY_BETA = {"A": (1.0, 2.0), "B": (2.0, 2.0), "C": (2.0, 1.0)}
PAYOFF_BINS = 10  # 2-cent bins on [0, payoff_scale]


class ExperimentError(ValueError):
    pass


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
        for name in ("outside_per_round", "payoff_scale", "noise_sd", "alpha_learn"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise ExperimentError(f"{name} must be a finite number, got {value!r}")
        if self.seed < 0:
            raise ExperimentError("seed must be non-negative")
        if self.payoff_scale <= 0.0:
            raise ExperimentError("payoff_scale must be positive")
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


@dataclass(frozen=True)
class RoundRecord:
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
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, game_index, 0))
    )
    a, b = STUDY_BETA[config.study]
    w_slots = rng.beta(a, b, size=config.slots) * config.payoff_scale
    eps_players = rng.normal(0.0, config.noise_sd,
                             size=config.players_per_condition)
    mean_payoffs = eps_players[:, None] + w_slots[None, :]
    return w_slots, eps_players, mean_payoffs


def prior_q() -> ReturnModel:
    nodes = np.linspace(0.0, 1.0, GRID_NODES)
    return returns.grid(nodes * (1.0 - nodes))


def bins_to_grid(bin_fractions: np.ndarray) -> np.ndarray:
    """Spread 2-cent-bin switch fractions onto the 21 grid nodes (NaN kept)."""
    if bin_fractions.shape != (PAYOFF_BINS,):
        raise ExperimentError(f"expected {PAYOFF_BINS} payoff bins")
    nodes = np.arange(GRID_NODES)
    return bin_fractions[np.minimum(nodes // 2, PAYOFF_BINS - 1)]


def q_update(q_round: ReturnModel, f_round: np.ndarray,
             alpha_learn: float) -> ReturnModel:
    """Convex mix of the prior grid with observed switch fractions.

    ``f_round`` holds one value per grid node; NaN marks unobserved nodes,
    which keep their prior value. Endpoints are re-pinned to 0 by the grid
    constructor.
    """
    if q_round.kind != "grid":
        raise ExperimentError("q_update needs a grid model")
    f_round = np.asarray(f_round, dtype=float)
    if f_round.shape != (GRID_NODES,):
        raise ExperimentError("misaligned grids")
    if not (0.0 <= alpha_learn <= 1.0):
        raise ExperimentError("alpha_learn must lie in [0, 1]")
    old = np.asarray(q_round.values)
    observed = np.isfinite(f_round)
    new = old.copy()
    new[observed] = alpha_learn * old[observed] \
        + (1.0 - alpha_learn) * np.clip(f_round[observed], 0.0, 1.0)
    return returns.grid(new)


def assign_round(condition: str, weights: np.ndarray, learned_q: ReturnModel,
                 selfish_objective: str = "stationary") -> np.ndarray:
    """Integral assignment of requesting players (rows) to open slots (cols).

    ``weights`` are normalized mean payoffs in [0, 1]; disallowed pairs must
    already be zeroed (zero-value edges are never matched). Returns the
    chosen column per row, -1 for unassigned.
    """
    if weights.size == 0:
        return np.full(weights.shape[0], -1, dtype=int)
    inst = make_instance(weights)
    if condition == "Fair":
        return solve_fair(inst).assignment.row_match.copy()
    if condition == "Selfish":
        if selfish_objective == "raw-q":
            return max_weight_assignment(
                returns.eval_q(learned_q, weights)).row_match.copy()
        x = solve_selfish_integral(inst, [learned_q] * inst.m, MONOPOLY).matching.x
        return np.where(x.max(axis=1) > 0.0, x.argmax(axis=1), -1)
    raise ExperimentError(f"unknown condition {condition!r}")


def agent_step(matched: bool, payoff_cents: float, round_index: int,
               behavior: BehaviorModel, rng: np.random.Generator) -> str:
    """Action of a player who stayed past this round's drop decision."""
    if not matched:
        return "Wait"
    if rng.random() < behavior.switch_prob(payoff_cents, round_index):
        return "Rematch"
    return "Continue"


def _run_arm(condition: str, config: StudyConfig, behavior: BehaviorModel,
             mean_payoffs: np.ndarray, player_seeds: list[np.random.SeedSequence],
             arm_seed: np.random.SeedSequence,
             q0: ReturnModel | None = None) -> ArmLog:
    n, m, R = config.players_per_condition, config.slots, config.rounds
    outside = config.outside_per_round
    # agent/noise streams are keyed identically for every arm so that the
    # conditions face the same randomness where consumption aligns
    player_rng = [np.random.default_rng(seed) for seed in player_seeds]
    arm_rng = np.random.default_rng(arm_seed)
    norm = np.clip(mean_payoffs / config.payoff_scale, 0.0, 1.0)
    means = mean_payoffs.tolist()
    q = q0 if q0 is not None else prior_q()
    log = ArmLog(condition=condition)
    active = [True] * n
    slot_of = [-1] * n
    forbidden = [set() for _ in range(n)]
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
            mean = totals[i] / plays[i] if plays[i] else None
            if player_rng[i].random() < behavior.drop_prob(mean, outside):
                active[i] = False
                slot_of[i] = -1
                totals[i] += outside * (R - r + 1)
                drops += 1
                log.records.append(RoundRecord(condition, r, i, -1, 0.0, "Exit"))
        log.drop_count_per_round.append(drops)

        # assignment phase
        held = set(slot_of)
        open_slots = [j for j in range(m) if j not in held]
        requesters = [i for i in range(n) if active[i] and slot_of[i] < 0]
        if requesters and open_slots:
            sub = norm.take(requesters, axis=0).take(open_slots, axis=1)
            for a, i in enumerate(requesters):
                for b, j in enumerate(open_slots):
                    if j in forbidden[i]:
                        sub[a, b] = 0.0
            if condition == "Random":
                match = _random_assign(sub, arm_rng)
            else:
                match = assign_round(condition, sub, q, config.selfish_objective)
            for i, b in zip(requesters, match.tolist()):
                if b >= 0:
                    slot_of[i] = open_slots[b]

        # payoff + action phase
        switch_obs: list[tuple[float, bool]] = []
        round_total = 0.0
        rematches = matched = 0
        for i in range(n):
            if not active[i]:
                continue
            j = slot_of[i]
            if j < 0:
                log.records.append(RoundRecord(condition, r, i, -1, 0.0, "Wait"))
                continue
            p = max(0.0, player_rng[i].normal(means[i][j], config.noise_sd))
            totals[i] += p
            plays[i] += 1
            log.matched_payoffs.append(p)
            round_total += p
            matched += 1
            action = agent_step(True, p, r, behavior, player_rng[i])
            if action == "Rematch":
                rematches += 1
                forbidden[i].add(j)
                slot_of[i] = -1
            switch_obs.append((p, action == "Rematch"))
            log.records.append(RoundRecord(condition, r, i, j, p, action))
        log.engagement_per_round.append(rematches / matched if matched else 0.0)
        log.mean_payoff_per_round.append(round_total / matched if matched else 0.0)

        # learning phase (Selfish condition only)
        if condition == "Selfish" and switch_obs:
            counts = [0] * PAYOFF_BINS
            hits = [0] * PAYOFF_BINS
            width = config.payoff_scale / PAYOFF_BINS
            for p, switched in switch_obs:
                b = min(int(min(p, config.payoff_scale) / width), PAYOFF_BINS - 1)
                counts[b] += 1
                hits[b] += switched
            bins = np.array([h / c if c else np.nan for h, c in zip(hits, counts)])
            q = q_update(q, bins_to_grid(bins), config.alpha_learn)
        log.q_snapshots.append(np.asarray(q.values).copy())

    log.totals = np.array(totals)
    return log


def _random_assign(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform random matching among positive-weight open slots."""
    k, l = weights.shape
    match = np.full(k, -1, dtype=int)
    free = list(range(l))
    for a in rng.permutation(k):
        allowed = [b for b in free if weights[a, b] > 0.0]
        if allowed:
            b = allowed[int(rng.integers(len(allowed)))]
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
    # default_rng of one SeedSequence repeats its stream, so every arm gets
    # the same streams from seeds hashed once per game
    player_seeds = [np.random.SeedSequence((config.seed, game_index, 2, i))
                    for i in range(n)]
    arm_seed = np.random.SeedSequence((config.seed, game_index, 3))
    arms = {
        name: _run_arm(name, config, behavior, mean_payoffs, player_seeds, arm_seed,
                       q0=selfish_q0 if name == "Selfish" else None)
        for name in ("Fair", "Selfish", "Random")
    }
    fair, selfish = arms["Fair"], arms["Selfish"]
    metrics = {
        "fair_mean_total": fair.welfare / n,
        "selfish_mean_total": selfish.welfare / n,
        "random_mean_total": arms["Random"].welfare / n,
        "fair_engagement": fair.engagement_rate,
        "selfish_engagement": selfish.engagement_rate,
        "fair_drop_rate": fair.drop_rate,
        "selfish_drop_rate": selfish.drop_rate,
        "poa_pair": selfish.welfare / fair.welfare if fair.welfare > 0 else float("nan"),
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
