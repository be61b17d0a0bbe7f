import copy
import warnings

import numpy as np
import pytest
from helpers_oracles import (
    _random_assign_reference,
    run_study_arms_reference,
    solve_selfish_integral,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matchmarket import experiment
from matchmarket.experiment import (
    PAYOFF_BINS,
    STUDY_BETA,
    BehaviorModel,
    ExperimentError,
    StudyConfig,
    _learn,
    _random_assign,
    assign_round,
    bins_to_grid,
    generate_market,
    prior_q,
    q_update,
    realized_payoff_histogram,
    run_batch,
    run_study,
    write_metrics_csv,
    write_round_log_csv,
)
from matchmarket.fair import max_weight_assignment, solve_fair
from matchmarket.market import MarketError, make_instance
from matchmarket.returns import GRID_NODES, MONOPOLY, eval_q, grid, parametric


@st.composite
def learning_runs(draw):
    """(alpha_learn, payoff_scale, node values, rounds of (payoff, switched)
    observations) for the Selfish arm's learning step. In about half the
    runs every player switches in every round, which drives the observed
    nodes toward 1; payoffs cover [0, 1.5 payoff_scale] and any float >= 0."""
    alpha = draw(st.floats(0.0, 1.0))
    scale = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    # _learn divides by the bin width: StudyConfig rejects a scale whose
    # width underflows to 0
    assume(scale / PAYOFF_BINS > 0.0)
    start = draw(st.lists(st.floats(0.0, 1.0), min_size=GRID_NODES - 2,
                          max_size=GRID_NODES - 2))
    payoff = st.floats(0.0, 1.5).map(lambda x: x * scale) | st.floats(0.0)
    switched = st.just(True) if draw(st.booleans()) else st.booleans()
    rounds = draw(st.lists(st.lists(st.tuples(payoff, switched), min_size=1, max_size=5),
                           min_size=1, max_size=100))
    return alpha, scale, [0.0, *start, 0.0], rounds


class TestConfigs:
    def test_defaults_valid(self):
        cfg = StudyConfig()
        assert cfg.slots == 13
        assert cfg.rounds == 10

    def test_invalid_configs(self):
        with pytest.raises(ExperimentError):
            StudyConfig(study="D")
        with pytest.raises(ExperimentError):
            StudyConfig(players_per_condition=0)
        with pytest.raises(ExperimentError):
            StudyConfig(slots=2, players_per_condition=3)
        with pytest.raises(ExperimentError):
            StudyConfig(alpha_learn=1.5)
        with pytest.raises(ExperimentError):
            StudyConfig(selfish_objective="greedy")
        for bad in ({"rounds": True}, {"rounds": 0}, {"rounds": experiment.MAX_ROUNDS + 1},
                    {"slots": 13.0}, {"noise_sd": float("nan")},
                    {"payoff_scale": -20.0}, {"payoff_scale": 2e-323},
                    {"outside_per_round": float("inf")}):
            with pytest.raises(ExperimentError):
                StudyConfig(**bad)

    def test_numpy_scalars_accepted(self):
        cfg = StudyConfig(players_per_condition=np.int64(3), noise_sd=np.float64(0.0))
        assert cfg.players_per_condition == 3

    def test_invalid_behavior(self):
        with pytest.raises(ExperimentError):
            BehaviorModel(switch_lo=0.9, switch_hi=0.1)
        with pytest.raises(ExperimentError):
            BehaviorModel(risk_decay=0.0)
        with pytest.raises(ExperimentError):
            BehaviorModel(drop_base=0.5, drop_low_bonus=0.6)
        for bad in ({"switch_slope": "0.1"}, {"switch_slope": float("nan")},
                    {"switch_slope": -0.1}, {"switch_hi": True},
                    {"drop_base": float("nan")}, {"risk_decay": float("inf")}):
            with pytest.raises(ExperimentError):
                BehaviorModel(**bad)

    def test_behavior_numpy_scalars_accepted(self):
        assert BehaviorModel(switch_slope=np.float64(0.0), switch_hi=np.int64(1)).switch_hi == 1

    @pytest.mark.parametrize("bad", [{"noise_sd": 1e308},
                                     {"payoff_scale": 1e308, "noise_sd": 0.0},
                                     {"payoff_scale": 1e306, "noise_sd": 0.0},
                                     {"outside_per_round": 1e308}])
    def test_payoff_overflow_rejected(self, bad):
        """Payoff sums that overflow, in one game or only summed over the
        batch (1e306 cents a slot), raise instead of giving inf metrics."""
        with pytest.raises(ExperimentError, match="overflow"):
            run_batch(StudyConfig(**bad), pairs=200)

    def test_behavior_probabilities(self):
        b = BehaviorModel()
        assert b.switch_prob(0.0, 1) == pytest.approx(0.9 * 0.93)
        assert b.switch_prob(100.0, 1) == pytest.approx(0.05 * 0.93)
        assert b.drop_prob(None, 6.0) == pytest.approx(0.02)
        assert b.drop_prob(3.0, 6.0) == pytest.approx(0.12)
        assert b.drop_prob(9.0, 6.0) == pytest.approx(0.02)


class TestMarketGeneration:
    @pytest.mark.parametrize("study,mean", [("A", 20 / 3), ("B", 10.0),
                                            ("C", 40 / 3)])
    def test_beta_means(self, study, mean):
        a, b = STUDY_BETA[study]
        draws = np.random.default_rng(0).beta(a, b, 100_000) * 20.0
        assert draws.mean() == pytest.approx(mean, abs=0.1)

    def test_deterministic_per_game(self):
        cfg = StudyConfig(seed=4)
        w1, e1, m1 = generate_market(cfg, game_index=2)
        w2, e2, m2 = generate_market(cfg, game_index=2)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(m1, m2)

    def test_games_differ(self):
        cfg = StudyConfig(seed=4)
        w1, _, _ = generate_market(cfg, game_index=0)
        w2, _, _ = generate_market(cfg, game_index=1)
        assert not np.array_equal(w1, w2)


class TestLearning:
    def test_prior_is_logistic_parabola(self):
        q = prior_q()
        assert eval_q(q, 0.5) == pytest.approx(0.25)
        assert q.values[0] == 0.0 and q.values[-1] == 0.0

    def test_bins_to_grid_mapping(self):
        bins = np.arange(10, dtype=float)
        g = bins_to_grid(bins)
        assert len(g) == GRID_NODES
        assert g[0] == 0.0 and g[1] == 0.0  # nodes 0,1 -> bin 0
        assert g[20] == 9.0  # last node -> last bin
        assert g == [k // 2 for k in range(GRID_NODES - 1)] + [9.0]

    def test_bins_to_grid_shape_check(self):
        with pytest.raises(ExperimentError):
            bins_to_grid(np.zeros(9))

    def test_q_update_hand_mix(self):
        # 0.5 * 0.25 + 0.5 * 0.75 = 0.5 at the node u = 0.5
        q0 = prior_q()
        f = np.full(GRID_NODES, np.nan)
        f[10] = 0.75
        q1 = q_update(q0, f, alpha_learn=0.5)
        assert eval_q(q1, 0.5) == pytest.approx(0.5)
        # unobserved nodes keep the prior
        assert q1.values[5] == pytest.approx(q0.values[5])

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_sparse_learning_matches_q_update(self, alpha):
        """The Selfish arm's learning step mixes only the nodes of the bins it
        observed; on random observations, chained over 300 rounds from the
        prior and from random grids, its node values are the bits of
        ``q_update`` on the dense vector with NaN for the unobserved bins."""
        rng = np.random.default_rng(17)
        scale, width = 20.0, 20.0 / PAYOFF_BINS
        for start in range(3):
            q = prior_q() if start == 0 else grid(rng.random(GRID_NODES))
            for _ in range(100):
                size = int(rng.integers(1, 6))
                payoffs = rng.choice([0.0, 0.5, width, scale, 30.0, *rng.uniform(0.0, 25.0, 4)],
                                     size)
                obs = [(float(p), bool(s)) for p, s in zip(payoffs, rng.random(size) < 0.5)]
                counts = [0] * PAYOFF_BINS
                hits = [0] * PAYOFF_BINS
                for p, switched in obs:
                    b = min(int(min(p, scale) / width), PAYOFF_BINS - 1)
                    counts[b] += 1
                    hits[b] += switched
                bins = [h / c if c else np.nan for h, c in zip(hits, counts)]
                dense = q_update(q, bins_to_grid(bins), alpha)
                values = q.values.tolist()
                _learn(values, obs, scale, alpha)
                changed = sum(new != old for new, old in zip(values, q.values.tolist()))
                assert changed <= 2 * len(obs)
                assert grid(values).values.tobytes() == dense.values.tobytes()
                q = dense

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(learning_runs())
    def test_learning_keeps_nodes_in_unit_interval(self, run):
        """The invariant that lets the Selfish arm skip the grid check per
        round: after every learning step each node lies in [0, 1], the
        endpoints are still +0.0, and the grid constructor would store the
        node values' own bytes."""
        alpha, scale, values, rounds = run
        for obs in rounds:
            _learn(values, obs, scale, alpha)
            assert all(0.0 <= v <= 1.0 for v in values)
            assert np.array([values[0], values[-1]]).tobytes() == bytes(16)
            assert grid(values).values.tobytes() == np.array(values).tobytes()

    def test_q_update_alpha_one_is_identity(self):
        q0 = prior_q()
        f = np.full(GRID_NODES, 0.9)
        q1 = q_update(q0, f, alpha_learn=1.0)
        np.testing.assert_allclose(np.asarray(q1.values)[1:-1],
                                   np.asarray(q0.values)[1:-1])

    def test_q_update_alpha_zero_replaces(self):
        q0 = prior_q()
        f = np.full(GRID_NODES, 0.4)
        q1 = q_update(q0, f, alpha_learn=0.0)
        assert q1.values[10] == pytest.approx(0.4)
        assert q1.values[0] == 0.0  # endpoints stay pinned

    def test_q_update_validation(self):
        with pytest.raises(ExperimentError):
            q_update(prior_q(), np.zeros(GRID_NODES - 1), 0.5)
        with pytest.raises(ExperimentError):
            q_update(prior_q(), np.zeros(GRID_NODES), 1.5)


class TestAssignment:
    def test_fair_takes_best(self):
        match = assign_round("Fair", np.array([[0.4, 1.0]]), prior_q())
        assert match[0] == 1

    def test_selfish_prefers_middling_slot(self):
        # normalized payoffs 8 and 20 cents: q(0.4) > q(1.0) = 0
        weights = np.array([[0.4, 1.0]])
        match = assign_round("Selfish", weights, prior_q())
        assert match[0] == 0

    def test_zero_weights_unassigned(self):
        match = assign_round("Fair", np.zeros((2, 2)), prior_q())
        assert all(j == -1 for j in match)

    def test_raw_q_objective(self):
        match = assign_round("Selfish", np.array([[0.4, 1.0]]), prior_q(),
                             selfish_objective="raw-q")
        assert match[0] == 0

    def test_unknown_condition(self):
        with pytest.raises(ExperimentError):
            assign_round("Greedy", np.array([[0.5]]), prior_q())

    def test_selfish_needs_grid_model(self):
        """The Selfish objective reads the grid model's node values; the
        Fair one ignores the model."""
        with pytest.raises(ExperimentError, match="grid model"):
            assign_round("Selfish", np.array([[0.5]]), parametric(0.5))
        assert assign_round("Fair", np.array([[0.5]]), parametric(0.5))[0] == 0

    def test_invalid_weights_rejected(self):
        for bad in (np.array([[0.5, np.nan]]), np.array([[0.5, 1.5]])):
            for weights in (bad, bad.tolist()):
                for condition in ("Fair", "Selfish"):
                    with pytest.raises(MarketError):
                        assign_round(condition, weights, prior_q())

    def test_matches_library_path(self):
        """Sim-shaped rounds: 1-3 requesters, 1-13 open slots, zeroed
        forbidden slots, tied values, and learned return models."""
        rng = np.random.default_rng(2024)
        models = [prior_q()]
        for _ in range(3):
            models.append(q_update(models[-1], rng.random(GRID_NODES), 0.7))
        for trial in range(400):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 14))
            if trial % 2:
                w = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, n))
            else:
                w = rng.random((m, n))
            w[rng.random((m, n)) < 0.2] = 0.0
            q = models[trial % len(models)]
            inst = make_instance(w)
            x = solve_selfish_integral(inst, [q] * m, MONOPOLY).matching.x
            for weights in (w, w.tolist()):
                np.testing.assert_array_equal(
                    assign_round("Fair", weights, q), solve_fair(inst).assignment.row_match)
                np.testing.assert_array_equal(
                    assign_round("Selfish", weights, q),
                    np.where(x.max(axis=1) > 0.0, x.argmax(axis=1), -1))
                np.testing.assert_array_equal(
                    assign_round("Selfish", weights, q, selfish_objective="raw-q"),
                    max_weight_assignment(eval_q(q, w)).row_match)


class TestRandomAssign:
    """``_random_assign`` skips the permutation of one row and the draw from
    one allowed slot, which take nothing from the generator, so it returns
    the reference's matching and leaves the generator where it does."""

    def test_one_item_draws_nothing(self):
        rng = np.random.default_rng(3)
        start = rng.bit_generator.state
        assert rng.permutation(1).tolist() == [0] and int(rng.integers(1)) == 0
        assert rng.bit_generator.state == start

    @pytest.mark.parametrize("weights", [
        [[0.0, 0.4, 0.0]],  # one row with one allowed slot: no draw at all
        [[0.4]],
        [[0.3, 0.0, 0.5]],  # one row: no permutation, one slot draw
        [[0.0, 0.4], [0.0, 0.7]],  # one allowed slot for each of two rows
        [[0.2, 0.4, 0.1], [0.5, 0.0, 0.7], [0.0, 0.0, 0.0]],
    ])
    def test_matches_reference(self, weights):
        one_draw_free = len(weights) == 1 and sum(x > 0.0 for x in weights[0]) == 1
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            start = rng.bit_generator.state
            match = _random_assign(weights, rng)
            assert match == _random_assign_reference(np.array(weights), ref).tolist()
            assert rng.bit_generator.state == ref.bit_generator.state
            if one_draw_free:
                assert rng.bit_generator.state == start


class TestRunStudy:
    def test_always_drop_pays_full_outside(self):
        cfg = StudyConfig(seed=1)
        behavior = BehaviorModel(drop_base=1.0, drop_low_bonus=0.0)
        res = run_study(cfg, behavior)
        for arm in res.arms.values():
            # everyone exits at round 1: 10 rounds x 6 cents each
            np.testing.assert_allclose(arm.totals, 60.0)
            assert arm.drop_count_per_round[0] == cfg.players_per_condition

    def test_no_switch_no_drop_constant_play(self):
        cfg = StudyConfig(seed=2)
        behavior = BehaviorModel(switch_hi=0.0, switch_lo=0.0,
                                 drop_base=0.0, drop_low_bonus=0.0)
        res = run_study(cfg, behavior)
        for arm in res.arms.values():
            matched = [r for r in arm.records if r.slot >= 0]
            assert len(matched) == cfg.players_per_condition * cfg.rounds
            assert all(r.action == "Continue" for r in matched)
            # each player keeps one slot for the whole game
            for i in range(cfg.players_per_condition):
                slots = {r.slot for r in matched if r.player == i}
                assert len(slots) == 1

    def test_deterministic(self):
        cfg = StudyConfig(seed=3)
        a = run_study(cfg)
        b = run_study(cfg)
        assert a.metrics == b.metrics
        assert a.arms["Fair"].records == b.arms["Fair"].records

    def test_slot_exclusivity(self):
        cfg = StudyConfig(seed=5)
        res = run_study(cfg)
        for arm in res.arms.values():
            for r in range(1, cfg.rounds + 1):
                slots = [rec.slot for rec in arm.records
                         if rec.round == r and rec.slot >= 0]
                assert len(slots) == len(set(slots))

    def test_rematch_never_returns_to_burned_slot(self):
        cfg = StudyConfig(seed=6)
        behavior = BehaviorModel(switch_hi=0.9, switch_lo=0.9,
                                 drop_base=0.0, drop_low_bonus=0.0)
        res = run_study(cfg, behavior)
        for arm in res.arms.values():
            seen: dict[int, set] = {}
            for rec in arm.records:
                if rec.slot < 0:
                    continue
                burned = seen.setdefault(rec.player, set())
                assert rec.slot not in burned
                if rec.action == "Rematch":
                    burned.add(rec.slot)

    def test_exit_contributes_outside_payments(self):
        cfg = StudyConfig(seed=7)
        res = run_study(cfg)
        for arm in res.arms.values():
            for rec in arm.records:
                if rec.action == "Exit":
                    assert rec.payoff == 0.0 and rec.slot == -1

    def test_learned_q_stays_valid(self):
        cfg = StudyConfig(seed=8)
        res = run_study(cfg)
        for snap in res.arms["Selfish"].q_snapshots:
            assert snap.min() >= 0.0 and snap.max() <= 1.0
            assert snap[0] == 0.0 and snap[-1] == 0.0

    def test_metrics_keys(self):
        res = run_study(StudyConfig(seed=9))
        for key in ("fair_mean_total", "selfish_mean_total",
                    "random_mean_total", "fair_engagement",
                    "selfish_engagement", "poa_pair"):
            assert key in res.metrics


class TestBatchAndOutputs:
    def test_batch_aggregates(self):
        cfg = StudyConfig(seed=10)
        results, agg = run_batch(cfg, pairs=5)
        assert len(results) == 5
        assert agg["poa_min"] <= agg["poa_max"]

    def test_batch_validation(self):
        with pytest.raises(ExperimentError):
            run_batch(StudyConfig(), pairs=0)

    def test_all_degenerate_batch_raises_without_warning(self):
        # every player drops before the first assignment and earns nothing
        # outside, so no game has a Fair welfare to divide by
        cfg = StudyConfig(noise_sd=0.0, outside_per_round=0.0)
        behavior = BehaviorModel(drop_base=1.0, drop_low_bonus=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExperimentError, match="all games degenerate"):
                run_batch(cfg, behavior, pairs=3)

    def test_carry_learning_changes_later_games(self):
        cfg = StudyConfig(seed=11)
        carried, _ = run_batch(cfg, pairs=4, carry_learning=True)
        fresh, _ = run_batch(cfg, pairs=4, carry_learning=False)
        assert carried[0].metrics == fresh[0].metrics
        last_c = carried[-1].arms["Selfish"].q_snapshots[-1]
        last_f = fresh[-1].arms["Selfish"].q_snapshots[-1]
        assert not np.array_equal(last_c, last_f)

    def test_histogram(self):
        res = run_study(StudyConfig(seed=12))
        hist = realized_payoff_histogram(res)
        assert set(hist) == {"Fair", "Selfish", "Random"}
        for payload in hist.values():
            assert payload["counts"].sum() == len(
                res.arms[[k for k, v in hist.items() if v is payload][0]]
                .matched_payoffs)

    def test_csv_writers(self, tmp_path):
        cfg = StudyConfig(seed=13)
        res = run_study(cfg)
        _, agg = run_batch(cfg, pairs=2)
        log_path = tmp_path / "log.csv"
        met_path = tmp_path / "metrics.csv"
        write_round_log_csv(res, log_path)
        write_metrics_csv(agg, met_path)
        lines = log_path.read_text().splitlines()
        assert lines[0] == "condition,round,player,slot,payoff,action"
        assert len(lines) > 1
        met = met_path.read_text().splitlines()
        assert met[0] == "metric,value"
        assert any(row.startswith("poa_pair,") for row in met)


def _arm_bytes(log):
    """Every field of an ArmLog as bytes, so that equal means bit-identical."""
    return {
        "records": [rec[:4] + (rec.action,) for rec in log.records],
        "payoffs": np.array([rec.payoff for rec in log.records]).tobytes(),
        "engagement": np.array(log.engagement_per_round).tobytes(),
        "drops": log.drop_count_per_round,
        "mean_payoff": np.array(log.mean_payoff_per_round).tobytes(),
        "matched_payoffs": np.array(log.matched_payoffs).tobytes(),
        "q_snapshots": [snap.tobytes() for snap in log.q_snapshots],
        "totals": log.totals.tobytes(),
    }


def _waits_split(res):
    """(player, round, waiting arm, playing arm) for each round in which a
    player Waits in one arm of a game and plays in another."""
    acts = {(name, rec.player, rec.round): rec.action
            for name, log in res.arms.items() for rec in log.records}
    return [(i, r, a, b) for (a, i, r), act in acts.items() if act == "Wait"
            for b in res.arms if acts.get((b, i, r)) in ("Continue", "Rematch")]


class TestReferenceArms:
    @pytest.mark.parametrize("config,carry", [
        (StudyConfig(study="A", seed=11), True),
        (StudyConfig(study="B", seed=11), True),
        (StudyConfig(study="C", seed=11), True),
        (StudyConfig(study="B", seed=3, selfish_objective="raw-q"), True),
        (StudyConfig(study="A", seed=5, players_per_condition=1), True),
        (StudyConfig(study="C", seed=7, players_per_condition=5), True),
        (StudyConfig(study="B", seed=11), False),
        (StudyConfig(study="A", seed=13, noise_sd=0.0), True),
        (StudyConfig(study="B", seed=13, alpha_learn=0.0), True),
        (StudyConfig(study="C", seed=13, alpha_learn=1.0), True),
        (StudyConfig(study="A", seed=11, slots=3), True),
        (StudyConfig(study="B", seed=11, slots=3), True),
    ], ids=["A", "B", "C", "raw-q", "one-player", "five-players", "no-carry",
            "noise-sd-0", "alpha-learn-0", "alpha-learn-1", "A-three-slots",
            "B-three-slots"])
    def test_run_batch_matches_reference_arms(self, config, carry):
        """Each game's three arms, with the learned model carried from game
        to game or reset, match arms that each seed their own generators and
        learn on numpy arrays: records, totals and every q snapshot, bit for
        bit."""
        behavior = BehaviorModel()
        results, _ = run_batch(config, behavior, pairs=12, carry_learning=carry)
        q0 = None
        for game, res in enumerate(results):
            ref = run_study_arms_reference(config, behavior, game, q0)
            for name in ("Fair", "Selfish", "Random"):
                assert _arm_bytes(res.arms[name]) == _arm_bytes(ref[name]), (game, name)
            if carry:
                q0 = grid(ref["Selfish"].q_snapshots[-1])

    @pytest.mark.parametrize("study", ["A", "B"])
    def test_three_slot_cases_split_waits(self, study):
        """In the three-slot cases some player Waits in one arm of a game and
        plays the same round in another, so the reference cases above, which
        read each draw by round, cover arms whose play has split, and
        ``TestSharedStreams::test_wait_shifts_no_later_draw`` has rounds to
        compare."""
        results, _ = run_batch(StudyConfig(study=study, seed=11, slots=3), pairs=12)
        assert any(_waits_split(res) for res in results)


class TestSharedStreams:
    def test_each_player_generator_draws_three_arrays(self, monkeypatch):
        """Each player's generator is built once a game and called three
        times, in this order: the drop uniforms, the payoff normals and the
        switch uniforms, R values each."""
        calls = {}
        keyed_rng = experiment.keyed_rng

        class Recording:
            def __init__(self, key):
                self.key, self.rng = key, keyed_rng(*key)

            def random(self, size):
                calls[self.key].append(("random", size))
                return self.rng.random(size)

            def standard_normal(self, size):
                calls[self.key].append(("standard_normal", size))
                return self.rng.standard_normal(size)

        def recording_keyed_rng(*key):
            if key[2:3] != (2,):  # the market's and the Random arm's
                return keyed_rng(*key)
            assert key not in calls, key
            calls[key] = []
            return Recording(key)

        monkeypatch.setattr(experiment, "keyed_rng", recording_keyed_rng)
        config = StudyConfig(seed=1, rounds=7, players_per_condition=4)
        run_study(config, game_index=2)
        assert calls == {(1, 2, 2, i): [("random", 7), ("standard_normal", 7), ("random", 7)]
                         for i in range(4)}

    @pytest.mark.parametrize("config", [
        StudyConfig(study="B", seed=1),
        StudyConfig(study="A", seed=11, slots=3),
        StudyConfig(study="C", seed=7, players_per_condition=5),
    ], ids=["B", "A-three-slots", "five-players"])
    def test_arm_order_does_not_matter(self, config, monkeypatch):
        """The three arms run on a copy of a game's shared values in reverse
        order (Random, Selfish, Fair) give byte-identical logs: no arm
        changes what another reads."""
        games = []
        run_arm = experiment._run_arm

        def capturing_run_arm(condition, config, behavior, game, q0=None):
            if not games:  # before any arm has run
                games.append(copy.deepcopy(game))
            return run_arm(condition, config, behavior, game, q0)

        monkeypatch.setattr(experiment, "_run_arm", capturing_run_arm)
        behavior = BehaviorModel()
        res = run_study(config, behavior, game_index=1)
        for name in ("Random", "Selfish", "Fair"):
            log = run_arm(name, config, behavior, games[0])
            assert _arm_bytes(log) == _arm_bytes(res.arms[name]), name

    @pytest.mark.parametrize("study", ["A", "B"])
    def test_wait_shifts_no_later_draw(self, study):
        """A player who Waits in one arm and plays in another draws the same
        payoff noise as that other arm in every later round where both arms
        pay them a positive payoff: p - mean is equal across the arms, up to
        the rounding of adding and subtracting different means."""
        results, _ = run_batch(StudyConfig(study=study, seed=11, slots=3), pairs=12)
        compared = 0
        for res in results:
            means = res.eps_players[:, None] + res.w_slots[None, :]
            paid = {(name, rec.player, rec.round): rec.payoff - means[rec.player, rec.slot]
                    for name, log in res.arms.items() for rec in log.records
                    if rec.slot >= 0 and rec.payoff > 0.0}
            for i, w, a, b in _waits_split(res):
                for r in range(w + 1, res.config.rounds + 1):
                    if (a, i, r) in paid and (b, i, r) in paid:
                        assert paid[a, i, r] == pytest.approx(paid[b, i, r], rel=0, abs=1e-12)
                        compared += 1
        assert compared > 0
