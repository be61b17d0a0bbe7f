import numpy as np
import pytest

from matchmarket.experiment import (
    STUDY_BETA,
    BehaviorModel,
    ExperimentError,
    StudyConfig,
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
from matchmarket.returns import GRID_NODES, eval_q, grid


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
        for bad in ({"rounds": True}, {"slots": 13.0}, {"noise_sd": float("nan")},
                    {"payoff_scale": -20.0}, {"outside_per_round": float("inf")}):
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
        assert g.shape == (GRID_NODES,)
        assert g[0] == 0.0 and g[1] == 0.0  # nodes 0,1 -> bin 0
        assert g[20] == 9.0  # last node -> last bin

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
