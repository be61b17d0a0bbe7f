import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchmarket
from matchmarket.cli import main
from matchmarket.market import make_instance, write_instance


@pytest.fixture
def instance_csv(tmp_path):
    path = tmp_path / "inst.csv"
    write_instance(make_instance(np.random.default_rng(1).random((3, 3))), path)
    return path


class TestBound:
    def test_success(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bound", "--alpha", "0.0", "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "bound = " in text
        payload = json.loads((out / "bound.json").read_text())
        assert payload["bound"] == pytest.approx(0.1815, abs=1e-3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(out / "bound.json") in manifest["outputs"]

    def test_invalid_alpha_exit_2(self, tmp_path, capsys):
        assert main(["bound", "--alpha", "1.5",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "alpha" in capsys.readouterr().err


class TestMatch:
    def test_fair_outputs(self, tmp_path, instance_csv):
        out = tmp_path / "fair"
        assert main(["match", "--instance", str(instance_csv),
                     "--mode", "fair", "--out-dir", str(out)]) == 0
        for name in ("x.csv", "utilities.csv", "solution.json", "manifest.json"):
            assert (out / name).exists()

    def test_selfish_reports_certificates(self, tmp_path, instance_csv):
        out = tmp_path / "selfish"
        assert main(["match", "--instance", str(instance_csv),
                     "--mode", "selfish", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "solution.json").read_text())
        assert payload["fw_gap"] <= 1e-6
        assert payload["kkt_max_residual"] <= 1e-6

    def test_missing_instance_exit_1(self, tmp_path, capsys):
        assert main(["match", "--instance", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "o")]) == 1

    def test_malformed_instance_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.5\n0.5,oops\n")
        assert main(["match", "--instance", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "line 2" in capsys.readouterr().err


class TestPoaAndSweep:
    def test_poa_rerun_identical(self, tmp_path):
        args = ["poa", "--alpha", "0.0", "--m", "2", "--n", "2",
                "--trials", "5", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "poa_trials.csv").read_bytes() == \
            (b / "poa_trials.csv").read_bytes()

    def test_sweep_bad_eps_exit_1(self, tmp_path, capsys):
        assert main(["sweep", "--eps", "0.5,zero", "--m", "1", "--n", "1",
                     "--trials", "2", "--out-dir", str(tmp_path / "o")]) == 1
        assert "--eps" in capsys.readouterr().err

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--eps", "0.1,0.001", "--m", "1", "--n", "2",
                     "--trials", "3", "--out-dir", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.svg").read_text().startswith("<svg")

    def test_online_outputs(self, tmp_path):
        out = tmp_path / "online"
        assert main(["online", "--m", "2", "--n", "2", "--trials", "4",
                     "--out-dir", str(out)]) == 0
        header = (out / "online_trials.csv").read_text().splitlines()[0]
        assert header == "trial,order_seed,online_value,fair_value,ratio"


@pytest.mark.parametrize("argv", [
    ["poa", "--trials", "0"],
    ["online", "--trials", "0"],
    ["sweep", "--trials", "0"],
    ["poa", "--eps", "2"],
    ["online", "--eps", "2"],
    ["match", "--eps", "0", "--mode", "selfish"],
    ["bound", "--alpha", "0", "--users", "0"],
    *(["sim", "--pairs", "1", "--config", config] for config in (
        '{"noise_sd": -1}',
        '{"noise_sd": Infinity}',
        '{"outside_per_round": "x"}',
        '{"outside_per_round": -6}',
        '{"players_per_condition": 2.5}',
        '{"rounds": true}',
        '{"payoff_scale": 0}',
        '{"seed": -1}',
    )),
], ids=" ".join)
def test_invalid_input_exit_1_without_traceback(tmp_path, instance_csv, argv):
    if argv[0] == "match":
        argv = argv + ["--instance", str(instance_csv)]
    if argv[0] == "sim":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(argv[-1])
        argv = argv[:-1] + [str(cfg)]
    env = dict(os.environ,
               PYTHONPATH=str(Path(matchmarket.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "matchmarket.cli", *argv, "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


class TestSim:
    def test_small_run(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["sim", "--study", "A", "--pairs", "2",
                     "--out-dir", str(out)]) == 0
        for name in ("metrics.csv", "round_log_game0.csv", "histograms.csv",
                     "utility_per_round.svg", "engagement_per_round.svg",
                     "drops_per_round.svg", "poa_pairs.svg", "manifest.json"):
            assert (out / name).exists()

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sloots": 13}))
        assert main(["sim", "--pairs", "1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "sloots" in capsys.readouterr().err

    def test_unknown_behavior_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"behavior": {"bravery": 1.0}}))
        assert main(["sim", "--pairs", "1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "bravery" in capsys.readouterr().err

    def test_config_overrides_applied(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 3,
                                   "behavior": {"drop_base": 0.0}}))
        out = tmp_path / "sim"
        assert main(["sim", "--pairs", "1", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        rounds = {int(line.split(",")[1]) for line in
                  (out / "round_log_game0.csv").read_text().splitlines()[1:]}
        assert max(rounds) == 3

    def test_artifact_digests_pinned(self, tmp_path):
        """Byte-level golden check of the simulation artifacts.

        The digests pin the round loop's arithmetic and random-number
        consumption. A change meant to alter simulation semantics must update
        both digests in the same change and say why.
        """
        out = tmp_path / "sim"
        assert main(["sim", "--study", "B", "--pairs", "20", "--seed", "11",
                     "--out-dir", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("metrics.csv", "round_log_game0.csv")}
        assert digests == {
            "metrics.csv":
                "33a734ff86ebaf152f38877bfd8dc1fb5b57cc99252ab57d99d9b734d714aed7",
            "round_log_game0.csv":
                "b339d0b3872cbd6ecc58a0ffac4c2e3595498340534bf273ed9df022637ec19a",
        }

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sim", "--study", "C", "--pairs", "2", "--seed", "7"]
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "round_log_game0.csv").read_bytes() == \
            (b / "round_log_game0.csv").read_bytes()
