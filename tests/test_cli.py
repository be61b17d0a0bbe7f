import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import matchmarket
from matchmarket import cli
from matchmarket.cli import main
from matchmarket.market import make_instance, write_instance


POA_PINNED_ARGS = ["poa", "--alpha", "0.5", "--trials", "20", "--seed", "42"]
POA_PINNED_DIGEST = "8941561b9a6d57dc49db4b8319ee044b4c08bba730c7b7e77c9db963316ae8dd"
POA_COMPETITION_ARGS = ["poa", "--alpha", "0", "--eps", "0.5", "--trials", "20", "--seed", "42"]
POA_COMPETITION_DIGEST = "623576fa2fc8a40aab1736432e25b8b6456702116f9ee343983a5c32dd5f8805"
# the online ratio run pins the instance streams (seed, trial) and the arrival
# orders (seed, trial, 1); match --mode online pins the order stream (seed, 1)
ONLINE_PINNED_ARGS = ["online", "--m", "5", "--n", "5", "--trials", "50", "--seed", "42"]
ONLINE_PINNED_DIGEST = "b9b2ff94c401b4f380ed83bda1bd8707be7af4e9bc937a95c9bbd7e9e41bc66f"
MATCH_ONLINE_X_DIGEST = "3da8fb585e7cb01b6c64741a35cab69d380e91205380e889e3497752ce72e1ff"
MATCH_ONLINE_ORDER = [3, 0, 2, 1, 4, 5]


def _tracer_sites() -> tuple:
    """``SITES`` of perfbench's tracer, read from its source without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SITES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SITES")


def test_traced_artifact_writers_exist():
    # the benchmark's cli.artifact span wraps these writers by module and name
    sites = [(mod, attr) for mod, attr, span in _tracer_sites() if span == "cli.artifact"]
    assert sites
    for mod, attr in sites:
        assert callable(getattr(importlib.import_module(f"matchmarket.{mod}"), attr, None)), \
            f"matchmarket.{mod}.{attr}"


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
        assert manifest["outputs"] == ["bound.json"]

    def test_alpha_near_one_certified(self, tmp_path):
        # a sampled concavity check once read a second difference of
        # +2.8e-17 here as non-concave and exited 2
        assert main(["bound", "--alpha", "0.999999999999",
                     "--out-dir", str(tmp_path / "o")]) == 0

    def test_invalid_alpha_exit_2(self, tmp_path, capsys):
        assert main(["bound", "--alpha", "1.5",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["poa", "--help"]], ids=" ".join)
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_parser_built_once_for_many_runs(tmp_path, capsys, monkeypatch):
    # errors and --version leave the reused parser fit for the next run
    built, real = [], cli.build_parser

    def build_parser():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", build_parser)
    cli._parser.cache_clear()
    args = ["poa", "--alpha", "0.25", "--m", "3", "--n", "3", "--trials", "4", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out-dir", str(a)]) == 0
    assert main(["poa", "--trials", "abc"]) == 1
    assert main(["poa", "--alpha", "1", "--out-dir", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{matchmarket.__version__}\n"
    assert main([*args, "--out-dir", str(b)]) == 0
    assert (a / "poa_trials.csv").read_bytes() == (b / "poa_trials.csv").read_bytes()
    assert len(built) == 1


def test_out_of_memory_exit_1(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(matchmarket.poa, "empirical_poa", exhausted)
    assert main(["poa", "--trials", "1", "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1


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

    def test_online_outputs_pinned(self, tmp_path):
        path, out = tmp_path / "inst6x4.csv", tmp_path / "online"
        write_instance(make_instance(np.random.default_rng(1).random((6, 4))), path)
        assert main(["match", "--instance", str(path), "--mode", "online",
                     "--seed", "7", "--out-dir", str(out)]) == 0
        assert json.loads((out / "solution.json").read_text())["order"] == MATCH_ONLINE_ORDER
        assert hashlib.sha256((out / "x.csv").read_bytes()).hexdigest() == MATCH_ONLINE_X_DIGEST

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

    def test_threads_flag_ignored(self, tmp_path):
        args = ["poa", "--alpha", "0.25", "--m", "3", "--n", "3",
                "--trials", "6", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--threads", "1", "--out-dir", str(a)]) == 0
        assert main(args + ["--threads", "4", "--out-dir", str(b)]) == 0
        assert (a / "poa_trials.csv").read_bytes() == \
            (b / "poa_trials.csv").read_bytes()

    def test_poa_digest_pinned(self, tmp_path):
        """Byte-level golden check of the Monte-Carlo trials at alpha 0.5.

        Pins the selfish solver's arithmetic end to end, the peak utility
        1 / (2 - alpha) included. A change meant to alter the solver's
        results must update the digest in the same change and say why.
        """
        out = tmp_path / "poa"
        assert main([*POA_PINNED_ARGS, "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "poa_trials.csv").read_bytes()).hexdigest()
        assert digest == POA_PINNED_DIGEST

    @pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Prescott"])
    def test_poa_digest_on_every_openblas_core(self, tmp_path, core):
        # 5-user markets are solved on Python floats with exactly rounded
        # products, so the kernels OpenBLAS loads for the CPU do not enter
        out = tmp_path / "poa"
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=str(Path(matchmarket.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "matchmarket.cli", *POA_PINNED_ARGS, "--out-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256((out / "poa_trials.csv").read_bytes()).hexdigest()
        assert digest == POA_PINNED_DIGEST

    def test_poa_competition_digest_pinned(self, tmp_path):
        """Byte-level golden check of 5x5 Monte-Carlo trials under the
        competition chain, which pins its pi' and pi'' kernels end to end."""
        out = tmp_path / "poa"
        assert main([*POA_COMPETITION_ARGS, "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "poa_trials.csv").read_bytes()).hexdigest()
        assert digest == POA_COMPETITION_DIGEST

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

    def test_online_digest_pinned(self, tmp_path):
        out = tmp_path / "online"
        assert main([*ONLINE_PINNED_ARGS, "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "online_trials.csv").read_bytes()).hexdigest()
        assert digest == ONLINE_PINNED_DIGEST


MISSING_INSTANCE = ["match", "--mode", "fair"]


@pytest.mark.parametrize("argv", [
    ["poa", "--trials", "abc"],
    MISSING_INSTANCE,
    ["bound"],
    ["poa", "--trials", "0"],
    ["online", "--trials", "0"],
    ["sweep", "--trials", "0"],
    ["poa", "--eps", "2"],
    ["online", "--eps", "2"],
    ["match", "--eps", "0", "--mode", "selfish"],
    ["poa", "--seed", "-1"],
    ["online", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--eps", "nan"],
    ["sweep", "--eps", "5e-324"],
    ["poa", "--eps", "5e-324"],
    ["poa", "--beta-b", "inf"],
    ["online", "--beta-b", "inf"],
    ["sweep", "--beta-b", "inf"],
    ["poa", "--beta-a", "nan"],
    ["poa", "--beta-a", "1e-300"],
    ["online", "--beta-a", "1e-300"],
    ["match", "--mode", "online", "--seed", "-1"],
    ["match", "--mode", "selfish", "--eps", "0.5", "--seed", "-1"],
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
        '{"behavior": {"switch_slope": "0.1"}}',
        '{"behavior": {"switch_slope": NaN}}',
        '{"behavior": {"switch_slope": -0.1}}',
        '{"behavior": {"switch_hi": true}}',
        '{"behavior": {"drop_base": Infinity}}',
        '{"noise_sd": 1e308}',
        '{"payoff_scale": 1e308, "noise_sd": 0}',
        '{"noise_sd": 0, "outside_per_round": 0, '
        '"behavior": {"drop_base": 1.0, "drop_low_bonus": 0.0}}',
    )),
], ids=" ".join)
def test_invalid_input_exit_1_without_traceback(tmp_path, instance_csv, argv):
    if argv[0] == "match" and argv != MISSING_INSTANCE:
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

    def test_artifact_digests_pinned(self, tmp_path, monkeypatch):
        """Byte-level golden check of the simulation artifacts.

        The digests pin the round loop's arithmetic and random-number
        consumption, and the SVGs the means the plots take over the games.
        The Selfish arms' learned return models are pinned too, as one digest
        of every q snapshot of every game in order, so that a learning change
        that flips no matching still shows. A change meant to alter
        simulation semantics must update the digests in the same change and
        say why.
        """
        results = []
        iter_batch = matchmarket.experiment.iter_batch

        def recording_iter_batch(*args, **kwargs):
            for res in iter_batch(*args, **kwargs):
                results.append(res)
                yield res

        monkeypatch.setattr(matchmarket.experiment, "iter_batch", recording_iter_batch)
        out = tmp_path / "sim"
        assert main(["sim", "--study", "B", "--pairs", "20", "--seed", "11",
                     "--out-dir", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("metrics.csv", "round_log_game0.csv", "histograms.csv",
                                "utility_per_round.svg", "engagement_per_round.svg",
                                "drops_per_round.svg", "poa_pairs.svg")}
        assert len(results) == 20
        snapshots = hashlib.sha256()
        for res in results:
            for snap in res.arms["Selfish"].q_snapshots:
                snapshots.update(snap.tobytes())
        digests["selfish_q_snapshots"] = snapshots.hexdigest()
        assert digests == {
            "metrics.csv":
                "b1c1baebde8b291d8c47a09bd50acbbc17ef7b7b0f05c3b9be69442759ef2728",
            "round_log_game0.csv":
                "bed99ee0fd083cd61a753958a9b97aa1658624ecfaa1c633f96c0fc96df49a1e",
            "histograms.csv":
                "3d4e255e09087d1432086f23ed617c73ce02f807eacd5d79937674f3ed73b49b",
            "selfish_q_snapshots":
                "12d2ba8083d6f87fde61c49c1824784ad1da236e325159fc04b0c896c88fd189",
            "utility_per_round.svg":
                "183a572ee83f2a5534d356f97d3556f3edb88a87d6f48938542dd6f266d2c2a8",
            "engagement_per_round.svg":
                "e8d97aa501c6223137f41ee1d9d7bd166f2fa2f5522312e1aa9be2aad1e24a74",
            "drops_per_round.svg":
                "cf79de0b5646dc74ff8c0b54b9fb7e31331177dc9cc4391b2b12f72f1a91c3db",
            "poa_pairs.svg":
                "a177da2ead1481cc674ebfbefe5ab16270b051e80e6904ea7eb57621019b8d9e",
        }

    def test_batch_streamed(self, tmp_path, monkeypatch):
        # sim keeps game 0's logs and a few values per game, so when a game
        # starts only game 0 and the previous game may still be alive
        refs, alive = [], []
        run_study = matchmarket.experiment.run_study

        def tracking_run_study(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            res = run_study(*args, **kwargs)
            refs.append(weakref.ref(res))
            return res

        monkeypatch.setattr(matchmarket.experiment, "run_study", tracking_run_study)
        assert main(["sim", "--pairs", "20", "--seed", "3",
                     "--out-dir", str(tmp_path / "sim")]) == 0
        assert len(alive) == 20 and max(alive) <= 2

    def test_zero_pairs_exit_1(self, tmp_path, capsys):
        assert main(["sim", "--pairs", "0", "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "pairs" in err and "Traceback" not in err

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sim", "--study", "C", "--pairs", "2", "--seed", "7"]
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "round_log_game0.csv").read_bytes() == \
            (b / "round_log_game0.csv").read_bytes()
