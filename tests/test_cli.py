import contextlib
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vprkit import cli, places, tensorio
from vprkit.cli import run_command
from vprkit.evaluator import RecallReport
from vprkit.tensorio import DescriptorSet, load_tensor, save_descriptors, save_tensor

SMALL_SYNTH = [
    "--set", "synth.num_places=12",
    "--set", "synth.images_per_place=6",
    "--set", "synth.height=5",
    "--set", "synth.width=5",
    "--set", "synth.channels=8",
]
SMALL_TRAIN = [
    "--set", "train.num_places=4",
    "--set", "train.images_per_place=3",
    "--set", "train.out_channels=8",
    "--set", "train.max_epochs=2",
]


def synth(tmp_path, name="db", seed=7, extra=()):
    out = tmp_path / name
    rc = run_command(["synth", "--out", str(out), "--seed", str(seed), *SMALL_SYNTH, *extra])
    assert rc == 0
    return out


class TestSynthCommand:
    def test_writes_artifacts(self, tmp_path):
        out = synth(tmp_path)
        assert (out / "manifest.csv").exists()
        assert (out / "payloads.vprk").exists()
        assert (out / "resolved_config.json").exists()

    def test_deterministic_bytes(self, tmp_path):
        a = synth(tmp_path, "a", seed=7)
        b = synth(tmp_path, "b", seed=7)
        for name in ("manifest.csv", "payloads.vprk", "resolved_config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = synth(tmp_path, "a", seed=7)
        b = synth(tmp_path, "b", seed=8)
        assert (a / "payloads.vprk").read_bytes() != (b / "payloads.vprk").read_bytes()


    def test_allocation_that_cannot_be_made_is_an_error(self, tmp_path, capsys):
        # 89.1 PiB is beyond any address space: numpy fails before any memory is touched
        out = tmp_path / "db"
        rc = run_command(["synth", "--out", str(out), "--set", "synth.num_places=1000000000000"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: Unable to allocate 89.1 PiB ") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_latent_blur_rejected(self, tmp_path, capsys):
        out = tmp_path / "db"
        capsys.readouterr()
        rc = run_command(["synth", "--out", str(out), *SMALL_SYNTH, "--set", "synth.latent_blur=-1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and "latent_blur" in err
        assert not out.exists()


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        rc = run_command(
            ["synth", "--out", str(tmp_path / "x"), "--set", "synth.bogus=1"]
        )
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_key_in_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery": {}}), encoding="utf-8")
        rc = run_command(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc == 1
        assert "mystery" in capsys.readouterr().err

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1,2]", encoding="utf-8")
        rc = run_command(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_set_override_lands_in_resolved_config(self, tmp_path):
        out = synth(tmp_path, extra=["--set", "synth.gain=0.15"])
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["synth"]["gain"] == 0.15
        assert resolved["seed"] == 7

    def test_config_file_merges(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"max_epochs": 3}}), encoding="utf-8")
        out = tmp_path / "db"
        rc = run_command(
            ["synth", "--out", str(out), "--config", str(cfg), *SMALL_SYNTH]
        )
        assert rc == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["train"]["max_epochs"] == 3

    def test_wrong_type_rejected(self, tmp_path, capsys):
        rc = run_command(
            ["synth", "--out", str(tmp_path / "x"), "--set", "synth.num_places=true"]
        )
        assert rc == 1


    def test_fractional_int_rejected(self, tmp_path, capsys):
        rc = run_command(
            ["synth", "--out", str(tmp_path / "x"), "--set", "synth.num_places=4.5"]
        )
        assert rc == 1
        assert not (tmp_path / "x").exists()
        assert "synth.num_places" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["[2,2,2]", "[2,2.5]", "[2]", "2"])
    def test_grid_must_be_two_ints(self, tmp_path, capsys, grid):
        db = synth(tmp_path)
        rc = run_command(
            ["train", "--db", str(db), "--out", str(tmp_path / "run"),
             *SMALL_TRAIN, "--set", f"train.grid={grid}"]
        )
        assert rc == 1
        assert "train.grid" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", ["[1,2.5]", "[1,\"a\"]", "5"])
    def test_ks_must_be_list_of_ints(self, tmp_path, capsys, ks):
        rc = run_command(
            ["synth", "--out", str(tmp_path / "x"), "--set", f"eval.ks={ks}"]
        )
        assert rc == 1
        assert "eval.ks" in capsys.readouterr().err

    def test_null_default_takes_only_null_or_number(self, tmp_path, capsys):
        db = synth(tmp_path)
        rc = run_command(
            ["train", "--db", str(db), "--out", str(tmp_path / "run"),
             *SMALL_TRAIN, "--set", 'train.margin="abc"']
        )
        assert rc == 1
        assert "train.margin" in capsys.readouterr().err

    def test_set_section_value_merges_like_a_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"gain": 0.2}}), encoding="utf-8")
        by_set = synth(tmp_path, "set", extra=["--set", 'synth={"gain": 0.2}'])
        by_file = synth(tmp_path, "file", extra=["--config", str(cfg)])
        resolved = (by_set / "resolved_config.json").read_bytes()
        assert json.loads(resolved)["synth"] == dict(
            cli.DEFAULT_CONFIG["synth"], num_places=12, images_per_place=6, height=5, width=5,
            channels=8, gain=0.2)
        assert resolved == (by_file / "resolved_config.json").read_bytes()

    def test_unknown_set_key_named_by_its_dotted_name(self, tmp_path, capsys):
        capsys.readouterr()
        assert run_command(["synth", "--out", str(tmp_path / "x"), "--set", "synth.bogus=1"]) == 1
        assert "'synth.bogus'" in capsys.readouterr().err

    def test_section_replaced_then_set_again_names_a_missing_key(self, tmp_path, capsys):
        capsys.readouterr()
        rc = run_command(["synth", "--out", str(tmp_path / "x"), "--set", "synth=5",
                          "--set", "synth.gain=0.2"])
        assert rc == 1
        assert capsys.readouterr().err == "error: config key 'synth.num_places' is missing\n"


class TestNegativeSeed:
    """A negative seed is rejected by name for every command, before any output is written."""

    @pytest.mark.parametrize("argv", [["synth"], ["build-db", "--manifest", "m.csv"],
                                      ["train", "--db", "db"], ["eval"], ["reduce"],
                                      ["report", "report.kv"]], ids=lambda argv: argv[0])
    def test_seed_flag(self, tmp_path, capsys, argv):
        capsys.readouterr()
        assert run_command([*argv, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: config key 'seed' must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -3}), encoding="utf-8")
        capsys.readouterr()
        assert run_command(["synth", "--out", str(tmp_path / "db"), "--config", str(cfg)]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "db").exists()


class TestUnparsableConfig:
    """A config input that does not parse fails with one error line naming its source."""

    @staticmethod
    def _rejected(tmp_path, capsys, argv, source):
        capsys.readouterr()
        rc = run_command(["synth", "--out", str(tmp_path / "x"), *argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and source in err
        assert not (tmp_path / "x").exists()

    def test_deeply_nested_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        self._rejected(tmp_path, capsys, ["--config", str(cfg)], f"config file {cfg}: ")

    def test_deeply_nested_set_value(self, tmp_path, capsys):
        self._rejected(tmp_path, capsys, ["--set", "seed=" + "[" * 50_000 + "]" * 50_000],
                       "--set seed: ")

    def test_deeply_dotted_set_key(self, tmp_path, capsys):
        key = "seed" + ".a" * 50_000
        self._rejected(tmp_path, capsys, ["--set", f"{key}=1", "--set", f"{key}=2"],
                       "config nested too deeply")

    def test_truncated_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1', encoding="utf-8")
        self._rejected(tmp_path, capsys, ["--config", str(cfg)], f"config file {cfg}: ")

    def test_non_utf8_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": 1,\n "x": "\xff"}')
        self._rejected(tmp_path, capsys, ["--config", str(cfg)], f"{cfg}: line 2: not UTF-8")


# An integer in the domain of each config key whose default is a float, and the
# settings under which the pipeline reads that key.
INTEGER_FLOATS = {
    "synth.gain": 1, "synth.noise_sigma": 0, "synth.unstable_fraction": 1,
    "synth.noise_contrast": 30, "train.gem_power": 3, "train.miner_epsilon": 1,
    "train.initial_lr": 1, "train.lr_decay_factor": 1, "train.momentum": 0,
    "train.weight_decay": 1, "train.ms_alpha": 2, "train.ms_beta": 50, "eval.radius_m": 25,
    "pca.epsilon": 1,
}
READ_UNDER = {"train.gem_power": ["--set", "train.aggregator=gem"],
              "eval.radius_m": ["--set", "eval.ground_truth=geo"]}


class TestIntegerForFloatKey:
    """Every float key takes an integer with the result of the equal float."""

    def test_every_float_key_is_listed(self):
        floats = {f"{section}.{key}" for section, keys in cli.DEFAULT_CONFIG.items()
                  if isinstance(keys, dict) for key, value in keys.items() if type(value) is float}
        assert floats == set(INTEGER_FLOATS)

    @staticmethod
    def _pipeline(out: Path, sets: list[str]) -> dict:
        """synth, train, eval and reduce under `sets`; every output but resolved_config.json.

        Checkpoints count by kind and tensors, and a trainlog by all but its
        wall-clock time: their config echo keeps each value as it was given.
        """
        db, run, ev, rd = out / "db", out / "run", out / "eval", out / "reduce"
        for argv in (["synth", "--out", str(db), *SMALL_SYNTH],
                     ["train", "--db", str(db), "--out", str(run), *SMALL_TRAIN],
                     ["eval", "--db", str(db), "--checkpoint", str(run / "checkpoint.vprc"),
                      "--out", str(ev)],
                     ["reduce", "--fit", str(ev / "references.vprk"),
                      "--apply", str(ev / "queries.vprk"), "--out", str(rd),
                      "--set", "pca.out_dim=4"]):
            assert run_command([*argv, "--seed", "3", *sets]) == 0, argv[0]
        results = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            name = str(path.relative_to(out))
            if path.suffix == ".vprc":
                kind, tensors, _ = tensorio.load_checkpoint(path)
                results[name] = kind, {key: arr.tobytes() for key, arr in tensors.items()}
            elif path.name == "trainlog.json":
                results[name] = {key: value for key, value in json.loads(path.read_text()).items()
                                 if key != "wall_clock_s"}
            elif path.name != "resolved_config.json":
                results[name] = path.read_bytes()
        return results

    @pytest.mark.parametrize("key", sorted(INTEGER_FLOATS))
    def test_same_result_as_the_float(self, tmp_path, key):
        value = INTEGER_FLOATS[key]
        as_int = self._pipeline(tmp_path / "int", ["--set", f"{key}={value}", *READ_UNDER.get(key, [])])
        as_float = self._pipeline(tmp_path / "float",
                                  ["--set", f"{key}={float(value)}", *READ_UNDER.get(key, [])])
        assert as_int == as_float


class TestBuildDb:
    def test_manifest_roundtrip(self, tmp_path):
        src = synth(tmp_path, "src")
        out = tmp_path / "rebuilt"
        rc = run_command(
            [
                "build-db",
                "--manifest", str(src / "manifest.csv"),
                "--payloads", str(src / "payloads.vprk"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "manifest.csv").read_bytes() == (src / "manifest.csv").read_bytes()
        assert (out / "payloads.vprk").read_bytes() == (src / "payloads.vprk").read_bytes()

    def test_missing_manifest_fails(self, tmp_path, capsys):
        rc = run_command(
            ["build-db", "--manifest", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")]
        )
        assert rc == 1

    def test_payload_count_mismatch_fails(self, tmp_path, capsys):
        src = synth(tmp_path, "src")
        other = synth(tmp_path, "other", extra=["--set", "synth.num_places=13"])
        rc = run_command(
            [
                "build-db",
                "--manifest", str(src / "manifest.csv"),
                "--payloads", str(other / "payloads.vprk"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 1


    def test_train_with_too_few_payloads_fails_cleanly(self, tmp_path, capsys):
        from vprkit.tensorio import load_tensor, save_tensor

        db = synth(tmp_path)
        save_tensor(db / "payloads.vprk", load_tensor(db / "payloads.vprk")[:-1])
        rc = run_command(["train", "--db", str(db), "--out", str(tmp_path / "run"), *SMALL_TRAIN])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: payload tensor")

    def test_train_on_a_nan_payload_fails_cleanly(self, tmp_path, capsys):
        from vprkit.tensorio import load_tensor, save_tensor

        db = synth(tmp_path)
        stack = load_tensor(db / "payloads.vprk")
        stack[6, 1, 2, 3] = np.nan  # a training image: the first of place 1
        save_tensor(db / "payloads.vprk", stack)
        capsys.readouterr()
        rc = run_command(["train", "--db", str(db), "--out", str(tmp_path / "run"), *SMALL_TRAIN])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: image 'synth_00001_00' of place 1: feature map entries must be finite\n")
        assert not (tmp_path / "run" / "checkpoint.vprc").exists()

    def test_train_whose_row_norms_overflow_fails_cleanly(self, tmp_path):
        # at this learning rate the head's weights overflow within two epochs; run as its own
        # process, so that a numpy warning would show on its stderr
        db = synth(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "vprkit.cli", "train", "--db", str(db),
             "--out", str(tmp_path / "run"), *SMALL_TRAIN, "--set", "train.initial_lr=1e308"],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (1, "error: row 0 has norm inf\n")
        assert not (tmp_path / "run").exists()


class TestTrainEval:
    def test_train_then_eval(self, tmp_path):
        db = synth(tmp_path)
        run_dir = tmp_path / "run"
        rc = run_command(
            ["train", "--db", str(db), "--out", str(run_dir), "--seed", "7", *SMALL_TRAIN]
        )
        assert rc == 0
        assert (run_dir / "checkpoint.vprc").exists()
        assert (run_dir / "trainlog.json").exists()

        eval_dir = tmp_path / "eval"
        rc = run_command(
            [
                "eval",
                "--db", str(db),
                "--checkpoint", str(run_dir / "checkpoint.vprc"),
                "--out", str(eval_dir),
                "--seed", "7",
                "--label", "run_a",
            ]
        )
        assert rc == 0
        report = RecallReport.from_kv_lines((eval_dir / "report.kv").read_text())
        assert report.label == "run_a"
        assert set(report.ks) == {1, 5, 10}
        assert (eval_dir / "queries.vprk").exists()
        assert (eval_dir / "queries.csv").exists()
        assert (eval_dir / "references.vprk").exists()

    def test_eval_descriptor_set_against_itself(self, tmp_path, rng):
        from vprkit.embeddings import normalize_rows

        vectors = normalize_rows(rng.standard_normal((20, 8)))
        ds = DescriptorSet(
            vectors, [f"d{i}" for i in range(20)],
            np.zeros(20), np.zeros(20), rng.integers(0, 5, 20),
        )
        path = tmp_path / "self.vprk"
        save_descriptors(path, ds)
        out = tmp_path / "selfeval"
        rc = run_command(
            ["eval", "--queries", str(path), "--refs", str(path), "--out", str(out)]
        )
        assert rc == 0
        report = RecallReport.from_kv_lines((out / "report.kv").read_text())
        assert report.recall_at[1] == 1.0

    def test_eval_on_a_db_without_payloads_names_an_image(self, tmp_path, capsys):
        db = synth(tmp_path)
        run = tmp_path / "run"
        assert run_command(["train", "--db", str(db), "--out", str(run), *SMALL_TRAIN]) == 0
        (db / "payloads.vprk").unlink()
        capsys.readouterr()
        rc = run_command(["eval", "--db", str(db), "--checkpoint", str(run / "checkpoint.vprc"),
                          "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert capsys.readouterr().err == "error: image 'synth_00000_04' has no payload\n"
        assert not (tmp_path / "eval").exists()

    def test_eval_requires_inputs(self, tmp_path):
        assert run_command(["eval", "--out", str(tmp_path / "x")]) == 1


class TestEvalInputFlags:
    """eval reads one pair of inputs; a flag of the other pair is an error, not ignored."""

    @staticmethod
    def _fails(capsys, argv, out):
        capsys.readouterr()
        assert run_command([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: eval ")
        assert not out.exists()

    def test_queries_without_refs_next_to_db(self, tmp_path, capsys):
        db = synth(tmp_path)
        run_dir = tmp_path / "run"
        assert run_command(["train", "--db", str(db), "--out", str(run_dir), *SMALL_TRAIN]) == 0
        argv = ["eval", "--db", str(db), "--checkpoint", str(run_dir / "checkpoint.vprc"),
                "--queries", str(tmp_path / "missing.vprk")]
        self._fails(capsys, argv, tmp_path / "ev")

    def test_sets_next_to_db_and_checkpoint(self, tmp_path, rng, capsys):
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        argv = ["eval", "--queries", str(path), "--refs", str(path),
                "--db", str(tmp_path / "missing"), "--checkpoint", str(tmp_path / "missing.vprc")]
        self._fails(capsys, argv, tmp_path / "ev")

    def test_sets_of_different_widths(self, tmp_path, rng, capsys):
        from vprkit.embeddings import normalize_rows

        paths = []
        for name, dim in (("q", 8), ("r", 16)):
            paths.append(tmp_path / f"{name}.vprk")
            save_descriptors(paths[-1], DescriptorSet(
                normalize_rows(rng.standard_normal((6, dim))), [f"{name}{i}" for i in range(6)],
                np.zeros(6), np.zeros(6), np.arange(6)))
        out = tmp_path / "ev"
        capsys.readouterr()
        assert run_command(["eval", "--queries", str(paths[0]), "--refs", str(paths[1]),
                            "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: query descriptors have dim 8, references have dim 16\n")
        assert not out.exists()


SMALL_PLACES = [
    "--set", "train.images_per_place=2",
    "--set", "eval.queries_per_place=1",
]


def train_and_eval(tmp_path, db):
    run_dir = tmp_path / "run"
    rc = run_command(["train", "--db", str(db), "--out", str(run_dir), *SMALL_TRAIN, *SMALL_PLACES])
    assert rc == 0
    rc = run_command(
        ["eval", "--db", str(db), "--checkpoint", str(run_dir / "checkpoint.vprc"),
         "--out", str(tmp_path / "eval"), *SMALL_PLACES]
    )
    assert rc == 0
    return RecallReport.from_kv_lines((tmp_path / "eval" / "report.kv").read_text())


class TestSmallPlaces:
    def test_synth_three_images_per_place(self, tmp_path):
        db = synth(tmp_path, extra=["--set", "synth.images_per_place=3"])
        report = train_and_eval(tmp_path, db)
        assert report.queries_evaluated == 12

    def test_build_db_allow_small_places(self, tmp_path):
        src = synth(tmp_path, "src", extra=["--set", "synth.images_per_place=3"])
        db = tmp_path / "db"
        rc = run_command(
            ["build-db", "--manifest", str(src / "manifest.csv"),
             "--payloads", str(src / "payloads.vprk"), "--out", str(db),
             "--allow-small-places"]
        )
        assert rc == 0
        report = train_and_eval(tmp_path, db)
        assert report.queries_evaluated == 12


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("grid", [5, [2.5, 2], None])
    def test_bad_grid_fails_cleanly(self, tmp_path, capsys, grid):
        from vprkit.tensorio import load_checkpoint, save_checkpoint

        db = synth(tmp_path)
        run_dir = tmp_path / "run"
        rc = run_command(["train", "--db", str(db), "--out", str(run_dir), *SMALL_TRAIN])
        assert rc == 0
        path = run_dir / "checkpoint.vprc"
        kind, tensors, config = load_checkpoint(path)
        save_checkpoint(path, kind, tensors, {**config, "grid": grid})
        capsys.readouterr()
        rc = run_command(
            ["eval", "--db", str(db), "--checkpoint", str(path), "--out", str(tmp_path / "eval")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "grid" in err

    @staticmethod
    def _eval_with_tensors(tmp_path, capsys, aggregator, edit):
        from vprkit.tensorio import load_checkpoint, save_checkpoint

        db = synth(tmp_path)
        run_dir = tmp_path / "run"
        rc = run_command(["train", "--db", str(db), "--out", str(run_dir), *SMALL_TRAIN,
                          "--set", f"train.aggregator={aggregator}"])
        assert rc == 0
        path = run_dir / "checkpoint.vprc"
        kind, tensors, config = load_checkpoint(path)
        save_checkpoint(path, kind, edit(tensors), config)
        capsys.readouterr()
        rc = run_command(
            ["eval", "--db", str(db), "--checkpoint", str(path), "--out", str(tmp_path / "eval")]
        )
        assert not (tmp_path / "eval" / "report.kv").exists()
        return rc, capsys.readouterr().err

    def test_conv_ap_without_weight_names_it(self, tmp_path, capsys):
        rc, err = self._eval_with_tensors(tmp_path, capsys, "conv_ap",
                                          lambda t: {"bias": t["bias"]})
        assert rc == 1
        assert err.startswith("error:") and "no tensor 'weight'" in err

    def test_gem_power_with_two_entries_names_it(self, tmp_path, capsys):
        rc, err = self._eval_with_tensors(tmp_path, capsys, "gem",
                                          lambda t: {"power": np.repeat(t["power"], 2)})
        assert rc == 1
        assert err.startswith("error:") and "'power' has shape (2,)" in err

    def test_gem_power_below_its_minimum_is_not_clamped(self, tmp_path, capsys):
        rc, err = self._eval_with_tensors(tmp_path, capsys, "gem",
                                          lambda t: {"power": np.array([-5.0])})
        assert rc == 1
        path = tmp_path / "run" / "checkpoint.vprc"
        assert err == f"error: {path}: tensor 'power' holds values a gem head does not take\n"


class TestCheckpointKinds:
    """Each loader takes only its own checkpoint kind, and names the file and the kind it got."""

    def test_eval_with_a_pca_model(self, tmp_path, rng, capsys):
        db = synth(tmp_path)
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        assert run_command(["reduce", "--fit", str(path), "--out", str(tmp_path / "pca"),
                            "--set", "pca.out_dim=3"]) == 0
        model = tmp_path / "pca" / "pca_model.vprc"
        capsys.readouterr()
        rc = run_command(["eval", "--db", str(db), "--checkpoint", str(model),
                          "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {model}: checkpoint of kind 'pca' is not an aggregation head\n")
        assert not (tmp_path / "eval").exists()

    def test_reduce_with_a_head_checkpoint(self, tmp_path, rng, capsys):
        db = synth(tmp_path)
        assert run_command(["train", "--db", str(db), "--out", str(tmp_path / "run"),
                            *SMALL_TRAIN]) == 0
        checkpoint = tmp_path / "run" / "checkpoint.vprc"
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        capsys.readouterr()
        rc = run_command(["reduce", "--apply", str(path), "--model", str(checkpoint),
                          "--out", str(tmp_path / "apply")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint}: checkpoint of kind 'conv_ap' is not a PCA model\n")
        assert not (tmp_path / "apply").exists()


class TestReduce:
    def test_fit_and_apply(self, tmp_path, rng):
        from vprkit.embeddings import normalize_rows

        vectors = normalize_rows(rng.standard_normal((50, 16)))
        ds = DescriptorSet(
            vectors, [f"d{i}" for i in range(50)],
            np.zeros(50), np.zeros(50), rng.integers(0, 9, 50),
        )
        path = tmp_path / "full.vprk"
        save_descriptors(path, ds)
        out = tmp_path / "pca"
        rc = run_command(
            [
                "reduce", "--fit", str(path), "--apply", str(path),
                "--out", str(out), "--set", "pca.out_dim=4",
            ]
        )
        assert rc == 0
        assert (out / "pca_model.vprc").exists()
        from vprkit.tensorio import load_descriptors

        reduced = load_descriptors(out / "reduced.vprk")
        assert reduced.vectors.shape == (50, 4)

    def test_apply_with_saved_model(self, tmp_path, rng):
        from vprkit.embeddings import normalize_rows
        from vprkit.tensorio import load_descriptors

        vectors = normalize_rows(rng.standard_normal((30, 8)))
        ds = DescriptorSet(
            vectors, [f"d{i}" for i in range(30)],
            np.zeros(30), np.zeros(30), np.arange(30),
        )
        path = tmp_path / "x.vprk"
        save_descriptors(path, ds)
        fit_dir = tmp_path / "fit"
        assert run_command(
            ["reduce", "--fit", str(path), "--out", str(fit_dir), "--set", "pca.out_dim=3"]
        ) == 0
        apply_dir = tmp_path / "apply"
        assert run_command(
            [
                "reduce", "--apply", str(path),
                "--model", str(fit_dir / "pca_model.vprc"),
                "--out", str(apply_dir),
            ]
        ) == 0
        assert load_descriptors(apply_dir / "reduced.vprk").vectors.shape == (30, 3)

    def test_fit_and_apply_equals_apply_with_the_saved_model(self, tmp_path, rng):
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        fit_dir, apply_dir = tmp_path / "fit", tmp_path / "apply"
        assert run_command(["reduce", "--fit", str(path), "--apply", str(path),
                            "--out", str(fit_dir), "--set", "pca.out_dim=3"]) == 0
        assert run_command(["reduce", "--apply", str(path),
                            "--model", str(fit_dir / "pca_model.vprc"),
                            "--out", str(apply_dir)]) == 0
        for name in ("reduced.vprk", "reduced.csv"):
            assert (fit_dir / name).read_bytes() == (apply_dir / name).read_bytes()

    def test_model_with_a_tensor_of_the_wrong_rank(self, tmp_path, rng, capsys):
        from vprkit.tensorio import load_checkpoint, save_checkpoint

        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        assert run_command(["reduce", "--fit", str(path), "--out", str(tmp_path / "fit"),
                            "--set", "pca.out_dim=3"]) == 0
        model = tmp_path / "fit" / "pca_model.vprc"
        kind, tensors, config = load_checkpoint(model)
        save_checkpoint(model, kind, {**tensors, "eigenvalues": tensors["eigenvalues"][:, None]},
                        config)
        capsys.readouterr()
        assert run_command(["reduce", "--apply", str(path), "--model", str(model),
                            "--out", str(tmp_path / "apply")]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: PCA tensor 'eigenvalues' has shape (3, 1), needs rank 1\n")

    def test_no_action_fails(self, tmp_path):
        assert run_command(["reduce", "--out", str(tmp_path / "x")]) == 1

    def test_fit_holds_the_fit_set_once(self, tmp_path, rng, traced_memory):
        from vprkit.embeddings import normalize_rows

        n, d = 2500, 256
        for name, rows in (("refs", n), ("queries", 250)):
            save_descriptors(tmp_path / f"{name}.vprk", DescriptorSet(
                normalize_rows(rng.standard_normal((rows, d))), [f"d{i}" for i in range(rows)],
                np.zeros(rows), np.zeros(rows), np.arange(rows)))
        with traced_memory() as peak:
            assert run_command(["reduce", "--fit", str(tmp_path / "refs.vprk"),
                                "--apply", str(tmp_path / "queries.vprk"),
                                "--out", str(tmp_path / "pca"), "--set", "pca.out_dim=64"]) == 0
        # the loaded set, centered in place, and D x D arrays: the covariance, the eigenvectors
        # and their temporaries (a centered copy alone would be another 5.1 MB)
        assert peak.bytes < 8 * n * d + 4 * 8 * d * d

    def test_model_without_mean_names_it(self, tmp_path, rng, capsys):
        from vprkit.embeddings import normalize_rows
        from vprkit.tensorio import load_checkpoint, save_checkpoint

        ds = DescriptorSet(normalize_rows(rng.standard_normal((30, 8))),
                           [f"d{i}" for i in range(30)], np.zeros(30), np.zeros(30), np.arange(30))
        path = tmp_path / "x.vprk"
        save_descriptors(path, ds)
        fit_dir = tmp_path / "fit"
        assert run_command(
            ["reduce", "--fit", str(path), "--out", str(fit_dir), "--set", "pca.out_dim=3"]
        ) == 0
        model = fit_dir / "pca_model.vprc"
        kind, tensors, config = load_checkpoint(model)
        del tensors["mean"]
        save_checkpoint(model, kind, tensors, config)
        capsys.readouterr()
        rc = run_command(["reduce", "--apply", str(path), "--model", str(model),
                          "--out", str(tmp_path / "apply")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no tensor 'mean'" in err
        assert not (tmp_path / "apply" / "reduced.vprk").exists()


class TestNonFiniteReduce:
    """Bad PCA inputs fail with exit 1 and an `error:` line, and write no artifact."""

    @staticmethod
    def _saved_set(tmp_path, rng, name="x", nan_row=None):
        from vprkit.embeddings import normalize_rows
        from vprkit.tensorio import save_tensor

        vectors = normalize_rows(rng.standard_normal((30, 8)))
        path = tmp_path / f"{name}.vprk"
        save_descriptors(path, DescriptorSet(vectors, [f"d{i}" for i in range(30)],
                                             np.zeros(30), np.zeros(30), np.arange(30)))
        if nan_row is not None:
            vectors[nan_row, 3] = np.nan
            save_tensor(path, vectors)
        return path

    @staticmethod
    def _reduce(capsys, *argv):
        capsys.readouterr()
        rc = run_command(["reduce", *argv])
        return rc, capsys.readouterr().err

    def test_negative_epsilon(self, tmp_path, rng, capsys):
        path = self._saved_set(tmp_path, rng)
        out = tmp_path / "pca"
        rc, err = self._reduce(capsys, "--fit", str(path), "--apply", str(path), "--out", str(out),
                               "--set", "pca.out_dim=3", "--set", "pca.epsilon=-1.0")
        assert rc == 1
        assert err.startswith("error:") and "epsilon" in err
        assert not (out / "pca_model.vprc").exists() and not (out / "reduced.vprk").exists()

    def test_model_with_nan_projection(self, tmp_path, rng, capsys):
        from vprkit.tensorio import load_checkpoint, save_checkpoint

        path = self._saved_set(tmp_path, rng)
        fit_dir = tmp_path / "fit"
        assert run_command(["reduce", "--fit", str(path), "--out", str(fit_dir),
                            "--set", "pca.out_dim=3"]) == 0
        model = fit_dir / "pca_model.vprc"
        kind, tensors, config = load_checkpoint(model)
        tensors["projection"][1, 2] = np.nan
        save_checkpoint(model, kind, tensors, config)
        out = tmp_path / "apply"
        rc, err = self._reduce(capsys, "--apply", str(path), "--model", str(model),
                               "--out", str(out))
        assert rc == 1
        assert err.startswith("error:") and "pca_model.vprc" in err and "projection" in err
        assert not (out / "reduced.vprk").exists()

    def test_apply_set_with_nan(self, tmp_path, rng, capsys):
        fit = self._saved_set(tmp_path, rng, "fit")
        bad = self._saved_set(tmp_path, rng, "bad", nan_row=4)
        out = tmp_path / "pca"
        rc, err = self._reduce(capsys, "--fit", str(fit), "--apply", str(bad), "--out", str(out),
                               "--set", "pca.out_dim=3")
        assert rc == 1
        assert err.startswith("error:") and "bad.vprk: row 4" in err
        # the model fitted before the bad set loaded is not written either
        assert not (out / "pca_model.vprc").exists() and not (out / "reduced.vprk").exists()

    def test_fit_set_with_nan(self, tmp_path, rng, capsys):
        bad = self._saved_set(tmp_path, rng, "bad", nan_row=7)
        out = tmp_path / "pca"
        rc, err = self._reduce(capsys, "--fit", str(bad), "--out", str(out),
                               "--set", "pca.out_dim=3")
        assert rc == 1
        assert err.startswith("error:") and "bad.vprk: row 7" in err and "rank" not in err
        assert not (out / "pca_model.vprc").exists()


class TestNonFiniteMaps:
    """A map with a NaN fails train and eval by name, and leaves no output directory."""

    @pytest.mark.parametrize("aggregator", ["conv_ap", "avg", "gem"])
    def test_train_and_eval_name_the_image(self, tmp_path, capsys, aggregator):
        from vprkit.tensorio import load_tensor, save_tensor

        db = synth(tmp_path)
        head = ["--set", f"train.aggregator={aggregator}"]
        run = tmp_path / "run"
        assert run_command(["train", "--db", str(db), "--out", str(run), *SMALL_TRAIN, *head]) == 0
        stack = load_tensor(db / "payloads.vprk")
        stack[13, 4, 0, 7] = np.nan  # the second image of place 2: trained on and a reference
        save_tensor(db / "payloads.vprk", stack)
        message = "error: image 'synth_00002_01' of place 2: feature map entries must be finite\n"
        for argv in (["train", "--db", str(db), *SMALL_TRAIN, *head],
                     ["eval", "--db", str(db), "--checkpoint", str(run / "checkpoint.vprc")]):
            out = tmp_path / f"{argv[0]}_out"
            capsys.readouterr()
            assert run_command([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == message
            assert not out.exists()

    def test_signalling_nan_fails_eval_with_one_error_line(self, tmp_path, capsys):
        # float32 0x7f800001 is a signalling NaN: widening it to float64 raises "invalid"
        db = synth(tmp_path)
        run = tmp_path / "run"
        assert run_command(["train", "--db", str(db), "--out", str(run), *SMALL_TRAIN]) == 0
        payloads = db / "payloads.vprk"
        payloads.write_bytes(payloads.read_bytes()[:-4] + struct.pack("<I", 0x7F800001))
        capsys.readouterr()
        assert run_command(["eval", "--db", str(db), "--checkpoint", str(run / "checkpoint.vprc"),
                            "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == (
            "error: image 'synth_00011_05' of place 11: feature map entries must be finite\n")


class TestBinaryReadErrorsNameTheFile:
    def test_eval_queries_with_bad_magic(self, tmp_path, rng, capsys):
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        bad = tmp_path / "q.vprk"
        bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
        path.with_suffix(".csv").replace(bad.with_suffix(".csv"))
        capsys.readouterr()
        assert run_command(["eval", "--queries", str(bad), "--refs", str(path),
                            "--out", str(tmp_path / "ev")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: bad magic b'XXXX', expected b'VPRK'\n"

    def test_reduce_model_with_bad_magic(self, tmp_path, rng, capsys):
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        model = tmp_path / "m.vprc"
        model.write_bytes(b"XXXX" + bytes(16))
        capsys.readouterr()
        assert run_command(["reduce", "--apply", str(path), "--model", str(model),
                            "--out", str(tmp_path / "pca")]) == 1
        assert capsys.readouterr().err == f"error: {model}: bad magic b'XXXX', expected b'VPRC'\n"


class TestReduceLeavesNoDirectory:
    """A failed reduce makes no output directory."""

    def test_no_action(self, tmp_path):
        out = tmp_path / "x"
        assert run_command(["reduce", "--out", str(out)]) == 1
        assert not out.exists()

    def test_apply_without_model(self, tmp_path, rng):
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        out = tmp_path / "pca"
        assert run_command(["reduce", "--apply", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_fit_with_model(self, tmp_path, rng, capsys):
        # --fit learns the model, so a --model beside it would be ignored
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        out = tmp_path / "pca"
        capsys.readouterr()
        assert run_command(["reduce", "--fit", str(path), "--model", str(tmp_path / "missing.vprc"),
                            "--out", str(out), "--set", "pca.out_dim=3"]) == 1
        assert "--model" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_set_with_nan(self, tmp_path, rng):
        bad = TestNonFiniteReduce._saved_set(tmp_path, rng, "bad", nan_row=2)
        out = tmp_path / "pca"
        assert run_command(["reduce", "--fit", str(bad), "--out", str(out),
                            "--set", "pca.out_dim=3"]) == 1
        assert not out.exists()

    def test_missing_apply_set(self, tmp_path, rng):
        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        out = tmp_path / "pca"
        assert run_command(["reduce", "--fit", str(path), "--apply", str(tmp_path / "none.vprk"),
                            "--out", str(out), "--set", "pca.out_dim=3"]) == 1
        assert not out.exists()


class TestReport:
    def _write_report(self, path, label, values):
        rep = RecallReport(
            ks=[1, 5, 10],
            recall_at=dict(zip([1, 5, 10], values)),
            queries_evaluated=24,
            label=label,
        )
        path.write_text(rep.to_kv_lines(), encoding="utf-8")

    def test_ablation_table_structure(self, tmp_path):
        # one row per pooling-grid variant, like an s in {1,2,3,4} sweep
        files = []
        for s in (1, 2, 3, 4):
            path = tmp_path / f"conv_ap_s{s}.kv"
            self._write_report(path, f"conv_ap_s{s}x{s}", [0.70 + s * 0.05, 0.9, 0.95])
            files.append(str(path))
        out = tmp_path / "table"
        rc = run_command(["report", *files, "--out", str(out)])
        assert rc == 0
        text = (out / "table.txt").read_text()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert len(lines) == 5  # header + 4 variants
        assert lines[0].split()[:1] == ["run"]
        assert [ln.split()[0] for ln in lines[1:]] == [
            "conv_ap_s1x1", "conv_ap_s2x2", "conv_ap_s3x3", "conv_ap_s4x4"
        ]

    def test_machine_readable_roundtrip(self, tmp_path):
        path = tmp_path / "a.kv"
        values = [0.8421052631578947, 0.9473684210526315, 1.0]
        self._write_report(path, "run_a", values)
        out = tmp_path / "table"
        assert run_command(["report", str(path), "--out", str(out)]) == 0
        lines = (out / "table.kv").read_text().splitlines()
        assert lines == [f"run=run_a k={k} recall={v!r}" for k, v in zip((1, 5, 10), values)]
        assert [float(line.rpartition("=")[2]) for line in lines] == values  # exact round trip

    def test_nan_recall_rejected(self, tmp_path, capsys):
        path = tmp_path / "a.kv"
        self._write_report(path, "a", [0.5, 0.6, 0.7])
        path.write_text(path.read_text().replace("recall@1=0.5\n", "recall@1=nan\n"))
        capsys.readouterr()
        assert run_command(["report", str(path), "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == f"error: {path}: recall values must lie in [0, 1]\n"
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("key", ["ks", "recall@5"])
    def test_missing_line_named(self, tmp_path, capsys, key):
        path = tmp_path / "a.kv"
        self._write_report(path, "a", [0.5, 0.6, 0.7])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith(f"{key}=")))
        capsys.readouterr()
        assert run_command(["report", str(path), "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == f"error: {path}: no {key!r} line\n"

    @pytest.mark.parametrize("ks", ["", "0", "-1,5", "5,5"])
    def test_ks_must_be_distinct_and_positive(self, tmp_path, capsys, ks):
        path = tmp_path / "a.kv"
        path.write_text(f"label=a\nks={ks}\nrecall@0=0.5\nrecall@-1=0.5\nrecall@5=0.6\n")
        capsys.readouterr()
        assert run_command(["report", str(path), "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == f"error: {path}: ks must be distinct positive integers\n"

    def test_inconsistent_ks_rejected(self, tmp_path):
        a = tmp_path / "a.kv"
        self._write_report(a, "a", [0.5, 0.6, 0.7])
        b = tmp_path / "b.kv"
        rep = RecallReport(ks=[1, 2], recall_at={1: 0.5, 2: 0.6}, label="b")
        b.write_text(rep.to_kv_lines(), encoding="utf-8")
        assert run_command(["report", str(a), str(b), "--out", str(tmp_path / "t")]) == 1

    def test_inconsistent_ks_names_both_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.kv", tmp_path / "b.kv"
        a.write_text(RecallReport(ks=[1, 5], recall_at={1: 0.5, 5: 0.6}, label="a").to_kv_lines())
        b.write_text(RecallReport(ks=[1], recall_at={1: 0.5}, label="b").to_kv_lines())
        capsys.readouterr()
        assert run_command(["report", str(a), str(b), "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == f"error: {b}: ks [1] differ from [1, 5] in {a}\n"
        assert not (tmp_path / "t").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "vprkit.cli", "synth", "--out", str(tmp_path / "db"),
             "--seed", "3", *SMALL_SYNTH],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "db" / "payloads.vprk").exists()

    def test_bad_subcommand_exits_nonzero(self):
        result = subprocess.run(
            [sys.executable, "-m", "vprkit.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert result.returncode != 0

    def test_one_parser_gives_each_parse_its_own_values(self):
        first = cli._parser().parse_args(["synth", "--out", "a", "--set", "seed=1", "--set", "seed=2"])
        second = cli._parser().parse_args(["synth", "--out", "b"])
        assert (first.out, first.set, first.func) == ("a", ["seed=1", "seed=2"], cli.cmd_synth)
        assert (second.out, second.set) == ("b", None)


class TestAllocatorPolicy:
    @staticmethod
    def _policy_with(monkeypatch, libc):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._set_allocator_policy.__wrapped__()  # uncached: the process-wide call already ran

    def test_both_thresholds_fixed(self, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        self._policy_with(monkeypatch, Libc())
        assert sorted(calls) == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 32 << 20)]

    def test_skipped_without_mallopt(self, monkeypatch):
        self._policy_with(monkeypatch, object())


class TestMalformedSidecar:
    def test_reduce_fit_on_short_row_fails_cleanly(self, tmp_path, rng, capsys):
        from vprkit.embeddings import normalize_rows
        from vprkit.tensorio import sidecar_path

        ds = DescriptorSet(
            normalize_rows(rng.standard_normal((20, 8))), [f"d{i}" for i in range(20)],
            np.zeros(20), np.zeros(20), np.arange(20),
        )
        path = tmp_path / "x.vprk"
        save_descriptors(path, ds)
        lines = sidecar_path(path).read_text().splitlines()
        lines[5] = "d4,0.0"
        sidecar_path(path).write_text("\n".join(lines) + "\n")
        rc = run_command(
            ["reduce", "--fit", str(path), "--out", str(tmp_path / "fit"), "--set", "pca.out_dim=3"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 6" in err


class TestRejectedTextInputs:
    """A manifest or sidecar the readers reject ends the command with one `error:` line."""

    BIG = b"99999999999999999999"  # a place id beyond int64

    @staticmethod
    def _fails(capsys, argv, *words):
        capsys.readouterr()
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert all(word in err for word in words), err

    @staticmethod
    def _edit_manifest(db, old, new):
        manifest = db / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes().replace(old, new))

    def _trained_db(self, tmp_path):
        db = synth(tmp_path)
        run = tmp_path / "run"
        assert run_command(["train", "--db", str(db), "--out", str(run), *SMALL_TRAIN]) == 0
        return db, run / "checkpoint.vprc"

    def _big_id_set(self, tmp_path, rng):
        from vprkit.tensorio import sidecar_path

        path = TestNonFiniteReduce._saved_set(tmp_path, rng)
        side = sidecar_path(path)
        side.write_bytes(side.read_bytes().replace(b",3\r\n", b"," + self.BIG + b"\r\n"))
        return path

    def test_build_db_big_place_id(self, tmp_path, capsys):
        src = synth(tmp_path, "src")
        self._edit_manifest(src, b"\n0,", b"\n" + self.BIG + b",")
        self._fails(capsys, ["build-db", "--manifest", str(src / "manifest.csv"),
                             "--out", str(tmp_path / "db")],
                    "manifest.csv: line 2: ", "does not fit in int64")

    def test_train_big_place_id(self, tmp_path, capsys):
        db = synth(tmp_path)
        self._edit_manifest(db, b"\n1,", b"\n" + self.BIG + b",")
        self._fails(capsys, ["train", "--db", str(db), "--out", str(tmp_path / "run"),
                             *SMALL_TRAIN], "manifest.csv: line 8: ", "int64")

    def test_eval_db_big_place_id(self, tmp_path, capsys):
        db, checkpoint = self._trained_db(tmp_path)
        self._edit_manifest(db, b"\n0,", b"\n" + self.BIG + b",")
        self._fails(capsys, ["eval", "--db", str(db), "--checkpoint", str(checkpoint),
                             "--out", str(tmp_path / "ev")], "manifest.csv: line 2: ", "int64")

    def test_eval_sidecar_big_place_id(self, tmp_path, rng, capsys):
        path = self._big_id_set(tmp_path, rng)
        self._fails(capsys, ["eval", "--queries", str(path), "--refs", str(path),
                             "--out", str(tmp_path / "ev")], "x.csv: line 5: ", "int64")

    def test_reduce_sidecar_big_place_id(self, tmp_path, rng, capsys):
        path = self._big_id_set(tmp_path, rng)
        self._fails(capsys, ["reduce", "--fit", str(path), "--out", str(tmp_path / "pca"),
                             "--set", "pca.out_dim=2"], "x.csv: line 5: ", "int64")

    def test_build_db_non_utf8_manifest(self, tmp_path, capsys):
        src = synth(tmp_path, "src")
        self._edit_manifest(src, b"synth_00001_00", b"synth_\xff")
        self._fails(capsys, ["build-db", "--manifest", str(src / "manifest.csv"),
                             "--out", str(tmp_path / "db")], "manifest.csv: line 8: not UTF-8")

    def test_train_non_utf8_manifest(self, tmp_path, capsys):
        db = synth(tmp_path)
        self._edit_manifest(db, b"synth_00001_00", b"synth_\xff")
        self._fails(capsys, ["train", "--db", str(db), "--out", str(tmp_path / "run"),
                             *SMALL_TRAIN], "manifest.csv: line 8: not UTF-8")

    def test_eval_non_utf8_manifest(self, tmp_path, capsys):
        db, checkpoint = self._trained_db(tmp_path)
        self._edit_manifest(db, b"synth_00001_00", b"synth_\xff")
        self._fails(capsys, ["eval", "--db", str(db), "--checkpoint", str(checkpoint),
                             "--out", str(tmp_path / "ev")], "manifest.csv: line 8: not UTF-8")


class TestEvalCopies:
    @staticmethod
    def _hand_written_set(tmp_path, rng, name="in"):
        """A set whose sidecar spells numbers as `save_descriptors` would not."""
        from vprkit.embeddings import normalize_rows
        from vprkit.tensorio import save_tensor, sidecar_path

        path = tmp_path / f"{name}.vprk"
        save_tensor(path, normalize_rows(rng.standard_normal((12, 8))))
        rows = [f"d{i},45,{7 + i / 1e5:.6f},{i % 3}" for i in range(12)]
        sidecar_path(path).write_text("id,lat,lon,place_id\r\n" + "\r\n".join(rows) + "\r\n")
        return path

    def _eval(self, queries, refs, out):
        return run_command(["eval", "--queries", str(queries), "--refs", str(refs),
                            "--out", str(out), "--set", "eval.ground_truth=geo"])

    def test_copies_are_the_input_bytes(self, tmp_path, rng):
        q = self._hand_written_set(tmp_path, rng, "q")
        r = self._hand_written_set(tmp_path, rng, "r")
        out = tmp_path / "ev"
        assert self._eval(q, r, out) == 0
        for src, dest in ((q, "queries"), (r, "references")):
            assert (out / f"{dest}.vprk").read_bytes() == src.read_bytes()
            assert (out / f"{dest}.csv").read_bytes() == src.with_suffix(".csv").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == [
            "queries.csv", "queries.vprk", "references.csv", "references.vprk",
            "report.kv", "report.txt", "resolved_config.json"]

    def test_reduce_of_copies_equals_reduce_of_inputs(self, tmp_path, rng):
        q = self._hand_written_set(tmp_path, rng, "q")
        r = self._hand_written_set(tmp_path, rng, "r")
        assert self._eval(q, r, tmp_path / "ev") == 0
        outs = []
        for fit, apply, name in ((r, q, "from_inputs"),
                                 (tmp_path / "ev" / "references.vprk",
                                  tmp_path / "ev" / "queries.vprk", "from_copies")):
            outs.append(tmp_path / name)
            assert run_command(["reduce", "--fit", str(fit), "--apply", str(apply),
                                "--out", str(outs[-1]), "--set", "pca.out_dim=4"]) == 0
        for name in ("pca_model.vprc", "reduced.vprk", "reduced.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_same_set_as_queries_and_refs(self, tmp_path, rng):
        x = self._hand_written_set(tmp_path, rng)
        out = tmp_path / "ev"
        assert self._eval(x, x, out) == 0
        for dest in ("queries", "references"):
            assert (out / f"{dest}.vprk").read_bytes() == x.read_bytes()
            assert (out / f"{dest}.csv").read_bytes() == x.with_suffix(".csv").read_bytes()

    def test_eval_into_the_inputs_directory(self, tmp_path, rng):
        first = tmp_path / "first"
        x = self._hand_written_set(tmp_path, rng)
        assert self._eval(x, x, first) == 0
        before = {p.name: p.read_bytes() for p in first.iterdir()}
        assert self._eval(first / "queries.vprk", first / "references.vprk", first) == 0
        assert {p.name: p.read_bytes() for p in first.iterdir()} == before

    def test_rerun_into_the_inputs_directory_with_roles_swapped(self, tmp_path, rng):
        q = self._hand_written_set(tmp_path, rng, "q")
        r = self._hand_written_set(tmp_path, rng, "r")
        side = r.with_suffix(".csv")
        side.write_text(side.read_text().replace("\nd", "\ne"))  # other ids than q's sidecar
        out = tmp_path / "ev"
        assert self._eval(q, r, out) == 0
        assert self._eval(out / "references.vprk", out / "queries.vprk", out) == 0
        for src, dest in ((r, "queries"), (q, "references")):
            assert (out / f"{dest}.vprk").read_bytes() == src.read_bytes()
            assert (out / f"{dest}.csv").read_bytes() == src.with_suffix(".csv").read_bytes()

    def test_failed_eval_writes_no_copies(self, tmp_path, rng):
        x = self._hand_written_set(tmp_path, rng)
        out = tmp_path / "ev"
        rc = run_command(["eval", "--queries", str(x), "--refs", str(x), "--out", str(out),
                          "--set", "eval.ks=[0]"])
        assert rc == 1
        assert not out.exists()

    def test_out_of_range_latitude_fails_cleanly(self, tmp_path, rng, capsys):
        x = self._hand_written_set(tmp_path, rng)
        side = x.with_suffix(".csv")
        side.write_text(side.read_text().replace("d3,45,", "d3,nan,"))
        assert self._eval(x, x, tmp_path / "ev") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "in.csv" in err and "lat nan" in err


class TestAtomicTextArtifacts:
    """An artifact whose write fails halfway leaves its final name alone."""

    @staticmethod
    def _commands(tmp_path):
        db = synth(tmp_path)
        train = ["train", "--db", str(db), "--out", str(tmp_path / "run"), *SMALL_TRAIN]
        assert run_command(train) == 0
        checkpoint = tmp_path / "run" / "checkpoint.vprc"
        evaluate = ["eval", "--db", str(db), "--checkpoint", str(checkpoint),
                    "--out", str(tmp_path / "eval")]
        assert run_command(evaluate) == 0
        report = ["report", str(tmp_path / "eval" / "report.kv"), "--out", str(tmp_path / "table")]
        assert run_command(report) == 0
        synthesize = ["synth", "--out", str(db), "--seed", "7", *SMALL_SYNTH]
        return {"db": synthesize, "run": train, "eval": evaluate, "table": report}

    # a database directory's files are replaced together or not at all
    DB_FILES = ("manifest.csv", "payloads.vprk")

    @pytest.mark.parametrize("out,target", [
        ("run", "resolved_config.json"), ("run", "trainlog.json"),
        ("eval", "report.kv"), ("eval", "report.txt"),
        ("table", "table.txt"), ("table", "table.kv"),
        ("db", "manifest.csv"), ("db", "payloads.vprk"),
    ])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, capsys, out, target):
        from pathlib import Path

        from test_tensorio import HalfWrite

        argv = self._commands(tmp_path)[out]
        kept = self.DB_FILES if out == "db" else (target,)
        for name in kept:
            (tmp_path / out / name).write_bytes(b"old content")
        real_open = Path.open

        def half_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            writing = any(c in mode for c in "wxa")
            return HalfWrite(fh) if writing and target in path.name else fh

        monkeypatch.setattr(Path, "open", half_open)
        capsys.readouterr()
        assert run_command(argv) == 1
        monkeypatch.undo()
        assert "No space left" in capsys.readouterr().err
        assert [(tmp_path / out / name).read_bytes() for name in kept] == [b"old content"] * len(kept)
        assert not [p.name for p in (tmp_path / out).iterdir() if p.name.startswith(".")]


class TestNonFiniteConfigNumbers:
    @pytest.mark.parametrize("assignment", [
        "train.miner_epsilon=NaN", "train.weight_decay=NaN", "train.lr_decay_factor=NaN",
        "train.ms_alpha=Infinity", "train.margin=-Infinity", "train.initial_lr=1e999",
        "train.miner_epsilon=1" + "0" * 400,  # an int no float can hold
    ])
    def test_set_rejects_them(self, tmp_path, capsys, assignment):
        db = synth(tmp_path)
        rc = run_command(["train", "--db", str(db), "--out", str(tmp_path / "run"),
                          *SMALL_TRAIN, "--set", assignment])
        assert rc == 1
        assert assignment.partition("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_file_rejects_them(self, tmp_path, capsys):
        db = synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"weight_decay": float("nan")}}), encoding="utf-8")
        assert "NaN" in cfg.read_text(encoding="utf-8")
        rc = run_command(["train", "--db", str(db), "--out", str(tmp_path / "run"),
                          "--config", str(cfg), *SMALL_TRAIN])
        assert rc == 1
        assert "train.weight_decay" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestTrainHoldOut:
    @pytest.mark.parametrize("holdout", [0, -1])
    def test_train_rejects_what_eval_rejects(self, tmp_path, capsys, holdout):
        db = synth(tmp_path)
        rc = run_command(["train", "--db", str(db), "--out", str(tmp_path / "run"),
                          *SMALL_TRAIN, "--set", f"eval.queries_per_place={holdout}"])
        assert rc == 1
        assert "queries_per_place must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestTrainConfigCheckedFirst:
    @pytest.mark.parametrize("key, value, message", [
        ("momentum", 1.0, "momentum must be in [0, 1)"),
        ("gem_power", 0, "gem_power: power must be finite and >= 0.001"),
    ], ids=["momentum", "gem_power"])
    def test_bad_value_fails_before_the_database_is_read(self, tmp_path, capsys, monkeypatch,
                                                          key, value, message):
        db = synth(tmp_path)
        ingested = []
        real_ingest = places.ingest_manifest
        monkeypatch.setattr(places, "ingest_manifest",
                            lambda *args, **kw: ingested.append(args) or real_ingest(*args, **kw))
        rc = run_command(["train", "--db", str(db), "--out", str(tmp_path / "run"),
                          *SMALL_TRAIN, "--set", f"train.{key}={value}"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert ingested == []
        assert not (tmp_path / "run").exists()


class TestEvalGroundTruthCheckedFirst:
    @pytest.mark.parametrize("key, value, message", [
        ("ground_truth", "bogus", "unknown ground-truth mode 'bogus'"),
        ("radius_m", -1, "radius_m must be >= 0"),
    ], ids=["ground_truth", "radius_m"])
    def test_bad_value_fails_before_the_database_is_read(self, tmp_path, capsys, monkeypatch,
                                                          key, value, message):
        db = synth(tmp_path)
        assert run_command(["train", "--db", str(db), "--out", str(tmp_path / "run"),
                            *SMALL_TRAIN]) == 0
        capsys.readouterr()
        ingested = []
        real_ingest = places.ingest_manifest
        monkeypatch.setattr(places, "ingest_manifest",
                            lambda *args, **kw: ingested.append(args) or real_ingest(*args, **kw))
        rc = run_command(["eval", "--db", str(db), "--checkpoint",
                          str(tmp_path / "run" / "checkpoint.vprc"),
                          "--out", str(tmp_path / "eval"), "--set", f"eval.{key}={value}"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert ingested == []
        assert not (tmp_path / "eval").exists()


class TestResolvedConfigLast:
    """Every command writes resolved_config.json once, after all of its other artifacts."""

    @staticmethod
    def _commands(tmp_path):
        db = synth(tmp_path)
        run, ev, out = tmp_path / "run", tmp_path / "eval", str(tmp_path / "out")
        assert run_command(["train", "--db", str(db), "--out", str(run), *SMALL_TRAIN]) == 0
        assert run_command(["eval", "--db", str(db), "--checkpoint", str(run / "checkpoint.vprc"),
                            "--out", str(ev)]) == 0
        return {
            "synth": ["synth", "--out", out, *SMALL_SYNTH],
            "build-db": ["build-db", "--manifest", str(db / "manifest.csv"),
                         "--payloads", str(db / "payloads.vprk"), "--out", out],
            "train": ["train", "--db", str(db), "--out", out, *SMALL_TRAIN],
            "eval": ["eval", "--db", str(db), "--checkpoint", str(run / "checkpoint.vprc"),
                     "--out", out],
            "reduce": ["reduce", "--fit", str(ev / "references.vprk"),
                       "--apply", str(ev / "queries.vprk"), "--out", out, "--set", "pca.out_dim=4"],
            "report": ["report", str(ev / "report.kv"), "--out", out],
        }

    @pytest.mark.parametrize("command", ["synth", "build-db", "train", "eval", "reduce", "report"])
    def test_written_once_and_last(self, tmp_path, monkeypatch, command):
        argv = self._commands(tmp_path)[command]
        targets = []
        real_write = tensorio.write_atomic_files
        monkeypatch.setattr(tensorio, "write_atomic_files",
                            lambda files: targets.extend(Path(p) for p, _ in files)
                            or real_write(files))
        assert run_command(argv) == 0
        names = [path.name for path in targets]
        assert len(names) > 1 and names.count("resolved_config.json") == 1
        assert targets[-1] == tmp_path / "out" / "resolved_config.json"


class TestPayloadFileReads:
    """`train` and `eval` read payloads.vprk block by block instead of loading it whole."""

    @staticmethod
    def _run(tmp_path, db, name):
        """Artifacts of train then eval, by path; trainlog.json without its wall time."""
        out = tmp_path / name
        assert run_command(["train", "--db", str(db), "--out", str(out / "train"), *SMALL_TRAIN]) == 0
        assert run_command(["eval", "--db", str(db), "--checkpoint",
                            str(out / "train" / "checkpoint.vprc"), "--out", str(out / "eval")]) == 0
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        log = json.loads(files.pop(Path("train/trainlog.json")))
        del log["wall_clock_s"]
        return files, log

    def test_same_bytes_as_from_the_loaded_array(self, tmp_path, monkeypatch):
        db = synth(tmp_path)

        @contextlib.contextmanager
        def load_whole(path):  # the payload file loaded into one array, as the store
            loaded = places.ingest_manifest(path / "manifest.csv", allow_small_places=True)
            loaded.attach_payloads(load_tensor(path / "payloads.vprk"))
            yield loaded

        # a few maps per block, so a set's rows are read in many runs and blocks
        monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", 8 * 5 * 5 * 8 * 5)
        from_file = self._run(tmp_path, db, "rows")
        monkeypatch.setattr(cli, "load_db_dir", load_whole)
        assert self._run(tmp_path, db, "array") == from_file

    def test_build_db_holds_about_one_block(self, tmp_path, traced_memory):
        db = synth(tmp_path, extra=["--set", "synth.height=12", "--set", "synth.width=12",
                                    "--set", "synth.channels=256"])  # 72 maps, 10.6 MB
        out = tmp_path / "copy"
        with traced_memory() as peak:
            assert run_command(["build-db", "--manifest", str(db / "manifest.csv"),
                                "--payloads", str(db / "payloads.vprk"), "--out", str(out)]) == 0
        assert (out / "payloads.vprk").read_bytes() == (db / "payloads.vprk").read_bytes()
        # the float32 block being written and the next one read are one PAYLOAD_BLOCK_BYTES;
        # beyond them, the manifest and small objects
        assert peak.bytes < places.PAYLOAD_BLOCK_BYTES + (1 << 17)

    # 12 x 12 x 256 maps: three to a block, a float32 block of 432 KiB
    BIG_MAPS = ["--set", "synth.height=12", "--set", "synth.width=12", "--set", "synth.channels=256"]
    FLOAT32_BLOCK = 4 * (places.PAYLOAD_BLOCK_BYTES // (8 * 12 * 12 * 256)) * 12 * 12 * 256

    def test_build_db_holds_one_block(self, tmp_path, traced_memory):
        db = synth(tmp_path, extra=self.BIG_MAPS)
        with traced_memory() as peak:
            assert run_command(["build-db", "--manifest", str(db / "manifest.csv"),
                                "--payloads", str(db / "payloads.vprk"),
                                "--out", str(tmp_path / "copy")]) == 0
        # each block read is dropped before the next; beyond it, the manifest and small objects
        assert peak.bytes < self.FLOAT32_BLOCK + (1 << 16)

    def test_synthesized_maps_are_written_one_block_at_a_time(self, tmp_path, traced_memory):
        db = places.synth_places(12, 6, shape=(12, 12, 256), rng_seed=7)
        with traced_memory() as peak:
            cli.save_db_dir(db, tmp_path / "db")
        # each float32 copy of a block of the float64 maps is dropped before the next is made
        assert peak.bytes < self.FLOAT32_BLOCK + (1 << 16)
        assert (load_tensor(tmp_path / "db" / "payloads.vprk").tobytes()
                == db.payloads.astype("<f4").tobytes())

    def test_peak_memory_stays_below_the_payload_file(self, tmp_path, traced_memory):
        db = synth(tmp_path, extra=["--set", "synth.height=12", "--set", "synth.width=12",
                                    "--set", "synth.channels=256"])
        size = (db / "payloads.vprk").stat().st_size  # 12 x 6 maps of 144 KiB: 10.6 MB
        run_dir = tmp_path / "run"
        for argv in (["train", "--db", str(db), "--out", str(run_dir), *SMALL_TRAIN],
                     ["eval", "--db", str(db), "--checkpoint", str(run_dir / "checkpoint.vprc"),
                      "--out", str(tmp_path / "eval")]):
            with traced_memory() as peak:
                assert run_command(argv) == 0
            assert peak.bytes < size


def interleave(db, out):
    """A copy of a synth database directory whose manifest lists places round-robin.

    Row i of its payload file is still the map of its manifest's row i. The
    places first appear in their order, each one's images in theirs, so
    grouping the rows by place gives back the synth directory.
    """
    header, *lines = (db / "manifest.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    k = int(json.loads((db / "resolved_config.json").read_text())["synth"]["images_per_place"])
    order = [p * k + j for j in range(k) for p in range(len(lines) // k)]
    out.mkdir()
    (out / "manifest.csv").write_text(header + "".join(lines[i] for i in order), encoding="utf-8")
    save_tensor(out / "payloads.vprk", load_tensor(db / "payloads.vprk")[order])
    return out


class TestManifestRowOrder:
    """Row i of `payloads.vprk` is the map of manifest data row i, however places interleave."""

    def test_build_db_keeps_each_map_with_its_row(self, tmp_path):
        db = synth(tmp_path)
        mixed = interleave(db, tmp_path / "mixed")
        out = tmp_path / "rebuilt"
        assert run_command(["build-db", "--manifest", str(mixed / "manifest.csv"),
                            "--payloads", str(mixed / "payloads.vprk"), "--out", str(out)]) == 0
        for name in ("manifest.csv", "payloads.vprk"):
            assert (out / name).read_bytes() == (db / name).read_bytes()

    @pytest.mark.parametrize("maps_per_block", [1, 4])
    def test_payloads_written_in_small_blocks(self, tmp_path, monkeypatch, maps_per_block):
        db = synth(tmp_path)
        mixed = interleave(db, tmp_path / "mixed")
        monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", 8 * 5 * 5 * 8 * maps_per_block)
        out = tmp_path / "rebuilt"
        assert run_command(["build-db", "--manifest", str(mixed / "manifest.csv"),
                            "--payloads", str(mixed / "payloads.vprk"), "--out", str(out)]) == 0
        again = synth(tmp_path, "again")
        for name in ("manifest.csv", "payloads.vprk"):
            assert (out / name).read_bytes() == (db / name).read_bytes()
            assert (again / name).read_bytes() == (db / name).read_bytes()

    @pytest.mark.parametrize("source", ["synth", "interleaved"])
    def test_saving_a_loaded_directory(self, tmp_path, source):
        # its payload store is the open file; saved, the places' rows come together
        db = synth(tmp_path)
        src = db if source == "synth" else interleave(db, tmp_path / "mixed")
        with cli.load_db_dir(src) as loaded:
            cli.save_db_dir(loaded, tmp_path / "copy")
        for name in ("manifest.csv", "payloads.vprk"):
            assert (tmp_path / "copy" / name).read_bytes() == (db / name).read_bytes()

    def test_train_and_eval_read_each_map_by_its_row(self, tmp_path):
        db = synth(tmp_path)
        mixed = interleave(db, tmp_path / "mixed")

        def run(db_dir, out):
            assert run_command(["train", "--db", str(db_dir), "--out", str(out / "train"),
                                *SMALL_TRAIN]) == 0
            assert run_command(["eval", "--db", str(db_dir), "--checkpoint",
                                str(out / "train" / "checkpoint.vprc"),
                                "--out", str(out / "eval")]) == 0
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            log = json.loads(files.pop(Path("train/trainlog.json")))
            del log["wall_clock_s"]
            return files, log

        assert run(mixed, tmp_path / "a" / "run") == run(db, tmp_path / "b" / "run")


class TestEmptyDatabase:
    def test_eval_names_a_database_without_images(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("place_id,image_ref,lat,lon,bearing,year,month\n", encoding="utf-8")
        assert run_command(["build-db", "--manifest", str(manifest), "--out",
                            str(tmp_path / "built")]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: the manifest lists no images\n"
        assert not (tmp_path / "built").exists()
        empty = tmp_path / "empty"  # a database directory written by hand
        empty.mkdir()
        (empty / "manifest.csv").write_bytes(manifest.read_bytes())
        run = tmp_path / "run"
        assert run_command(["train", "--db", str(synth(tmp_path)), "--out", str(run),
                            *SMALL_TRAIN]) == 0
        capsys.readouterr()
        rc = run_command(["eval", "--db", str(empty), "--checkpoint", str(run / "checkpoint.vprc"),
                          "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {empty / 'manifest.csv'}: the manifest lists no images\n")
        assert not (tmp_path / "eval").exists()


class TestDefaultConfig:
    """The defaults a run without overrides records: a changed dataclass default shows here."""

    RESOLVED = """{
  "eval": {
    "ground_truth": "label",
    "ks": [
      1,
      5,
      10
    ],
    "queries_per_place": 2,
    "radius_m": 25.0
  },
  "pca": {
    "epsilon": 1e-09,
    "out_dim": 64
  },
  "seed": 0,
  "synth": {
    "channels": 32,
    "gain": 0.3,
    "height": 7,
    "images_per_place": 8,
    "latent_blur": 2,
    "max_shift": 2,
    "noise_contrast": 30.0,
    "noise_sigma": 0.1,
    "num_places": 64,
    "unstable_fraction": 0.25,
    "width": 7
  },
  "train": {
    "aggregator": "conv_ap",
    "decay_bias": true,
    "gem_power": 3.0,
    "grid": [
      2,
      2
    ],
    "images_per_place": 4,
    "initial_lr": 0.03,
    "loss": "multi_similarity",
    "lr_decay_every": 5,
    "lr_decay_factor": 0.3,
    "margin": null,
    "max_epochs": 15,
    "miner": "ms",
    "miner_epsilon": 0.1,
    "momentum": 0.9,
    "ms_alpha": 2.0,
    "ms_beta": 50.0,
    "num_places": 8,
    "out_channels": 64,
    "use_bias": true,
    "weight_decay": 0.001
  }
}
"""

    def test_resolved_config_of_a_run_without_overrides(self, tmp_path):
        assert run_command(["synth", "--out", str(tmp_path / "db")]) == 0
        assert (tmp_path / "db" / "resolved_config.json").read_text(encoding="utf-8") == self.RESOLVED


class TestTrainArtifactLayout:
    """The bytes of `trainlog.json` and of the checkpoint's config echo for one tiny run."""

    TRAINLOG = """{
  "steps": [
    {
      "step": 0,
      "epoch": 0,
      "loss": LOSS,
      "positives": 12,
      "negatives": 120,
      "triplets": 0,
      "skipped_anchors": 0
    },
    {
      "step": 1,
      "epoch": 0,
      "loss": LOSS,
      "positives": 12,
      "negatives": 120,
      "triplets": 0,
      "skipped_anchors": 0
    }
  ],
  "epoch_lrs": [
    [
      0,
      0.03
    ]
  ],
  "wall_clock_s": SECONDS
}
"""
    HEADER = (
        b'{"aggregator": "conv_ap", "config": {"aggregator": "conv_ap", "batch_spec": '
        b'{"images_per_place": 2, "num_places": 6, "rng_seed": 7}, "decay_bias": true, '
        b'"gem_power": 3.0, "grid": [2, 2], "initial_lr": 0.03, "loss": "multi_similarity", '
        b'"loss_config": {"margin": 0.5, "ms_alpha": 2.0, "ms_beta": 50.0}, "lr_decay_every": 5, '
        b'"lr_decay_factor": 0.3, "max_epochs": 1, "miner": "all", "miner_epsilon": 0.1, '
        b'"momentum": 0.9, "out_channels": 8, "rng_seed": 8, "use_bias": true, '
        b'"weight_decay": 0.001}, "format": 1, "tensors": ["weight", "bias"]}'
    )

    def test_trainlog_and_config_echo_bytes(self, tmp_path):
        run = tmp_path / "run"
        assert run_command(["train", "--db", str(synth(tmp_path)), "--out", str(run), "--seed", "7",
                            "--set", "train.num_places=6", "--set", "train.images_per_place=2",
                            "--set", "train.out_channels=8", "--set", "train.max_epochs=1",
                            "--set", "train.miner=all"]) == 0
        log = (run / "trainlog.json").read_text(encoding="utf-8")
        masked = re.sub(r'("loss": )[-+.\de]+', r"\1LOSS", log)
        assert re.sub(r'("wall_clock_s": )[-+.\de]+', r"\1SECONDS", masked) == self.TRAINLOG
        raw = (run / "checkpoint.vprc").read_bytes()
        (size,) = struct.unpack_from("<I", raw, 6)  # after the magic and the u16 version
        assert raw[10:10 + size] == self.HEADER
