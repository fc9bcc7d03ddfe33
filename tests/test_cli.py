import json
import subprocess
import sys

import numpy as np
import pytest

from vprkit.cli import parse_report_lines, run_command
from vprkit.evaluator import RecallReport
from vprkit.tensorio import DescriptorSet, save_descriptors

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
        assert capsys.readouterr().err == "error: feature map entries must be finite\n"
        assert not (tmp_path / "run" / "checkpoint.vprc").exists()


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

    def test_eval_requires_inputs(self, tmp_path):
        assert run_command(["eval", "--out", str(tmp_path / "x")]) == 1


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

    def test_no_action_fails(self, tmp_path):
        assert run_command(["reduce", "--out", str(tmp_path / "x")]) == 1

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
        parsed = parse_report_lines((out / "table.kv").read_text())
        assert parsed[("run_a", 1)] == values[0]  # exact round trip
        assert parsed[("run_a", 5)] == values[1]
        assert parsed[("run_a", 10)] == values[2]

    def test_inconsistent_ks_rejected(self, tmp_path):
        a = tmp_path / "a.kv"
        self._write_report(a, "a", [0.5, 0.6, 0.7])
        b = tmp_path / "b.kv"
        rep = RecallReport(ks=[1, 2], recall_at={1: 0.5, 2: 0.6}, label="b")
        b.write_text(rep.to_kv_lines(), encoding="utf-8")
        assert run_command(["report", str(a), str(b), "--out", str(tmp_path / "t")]) == 1


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
    """A text artifact whose write fails halfway leaves its final name alone."""

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
        return {"run": train, "eval": evaluate, "table": report}

    @pytest.mark.parametrize("out,target", [
        ("run", "resolved_config.json"), ("run", "trainlog.json"),
        ("eval", "report.kv"), ("eval", "report.txt"),
        ("table", "table.txt"), ("table", "table.kv"),
    ])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, capsys, out, target):
        from pathlib import Path

        from test_tensorio import HalfWrite

        argv = self._commands(tmp_path)[out]
        final = tmp_path / out / target
        final.write_bytes(b"old content")
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
        assert final.read_bytes() == b"old content"
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
