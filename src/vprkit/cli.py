"""Experiment command line: synth, build-db, train, eval, reduce, report.

Every run is driven by a declarative JSON config (defaults below, file
via --config, overrides via repeatable --set key=value) and writes its
fully resolved config next to its outputs, so results are reproducible
from the artifacts alone. Exit status is 0 exactly when all requested
artifacts were written.

A database directory holds `manifest.csv` plus an optional rank-4
`payloads.vprk` tensor row-aligned with the manifest; it loads as the
database's payload array, float32 as stored.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import places, tensorio, trainer
from .errors import FormatError, VprkitError
from .evaluator import (
    GroundTruthMatcher,
    PCAModel,
    RecallReport,
    pca_transform_set,
    pca_whiten_fit,
    recall_at_k,
)
from .losses import LossConfig, default_loss_config
from .places import BatchSpec, PlacesDB, SynthConfig
from .tensorio import DescriptorSet
from .trainer import TrainConfig, embed_feature_maps

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "synth": {
        "num_places": 64,
        "images_per_place": 8,
        "height": 7,
        "width": 7,
        "channels": 32,
        "max_shift": 2,
        "gain": 0.3,
        "noise_sigma": 0.1,
        "latent_blur": 2,
        "unstable_fraction": 0.25,
        "noise_contrast": 30.0,
    },
    "train": {
        "num_places": 8,
        "images_per_place": 4,
        "aggregator": "conv_ap",
        "out_channels": 64,
        "grid": [2, 2],
        "use_bias": True,
        "gem_power": 3.0,
        "loss": "multi_similarity",
        "margin": None,
        "ms_alpha": 2.0,
        "ms_beta": 50.0,
        "miner": "ms",
        "miner_epsilon": 0.1,
        "initial_lr": 0.03,
        "lr_decay_factor": 0.3,
        "lr_decay_every": 5,
        "max_epochs": 15,
        "momentum": 0.9,
        "weight_decay": 0.001,
        "decay_bias": True,
    },
    "eval": {
        "queries_per_place": 2,
        "ground_truth": "label",
        "radius_m": 25.0,
        "ks": [1, 5, 10],
    },
    "pca": {
        "out_dim": 64,
        "epsilon": 1e-9,
    },
}


class ConfigError(VprkitError):
    pass


# list keys whose length is fixed by their default
FIXED_LENGTH_KEYS = ("train.grid",)


def _check_schema(config: dict, template: dict, path: str = "") -> None:
    """Reject unknown keys and values whose type differs from the default's.

    Exact type tests keep booleans out of numbers; a number must be finite
    as a float (no NaN, Infinity or larger integer). Null defaults take
    null or a number; list defaults (all lists of ints) take lists of ints.
    """
    for key, value in config.items():
        where = f"{path}.{key}" if path else key
        if key not in template:
            raise ConfigError(f"unknown config key {where!r}")
        ref = template[key]
        if isinstance(ref, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be a section")
            _check_schema(value, ref, where)
            continue
        number = type(value) in (int, float) and abs(value) <= sys.float_info.max
        if ref is None:
            ok, expected = value is None or number, "null or a finite number"
        elif isinstance(ref, bool):
            ok, expected = isinstance(value, bool), "a boolean"
        elif isinstance(ref, int):
            ok, expected = type(value) is int, "an integer"
        elif isinstance(ref, float):
            ok, expected = number, "a finite number"
        elif isinstance(ref, list):
            ok = isinstance(value, list) and all(type(v) is int for v in value)
            expected = "a list of integers"
            if where in FIXED_LENGTH_KEYS:
                ok = ok and len(value) == len(ref)
                expected = f"a list of {len(ref)} integers"
        else:
            ok, expected = isinstance(value, str), "a string"
        if not ok:
            raise ConfigError(f"config key {where!r} must be {expected}, got {value!r}")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_set(config: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config section {part!r} in --set {key}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key {key!r} in --set")
    node[parts[-1]] = value


def resolve_config(args) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        _check_schema(loaded, DEFAULT_CONFIG)
        config = _deep_merge(config, loaded)
    for assignment in getattr(args, "set", None) or []:
        _apply_set(config, assignment)
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    _check_schema(config, DEFAULT_CONFIG)
    return config


def _write_text(path: Path, text: str) -> None:
    tensorio.write_atomic(path, text.encode("utf-8"))


def _write_resolved(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(config, indent=2, sort_keys=True) + "\n"
    _write_text(out_dir / "resolved_config.json", text)


# ---------------------------------------------------------------------------
# Database directories
# ---------------------------------------------------------------------------

def save_db_dir(db: PlacesDB, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    places.write_manifest(db, out_dir / "manifest.csv")
    payloads = db.payloads_in_order()
    if payloads is not None:
        tensorio.save_tensor(out_dir / "payloads.vprk", payloads)


def load_db_dir(path: Path) -> PlacesDB:
    """Read a database directory; each command checks the place sizes it needs."""
    db = places.ingest_manifest(path / "manifest.csv", allow_small_places=True)
    if (path / "payloads.vprk").exists():
        db.attach_payloads(tensorio.load_tensor(path / "payloads.vprk"))
    return db


def _train_config(config: dict) -> TrainConfig:
    """TrainConfig from the `train` section, whose other keys are its field names."""
    t = dict(config["train"])
    seed = int(config["seed"])
    spec = BatchSpec(t.pop("num_places"), t.pop("images_per_place"), rng_seed=seed)
    margin = t.pop("margin")
    loss_config = LossConfig(
        margin=default_loss_config(t["loss"]).margin if margin is None else margin,
        ms_alpha=t.pop("ms_alpha"),
        ms_beta=t.pop("ms_beta"),
    )
    t["grid"] = tuple(t["grid"])
    return TrainConfig(batch_spec=spec, loss_config=loss_config, rng_seed=seed + 1, **t)


def _descriptor_set(kind, params, items) -> DescriptorSet:
    fmaps = places.gather_payloads([img for _, img in items])
    labels = np.array([pid for pid, _ in items])
    batch = embed_feature_maps(kind, params, fmaps, labels)
    return DescriptorSet(
        vectors=batch.rows,
        ids=[img.image_ref for _, img in items],
        lats=np.array([img.lat for _, img in items]),
        lons=np.array([img.lon for _, img in items]),
        place_ids=labels,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = resolve_config(args)
    s = config["synth"]
    db = places.synth_places(
        num_places=int(s["num_places"]),
        images_per_place=int(s["images_per_place"]),
        shape=(int(s["height"]), int(s["width"]), int(s["channels"])),
        perturbation=SynthConfig(
            max_shift=int(s["max_shift"]),
            gain=float(s["gain"]),
            noise_sigma=float(s["noise_sigma"]),
            latent_blur=int(s["latent_blur"]),
            unstable_fraction=float(s["unstable_fraction"]),
            noise_contrast=float(s["noise_contrast"]),
        ),
        rng_seed=int(config["seed"]),
    )
    out = Path(args.out)
    save_db_dir(db, out)
    _write_resolved(config, out)
    print(f"wrote {len(db)} places / {db.num_images()} images to {out}")
    return 0


def cmd_build_db(args) -> int:
    config = resolve_config(args)
    db = places.ingest_manifest(args.manifest, allow_small_places=args.allow_small_places)
    if args.payloads:
        db.attach_payloads(tensorio.load_tensor(args.payloads))
    out = Path(args.out)
    save_db_dir(db, out)
    _write_resolved(config, out)
    print(f"validated {len(db)} places / {db.num_images()} images into {out}")
    return 0


def cmd_train(args) -> int:
    config = resolve_config(args)
    cfg = _train_config(config)
    db = load_db_dir(Path(args.db))
    holdout = int(config["eval"]["queries_per_place"])
    train_db = places.training_view(db, holdout)
    params, log = trainer.train(train_db, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trainer.save_train_checkpoint(out / "checkpoint.vprc", cfg, params)
    _write_text(out / "trainlog.json", json.dumps(log.to_dict(), indent=2) + "\n")
    _write_resolved(config, out)
    final = log.losses[-1] if log.losses else float("nan")
    print(f"trained {cfg.aggregator} for {cfg.max_epochs} epochs, final loss {final:.4f}")
    return 0


def _load_eval_sets(args, config):
    if args.queries and args.refs:
        return tensorio.load_descriptors(args.queries), tensorio.load_descriptors(args.refs)
    if not args.db or not args.checkpoint:
        raise ConfigError("eval needs either --queries/--refs or --db/--checkpoint")
    kind, params, _ = trainer.load_train_checkpoint(args.checkpoint)
    db = load_db_dir(Path(args.db))
    queries, refs = places.query_reference_split(
        db, int(config["eval"]["queries_per_place"])
    )
    return _descriptor_set(kind, params, queries), _descriptor_set(kind, params, refs)


def cmd_eval(args) -> int:
    config = resolve_config(args)
    query_set, ref_set = _load_eval_sets(args, config)
    e = config["eval"]
    gt = GroundTruthMatcher(mode=e["ground_truth"], radius_m=float(e["radius_m"]))
    label = args.label or Path(args.out).name
    report = recall_at_k(query_set, ref_set, gt, [int(k) for k in e["ks"]], label=label)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.queries and args.refs:  # the input files loaded and validated: copy their bytes
        tensorio.copy_descriptors([(args.queries, out / "queries.vprk"),
                                   (args.refs, out / "references.vprk")])
    else:
        tensorio.save_descriptors(out / "queries.vprk", query_set)
        tensorio.save_descriptors(out / "references.vprk", ref_set)
    _write_text(out / "report.kv", report.to_kv_lines())
    _write_text(out / "report.txt", report.to_text())
    _write_resolved(config, out)
    print(report.to_text(), end="")
    return 0


PCA_TENSOR_RANKS = {"mean": 1, "projection": 2, "eigenvalues": 1}


def _load_pca_model(path) -> PCAModel:
    """A PCA model checkpoint; FormatError names a missing or misshapen tensor."""
    kind, tensors, mconf = tensorio.load_checkpoint(path)
    if kind != "pca":
        raise ConfigError(f"{path} is not a PCA model")
    for name, rank in PCA_TENSOR_RANKS.items():
        if name not in tensors:
            raise FormatError(f"{path}: PCA model has no tensor {name!r}")
        if tensors[name].ndim != rank:
            raise FormatError(
                f"{path}: PCA tensor {name!r} has shape {tensors[name].shape}, needs rank {rank}"
            )
    try:
        return PCAModel(**{name: tensors[name] for name in PCA_TENSOR_RANKS},
                        epsilon=float(mconf.get("epsilon", 1e-9)))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def cmd_reduce(args) -> int:
    config = resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not (args.fit or args.apply):
        raise ConfigError("reduce needs --fit and/or --apply")
    if args.fit:
        training = tensorio.load_descriptors(args.fit)
        model = pca_whiten_fit(
            training.vectors,
            int(config["pca"]["out_dim"]),
            epsilon=float(config["pca"]["epsilon"]),
        )
    elif not args.model:
        raise ConfigError("reduce --apply needs --model (or --fit in the same run)")
    else:
        model = _load_pca_model(args.model)
    # everything is computed before anything is written: a failed run leaves no artifact
    reduced = pca_transform_set(model, tensorio.load_descriptors(args.apply)) if args.apply else None
    if args.fit:
        tensorio.save_checkpoint(
            out / "pca_model.vprc",
            "pca",
            {
                "mean": model.mean,
                "projection": model.projection,
                "eigenvalues": model.eigenvalues,
            },
            {"epsilon": model.epsilon, "out_dim": model.out_dim},
        )
    if reduced is not None:
        tensorio.save_descriptors(out / "reduced.vprk", reduced)
    _write_resolved(config, out)
    print(f"pca artifacts written to {out}")
    return 0


def report_table(results: list[RecallReport]) -> tuple[str, str]:
    """Multi-run table: rows sorted by label, one column per recall@k.

    Returns (text table, machine-readable lines). All reports must share
    the same ks.
    """
    if not results:
        raise ValueError("no results to report")
    ks = results[0].ks
    for rep in results:
        if rep.ks != ks:
            raise ValueError(f"inconsistent ks: {rep.ks} vs {ks}")
    rows = sorted(results, key=lambda r: r.label)
    width = max(12, max(len(r.label) for r in rows) + 2)
    header = "run".ljust(width) + " ".join(f"{'R@' + str(k):>9s}" for k in ks)
    lines = [header]
    machine = []
    for rep in rows:
        lines.append(
            rep.label.ljust(width)
            + " ".join(f"{rep.recall_at[k]:>9.4f}" for k in ks)
        )
        for k in ks:
            machine.append(f"run={rep.label} k={k} recall={rep.recall_at[k]!r}")
    return "\n".join(lines) + "\n", "\n".join(machine) + "\n"


def parse_report_lines(text: str) -> dict[tuple[str, int], float]:
    """Parse the machine-readable table back into {(run, k): recall}."""
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = dict(part.partition("=")[::2] for part in line.split())
        out[(fields["run"], int(fields["k"]))] = float(fields["recall"])
    return out


def cmd_report(args) -> int:
    config = resolve_config(args)
    reports = []
    for path in args.results:
        reports.append(RecallReport.from_kv_lines(Path(path).read_text(encoding="utf-8")))
    text, machine = report_table(reports)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "table.txt", text)
    _write_text(out / "table.kv", machine)
    _write_resolved(config, out)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument("--seed", type=int, help="master RNG seed override")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (dotted path), repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vprkit", description="desk-scale place recognition experiments"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic place database")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("build-db", help="validate a manifest into a database directory")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--payloads", help="optional rank-4 tensor aligned with the manifest")
    p.add_argument("--allow-small-places", action="store_true")
    p.set_defaults(func=cmd_build_db)

    p = subs.add_parser("train", help="train the aggregation head")
    _add_common(p)
    p.add_argument("--db", required=True, help="database directory")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="recall@k retrieval evaluation")
    _add_common(p)
    p.add_argument("--db", help="database directory (with --checkpoint)")
    p.add_argument("--checkpoint", help="trained head checkpoint")
    p.add_argument("--queries", help="query descriptor set (.vprk)")
    p.add_argument("--refs", help="reference descriptor set (.vprk)")
    p.add_argument("--label", help="run label in the report")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("reduce", help="fit and/or apply PCA whitening")
    _add_common(p)
    p.add_argument("--fit", help="descriptor set to learn the projection from")
    p.add_argument("--apply", help="descriptor set to compress")
    p.add_argument("--model", help="existing PCA model (for --apply)")
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("report", help="tabulate recall reports from multiple runs")
    _add_common(p)
    p.add_argument("results", nargs="+", help="report.kv files")
    p.set_defaults(func=cmd_report)

    return parser


def run_command(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VprkitError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
