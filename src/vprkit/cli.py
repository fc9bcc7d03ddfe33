"""Experiment command line: synth, build-db, train, eval, reduce, report.

Every run is driven by a declarative JSON config (`DEFAULT_CONFIG`, whose
defaults come from the dataclasses that take them: SynthConfig,
TrainConfig, LossConfig and PCAModel; file via --config, overrides via
repeatable --set key=value). `run_command` runs every command the same
way: it resolves the config once, runs the command, and writes the fully
resolved config as `resolved_config.json` after every other artifact, so
results are reproducible from the artifacts alone. Exit status is 0
exactly when all requested artifacts were written; bad input, a failed
write and an allocation that cannot be made are each one `error:` line
and status 1.

A database directory holds `manifest.csv` plus an optional rank-4
`payloads.vprk` tensor row-aligned with the manifest; `train` and `eval`
keep that file open as the database's payload store and read its maps
block by block as stored, never all at once, and `build-db` copies its
`--payloads` file the same way.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import aggregators, places, tensorio, trainer
from .errors import FormatError, VprkitError
from .evaluator import (
    DEFAULT_GEO_RADIUS_M,
    GroundTruthMatcher,
    PCAModel,
    RecallReport,
    load_pca_model,
    pca_transform_set,
    pca_whiten_fit,
    recall_at_k,
    save_pca_model,
)
from .losses import LossConfig, default_loss_config
from .places import BatchSpec, PlacesDB, SynthConfig
from .tensorio import DescriptorSet
from .trainer import TrainConfig, embed_feature_maps


def _defaults(cls, *skip: str) -> dict:
    """The declared defaults of dataclass `cls`'s fields, except `skip` and fields without one."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.name not in skip and f.default is not dataclasses.MISSING}


SYNTH_SHAPE_KEYS = ("height", "width", "channels")  # the `synth` keys of a map's shape

# Each default is declared once, by the dataclass or constant that uses it; the
# values written here are the ones no dataclass holds.
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "synth": {
        "num_places": 64,
        "images_per_place": 8,
        **dict(zip(SYNTH_SHAPE_KEYS, places.DEFAULT_SYNTH_SHAPE)),
        **_defaults(SynthConfig),
    },
    "train": {
        "num_places": 8,
        "images_per_place": 4,
        **_defaults(TrainConfig, "loss_config", "rng_seed"),
        "margin": None,  # null: the loss's own margin
        **_defaults(LossConfig, "margin"),
    },
    "eval": {
        "queries_per_place": places.DEFAULT_QUERIES_PER_PLACE,
        "ground_truth": GroundTruthMatcher.mode,
        "radius_m": DEFAULT_GEO_RADIUS_M,
        "ks": [1, 5, 10],
    },
    "pca": {
        "out_dim": 64,
        **_defaults(PCAModel),
    },
}


class ConfigError(VprkitError):
    pass


def _check_schema(config: dict, template: dict, path: str = "") -> None:
    """Reject unknown or missing keys and values whose type differs from the default's.

    A key is missing only when overrides replaced its section. Exact type
    tests keep booleans out of numbers; a number must be finite as a float
    (no NaN, Infinity or larger integer). Null defaults take null or a
    number; list and tuple defaults (all of ints) take lists of ints, of the
    tuple's length for a tuple.
    """
    for key in (key for key in template if key not in config):
        raise ConfigError(f"config key {f'{path}.{key}' if path else key!r} is missing")
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
        elif isinstance(ref, (list, tuple)):
            ok = isinstance(value, list) and all(type(v) is int for v in value)
            expected = "a list of integers"
            if isinstance(ref, tuple):
                ok = ok and len(value) == len(ref)
                expected = f"a list of {len(ref)} integers"
        else:
            ok, expected = isinstance(value, str), "a string"
        if not ok:
            raise ConfigError(f"config key {where!r} must be {expected}, got {value!r}")


def _merge_into(config: dict, override: dict) -> None:
    """Merge `override` into `config` in place: a section key by key, any other value replaced."""
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            _merge_into(config[key], value)
        else:
            config[key] = value


def _set_override(assignment: str) -> dict:
    """`--set a.b=v` as the one-key config `{"a": {"b": v}}`; v is JSON, else a string."""
    key, sep, raw = assignment.partition("=")
    if not sep:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError:
        raise ConfigError(f"--set {key}: value nested too deeply") from None
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def resolve_config(args) -> dict:
    """The defaults merged with the `--config` file, then each `--set`, then `--seed`; checked once."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # JSON types: a tuple default becomes a list
    if getattr(args, "config", None):
        try:
            loaded = json.loads(tensorio.read_text(args.config, ConfigError))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        _merge_into(config, loaded)
    try:  # a dotted key nests as deep as it has parts
        for assignment in getattr(args, "set", None) or []:
            _merge_into(config, _set_override(assignment))
        if getattr(args, "seed", None) is not None:
            config["seed"] = args.seed
        _check_schema(config, DEFAULT_CONFIG)
    except RecursionError:
        raise ConfigError("config nested too deeply") from None
    if config["seed"] < 0:
        raise ConfigError(f"config key 'seed' must be >= 0, got {config['seed']}")
    return config


def _write_text(path: Path, text: str) -> None:
    tensorio.write_atomic_files([(path, [text.encode("utf-8")])])


# ---------------------------------------------------------------------------
# Database directories
# ---------------------------------------------------------------------------

def save_db_dir(db: PlacesDB, out_dir: Path) -> None:
    """Both files are written before either replaces its old file; the maps one block at a time."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [(out_dir / "manifest.csv", [places.manifest_bytes(db)])]
    if db.payloads is not None:
        files.append((out_dir / "payloads.vprk",
                      tensorio.tensor_parts(db.payloads.shape, db.payload_blocks())))
    tensorio.write_atomic_files(files)


@contextlib.contextmanager
def load_db_dir(path: Path):
    """A database directory, its payload file held open as its store until the block ends.

    Each command checks the place sizes it needs.
    """
    db = places.ingest_manifest(path / "manifest.csv", allow_small_places=True)
    if not (path / "payloads.vprk").exists():
        yield db
        return
    with tensorio.TensorRows(path / "payloads.vprk") as rows:
        db.attach_payloads(rows)
        yield db


def _train_config(config: dict) -> TrainConfig:
    """TrainConfig from the `train` section, whose keys are field names of BatchSpec,
    LossConfig or TrainConfig; a null margin is the loss's own."""
    seed = int(config["seed"])
    t = dict(config["train"], grid=tuple(config["train"]["grid"]), rng_seed=seed)
    if t["margin"] is None:
        t["margin"] = default_loss_config(t["loss"]).margin

    def take(cls):  # `cls` from its keys, taken out of `t`, which keeps TrainConfig's
        return cls(**{f.name: t.pop(f.name) for f in dataclasses.fields(cls) if f.name in t})

    spec, loss_config = take(BatchSpec), take(LossConfig)
    return TrainConfig(batch_spec=spec, loss_config=loss_config, rng_seed=seed + 1, **t)


def _descriptor_set(kind, params, db: PlacesDB, index, pooled) -> DescriptorSet:
    """The descriptors of the images at the positions `index`, from their staged rows `pooled`,
    with their metadata."""
    labels = db.place_ids[index]
    batch = embed_feature_maps(kind, params, pooled, labels)
    return DescriptorSet(vectors=batch.rows, ids=db.image_refs[index].tolist(),
                         lats=db.lats[index], lons=db.lons[index], place_ids=labels)


def _descriptor_sets(kind, params, db: PlacesDB,
                     queries, refs) -> tuple[DescriptorSet, DescriptorSet]:
    """The query and the reference descriptors of the images at the positions `queries` and
    `refs`; their maps are staged together, each once."""
    # Only the stage runs per block: a product's rows can round differently with
    # the number of rows, so the trainable part runs once over each whole set. The
    # stage is a fixed point of itself, so embedding its output gives the maps' rows.
    pooled = places.stage_payloads(db, np.concatenate([queries, refs]),
                                   lambda fmaps: aggregators.pool(kind, params, fmaps))
    # the references, the larger set, are embedded first, while no descriptors are held yet
    ref_set = _descriptor_set(kind, params, db, refs, pooled[len(queries) :])
    return _descriptor_set(kind, params, db, queries, pooled[: len(queries)]), ref_set


# ---------------------------------------------------------------------------
# Subcommands: each writes its own artifacts into --out and returns its summary
# ---------------------------------------------------------------------------

def cmd_synth(args, config: dict) -> str:
    s = dict(config["synth"])  # the keys not popped are SynthConfig's field names
    shape = tuple(s.pop(key) for key in SYNTH_SHAPE_KEYS)
    db = places.synth_places(s.pop("num_places"), s.pop("images_per_place"), shape,
                             SynthConfig(**s), rng_seed=int(config["seed"]))
    out = Path(args.out)
    save_db_dir(db, out)
    return f"wrote {len(db)} places / {db.num_images()} images to {out}\n"


def cmd_build_db(args, config: dict) -> str:
    db = places.ingest_manifest(args.manifest, allow_small_places=args.allow_small_places)
    out = Path(args.out)
    with contextlib.ExitStack() as stack:
        if args.payloads:  # held open and copied block by block, never read whole
            db.attach_payloads(stack.enter_context(tensorio.TensorRows(args.payloads)))
        save_db_dir(db, out)
    return f"validated {len(db)} places / {db.num_images()} images into {out}\n"


def cmd_train(args, config: dict) -> str:
    cfg = _train_config(config)
    holdout = int(config["eval"]["queries_per_place"])
    with load_db_dir(Path(args.db)) as db:
        params, log = trainer.train(places.training_view(db, holdout), cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trainer.save_train_checkpoint(out / "checkpoint.vprc", cfg, params)
    _write_text(out / "trainlog.json", json.dumps(dataclasses.asdict(log), indent=2) + "\n")
    final = log.losses[-1] if log.losses else float("nan")
    return f"trained {cfg.aggregator} for {cfg.max_epochs} epochs, final loss {final:.4f}\n"


def _load_eval_sets(args, config):
    if (args.queries or args.refs) and (args.db or args.checkpoint):
        raise ConfigError("eval takes --queries/--refs or --db/--checkpoint, not both")
    if args.queries and args.refs:
        return tensorio.load_descriptors(args.queries), tensorio.load_descriptors(args.refs)
    if not args.db or not args.checkpoint:
        raise ConfigError("eval needs either --queries/--refs or --db/--checkpoint")
    kind, params, _ = trainer.load_train_checkpoint(args.checkpoint)
    with load_db_dir(Path(args.db)) as db:
        return _descriptor_sets(kind, params, db,
                                *places.split_index(db, int(config["eval"]["queries_per_place"])))


def cmd_eval(args, config: dict) -> str:
    e = config["eval"]
    gt = GroundTruthMatcher(mode=e["ground_truth"], radius_m=float(e["radius_m"]))
    query_set, ref_set = _load_eval_sets(args, config)
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
    return report.to_text()


def cmd_reduce(args, config: dict) -> str:
    if not (args.fit or args.apply):
        raise ConfigError("reduce needs --fit and/or --apply")
    if args.fit and args.model:
        raise ConfigError("reduce takes --fit or --model, not both")
    if args.fit:
        # the loaded set is read by nothing else, so the fit centers it in place; the model
        # is applied as saved, so `--apply --model` on the saved file gives the same bytes
        model = pca_whiten_fit(
            tensorio.load_descriptors(args.fit).vectors,
            int(config["pca"]["out_dim"]),
            epsilon=float(config["pca"]["epsilon"]),
            overwrite_training=True,
        ).as_saved()
    elif not args.model:
        raise ConfigError("reduce --apply needs --model (or --fit in the same run)")
    else:
        model = load_pca_model(args.model)
    # everything is computed before the output directory is made: a failed run leaves nothing
    reduced = pca_transform_set(model, tensorio.load_descriptors(args.apply)) if args.apply else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.fit:
        save_pca_model(out / "pca_model.vprc", model)
    if reduced is not None:
        tensorio.save_descriptors(out / "reduced.vprk", reduced)
    return f"pca artifacts written to {out}\n"


def report_table(results: list[RecallReport]) -> tuple[str, str]:
    """Multi-run table: rows sorted by label, one column per recall@k.

    Returns (text table, machine-readable lines). All reports must share
    the same ks (`cmd_report` checks them).
    """
    if not results:
        raise ValueError("no results to report")
    ks = results[0].ks
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


def cmd_report(args, config: dict) -> str:
    reports = []
    for path in args.results:
        try:
            reports.append(RecallReport.from_kv_lines(tensorio.read_text(path, FormatError)))
        except KeyError as exc:
            raise FormatError(f"{path}: no {exc.args[0]!r} line") from None
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if reports[-1].ks != reports[0].ks:
            raise FormatError(f"{path}: ks {reports[-1].ks} differ from {reports[0].ks} "
                              f"in {args.results[0]}")
    text, machine = report_table(reports)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "table.txt", text)
    _write_text(out / "table.kv", machine)
    return text


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
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


# glibc's mallopt parameters, and the threshold both are set to.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
ALLOC_THRESHOLD_BYTES = 32 << 20


@functools.cache
def _set_allocator_policy() -> None:
    """Fix glibc malloc's mmap and trim thresholds at ALLOC_THRESHOLD_BYTES, once per process.

    Left dynamic, glibc raises both after a large mapped block is freed, so
    whether each training step's (N, N) temporaries reuse heap or are
    mapped and faulted in afresh would depend on what ran earlier. Both are
    fixed: a fixed mmap threshold alone leaves the trim threshold at
    128 KiB, which returns freed heap after every step. Skipped where the C
    library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # not ctypes.util.find_library: that runs a subprocess
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD):
        mallopt(param, ALLOC_THRESHOLD_BYTES)


def run_command(argv: list[str]) -> int:
    """Parse argv and run its command; returns the process exit status.

    Every command's lifecycle: the config resolved once, the command's own
    artifacts, `resolved_config.json` last, then its summary on stdout.
    """
    _set_allocator_policy()
    args = _parser().parse_args(argv)
    try:
        config = resolve_config(args)
        summary = args.func(args, config)
        _write_text(Path(args.out) / "resolved_config.json",
                    json.dumps(config, indent=2, sort_keys=True) + "\n")
    except (VprkitError, ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary, end="")
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
