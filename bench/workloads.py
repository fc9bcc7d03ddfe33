"""The benchmark's workloads: inputs made from a seed, and the CLI commands a user runs.

Each workload stresses a different layer, so that a change to one layer
has a workload that exercises it and one where the prediction is "no
change":

- desk_pk400: P x K = 100 x 4 batches on small 7x7x32 maps. At N = 400
  the per-anchor Python loops of `ms` mining and the MS loss are a large
  share of each step.
- backbone_20x20: ResNet-50 layer3-sized 20x20x1024 maps into a d=512
  Conv-AP head. The head forward and backward are nearly all of training;
  mining at N = 32 costs almost nothing.
- retrieval_geo: no head and no training. Geo ground truth (haversine
  matching), per-query top-k, PCA and descriptor I/O on Q=250 x R=2500.

Each command runs for about a second, so that the host-speed probes that
bracket it (see run.py) see the speed the command ran at.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from vprkit.cli import run_command
from vprkit.tensorio import DescriptorSet, save_descriptors


@dataclass(frozen=True)
class Command:
    name: str
    argv: list[str]
    artifacts: tuple[str, ...]  # paths that must exist after the command


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int], None]  # writes the inputs into a directory
    commands: Callable[[Path, Path, int], list[Command]]  # (inputs, out, seed)
    setup_repeats: int
    recall_floor: float  # recall@1 below this fails the run


def _cli_sets(assignments: dict[str, object]) -> list[str]:
    out = []
    for key, value in assignments.items():
        out += ["--set", f"{key}={value}"]
    return out


def synth_setup(db_settings: dict[str, object]) -> Callable[[Path, int], None]:
    """`vprkit synth` into inputs/db."""

    def setup(inputs: Path, seed: int) -> None:
        argv = ["synth", "--out", str(inputs / "db"), "--seed", str(seed)] + _cli_sets(db_settings)
        if run_command(argv) != 0:
            raise RuntimeError(f"setup command failed: {' '.join(argv)}")

    return setup


def train_eval_reduce(train_settings: dict[str, object], out_dim: int):
    """train, eval with label ground truth, then PCA of the eval descriptors to out_dim."""

    def commands(inputs: Path, out: Path, seed: int) -> list[Command]:
        db, tr, ev, rd = inputs / "db", out / "train", out / "eval", out / "reduce"
        return [
            Command("train", ["train", "--db", str(db), "--out", str(tr), "--seed", str(seed)]
                    + _cli_sets(train_settings),
                    (str(tr / "checkpoint.vprc"), str(tr / "trainlog.json"))),
            Command("eval", ["eval", "--db", str(db), "--checkpoint", str(tr / "checkpoint.vprc"),
                             "--out", str(ev), "--seed", str(seed)],
                    _eval_artifacts(ev)),
            Command("reduce", ["reduce", "--fit", str(ev / "references.vprk"),
                               "--apply", str(ev / "queries.vprk"), "--out", str(rd),
                               "--seed", str(seed), "--set", f"pca.out_dim={out_dim}"],
                    (str(rd / "pca_model.vprc"), str(rd / "reduced.vprk"), str(rd / "reduced.csv"))),
        ]

    return commands


def _eval_artifacts(ev: Path) -> tuple[str, ...]:
    return tuple(str(ev / name) for name in (
        "report.kv", "report.txt", "queries.vprk", "queries.csv",
        "references.vprk", "references.csv"))


# ---------------------------------------------------------------------------
# retrieval_geo inputs
# ---------------------------------------------------------------------------

GEO_PLACES = 500
GEO_REFS_PER_PLACE = 5
GEO_QUERIES = 250
GEO_DIM = 256
GEO_NOISE = 1.6  # per-dimension noise around each place's center; recall@1 near 0.99
GEO_JITTER_M = 10.0  # two images of a place lie within 2 x 10 m < 25 m
GEO_GRID_COLS = 32
GEO_CELL_DEG = 0.001  # neighbouring places are >= 79 m apart at 45 degrees
METERS_PER_DEG_LAT = 111_195.0


def write_geo_sets(inputs: Path, seed: int, num_places: int = GEO_PLACES,
                   num_queries: int = GEO_QUERIES) -> None:
    """queries.vprk and refs.vprk, D=256, GEO_REFS_PER_PLACE references per place.

    At the defaults: Q=250 queries, each at a distinct place, and R=2500
    references.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_places, GEO_DIM))
    place = np.arange(num_places)
    place_lat = 45.0 + (place // GEO_GRID_COLS) * GEO_CELL_DEG + GEO_CELL_DEG / 2
    place_lon = 7.0 + (place % GEO_GRID_COLS) * GEO_CELL_DEG + GEO_CELL_DEG / 2

    def descriptor_set(pids: np.ndarray, prefix: str) -> DescriptorSet:
        n = len(pids)
        vectors = centers[pids] + GEO_NOISE * rng.standard_normal((n, GEO_DIM))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        radius = GEO_JITTER_M * np.sqrt(rng.uniform(0.0, 1.0, n))
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        lat = place_lat[pids] + radius * np.cos(angle) / METERS_PER_DEG_LAT
        lon = place_lon[pids] + radius * np.sin(angle) / (
            METERS_PER_DEG_LAT * np.cos(np.radians(place_lat[pids])))
        return DescriptorSet(vectors, [f"{prefix}{i:05d}" for i in range(n)], lat, lon, pids)

    inputs.mkdir(parents=True, exist_ok=True)
    refs = descriptor_set(np.repeat(place, GEO_REFS_PER_PLACE), "r")
    queries = descriptor_set(np.sort(rng.choice(num_places, num_queries, replace=False)), "q")
    save_descriptors(inputs / "refs.vprk", refs)
    save_descriptors(inputs / "queries.vprk", queries)


def geo_commands(inputs: Path, out: Path, seed: int) -> list[Command]:
    """eval with geo ground truth on the set-up descriptors, then PCA 256 -> 64."""
    ev, rd = out / "eval", out / "reduce"
    q, r = str(inputs / "queries.vprk"), str(inputs / "refs.vprk")
    return [
        Command("eval", ["eval", "--queries", q, "--refs", r, "--out", str(ev), "--seed", str(seed),
                         "--set", "eval.ground_truth=geo", "--set", "eval.radius_m=25.0",
                         "--set", "eval.ks=[1,5,10]"],
                _eval_artifacts(ev)),
        Command("reduce", ["reduce", "--fit", r, "--apply", q, "--out", str(rd), "--seed", str(seed),
                           "--set", "pca.out_dim=64"],
                (str(rd / "pca_model.vprc"), str(rd / "reduced.vprk"), str(rd / "reduced.csv"))),
    ]


# Both training workloads use synth noise_sigma=0.05: recall@1 then sits
# near 0.96 (desk) and 1.0 (backbone) on every seed, so recall_at_1 is
# steady enough across seeds to guard accuracy.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="desk_pk400",
            why="P x K = 100 x 4 batches on 7x7x32 maps: per-anchor ms mining and MS loss loops "
                "are a large share of each step",
            setup=synth_setup({"synth.num_places": 200, "synth.images_per_place": 8,
                               "synth.noise_sigma": 0.05}),
            commands=train_eval_reduce({
                "train.aggregator": "conv_ap", "train.out_channels": 64, "train.grid": "[2,2]",
                "train.loss": "multi_similarity", "train.miner": "ms",
                "train.num_places": 100, "train.images_per_place": 4, "train.max_epochs": 3,
            }, out_dim=64),
            setup_repeats=7,
            recall_floor=0.85,
        ),
        Workload(
            name="backbone_20x20",
            why="20x20x1024 maps into a d=512 Conv-AP head: head forward and backward dominate, "
                "mining at N=32 costs almost nothing",
            setup=synth_setup({"synth.num_places": 16, "synth.images_per_place": 6,
                               "synth.height": 20, "synth.width": 20, "synth.channels": 1024,
                               "synth.noise_sigma": 0.05}),
            commands=train_eval_reduce({
                "train.aggregator": "conv_ap", "train.out_channels": 512, "train.grid": "[2,2]",
                "train.loss": "multi_similarity", "train.miner": "ms",
                "train.num_places": 8, "train.images_per_place": 4, "train.max_epochs": 1,
            }, out_dim=32),
            setup_repeats=3,
            recall_floor=0.9,
        ),
        Workload(
            name="retrieval_geo",
            why="no head or training: geo ground-truth matching, per-query top-k, PCA and "
                "descriptor I/O on 250 queries x 2500 references",
            setup=write_geo_sets,
            commands=geo_commands,
            setup_repeats=9,
            recall_floor=0.8,
        ),
    )
}
