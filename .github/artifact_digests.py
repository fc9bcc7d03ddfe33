"""The sha256 of every file that the benchmark's desk_pk400 and retrieval_geo set-ups and
commands write, for seeds 1-3, and the files whose digests differ between two checkouts.
desk_pk400's set-up is also trained, evaluated and reduced with every other loss and miner
pair that `train` accepts: `workloads.train_eval_reduce` over desk_pk400's own train
settings, with `train.loss` and `train.miner` replaced.

    python artifact_digests.py run CHECKOUT WORK DIGESTS.json
    python artifact_digests.py compare BASE.json HEAD.json

`run` imports CHECKOUT/bench/workloads.py with CHECKOUT/src first on the path,
so each checkout runs its own code, and writes every file under the new
directory WORK. It exits non-zero only when a set-up or a command fails.
`trainlog.json` is hashed without its `wall_clock_s` line. BLAS runs on one
thread, as bench/run.py pins it: the bytes depend on the thread count.

`compare` lists the files whose digests differ, in the log and, on GitHub
Actions, in the step summary. It always exits 0.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("desk_pk400", "retrieval_geo")
SEEDS = (1, 2, 3)
WALL_CLOCK = re.compile(rb'\n *"wall_clock_s": [^\n]*')
VARIED = "desk_pk400"  # the workload whose set-up every loss and miner pair trains on


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "trainlog.json":
        data = WALL_CLOCK.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def settings(argv: list[str]) -> dict[str, str]:
    """The key=value assignments that follow each --set of a command line."""
    return dict(argv[i + 1].split("=", 1) for i, arg in enumerate(argv) if arg == "--set")


def loss_miner_variants(seed: int):
    """(name, commands) for each loss and miner pair that TrainConfig accepts, VARIED's own aside,
    built by train_eval_reduce from VARIED's train settings and PCA size."""
    from vprkit.losses import LOSS_KINDS
    from vprkit.mining import MINER_KINDS
    from vprkit.places import BatchSpec
    from vprkit.trainer import TrainConfig
    from workloads import WORKLOADS as ALL, train_eval_reduce

    train, *_, reduce = ALL[VARIED].commands(Path("inputs"), Path("out"), seed)
    train_settings = settings(train.argv)
    out_dim = int(settings(reduce.argv)["pca.out_dim"])
    for loss in LOSS_KINDS:
        for miner in MINER_KINDS:
            if (train_settings["train.loss"], train_settings["train.miner"]) == (loss, miner):
                continue
            try:
                TrainConfig(BatchSpec(2, 2), loss=loss, miner=miner)
            except ValueError:
                continue
            yield f"{VARIED}-{loss}-{miner}", train_eval_reduce(
                {**train_settings, "train.loss": loss, "train.miner": miner}, out_dim)


def run(checkout: str, work: str, digests: str) -> None:
    checkout, digests = Path(checkout).resolve(), Path(digests).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from vprkit.cli import run_command
    from workloads import WORKLOADS as ALL

    def run_all(name, commands, inputs, seed):
        for command in commands(inputs, Path(f"{name}-seed{seed}", "out"), seed):
            if run_command(command.argv) != 0:
                sys.exit(f"{name} seed {seed}: {command.name} failed")

    Path(work).mkdir(parents=True)
    os.chdir(work)  # relative paths, so that the bytes do not depend on where WORK is
    for name in WORKLOADS:
        for seed in SEEDS:
            inputs = Path(f"{name}-seed{seed}", "inputs")
            ALL[name].setup(inputs, seed)
            run_all(name, ALL[name].commands, inputs, seed)
    for seed in SEEDS:
        for name, commands in loss_miner_variants(seed):
            run_all(name, commands, Path(f"{VARIED}-seed{seed}", "inputs"), seed)
    files = sorted(path for path in Path(".").rglob("*") if path.is_file())
    digests.write_text(json.dumps({str(path): digest(path) for path in files}, indent=1) + "\n")


def compare(base: str, head: str) -> None:
    base, head = (json.loads(Path(path).read_text()) for path in (base, head))
    differ = [path for path in sorted(base.keys() | head.keys()) if base.get(path) != head.get(path)]
    lines = [f"{len(differ)} of {len(base.keys() | head.keys())} artifacts differ from the base"]
    lines += [f"- `{path}`" + ("" if path in base and path in head else
                               " (only in the base)" if path in base else " (only in the head)")
              for path in differ]
    print("\n".join(lines))
    if "GITHUB_STEP_SUMMARY" in os.environ:
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a", encoding="utf-8") as summary:
            summary.write("### Artifact bytes\n\n" + "\n".join(lines) + "\n")


if __name__ == "__main__":
    {"run": run, "compare": compare}[sys.argv[1]](*sys.argv[2:])
