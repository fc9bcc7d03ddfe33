"""Pipeline benchmark: run one workload through `vprkit.cli.run_command`.

    python3 bench/run.py --workload desk_pk400 --seed 1 --seconds 50 --trace 0

With --trace 0 the run sets up the workload's inputs several times (each
in a child process, so set-up memory stays out of peak_rss_mb), then
repeats the workload's commands in this process, closed loop, until
--seconds have passed, and reports the end-to-end metrics as medians over
the repetitions after a warm-up one. With --trace 1 it alternates untraced
and traced repetitions and reports the per-layer metrics from the traced
ones.

The host's speed drifts by 30-60% over seconds on a shared machine, so
every timed stretch (each command, each set-up) is bracketed by a fixed
pure-Python probe loop, and the end-to-end times are normalised: wall time
x NOMINAL_PROBE_S / (mean of the probes before and after). They read as
seconds on a host where the probe takes NOMINAL_PROBE_S. Wall times are
printed alongside and kept in .bench_out.

Every command and every correctness check counts as one operation. The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads: two BLAS threads on a busy 2-core machine made
# single head forwards up to 20x slower on some runs.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "vprkit" / "__init__.py").is_file():
    print(f"bench: no vprkit sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from vprkit.cli import run_command  # noqa: E402
from vprkit.tensorio import load_descriptors, load_tensor  # noqa: E402

import checks  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import Tracer, vprkit_targets  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_REPS = 3  # the median of three survives one repetition hit by a slow spell of the host
WARMUP_REPS = 1  # the first repetition pays for first calls and heap growth; not in the medians
PROBE_LOOPS = 50_000
PROBE_TRIES = 3  # the fastest of three drops one interrupted try
NOMINAL_PROBE_S = 0.004  # near the probe's median on a 2-vCPU cloud host (3-4.7 ms)
SETUP_TIMEOUT_S = 150
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"


@dataclass
class Ops:
    """Operations attempted and failed: one per command and per check."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def probe_s() -> float:
    """The host's current speed: seconds a fixed pure-Python loop takes, best of a few tries."""
    best = math.inf
    for _ in range(PROBE_TRIES):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best


def normalised(wall_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """Wall seconds rescaled to a host where the probe takes NOMINAL_PROBE_S."""
    return wall_s * NOMINAL_PROBE_S / ((probe_before_s + probe_after_s) / 2.0)


@dataclass
class Rep:
    """One repetition of a workload's commands."""

    ok: bool
    command_s: dict[str, float]  # wall seconds
    out: Path
    norm_s: dict[str, float] = field(default_factory=dict)  # normalised seconds
    trainlog: list[dict] | None = None  # None when the workload does not train
    batch_size: int = 0
    report: dict[str, str] | None = None

    @property
    def pipeline_s(self) -> float:
        return sum(self.command_s.values())

    @property
    def pipeline_norm_s(self) -> float:
        return sum(self.norm_s.values())


def run_rep(wl: Workload, seed: int, inputs: Path, out: Path, ops: Ops,
            tracer: Tracer | None = None) -> Rep:
    shutil.rmtree(out, ignore_errors=True)
    rep = Rep(ok=True, command_s={}, out=out)
    probe_before = probe_s()
    for cmd in wl.commands(inputs, out, seed):
        span = tracer.span(f"cli.{cmd.name}") if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                status = run_command(cmd.argv)
        except Exception:  # a crash is a failed command, not a crashed benchmark
            traceback.print_exc()
            status = -1
        rep.command_s[cmd.name] = time.perf_counter() - started
        probe_after = probe_s()
        rep.norm_s[cmd.name] = normalised(rep.command_s[cmd.name], probe_before, probe_after)
        probe_before = probe_after
        wrote = all(Path(p).exists() for p in cmd.artifacts)
        if not ops.record(f"{wl.name}: {cmd.name} exits 0 and writes its artifacts",
                          status == 0 and wrote):
            rep.ok = False
            return rep
    if "train" in rep.command_s:
        rep.trainlog = checks.trainlog_steps(out / "train" / "trainlog.json")
        train = resolved_config(out / "train")["train"]
        rep.batch_size = int(train["num_places"]) * int(train["images_per_place"])
        rep.ok = ops.record(f"{wl.name}: trainlog.json losses are finite",
                            checks.losses_finite(rep.trainlog))
    rep.report = checks.read_kv(out / "eval" / "report.kv")
    return rep


def resolved_config(command_out: Path) -> dict:
    return json.loads((command_out / "resolved_config.json").read_text(encoding="utf-8"))


def train_images_per_s(rep: Rep) -> float:
    return len(rep.trainlog) * rep.batch_size / rep.command_s["train"]


def eval_queries_per_norm_s(rep: Rep) -> float:
    return int(rep.report["queries_evaluated"]) / rep.norm_s["eval"]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_in_child(wl: Workload, seed: int, inputs: Path, ops: Ops) -> float | None:
    """Set up in a fresh interpreter; returns the set-up's own normalised seconds."""
    shutil.rmtree(inputs, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
         "--seed", str(seed), "--setup-into", str(inputs)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    ok = ops.record(f"{wl.name}: set-up exits 0", proc.returncode == 0)
    if not ok:
        sys.stderr.write(proc.stderr)
        return None
    return float(proc.stdout.strip().splitlines()[-1])


def setup_here(wl: Workload, seed: int, inputs: Path) -> float:
    """Sets up into `inputs`; returns the set-up's normalised seconds."""
    inputs.mkdir(parents=True, exist_ok=True)
    probe_before = probe_s()
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        wl.setup(inputs, seed)
    wall_s = time.perf_counter() - started
    return normalised(wall_s, probe_before, probe_s())


# ---------------------------------------------------------------------------
# Checks on the final repetition
# ---------------------------------------------------------------------------

def check_outputs(wl: Workload, reps: list[Rep], ops: Ops) -> None:
    """Checks on the last repetition's artifacts, against the configs it resolved."""
    last = reps[-1]
    recall_1 = float(last.report["recall@1"])
    ops.record(f"{wl.name}: recall@1 {recall_1} >= floor {wl.recall_floor}",
               recall_1 >= wl.recall_floor)

    ev = resolved_config(last.out / "eval")["eval"]
    queries = load_descriptors(last.out / "eval" / "queries.vprk")
    refs = load_descriptors(last.out / "eval" / "references.vprk")
    expected = checks.brute_force_recall(queries, refs, ev["ground_truth"],
                                         float(ev["radius_m"]), [int(k) for k in ev["ks"]])
    ops.record(f"{wl.name}: recall@{ev['ks']} equals the brute-force recomputation",
               checks.report_matches(last.report, expected))

    out_dim = int(resolved_config(last.out / "reduce")["pca"]["out_dim"])
    reduced = load_tensor(last.out / "reduce" / "reduced.vprk")
    ops.record(f"{wl.name}: reduced.vprk rows are unit norm with width {out_dim}",
               checks.rows_unit_with_width(reduced, out_dim, len(queries.vectors)))

    ops.record(f"{wl.name}: every repetition reproduces the first one's report and losses",
               all(r.report == reps[0].report and r.trainlog == reps[0].trainlog for r in reps))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure(wl: Workload, seed: int, seconds: float, work: Path, ops: Ops,
            reps: list[Rep]) -> dict[str, float]:
    """End-to-end metrics; appends every repetition made to `reps`."""
    setups = [setup_in_child(wl, seed, work / "inputs", ops) for _ in range(wl.setup_repeats)]
    if None in setups:
        return {}
    started = time.perf_counter()
    while len(reps) < WARMUP_REPS + MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(run_rep(wl, seed, work / "inputs", work / "rep", ops))
        if not reps[-1].ok:
            return {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_outputs(wl, reps, ops)
    timed = reps[WARMUP_REPS:]
    print(f"wall, not normalised: pipeline_s median "
          f"{statistics.median(r.pipeline_s for r in timed)!r}, "
          f"min {min(r.pipeline_s for r in timed)!r} over {len(timed)} repetitions")
    return {
        "setup_s": statistics.median(setups),
        "pipeline_norm_s": statistics.median(r.pipeline_norm_s for r in timed),
        "eval_queries_per_norm_s": statistics.median(eval_queries_per_norm_s(r) for r in timed),
        "peak_rss_mb": peak_rss_mb,
        "recall_at_1": float(reps[-1].report["recall@1"]),
    }


def trace(wl: Workload, seed: int, seconds: float, work: Path, ops: Ops,
          tracer: Tracer, reps: list[Rep]) -> dict[str, float]:
    """Per-layer metrics; appends every repetition made to `reps`, untraced first."""
    inputs = work / "inputs"
    tracer.install(vprkit_targets())
    try:
        with tracer.span("bench.setup"):
            setup_here(wl, seed, inputs)
    finally:
        tracer.uninstall()
    ops.record(f"{wl.name}: set-up completes", True)

    plain: list[Rep] = []
    traced: list[Rep] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(run_rep(wl, seed, inputs, work / "plain", ops))
        tracer.install(vprkit_targets())
        try:
            first_span = len(tracer.spans)
            traced.append(run_rep(wl, seed, inputs, work / "traced", ops, tracer))
        finally:
            tracer.uninstall()
        reps += [plain[-1], traced[-1]]
        if not (plain[-1].ok and traced[-1].ok):
            return {}
        if traced[-1].trainlog is not None:
            ops.record(f"{wl.name}: traced losses and mined counts equal the untraced trainlog",
                       checks.same_losses_and_mined_counts(plain[-1].trainlog, traced[-1].trainlog))
            mined = [s.counts["pairs"] for s in tracer.spans[first_span:] if "pairs" in s.counts]
            logged = [s["positives"] + s["negatives"] for s in traced[-1].trainlog]
            if mined:
                ops.record(f"{wl.name}: mined pairs seen at the mining boundary equal trainlog.json",
                           mined == logged)
    check_outputs(wl, traced, ops)

    overhead = (statistics.median(r.pipeline_norm_s for r in traced)
                / statistics.median(r.pipeline_norm_s for r in plain) - 1.0)
    trained = [train_images_per_s(r) for r in plain if r.trainlog is not None]
    images = statistics.median(trained) if trained else 0.0
    return layer_metrics(tracer.spans, len(traced), overhead, images)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)  # child-process set-up
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.setup_into:
        print(repr(setup_here(wl, args.seed, Path(args.setup_into))))
        return 0

    ops = Ops()
    tracer = Tracer()
    reps: list[Rep] = []
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    try:
        if args.trace:
            metrics = trace(wl, args.seed, args.seconds, work, ops, tracer, reps)
        else:
            metrics = measure(wl, args.seed, args.seconds, work, ops, reps)
    except Exception:  # report a broken program as a failed run, with the traceback
        traceback.print_exc()
        ops.record(f"{wl.name}: the run completes without an exception", False)
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    prov = provenance(args)
    result = {
        "correct": not ops.failures and len(metrics) == len(units),
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"provenance": prov, "failures": ops.failures, "absent": tracer.absent,
              "repetitions_s": [r.command_s for r in reps],
              "repetitions_norm_s": [r.norm_s for r in reps], **result}
    if args.trace:
        record["trace"] = tracer.to_json()
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")

    print("provenance: " + json.dumps(prov))
    if tracer.absent:
        print("absent (not traced): " + ", ".join(tracer.absent))
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
