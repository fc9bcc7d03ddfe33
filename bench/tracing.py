"""In-memory span tracing around calls into vprkit's modules.

The tracer wraps functions where their callers look them up (a module
attribute or a class attribute), records one span per call (name, start,
end, parent) and restores every original on `uninstall`. Nothing inside
`vprkit` is edited: the spans come from the benchmark's own wrappers.

Self time of a span is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT_PARENT = -1


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int = ROOT_PARENT
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner.attr`, recorded under `span`.

    `generator` marks a generator function: each `next()` on the generator
    it returns becomes one span (with count items=1 when it yielded).
    `count` maps (args, result) to extra counts stored on the span.
    """

    owner: object
    attr: str
    span: str
    generator: bool = False
    count: Callable[[tuple, object], dict[str, int]] | None = None


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else ROOT_PARENT
        self.spans.append(Span(name, self.clock(), 0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end_ns = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        if target.generator:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(target.span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.spans[idx].counts["items"] = 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if target.count is not None:
                self.spans[idx].counts.update(target.count(args, result))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Replace each target attribute by its traced wrapper.

        A target whose attribute no longer exists is listed in `absent`
        instead of failing, so the benchmark outlives renames.
        """
        for target in targets:
            where = f"{getattr(target.owner, '__name__', target.owner)}.{target.attr}"
            if target.attr not in vars(target.owner):
                if where not in self.absent:
                    self.absent.append(where)
                continue
            original = vars(target.owner)[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self.wrap(getattr(target.owner, target.attr), target))

    def uninstall(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                {"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent, "counts": s.counts}
                for s in self.spans
            ],
        }


def self_times_ns(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent != ROOT_PARENT:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start_ns
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration_ns - covered)
    return out


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


def vprkit_targets() -> list[Target]:
    """Every boundary the benchmark traces, at the place its caller looks it up."""
    from vprkit import aggregators, cli, evaluator, losses, mining, places, tensorio, trainer

    def mined(args, result):
        if not hasattr(result, "stats"):
            return {}
        stats = result.stats()
        n = len(args[0])
        return {"pairs": stats["positives"] + stats["negatives"], "candidates": n * (n - 1)}

    def read(args, result):
        path = Path(args[0])
        extra = [path.with_suffix(".csv")] if isinstance(result, tensorio.DescriptorSet) else []
        return {"bytes_read": _file_bytes(path, *extra)}

    def written(args, result):
        path = Path(args[0])
        extra = [path.with_suffix(".csv")] if len(args) > 1 and isinstance(
            args[1], tensorio.DescriptorSet) else []
        return {"bytes_written": _file_bytes(path, *extra)}

    targets = [
        Target(aggregators, "forward", "aggregators.forward"),
        Target(aggregators, "backward", "aggregators.backward"),
        Target(trainer, "train", "trainer.train"),
        Target(trainer, "similarity_matrix", "embeddings.similarity_matrix"),
        Target(trainer, "sgd_step", "trainer.sgd_step"),
        Target(trainer, "embed_feature_maps", "trainer.embed_feature_maps"),
        Target(cli, "embed_feature_maps", "trainer.embed_feature_maps"),
        Target(places.BatchSampler, "epoch", "places.sample", generator=True),
        Target(places.Batch, "feature_maps", "places.feature_maps"),
        Target(places, "ingest_manifest", "places.ingest_manifest"),
        Target(places, "synth_places", "places.synth_places"),
        Target(evaluator.GroundTruthMatcher, "matches", "evaluator.gt_match"),
        Target(evaluator, "retrieve_topk", "evaluator.retrieve_topk"),
        Target(cli, "recall_at_k", "evaluator.recall_at_k"),
        Target(cli, "pca_whiten_fit", "evaluator.pca_whiten_fit"),
        Target(cli, "pca_transform_set", "evaluator.pca_transform_set"),
    ]
    targets += [Target(mining, name, f"mining.{name}", count=mined)
                for name in ("enumerate_pairs", "hardest_mining", "ms_mining")]
    targets += [Target(losses, name, f"losses.{name}")
                for name in ("contrastive_loss", "triplet_loss", "multi_similarity_loss",
                             "weak_triplet_loss", "weak_tuples_from_labels",
                             "weak_triplet_total")]
    targets += [Target(tensorio, name, f"tensorio.{name}", count=read)
                for name in ("load_tensor", "load_descriptors", "load_checkpoint")]
    targets += [Target(tensorio, name, f"tensorio.{name}", count=written)
                for name in ("save_tensor", "save_descriptors", "save_checkpoint")]
    return targets
