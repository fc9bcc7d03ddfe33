"""Per-layer metrics computed from one traced run's spans.

Each metric names the end-to-end metric it should move and the workloads
where it should move it; later changes cite these names. Per-step values
divide by the training steps traced; per-command values are per traced
repetition of the pipeline. A layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracing import ROOT_PARENT, Span, self_times_ns

# metric -> (end-to-end metric it should move, workloads where it should move it)
LAYER_MAP = {
    "aggregators.forward_ms_per_step": ("cli.train_images_per_s", "backbone_20x20, desk_pk400"),
    "aggregators.backward_ms_per_step": ("cli.train_images_per_s", "backbone_20x20, desk_pk400"),
    "aggregators.forward_calls_per_step": ("cli.train_images_per_s", "backbone_20x20, desk_pk400"),
    "aggregators.backward_calls_per_step": ("cli.train_images_per_s", "backbone_20x20, desk_pk400"),
    "aggregators.embed_s": ("eval_queries_per_norm_s", "backbone_20x20"),
    "mining.ms_per_step": ("cli.train_images_per_s", "desk_pk400"),
    "mining.pairs_per_step": ("cli.train_images_per_s", "desk_pk400"),
    "mining.kept_ratio": ("cli.train_images_per_s", "desk_pk400"),
    "losses.ms_per_step": ("cli.train_images_per_s", "desk_pk400"),
    "embeddings.similarity_ms_per_step": ("cli.train_images_per_s", "desk_pk400"),
    "trainer.sgd_ms_per_step": ("cli.train_images_per_s", "backbone_20x20"),
    "trainer.self_ms_per_step": ("cli.train_images_per_s", "desk_pk400"),
    "trainer.step_ms_p50": ("cli.train_images_per_s", "desk_pk400, backbone_20x20"),
    "trainer.steps": ("cli.train_images_per_s", "desk_pk400, backbone_20x20"),
    "places.sample_ms_per_step": ("cli.train_images_per_s", "desk_pk400"),
    "places.ingest_s": ("pipeline_norm_s", "desk_pk400"),
    "places.synth_s": ("setup_s", "desk_pk400, backbone_20x20"),
    "evaluator.gt_match_s": ("eval_queries_per_norm_s", "retrieval_geo"),
    "evaluator.topk_s": ("eval_queries_per_norm_s", "retrieval_geo, desk_pk400"),
    "evaluator.topk_calls": ("eval_queries_per_norm_s", "retrieval_geo, desk_pk400"),
    "evaluator.recall_self_s": ("eval_queries_per_norm_s", "retrieval_geo, desk_pk400"),
    "evaluator.pca_fit_s": ("pipeline_norm_s", "retrieval_geo, backbone_20x20"),
    "evaluator.pca_apply_s": ("pipeline_norm_s", "retrieval_geo"),
    "tensorio.read_s": ("pipeline_norm_s", "backbone_20x20, retrieval_geo"),
    "tensorio.write_s": ("pipeline_norm_s", "retrieval_geo"),
    "tensorio.bytes_read": ("pipeline_norm_s", "backbone_20x20, retrieval_geo"),
    "tensorio.bytes_written": ("pipeline_norm_s", "retrieval_geo"),
    "cli.train_self_s": ("pipeline_norm_s", "desk_pk400, backbone_20x20"),
    "cli.eval_self_s": ("pipeline_norm_s", "desk_pk400, backbone_20x20"),
    "cli.train_images_per_s": ("pipeline_norm_s", "desk_pk400, backbone_20x20"),
    "trace.overhead_ratio": ("none", "all"),
}

SECTIONS = ("bench.setup", "cli.train", "cli.eval", "cli.reduce")
NS_PER_MS = 1e6
NS_PER_S = 1e9


class SpanIndex:
    """Spans grouped by the benchmark section (setup or CLI command) they ran in."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_ns = self_times_ns(spans)
        self.section: list[str | None] = []
        for s in spans:
            if s.name in SECTIONS:
                self.section.append(s.name)
            elif s.parent == ROOT_PARENT:
                self.section.append(None)
            else:
                self.section.append(self.section[s.parent])

    def _outermost(self, prefix: str, section: str) -> list[int]:
        """Spans of a layer (name prefix) in a section, not nested in the same layer."""
        return [
            i for i, s in enumerate(self.spans)
            if s.name.startswith(prefix) and self.section[i] == section
            and (s.parent == ROOT_PARENT or not self.spans[s.parent].name.startswith(prefix))
        ]

    def total_ns(self, prefix: str, section: str) -> int:
        return sum(self.spans[i].duration_ns for i in self._outermost(prefix, section))

    def calls(self, prefix: str, section: str) -> int:
        return len(self._outermost(prefix, section))

    def self_ns_of(self, name: str, section: str) -> int:
        return sum(self.self_ns[i] for i, s in enumerate(self.spans)
                   if s.name == name and self.section[i] == section)

    def count(self, prefix: str, section: str, key: str) -> int:
        return sum(self.spans[i].counts.get(key, 0) for i in self._outermost(prefix, section))

    def step_ms(self) -> list[float]:
        """Training step durations: from one batch request to the next.

        The sampler's `next()` spans sit directly under `trainer.train`; the
        last request of each epoch yields nothing and closes that epoch's
        final step.
        """
        out = []
        for ti, t in enumerate(self.spans):
            if t.name != "trainer.train":
                continue
            samples = [s for s in self.spans if s.parent == ti and s.name == "places.sample"]
            samples.sort(key=lambda s: s.start_ns)
            for a, b in zip(samples, samples[1:]):
                if a.counts.get("items"):
                    out.append((b.start_ns - a.start_ns) / NS_PER_MS)
        return out


def layer_metrics(spans: list[Span], reps: int, overhead_ratio: float,
                  train_images_per_s: float) -> dict[str, float]:
    """Every LAYER_MAP metric from the spans of `reps` traced repetitions."""
    ix = SpanIndex(spans)
    steps = ix.count("places.sample", "cli.train", "items")

    def per_step_ms(ns: float) -> float:
        return ns / NS_PER_MS / steps if steps else 0.0

    def per_rep_s(ns: float) -> float:
        return ns / NS_PER_S / reps

    def all_commands(fn, prefix: str, *extra) -> float:
        return sum(fn(prefix, section, *extra) for section in SECTIONS[1:])

    pairs = ix.count("mining.", "cli.train", "pairs")
    candidates = ix.count("mining.", "cli.train", "candidates")
    step_ms = ix.step_ms()
    return {
        "aggregators.forward_ms_per_step": per_step_ms(ix.total_ns("aggregators.forward", "cli.train")),
        "aggregators.backward_ms_per_step": per_step_ms(ix.total_ns("aggregators.backward", "cli.train")),
        "aggregators.forward_calls_per_step": ix.calls("aggregators.forward", "cli.train") / steps if steps else 0.0,
        "aggregators.backward_calls_per_step": ix.calls("aggregators.backward", "cli.train") / steps if steps else 0.0,
        "aggregators.embed_s": per_rep_s(ix.total_ns("aggregators.forward", "cli.eval")),
        "mining.ms_per_step": per_step_ms(ix.total_ns("mining.", "cli.train")),
        "mining.pairs_per_step": pairs / steps if steps else 0.0,
        "mining.kept_ratio": pairs / candidates if candidates else 0.0,
        "losses.ms_per_step": per_step_ms(ix.total_ns("losses.", "cli.train")),
        "embeddings.similarity_ms_per_step": per_step_ms(ix.total_ns("embeddings.similarity_matrix", "cli.train")),
        "trainer.sgd_ms_per_step": per_step_ms(ix.total_ns("trainer.sgd_step", "cli.train")),
        "trainer.self_ms_per_step": per_step_ms(ix.self_ns_of("trainer.train", "cli.train")),
        "trainer.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "trainer.steps": steps / reps,
        "places.sample_ms_per_step": per_step_ms(ix.total_ns("places.sample", "cli.train")
                                                 + ix.total_ns("places.feature_maps", "cli.train")),
        "places.ingest_s": per_rep_s(all_commands(ix.total_ns, "places.ingest_manifest")),
        "places.synth_s": ix.total_ns("places.synth_places", "bench.setup") / NS_PER_S,
        "evaluator.gt_match_s": per_rep_s(ix.total_ns("evaluator.gt_match", "cli.eval")),
        "evaluator.topk_s": per_rep_s(ix.total_ns("evaluator.retrieve_topk", "cli.eval")),
        "evaluator.topk_calls": ix.calls("evaluator.retrieve_topk", "cli.eval") / reps,
        "evaluator.recall_self_s": per_rep_s(ix.self_ns_of("evaluator.recall_at_k", "cli.eval")),
        "evaluator.pca_fit_s": per_rep_s(ix.total_ns("evaluator.pca_whiten_fit", "cli.reduce")),
        "evaluator.pca_apply_s": per_rep_s(ix.total_ns("evaluator.pca_transform_set", "cli.reduce")),
        "tensorio.read_s": per_rep_s(all_commands(ix.total_ns, "tensorio.load_")),
        "tensorio.write_s": per_rep_s(all_commands(ix.total_ns, "tensorio.save_")),
        "tensorio.bytes_read": all_commands(ix.count, "tensorio.load_", "bytes_read") / reps,
        "tensorio.bytes_written": all_commands(ix.count, "tensorio.save_", "bytes_written") / reps,
        "cli.train_self_s": per_rep_s(ix.self_ns_of("cli.train", "cli.train")),
        "cli.eval_self_s": per_rep_s(ix.self_ns_of("cli.eval", "cli.eval")),
        "cli.train_images_per_s": train_images_per_s,
        "trace.overhead_ratio": overhead_ratio,
    }
