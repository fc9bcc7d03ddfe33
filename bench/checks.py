"""Independent checks on the artifacts a workload's commands write.

The recall recomputation shares no code with `vprkit.evaluator`: one
matrix product per block of queries, a stable sort by score descending
(so ties go to the smaller reference index), and a vectorised haversine
for geo ground truth.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_008.8
QUERY_BLOCK = 100  # bounds the (block x R) score and order arrays


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def haversine_m(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in meters, broadcasting over its arguments."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=np.float64))
                              for a in (lat1, lon1, lat2, lon2))
    h = (np.sin((lat2 - lat1) / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def brute_force_recall(queries, refs, ground_truth: str, radius_m: float,
                       ks: list[int]) -> tuple[dict[int, float], int, int]:
    """Recall@k by exhaustive search: ({k: recall}, evaluated, excluded).

    `queries` and `refs` carry vectors, lats, lons and place_ids (a
    vprkit DescriptorSet fits). Queries with no correct reference are
    excluded from the denominator.
    """
    ks = sorted(set(ks))
    max_k = min(max(ks), len(refs.vectors))
    ref_vectors = np.asarray(refs.vectors, dtype=np.float64)
    solved = np.zeros(len(ks), dtype=np.int64)
    evaluated = 0
    for lo in range(0, len(queries.vectors), QUERY_BLOCK):
        hi = min(lo + QUERY_BLOCK, len(queries.vectors))
        scores = np.asarray(queries.vectors[lo:hi], dtype=np.float64) @ ref_vectors.T
        order = np.argsort(-scores, axis=1, kind="stable")[:, :max_k]
        if ground_truth == "label":
            correct = queries.place_ids[lo:hi, None] == refs.place_ids[None, :]
        else:
            correct = haversine_m(queries.lats[lo:hi, None], queries.lons[lo:hi, None],
                                  refs.lats[None, :], refs.lons[None, :]) <= radius_m
        has_match = correct.any(axis=1)
        hits = np.take_along_axis(correct, order, axis=1)
        first = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, max_k + 1)
        evaluated += int(has_match.sum())
        for i, k in enumerate(ks):
            solved[i] += int(np.sum(has_match & (first <= k)))
    excluded = len(queries.vectors) - evaluated
    if evaluated == 0:
        return {k: math.nan for k in ks}, 0, excluded
    return {k: float(solved[i]) / evaluated for i, k in enumerate(ks)}, evaluated, excluded


def report_matches(report: dict[str, str], expected: tuple[dict[int, float], int, int]) -> bool:
    recall, evaluated, excluded = expected
    return (int(report["queries_evaluated"]) == evaluated
            and int(report["queries_excluded"]) == excluded
            and all(float(report[f"recall@{k}"]) == v for k, v in recall.items()))


def rows_unit_with_width(vectors: np.ndarray, width: int, rows: int, tol: float = 1e-5) -> bool:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape != (rows, width):
        return False
    return bool(np.all(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= tol))


def trainlog_steps(path: Path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["steps"]


def losses_finite(steps: list[dict]) -> bool:
    return bool(steps) and all(math.isfinite(s["loss"]) for s in steps)


def same_losses_and_mined_counts(a: list[dict], b: list[dict]) -> bool:
    """Per-step losses and mined counts equal bit for bit."""
    keys = ("loss", "positives", "negatives", "triplets", "skipped_anchors")
    return len(a) == len(b) and all(
        all(x[key] == y[key] for key in keys) for x, y in zip(a, b))
