"""Exact float64 oracle and the per-op correctness checks.

Every check raises CheckFailed; the harness counts an op with a failed check
or an exception as failed.
"""

from __future__ import annotations

import numpy as np

K = 12
# Bound on float64 rounding of an inner product of two unit float32 vectors
# (about dim * 2**-53, so < 1e-13 at dim 256), kept far below the score gaps
# that separate distinct entries.
SCORE_EPS = 1e-9
NORM_EPS = 1e-5
# An anchor recovers a planted centre within this many cells on each axis.
ANCHOR_TOL_CELLS = 1.5


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def kth_score(scores: np.ndarray, k: int) -> float:
    """k-th largest finite score (or the smallest when fewer remain)."""
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        return np.inf
    k = min(k, finite.size)
    return float(np.partition(finite, finite.size - k)[finite.size - k])


def check_hits(hits, keys64: np.ndarray, query, excluded: np.ndarray | None,
               exact: bool, k: int = K) -> float:
    """Check one top-k result and return its recall@k against the oracle.

    excluded is a boolean mask over entries that may not be returned. A hit
    counts as recalled when its exact score reaches the oracle's k-th score
    within SCORE_EPS, so near-ties may be exchanged.
    """
    ids = np.asarray([h.entry_id for h in hits], dtype=np.int64)
    scores = np.asarray([h.score for h in hits], dtype=np.float64)
    require(len(hits) <= k, f"{len(hits)} hits for k={k}")
    require(np.unique(ids).size == ids.size, "duplicate hit ids")
    require(ids.size == 0 or (ids.min() >= 0 and ids.max() < keys64.shape[0]),
            "hit id out of range")
    for i in range(ids.size - 1):
        require(scores[i] > scores[i + 1] or (scores[i] == scores[i + 1] and ids[i] < ids[i + 1]),
                f"hits not sorted by (score desc, id asc) at rank {i}")
    q64 = np.asarray(query, dtype=np.float64)
    all_scores = keys64 @ q64
    if ids.size:
        require(np.all(np.abs(scores - all_scores[ids]) <= SCORE_EPS),
                "hit score differs from the float64 inner product")
    if excluded is not None:
        require(not excluded[ids].any(), "hit from the excluded image")
        all_scores = np.where(excluded, -np.inf, all_scores)
    available = int(np.isfinite(all_scores).sum())
    want = min(k, available)
    if want == 0:
        require(ids.size == 0, "hits returned with no eligible entry")
        return 1.0
    kth = kth_score(all_scores, k)
    recalled = int((all_scores[ids] >= kth - SCORE_EPS).sum())
    if exact:
        require(ids.size == want and recalled == want,
                f"flat result is not the oracle top-{k} ({recalled} of {want})")
    return recalled / want


def pool_recall(candidates, keys64: np.ndarray, query, k: int = K) -> float:
    """Share of the oracle top-k (ties included) present in a candidate pool."""
    all_scores = keys64 @ np.asarray(query, dtype=np.float64)
    kth = kth_score(all_scores, k)
    ids = np.asarray([h.entry_id for h in candidates], dtype=np.int64)
    in_pool = int((all_scores[ids] >= kth - SCORE_EPS).sum()) if ids.size else 0
    return min(in_pool, k) / min(k, all_scores.size)


def check_prototype(proto, hits) -> bool:
    """Finite and unit-norm, or empty (zero vector) exactly when there are no hits."""
    vec = np.asarray(proto.vector, dtype=np.float64)
    require(np.all(np.isfinite(vec)), "non-finite prototype")
    if not hits:
        require(proto.is_empty and not vec.any(), "prototype without hits is not empty")
        return True
    require(not proto.is_empty, "empty prototype despite hits")
    require(abs(np.linalg.norm(vec) - 1.0) <= NORM_EPS, "prototype is not unit-norm")
    return False


def check_masked(result) -> None:
    """Each masked row keeps exactly one finite logit, at its source category."""
    if not result.prompts:
        return
    logits = result.logits
    require(logits is not None, "prompts without logits")
    require(logits.values.shape[0] == len(result.prompts), "one logit row per prompt")
    col = logits.categories.index(result.category)
    for i, source in enumerate(logits.sources):
        require(source == result.category, "prompt source differs from its category")
        finite = np.flatnonzero(np.isfinite(logits.values[i]))
        require(finite.size == 1 and finite[0] == col,
                "masked row must keep only its source category's logit")


def anchor_found(anchors, row: int, col: int, h: int, w: int) -> bool:
    """A same-category anchor within ANCHOR_TOL_CELLS of a planted centre."""
    if anchors is None:
        return False
    gx, gy = (col + 0.5) / w, (row + 0.5) / h
    tol_x, tol_y = ANCHOR_TOL_CELLS / w, ANCHOR_TOL_CELLS / h
    return any(abs(p.x - gx) <= tol_x and abs(p.y - gy) <= tol_y for p in anchors.points())
