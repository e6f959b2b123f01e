"""Category-conditioned retrieval and softmax prototype aggregation.

A query is built with exactly the same arithmetic as a memory key (category
phrase in place of the grounded phrase), searched through the flat or IVF-PQ
index with exact rescoring, and the retrieved values are combined into a
unit-norm category prototype with temperature-softmax weights over the exact
key similarities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import EmbeddingProvider, KeyWeights, MemoryBank, build_key
from .errors import InvalidInputError
from .index import IvfPqIndex, SearchHit, ivfpq_search, rescore
from .grids import l2_normalize

DEFAULT_TOP_K = 12
DEFAULT_TAU = 0.07
DEFAULT_RECALL_SIZE = 200
DEFAULT_NPROBE = 16


@dataclass
class RetrievalQuery:
    category: str
    vector: np.ndarray


@dataclass
class Prototype:
    """Softmax-weighted, normalized aggregate of retrieved memory values.

    A zero vector with no neighbors means the retrieval produced no evidence;
    downstream prior generation emits nothing for such categories.
    """

    category: str
    vector: np.ndarray
    neighbors: list[tuple[int, float, float]]  # (entry_id, key score, weight)

    @property
    def is_empty(self) -> bool:
        return not self.neighbors


def build_query(provider: EmbeddingProvider, category: str, scene: str,
                image_id: str, weights: KeyWeights) -> RetrievalQuery:
    vector = build_key(
        provider.text_embedding(category),
        provider.text_embedding(scene),
        provider.image_embedding(image_id),
        weights,
    )
    return RetrievalQuery(category=category, vector=vector)


def softmax_weights(scores, tau: float) -> np.ndarray:
    """Temperature softmax with max-subtraction, accumulated in float64."""
    if tau <= 0:
        raise InvalidInputError(f"tau must be > 0, got {tau}")
    s = np.asarray(scores, dtype=np.float64) / tau
    s -= s.max()
    e = np.exp(s)
    return e / e.sum()


def retrieve(bank: MemoryBank, index, query: RetrievalQuery, k: int = DEFAULT_TOP_K,
             exclude_image: str | None = None, nprobe: int = DEFAULT_NPROBE,
             recall_size: int = DEFAULT_RECALL_SIZE) -> list[SearchHit]:
    """Two-stage top-k retrieval with optional self-exclusion.

    With an IVF-PQ index the approximate recall pool is exactly rescored
    first; excluded hits are dropped and replaced from the rescored pool so
    the result keeps k entries whenever enough candidates remain.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if len(bank) == 0:
        return []
    excluded = None if exclude_image is None else bank.image_ids == exclude_image
    if isinstance(index, IvfPqIndex):
        candidates = ivfpq_search(index, query.vector, nprobe=nprobe,
                                  recall_size=recall_size)
        pool = rescore(bank.keys, candidates, query.vector, k=len(candidates))
    else:
        extra = 0 if excluded is None else int(excluded.sum())
        pool = index.search(query.vector, min(len(bank), k + extra))
    if excluded is not None:
        pool = [h for h in pool if not excluded[h.entry_id]]
    return pool[:k]


def aggregate_prototype(bank: MemoryBank, hits: list[SearchHit],
                        query: RetrievalQuery, tau: float = DEFAULT_TAU) -> Prototype:
    """Combine retrieved values with softmax weights over exact key scores."""
    if tau <= 0:
        raise InvalidInputError(f"tau must be > 0, got {tau}")
    if not hits:
        return Prototype(category=query.category,
                         vector=np.zeros(bank.d_val, dtype=np.float32),
                         neighbors=[])
    weights = softmax_weights([h.score for h in hits], tau)
    acc = weights @ bank.values[[h.entry_id for h in hits]].astype(np.float64)
    vector = l2_normalize(acc.astype(np.float32))
    neighbors = [(h.entry_id, h.score, float(a)) for h, a in zip(hits, weights)]
    return Prototype(category=query.category, vector=vector, neighbors=neighbors)
