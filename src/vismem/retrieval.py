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
from .index import (FlatIndex, IvfPqIndex, SearchHit, _check_probe, _check_query,
                    _exact_rescore, _ivfpq_pool, _sorted_hits, exact_scores)
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


def _check_tau(tau: float) -> None:
    if not 0 < tau < np.inf:
        raise InvalidInputError(f"tau must be finite and > 0, got {tau}")


def softmax_weights(scores, tau: float) -> np.ndarray:
    """Temperature softmax with max-subtraction, accumulated in float64."""
    _check_tau(tau)
    s = np.asarray(scores, dtype=np.float64) / tau
    s -= s.max()
    e = np.exp(s)
    return e / e.sum()


def retrieve(bank: MemoryBank, index: FlatIndex | IvfPqIndex, query: RetrievalQuery,
             k: int = DEFAULT_TOP_K, exclude_image: str | None = None,
             nprobe: int = DEFAULT_NPROBE, recall_size: int = DEFAULT_RECALL_SIZE) -> list[SearchHit]:
    """Two-stage top-k retrieval with optional self-exclusion.

    The candidates are, with an IVF-PQ index, its approximate recall pool
    rescored exactly from the bank's keys and, with a flat index, every row
    of its keys, scored exactly. Entries of the excluded image are dropped
    and the k best of the rest ranked. The candidates stay id and score
    arrays throughout, and hits are built only for the entries returned.

    The index must fit the bank: a flat index holds as many keys of the
    same dim as the bank, and an IVF-PQ index has the bank's key dim.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if isinstance(index, FlatIndex):
        if index.keys.shape != bank.keys.shape:
            raise InvalidInputError(
                f"the flat index holds {index.keys.shape[0]} keys of dim {index.dim}, "
                f"the bank {len(bank)} keys of dim {bank.d_key}")
    elif isinstance(index, IvfPqIndex):
        if index.dim != bank.d_key:
            raise InvalidInputError(
                f"the index has dim {index.dim}, the bank's keys dim {bank.d_key}")
    else:
        raise InvalidInputError(f"not a FlatIndex or an IvfPqIndex: {type(index).__name__}")
    if len(bank) == 0:
        return []
    if isinstance(index, IvfPqIndex):
        vector = _check_probe(index, query.vector, nprobe, recall_size)
        ids, _ = _ivfpq_pool(index, vector, nprobe, recall_size)
        scores = _exact_rescore(bank.keys, ids, vector)
    else:
        ids, scores = index.ids, exact_scores(index.keys, _check_query(query.vector, index.dim))
    if exclude_image is not None:
        kept = bank.image_ids[ids] != exclude_image
        ids, scores = ids[kept], scores[kept]
    return _sorted_hits(ids, scores, k)


def aggregate_prototype(bank: MemoryBank, hits: list[SearchHit],
                        query: RetrievalQuery, tau: float = DEFAULT_TAU) -> Prototype:
    """Combine retrieved values with softmax weights over exact key scores."""
    _check_tau(tau)
    if not hits:
        return Prototype(category=query.category,
                         vector=np.zeros(bank.d_val, dtype=np.float32),
                         neighbors=[])
    weights = softmax_weights([h.score for h in hits], tau)
    acc = weights @ bank.values[[h.entry_id for h in hits]].astype(np.float64)
    vector = l2_normalize(acc.astype(np.float32))
    neighbors = [(h.entry_id, h.score, float(a)) for h, a in zip(hits, weights)]
    return Prototype(category=query.category, vector=vector, neighbors=neighbors)
