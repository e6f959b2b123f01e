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
from .index import (FlatIndex, IvfPqIndex, SearchHit, _check_ids, _check_probe, _check_query,
                    _hits, _ivfpq_pool, _top_k, exact_scores)
from .grids import _all_finite, _check, l2_normalize

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
    """Temperature softmax with max-subtraction, accumulated in float64, of
    one or more scores that stay finite divided by tau."""
    tau = _check("tau", tau)
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        s = np.asarray(scores, dtype=np.float64) / tau
    if not s.size or not _all_finite(s):
        raise InvalidInputError(f"softmax needs scores, each finite divided by tau={tau}")
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
    same dim as the bank, and an IVF-PQ index has the bank's key dim and
    holds as many entries as the bank.
    """
    vector = _check_search(bank, index, k, nprobe, recall_size, query.vector)
    (ids, scores), = _retrieve_all(bank, index, [vector], k, exclude_image, nprobe, recall_size)
    return _hits(ids, scores)


def _check_search(bank: MemoryBank, index, k: int, nprobe: int, recall_size: int, vector):
    """retrieve's checks of k, of the index against the bank and of a query
    vector, which is returned checked; an empty bank finds nothing whatever
    the vector, so it is left as given."""
    _check("k", k)
    if isinstance(index, FlatIndex):
        if index.keys.shape != bank.keys.shape:
            raise InvalidInputError(
                f"the flat index holds {index.keys.shape[0]} keys of dim {index.dim}, "
                f"the bank {len(bank)} keys of dim {bank.d_key}")
    elif isinstance(index, IvfPqIndex):
        if index.dim != bank.d_key:
            raise InvalidInputError(
                f"the index has dim {index.dim}, the bank's keys dim {bank.d_key}")
        if index.ntotal != len(bank):
            raise InvalidInputError(
                f"the index holds {index.ntotal} entries, the bank {len(bank)}")
    else:
        raise InvalidInputError(f"not a FlatIndex or an IvfPqIndex: {type(index).__name__}")
    if len(bank) == 0:
        return vector
    if isinstance(index, IvfPqIndex):
        return _check_probe(index, vector, nprobe, recall_size)
    return _check_query(vector, index.dim)


def _retrieve_all(bank: MemoryBank, index: FlatIndex | IvfPqIndex, vectors,
                  k: int, exclude_image: str | None, nprobe: int,
                  recall_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """retrieve of each of Q checked query vectors, given as a (Q, D) stack
    or a list, as ranked (ids, exact scores) arrays: the one search path of
    `retrieve` and `run_pipeline`.

    A flat index scores every query in one einsum over its float64 keys,
    which sums each (row, query) product on its own and so gives each score
    the bits of `exact_scores`; its exclusion mask, over every row, is built
    once. An IVF-PQ index collects, rescores and masks each query's pool on
    its own.
    """
    if len(bank) == 0:
        return [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))] * len(vectors)
    candidates = []
    if isinstance(index, IvfPqIndex):
        for q in vectors:
            ids, _ = _ivfpq_pool(index, q, nprobe, recall_size)
            scores = exact_scores(bank.keys[_check_ids(ids, len(bank))], q)
            if exclude_image is not None:
                kept = bank.image_ids[ids] != exclude_image
                ids, scores = ids[kept], scores[kept]
            candidates.append((ids, scores))
    else:
        all_scores = np.einsum("ij,qj->qi", index._keys64, np.asarray(vectors, np.float64))
        ids = np.arange(len(bank))
        if exclude_image is not None:
            kept = bank.image_ids != exclude_image
            ids, all_scores = np.flatnonzero(kept), all_scores[:, kept]
        candidates = [(ids, scores) for scores in all_scores]
    return [_top_k(ids, scores, k) for ids, scores in candidates]


def aggregate_prototype(bank: MemoryBank, hits: list[SearchHit],
                        query: RetrievalQuery, tau: float = DEFAULT_TAU) -> Prototype:
    """Combine the values of hits, whose ids must be rows of the bank, with
    softmax weights over exact key scores."""
    _check("tau", tau)
    ids = np.fromiter((h.entry_id for h in hits), dtype=np.int64, count=len(hits))
    scores = np.fromiter((h.score for h in hits), dtype=np.float64, count=len(hits))
    return _prototype(bank, _check_ids(ids, len(bank)), scores, query.category, tau)


def _prototype(bank: MemoryBank, ids: np.ndarray, scores: np.ndarray, category: str,
               tau: float) -> Prototype:
    """aggregate_prototype of ranked (ids, scores) arrays."""
    if ids.size == 0:
        return Prototype(category=category, vector=np.zeros(bank.d_val, dtype=np.float32),
                         neighbors=[])
    weights = softmax_weights(scores, tau)
    acc = weights @ bank.values[ids].astype(np.float64)
    vector = l2_normalize(acc.astype(np.float32))
    neighbors = list(zip(ids.tolist(), scores.tolist(), weights.tolist()))
    return Prototype(category=category, vector=vector, neighbors=neighbors)
