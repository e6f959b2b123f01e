"""Exact and approximate retrieval over memory keys.

Shows the two-stage IVF-PQ search (coarse probe -> PQ-scored recall pool ->
exact rescoring) against the flat oracle, and how recall improves with the
number of probed lists.

Run: python3 demos/02_index_and_retrieval.py
"""

import numpy as np

from vismem import (
    FlatIndex,
    IvfPqParams,
    ivfpq_add,
    ivfpq_search,
    rescore,
    train_ivfpq,
)

rng = np.random.Generator(np.random.PCG64(0))
n, d = 20_000, 128

# Clustered unit keys: 200 centers with moderate within-cluster spread. This
# is the regime inverted-file indexes are built for; on fully uniform
# high-dimensional data there is nothing to cluster and recall degrades.
centers = rng.standard_normal((200, d)).astype(np.float32)
centers /= np.linalg.norm(centers, axis=1, keepdims=True)
keys = centers[rng.integers(0, 200, n)] + (0.8 / np.sqrt(d)) * rng.standard_normal(
    (n, d)).astype(np.float32)
keys /= np.linalg.norm(keys, axis=1, keepdims=True)

params = IvfPqParams(nlist=64, m=16, nbits=8, seed=0, kmeans_iters=10)
index = train_ivfpq(keys, params)
ivfpq_add(index, np.arange(n), keys)
print(f"trained IVF-PQ: nlist={params.nlist}, m={params.m}, "
      f"2^nbits={params.ksub} codewords per subspace")

flat = FlatIndex(keys)
queries = centers[rng.integers(0, 200, 50)] + (0.8 / np.sqrt(d)) * rng.standard_normal(
    (50, d)).astype(np.float32)
queries /= np.linalg.norm(queries, axis=1, keepdims=True)
queries = queries.astype(np.float32)

k = 12
print(f"\nrecall@{k} vs the flat oracle (50 queries, recall pool 200):")
for nprobe in (1, 4, 16, 64):
    overlap = 0
    for q in queries:
        truth = {h.entry_id for h in flat.search(q, k)}
        candidates = ivfpq_search(index, q, nprobe=nprobe, recall_size=200)
        approx = {h.entry_id for h in rescore(keys, candidates, q, k)}
        overlap += len(truth & approx)
    print(f"  nprobe={nprobe:>3}: {overlap / (50 * k):.4f}")

# Probing every list with an exhaustive recall pool makes the two-stage
# search exact: rescoring runs on full-precision keys, so the result is
# identical to flat search, hit for hit.
q = queries[0]
candidates = ivfpq_search(index, q, nprobe=params.nlist, recall_size=n)
print("\nexhaustive probe + rescore == flat search:",
      rescore(keys, candidates, q, k) == flat.search(q, k))
