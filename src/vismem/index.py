"""Exact flat search and an IVF-PQ approximate index over memory keys.

The approximate index is an inverted-file structure: keys are bucketed by a
k-means coarse quantizer, and each residual (key minus its centroid) is
product-quantized into m one-byte codes. Queries probe the nprobe nearest
buckets by inner product and score candidates through per-subspace lookup
tables (asymmetric distance computation). A second exact rescoring stage over
full-precision keys repairs approximation errors before the final top-K cut.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import FormatError, InvalidInputError
from .serial import Reader, Writer, atomic_write_bytes, format_errors

INDEX_MAGIC = "PIVF"
INDEX_VERSION = 1


@dataclass(frozen=True)
class SearchHit:
    entry_id: int
    score: float


def _top_k(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-k (ids, scores) by (score desc, id asc): the one ranking of
    every search. k >= 1 is checked by the caller, with `_check_k`.

    Only the rows scoring at least the k-th best score, every tie with it
    included, are sorted; that gives the order of a full sort.
    """
    if k < ids.size:
        neg = -scores
        kth = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(kth):  # NaN sorts last in both; then keep every row
            keep = neg <= kth
            ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def _hits(ids: np.ndarray, scores: np.ndarray) -> list[SearchHit]:
    """The public form of ranked (ids, scores) arrays."""
    return [SearchHit(i, s) for i, s in zip(ids.tolist(), scores.tolist())]


def _check_k(k: int, what: str = "k") -> None:
    """The one check of how many hits a search ranks."""
    if k < 1:
        raise InvalidInputError(f"{what} must be >= 1, got {k}")


def _check_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """ids, once each is a row of an n-row matrix: the one check of hit ids."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise InvalidInputError(f"entry id out of range [0, {n})")
    return ids


def _check_query(query, dim: int) -> np.ndarray:
    """query as a finite (dim,) float32 vector: the one check of every search."""
    query = np.asarray(query, dtype=np.float32)
    if query.shape != (dim,):
        raise InvalidInputError(f"query dim {query.shape} != index dim {dim}")
    if not np.isfinite(query).all():
        raise InvalidInputError("query must be finite")
    return query


def exact_scores(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Full-precision inner products of flat search and rescoring. einsum sums
    each row's float64 product on its own, so a score depends only on its row
    and the query; a BLAS GEMV rounds a row by how many rows share its block."""
    return np.einsum("ij,j->i", keys.astype(np.float64, copy=False),
                     np.asarray(query, dtype=np.float64))


class FlatIndex:
    """Exact inner-product search over full-precision keys, which must be
    finite as for training; entry ids are row positions, from `np.arange`, so
    `keys` can also serve `rescore`. The keys are also held cast to float64,
    once, for the exact scores of every search."""

    def __init__(self, keys: np.ndarray):
        self.keys = _finite_matrix(keys, "keys")
        self._keys64 = self.keys.astype(np.float64)

    @classmethod
    def from_bank(cls, bank) -> "FlatIndex":
        return cls(bank.keys)

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def search(self, query, k: int) -> list[SearchHit]:
        query = _check_query(query, self.dim)
        _check_k(k)
        scores = exact_scores(self._keys64, query)
        return _hits(*_top_k(np.arange(scores.size), scores, k))


_BLOCK = 4096  # rows per block: bounds the (rows, k) temporaries of _nearest


def _finite_matrix(x, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """x as a contiguous float32 array with no NaN or inf, of this shape if
    one is given and an (N, D) matrix if not."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 2 if shape is None else x.shape != shape:
        raise InvalidInputError(f"{what} must be an array of shape {shape or '(N, D)'}, "
                                f"got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():  # the flat test is cheap; find the rows only on failure
        bad = np.flatnonzero(~finite.reshape(len(x), -1).all(axis=1))
        raise InvalidInputError(f"{what} must be finite; row {bad[0]} holds NaN or inf "
                                f"({bad.size} of {len(x)} rows do)")
    return x


def _nearest(points: np.ndarray, centroids: np.ndarray, bias) -> tuple[np.ndarray, np.ndarray]:
    """For each row x, the centroid c maximising <x, c> - bias[c] (the first
    on ties), and that winner's <x, c>.

    The float32 product is taken in blocks of _BLOCK rows. With bias |c|^2 / 2
    the choice is the nearest centroid, since |x|^2 is constant per row; with
    a bias of 0.0 it is the best inner product.
    """
    n = points.shape[0]
    choice = np.empty(n, dtype=np.int64)
    cross_at = np.empty(n, dtype=np.float32)
    for a in range(0, n, _BLOCK):
        cross = points[a:a + _BLOCK] @ centroids.T
        c = (cross - bias).argmax(axis=1)
        choice[a:a + _BLOCK] = c
        cross_at[a:a + _BLOCK] = np.take_along_axis(cross, c[:, None], axis=1)[:, 0]
    return choice, cross_at


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next centroid is a row drawn with probability
    proportional to its squared distance to the nearest centroid so far.

    A step's distances come from ||x||^2 - 2<x, c> + ||c||^2: one float32
    product with the new centroid, combined in float64 with norms computed
    once. Rows within that product's rounding bound of zero are recomputed
    from their difference, so the chosen row and its duplicates weigh
    exactly 0. One uniform draw per step picks the row by cumulative weight.
    """
    n, dim = points.shape
    p2 = np.einsum("ij,ij->i", points, points, dtype=np.float64)
    # |fl32(<x, c>) - <x, c>| <= dim * 2^-24 * |x| |c|, and d uses the product twice.
    near_scale = 2.0 * (dim + 2) * 2.0**-24 * np.sqrt(p2.max())

    def sq_dists(idx: int) -> np.ndarray:
        d = p2 - 2.0 * (points @ points[idx]) + p2[idx]
        np.maximum(d, 0.0, out=d)
        near = np.flatnonzero(d <= near_scale * np.sqrt(p2[idx]))
        diff = points[near] - points[idx]
        d[near] = np.einsum("ij,ij->i", diff, diff)
        return d

    centroids = np.empty((k, dim), dtype=points.dtype)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = sq_dists(first)
    for j in range(1, k):
        cum = np.cumsum(closest)
        total = cum[-1]
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            # random() <= 1 - 2^-53 keeps the draw below total, so the first
            # cumulative weight above it belongs to a row with weight > 0.
            idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
        centroids[j] = points[idx]
        np.minimum(closest, sq_dists(idx), out=closest)
    return centroids


def kmeans(points, k: int, iters: int = 25, seed=0,
           return_distortions: bool = False):
    """Lloyd's algorithm with seeded k-means++ init and fixed iteration count.

    Each step assigns every point to the centroid maximising
    <x, c> - |c|^2 / 2 (the nearest one), from a float32 product taken in
    row blocks. The distortion is the float64 sum of each point's squared
    distance |x|^2 - 2<x, c> + |c|^2. New centroids are float64 sums of
    their points, taken in point order, divided by the counts. An empty
    cluster is reseeded to the point farthest from its centroid, one point
    per empty cluster. Deterministic given the seed; points must be finite.
    """
    points = _finite_matrix(points, "points")
    n = points.shape[0]
    if k > n:
        raise InvalidInputError(f"k={k} exceeds point count {n}")
    if k < 1 or iters < 1:
        raise InvalidInputError("k and iters must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.PCG64(seed))

    centroids = _kmeans_pp_init(points, k, rng)
    p2 = np.einsum("ij,ij->i", points, points).astype(np.float64)
    points64 = points.astype(np.float64)
    ones, cols = np.ones(n), np.arange(n)
    distortions = []
    for _ in range(iters):
        c2 = np.einsum("ij,ij->i", centroids, centroids)
        assign, at = _nearest(points, centroids, 0.5 * c2)
        point_d = p2 - 2.0 * at.astype(np.float64) + c2[assign]
        np.maximum(point_d, 0.0, out=point_d)
        distortions.append(float(point_d.sum()))
        # Row c of the one-hot matrix lists cluster c's points in point order,
        # and the product adds them one by one in that order, starting at +0.0.
        one_hot = csr_matrix((ones, (assign, cols)), shape=(k, n))
        counts = np.diff(one_hot.indptr)
        sums = one_hot @ points64
        nonempty = counts > 0
        centroids[nonempty] = (sums[nonempty] / counts[nonempty, None]).astype(np.float32)
        # Reseed each empty cluster to the currently farthest point.
        for j in np.flatnonzero(~nonempty):
            idx = int(point_d.argmax())
            centroids[j] = points[idx]
            point_d[idx] = -1.0
    if return_distortions:
        return centroids, distortions
    return centroids


@dataclass(frozen=True)
class IvfPqParams:
    nlist: int = 256
    m: int = 16
    nbits: int = 8
    seed: int = 0
    kmeans_iters: int = 25

    def __post_init__(self):
        if not (all(type(v) is int for v in self.as_dict().values())
                and min(self.nlist, self.m, self.kmeans_iters) >= 1
                and 1 <= self.nbits <= 8 and self.seed >= 0):
            raise InvalidInputError(
                f"IVF-PQ parameters must be ints with nlist, m, kmeans_iters >= 1, "
                f"1 <= nbits <= 8 (one-byte codes) and seed >= 0; got {self.as_dict()}")

    @property
    def ksub(self) -> int:
        return 1 << self.nbits

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class IvfPqIndex:
    """Trained IVF-PQ structure. Add entries, then search.

    The constructor refuses a dim that m does not divide, and centroids or
    codebooks that are not finite arrays of shapes (nlist, dim) and
    (m, 2^nbits, dim / m). The inverted lists are stored CSR-style: list l is
    rows offsets[l]:offsets[l + 1] of ids and codes, in the order added.
    """

    params: IvfPqParams
    dim: int
    coarse_centroids: np.ndarray                 # (nlist, D) float32
    pq_codebooks: np.ndarray                     # (m, 2^nbits, D/m) float32
    ids: np.ndarray | None = None                # (N,) int64, grouped by list
    codes: np.ndarray | None = None              # (N, m) uint8, one row per id
    offsets: np.ndarray | None = None            # (nlist + 1,) int64

    def __post_init__(self):
        p = self.params
        if self.dim % p.m:
            raise InvalidInputError(f"dim {self.dim} not divisible by m={p.m}")
        self.coarse_centroids = _finite_matrix(self.coarse_centroids, "coarse centroids",
                                               (p.nlist, self.dim))
        self.pq_codebooks = _finite_matrix(self.pq_codebooks, "PQ codebooks",
                                           (p.m, p.ksub, self.dim // p.m))
        if self.offsets is None:  # no entries yet
            self.ids = np.zeros(0, dtype=np.int64)
            self.codes = np.zeros((0, self.params.m), dtype=np.uint8)
            self.offsets = np.zeros(self.params.nlist + 1, dtype=np.int64)

    @property
    def dsub(self) -> int:
        return self.dim // self.params.m

    @property
    def ntotal(self) -> int:
        return int(self.offsets[-1])

    def encode_residuals(self, residuals: np.ndarray) -> np.ndarray:
        """Each subvector's nearest codeword of its subspace."""
        n, m = residuals.shape[0], self.params.m
        sub = np.ascontiguousarray(residuals, dtype=np.float32).reshape(n, m, self.dsub)
        half_c2 = 0.5 * np.einsum("mkd,mkd->mk", self.pq_codebooks, self.pq_codebooks)
        codes = np.empty((n, m), dtype=np.uint8)
        for j in range(m):
            codes[:, j] = _nearest(sub[:, j, :], self.pq_codebooks[j], half_c2[j])[0]
        return codes

    def decode(self, list_no: int, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate keys: centroid + decoded residual."""
        recon = self.pq_codebooks[np.arange(self.params.m), codes].reshape(codes.shape[0], self.dim)
        return recon + self.coarse_centroids[list_no]


def train_ivfpq(keys, params: IvfPqParams) -> IvfPqIndex:
    """Train the coarse quantizer on the keys and PQ codebooks on residuals."""
    keys = _finite_matrix(keys, "keys")
    n, dim = keys.shape
    if dim % params.m != 0:
        raise InvalidInputError(f"dim {dim} not divisible by m={params.m}")
    if n < max(params.nlist, params.ksub):
        raise InvalidInputError(
            f"need at least {max(params.nlist, params.ksub)} training points, got {n}"
        )
    seeds = np.random.SeedSequence(params.seed).spawn(params.m + 1)
    coarse = kmeans(keys, params.nlist, iters=params.kmeans_iters,
                    seed=np.random.Generator(np.random.PCG64(seeds[0])))
    assign = _nearest(keys, coarse, 0.0)[0]
    residuals = coarse[assign]
    np.subtract(keys, residuals, out=residuals)  # no second (N, D) temporary
    dsub = dim // params.m
    sub = residuals.reshape(n, params.m, dsub)
    codebooks = np.empty((params.m, params.ksub, dsub), dtype=np.float32)
    for j in range(params.m):
        codebooks[j] = kmeans(sub[:, j, :], params.ksub, iters=params.kmeans_iters,
                              seed=np.random.Generator(np.random.PCG64(seeds[j + 1])))
    return IvfPqIndex(params=params, dim=dim, coarse_centroids=coarse,
                      pq_codebooks=codebooks)


def _has_duplicates(ids: np.ndarray) -> bool:
    """Whether an id occurs twice. A sort: numpy 2's hashing np.unique takes
    about 20 times as long on 50k ids."""
    ordered = np.sort(ids)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def ivfpq_add(index: IvfPqIndex, ids, keys) -> None:
    """Assign keys to their nearest coarse list and store PQ codes."""
    keys = _finite_matrix(keys, "keys")
    ids = np.asarray(ids, dtype=np.int64)
    if keys.shape[1] != index.dim:
        raise InvalidInputError(f"keys must be (N, {index.dim})")
    if ids.shape[0] != keys.shape[0]:
        raise InvalidInputError("ids and keys must have equal length")
    all_ids = np.concatenate([index.ids, ids])
    if _has_duplicates(all_ids):
        raise InvalidInputError("duplicate entry id in add")
    # Assignment and probing both use inner product, matching the similarity
    # metric of the search itself.
    assign = _nearest(keys, index.coarse_centroids, 0.0)[0]
    residuals = index.coarse_centroids[assign]
    np.subtract(keys, residuals, out=residuals)
    codes = index.encode_residuals(residuals)
    # A stable sort by list keeps the rows already in a list ahead of new ones.
    nlist = index.params.nlist
    lists = np.concatenate([np.repeat(np.arange(nlist), np.diff(index.offsets)), assign])
    order = np.argsort(lists, kind="stable")
    index.ids = all_ids[order]
    index.codes = np.concatenate([index.codes, codes])[order]
    index.offsets = np.concatenate([[0], np.cumsum(np.bincount(lists, minlength=nlist))])


def _check_probe(index: IvfPqIndex, query, nprobe: int, recall_size: int) -> np.ndarray:
    """The checked query of an IVF-PQ search, once the search parameters
    have been checked."""
    query = _check_query(query, index.dim)
    if nprobe < 1 or nprobe > index.params.nlist:
        raise InvalidInputError(f"nprobe must be in [1, nlist], got {nprobe}")
    _check_k(recall_size, "recall_size")
    return query


def _ivfpq_pool(index: IvfPqIndex, query: np.ndarray, nprobe: int,
                recall_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, ADC scores) of the recall_size best candidates of the nprobe
    nearest lists, ranked by (score desc, id asc); query is checked."""
    coarse_scores = (index.coarse_centroids @ query).astype(np.float64)
    probe_order = np.lexsort((np.arange(index.params.nlist), -coarse_scores))[:nprobe]

    m, dsub, ksub = index.params.m, index.dsub, index.params.ksub
    # lut[j, code] = <query_sub_j, codeword>
    lut = np.einsum("mkd,md->mk", index.pq_codebooks, query.reshape(m, dsub))

    starts, ends = index.offsets[probe_order], index.offsets[probe_order + 1]
    all_ids = np.concatenate([index.ids[a:b] for a, b in zip(starts, ends)])
    all_codes = np.concatenate([index.codes[a:b] for a, b in zip(starts, ends)])
    coarse_part = np.repeat(coarse_scores[probe_order], ends - starts)
    # Code c of subspace j is entry j * ksub + c of the flat table.
    entries = lut.ravel()[all_codes + np.arange(0, m * ksub, ksub)]
    scores = entries.sum(axis=1, dtype=np.float64) + coarse_part
    return _top_k(all_ids, scores, recall_size)


def ivfpq_search(index: IvfPqIndex, query, nprobe: int, recall_size: int) -> list[SearchHit]:
    """Probe the nprobe nearest lists and return the approximate top candidates.

    Scores are asymmetric: exact query against reconstructed
    (centroid + codeword) entries, via per-subspace lookup tables. The
    candidates stay arrays until this function builds their hits.
    """
    query = _check_probe(index, query, nprobe, recall_size)
    return _hits(*_ivfpq_pool(index, query, nprobe, recall_size))


def rescore(keys, candidates: list[SearchHit], query, k: int) -> list[SearchHit]:
    """Re-rank candidates with exact full-precision inner products.

    keys is the (N, D) matrix the candidate ids index, such as a bank's or a
    FlatIndex's `keys`.
    """
    keys = np.asarray(keys, dtype=np.float32)
    if keys.ndim != 2:
        raise InvalidInputError(f"keys must be an (N, D) matrix, got shape {keys.shape}")
    query = _check_query(query, keys.shape[1])
    _check_k(k)
    ids = np.fromiter((h.entry_id for h in candidates), dtype=np.int64, count=len(candidates))
    return _hits(*_top_k(ids, exact_scores(keys[_check_ids(ids, len(keys))], query), k))


# --- persistence -----------------------------------------------------------

def save_index(index: IvfPqIndex, path) -> None:
    w = Writer()
    w.magic(INDEX_MAGIC).u32(INDEX_VERSION)
    w.json_block(index.params.as_dict())
    w.u32(index.dim)
    w.f32_array(index.coarse_centroids)
    w.f32_array(index.pq_codebooks)
    for a, b in zip(index.offsets[:-1].tolist(), index.offsets[1:].tolist()):
        w.u64(b - a)
        w.i64_array(index.ids[a:b])
        w.u8_array(index.codes[a:b])
    atomic_write_bytes(path, w.getvalue())


def _finite_f32s(r: Reader, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """The next float32 array of this shape; a NaN or inf in it is a
    FormatError at its offset, as training never writes one."""
    at = r.offset
    arr = r.f32_array(math.prod(shape), shape=shape)
    bad = ~np.isfinite(arr.ravel())
    if bad.any():
        raise FormatError(f"non-finite {what}", offset=at + 4 * int(np.argmax(bad)))
    return arr


def load_index(path) -> IvfPqIndex:
    with Reader.stream(path, INDEX_MAGIC, INDEX_VERSION) as r:
        header_at = r.offset
        header = r.json_block()
        expected = IvfPqParams().as_dict().keys()
        with format_errors("bad index header", header_at):
            if not isinstance(header, dict) or header.keys() != expected:
                raise InvalidInputError(f"header keys must be exactly {sorted(expected)}")
            params = IvfPqParams(**header)
        dim = r.u32()
        if dim % params.m != 0:
            raise FormatError(f"index dim {dim} not divisible by m={params.m}",
                              offset=r.offset - 4)
        dsub = dim // params.m
        coarse = _finite_f32s(r, "coarse centroid", (params.nlist, dim))
        codebooks = _finite_f32s(r, "PQ codeword", (params.m, params.ksub, dsub))
        sizes, ids, codes = [], [], []
        for _ in range(params.nlist):
            n = r.u64()
            sizes.append(n)
            ids.append(r.records(np.dtype("<i8"), n))
            codes.append(r.records(np.dtype(np.uint8), n * params.m).reshape(n, params.m))
        r.expect_eof()
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    ids, codes = np.concatenate(ids, dtype=np.int64), np.concatenate(codes)
    if _has_duplicates(ids):
        raise FormatError("duplicate entry id in index lists")
    if codes.size and codes.max() >= params.ksub:
        raise FormatError(f"PQ code {codes.max()} out of range for ksub={params.ksub}")
    return IvfPqIndex(params=params, dim=dim, coarse_centroids=coarse, pq_codebooks=codebooks,
                      ids=ids, codes=codes, offsets=offsets)
