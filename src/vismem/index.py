"""Exact flat search and an IVF-PQ approximate index over memory keys.

The approximate index is an inverted-file structure: keys are bucketed by a
k-means coarse quantizer, and each residual (key minus its centroid) is
product-quantized into m one-byte codes. Queries probe the nprobe nearest
buckets by inner product and score candidates through per-subspace lookup
tables (asymmetric distance computation). A second exact rescoring stage over
full-precision keys repairs approximation errors before the final top-K cut.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.sparse import csr_matrix

from .errors import FormatError, InvalidInputError
from .grids import _all_finite, _check
from .serial import (Reader, Writer, atomic_write_bytes, finite_check, format_errors, json_bytes,
                     json_value, sealed)

INDEX_MAGIC = "PIVF"
INDEX_VERSION = 2


@dataclass(frozen=True)
class SearchHit:
    entry_id: int
    score: float


def _top_k(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-k (ids, scores) by (score desc, id asc): the one ranking of
    every search. k >= 1 is checked by the caller.

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
    if not _all_finite(query):
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
        k = _check("k", k)
        scores = exact_scores(self._keys64, query)
        return _hits(*_top_k(np.arange(scores.size), scores, k))


_BLOCK = 512  # rows per block: keeps the two (rows, k) buffers of _nearest in cache


def _finite_matrix(x, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """x as a contiguous float32 array with no NaN or inf, of this shape if
    one is given and an (N, D) matrix if not."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 2 if shape is None else x.shape != shape:
        raise InvalidInputError(f"{what} must be an array of shape {shape or '(N, D)'}, "
                                f"got shape {x.shape}")
    if not _all_finite(x):  # find the rows only on failure
        bad = np.flatnonzero(~np.isfinite(x).reshape(len(x), -1).all(axis=1))
        raise InvalidInputError(f"{what} must be finite; row {bad[0]} holds NaN or inf "
                                f"({bad.size} of {len(x)} rows do)")
    return x


def _int64s(x, what: str) -> np.ndarray:
    """x as a 1-D int64 array; it must hold integers."""
    x = np.asarray(x)
    if x.ndim != 1 or not (np.issubdtype(x.dtype, np.integer) or x.size == 0):
        raise InvalidInputError(f"{what} must be a 1-D integer array, got {x.dtype} "
                                f"of shape {x.shape}")
    return x.astype(np.int64, copy=False)


def _nearest(points: np.ndarray, centroids: np.ndarray, bias,
             cross_at: np.ndarray | None = None) -> np.ndarray:
    """For each row x, the centroid c maximising <x, c> - bias[c] (the first
    on ties); with cross_at, an (N,) float32 array, also that winner's
    <x, c>, written there.

    The float32 product is taken in blocks of _BLOCK rows, into two buffers
    reused by every block. A last block of fewer than _BLOCK / 4 rows joins
    the block before it: BLAS takes a product of a few rows by another
    kernel (a GEMV for one row), which rounds differently, so a row's
    product would depend on n. With bias |c|^2 / 2 the choice is the nearest
    centroid, since |x|^2 is constant per row; with a bias of 0.0 it is the
    best inner product.
    """
    n = points.shape[0]
    starts = list(range(0, n, _BLOCK))
    if len(starts) > 1 and n - starts[-1] < _BLOCK // 4:
        starts.pop()
    bounds = list(zip(starts, starts[1:] + [n]))
    choice = np.empty(n, dtype=np.intp)
    cross = np.empty((max((b - a for a, b in bounds), default=0), centroids.shape[0]),
                     dtype=np.float32)
    scored = np.empty_like(cross)
    for a, b in bounds:
        block, biased = cross[:b - a], scored[:b - a]
        np.matmul(points[a:b], centroids.T, out=block)
        np.subtract(block, bias, out=biased)
        biased.argmax(axis=1, out=choice[a:b])
        if cross_at is not None:
            cross_at[a:b] = np.take_along_axis(block, choice[a:b, None], axis=1)[:, 0]
    return choice


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
    n, k, iters = points.shape[0], _check("k", k), _check("iters", iters)
    if k > n:
        raise InvalidInputError(f"k={k} exceeds point count {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.PCG64(seed))

    centroids = _kmeans_pp_init(points, k, rng)
    p2 = np.einsum("ij,ij->i", points, points).astype(np.float64)
    points64 = points.astype(np.float64)
    ones, cols = np.ones(n), np.arange(n)
    at = np.empty(n, dtype=np.float32)  # each point's <x, c> with its centroid
    distortions = []
    for _ in range(iters):
        c2 = np.einsum("ij,ij->i", centroids, centroids)
        assign = _nearest(points, centroids, 0.5 * c2, cross_at=at)
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
        for f in fields(self):  # each stored as a Python int, which save_index's JSON takes
            object.__setattr__(self, f.name, _check(f.name, getattr(self, f.name)))

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
    rows offsets[l]:offsets[l + 1] of ids and codes, in the order added. Given
    lists must hold distinct integer ids, (len(ids), m) uint8 codes below
    2^nbits, and offsets that rise from 0 to len(ids) in nlist + 1 steps.
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
            return
        self.ids = _int64s(self.ids, "ids")
        self.offsets = offsets = _int64s(self.offsets, "offsets")
        n, codes = len(self.ids), np.asarray(self.codes)
        if codes.dtype != np.uint8 or codes.shape != (n, p.m):
            raise InvalidInputError(f"codes must be a ({n}, {p.m}) uint8 array, "
                                    f"got {codes.dtype} of shape {codes.shape}")
        if codes.size and codes.max() >= p.ksub:
            raise InvalidInputError(f"PQ code {codes.max()} out of range for ksub={p.ksub}")
        self.codes = codes
        if not (offsets.shape == (p.nlist + 1,) and offsets[0] == 0 and offsets[-1] == n
                and np.all(offsets[1:] >= offsets[:-1])):
            raise InvalidInputError(f"offsets must rise from 0 to len(ids) = {n} in "
                                    f"nlist + 1 = {p.nlist + 1} steps, got {offsets.tolist()!r:.200}")
        if _has_duplicates(self.ids):
            raise InvalidInputError("duplicate entry id in index lists")

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
            codes[:, j] = _nearest(sub[:, j, :], self.pq_codebooks[j], half_c2[j])
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
    assign = _nearest(keys, coarse, 0.0)
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
    assign = _nearest(keys, index.coarse_centroids, 0.0)
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
    if _check("nprobe", nprobe) > index.params.nlist:
        raise InvalidInputError(f"nprobe must be in [1, nlist], got {nprobe}")
    _check("recall_size", recall_size)
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
    k = _check("k", k)
    ids = np.fromiter((h.entry_id for h in candidates), dtype=np.int64, count=len(candidates))
    return _hits(*_top_k(ids, exact_scores(keys[_check_ids(ids, len(keys))], query), k))


# --- persistence -----------------------------------------------------------

_PARAM_NAMES = tuple(f.name for f in fields(IvfPqParams))  # the keys an index header has


def _header(version: int, payload: bytes, dim: int) -> bytes:
    """An index file's header up to its checksum: magic, version, the JSON
    block of the params and the u32 dim."""
    return Writer().magic(INDEX_MAGIC).u32(version).block(payload).u32(dim).getvalue()


def save_index(index: IvfPqIndex, path) -> None:
    """Write an index file of format v2: the header, then one section per
    array: the coarse centroids and PQ codebooks (float32), the offsets
    (nlist + 1 int64), the ids (N int64) and the codes (N x m uint8). The
    header and each section are followed by their 8-byte checksum
    (serial.word_sum), so any change of one byte of the file fails a
    checksum if nothing else refuses it first."""
    header = _header(INDEX_VERSION, json_bytes(index.params.as_dict()), index.dim)
    atomic_write_bytes(path, *sealed(
        np.frombuffer(header, np.uint8),
        np.ascontiguousarray(index.coarse_centroids, "<f4"),
        np.ascontiguousarray(index.pq_codebooks, "<f4"),
        np.ascontiguousarray(index.offsets, "<i8"),
        np.ascontiguousarray(index.ids, "<i8"),
        np.ascontiguousarray(index.codes, np.uint8)))


def _params(header, at: int) -> IvfPqParams:
    """The params of the header's JSON value, which starts at offset at."""
    with format_errors("bad index header", at):
        if not isinstance(header, dict) or header.keys() != set(_PARAM_NAMES):
            raise InvalidInputError(f"header keys must be exactly {sorted(_PARAM_NAMES)}")
        return IvfPqParams(**header)


def _quantizer_parts(params: IvfPqParams, dim: int) -> dict:
    """The coarse centroids and PQ codebooks, as `Reader.sections` parts; a
    NaN or inf float is a FormatError at its offset, as training never
    writes one."""
    return {"coarse centroids": ((params.nlist, dim), "<f4",
                                 finite_check("non-finite coarse centroid")),
            "PQ codebooks": ((params.m, params.ksub, dim // params.m), "<f4",
                             finite_check("non-finite PQ codeword"))}


def _read_v1_arrays(r: Reader, params: IvfPqParams, dim: int) -> tuple:
    """The coarse centroids, codebooks, offsets, ids and codes of a v1 file,
    which holds per list a u64 size, that many ids and their codes."""
    coarse, codebooks = r.sections(_quantizer_parts(params, dim)).values()
    sizes, ids, codes = [], [], []
    for _ in range(params.nlist):
        n = r.u64()
        sizes.append(n)
        ids.append(r.array(n, "<i8"))
        codes.append(r.array((n, params.m), np.uint8))
    return (coarse, codebooks, np.concatenate([[0], np.cumsum(sizes)]),
            np.concatenate(ids, dtype=np.int64), np.concatenate(codes))


def _read_v2_arrays(r: Reader, params: IvfPqParams, dim: int) -> tuple:
    """The coarse centroids, codebooks, offsets, ids and codes of a v2 file,
    read as two runs of sealed sections. The offsets end the first run and
    are checked, starting at 0 and never falling, before the second run
    claims the ids and codes they count."""
    coarse, codebooks, offsets = r.sections(
        {**_quantizer_parts(params, dim), "offsets": (params.nlist + 1, "<i8", None)},
        "index").values()
    wrong = np.diff(offsets, prepend=0) < 0  # an offset below the one before it
    wrong[0] = offsets[0] != 0
    if wrong.any():
        at = r.offset - 8 - offsets.nbytes
        raise FormatError("index offsets must start at 0 and never fall",
                          offset=at + 8 * int(np.argmax(wrong)))
    n = int(offsets[-1])
    ids, codes = r.sections({"ids": (n, "<i8", None),
                             "codes": ((n, params.m), np.uint8, None)}, "index").values()
    return coarse, codebooks, offsets, ids, codes


def load_index(path) -> IvfPqIndex:
    """Read an index file of format v2 or v1; saving what v1 loads writes v2.

    v2 checks its header against the header's checksum before it reads a
    field of it, then reads each sealed section straight into its array
    (_read_v2_arrays). v1 has no checksums and one run of ids and codes per
    list (_read_v1_arrays)."""
    with Reader.stream(path, INDEX_MAGIC, 1, INDEX_VERSION) as r:
        header_at = r.offset
        payload = r.block()
        if r.version == INDEX_VERSION:
            dim_at, dim = r.offset, r.u32()
            r.sealed_header(_header(r.version, payload, dim), "index header")
        params = _params(json_value(payload, header_at), header_at)
        if r.version == 1:
            dim_at, dim = r.offset, r.u32()
        if dim % params.m != 0:
            raise FormatError(f"index dim {dim} not divisible by m={params.m}", offset=dim_at)
        read = _read_v2_arrays if r.version == INDEX_VERSION else _read_v1_arrays
        coarse, codebooks, offsets, ids, codes = read(r, params, dim)
        r.expect_eof()
    with format_errors("bad index lists"):  # a repeated id or a code past the codebook
        return IvfPqIndex(params=params, dim=dim, coarse_centroids=coarse,
                          pq_codebooks=codebooks, ids=ids, codes=codes, offsets=offsets)
