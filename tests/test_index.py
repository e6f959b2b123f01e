import json
import struct

import numpy as np
import pytest

from vismem import index as index_module
from vismem.bank import MemoryBank, load_bank, save_bank
from vismem.errors import FormatError, InvalidInputError
from vismem.index import (
    FlatIndex,
    IvfPqIndex,
    IvfPqParams,
    SearchHit,
    _hits,
    _kmeans_pp_init,
    _nearest,
    _top_k,
    exact_scores,
    ivfpq_add,
    ivfpq_search,
    kmeans,
    load_index,
    rescore,
    save_index,
    train_ivfpq,
)

from oracles import reference_index_bytes, resealed


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d)).astype(np.float32)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def naive_top_k(keys, query, k):
    """Brute-force oracle: python loop, fsum-free but float64, explicit tie rule."""
    scored = [(float(np.dot(keys[i].astype(np.float64), np.asarray(query, dtype=np.float64))), i)
              for i in range(len(keys))]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(i, s) for s, i in scored[:k]]


def list_rows(index, list_no):
    """(ids, codes) of one inverted list: its slice of the CSR arrays."""
    a, b = index.offsets[list_no], index.offsets[list_no + 1]
    return index.ids[a:b], index.codes[a:b]


def small_index(seed=0, n=400, d=16, nlist=8, m=4, nbits=4, iters=10):
    rng = rng_for(seed)
    keys = unit_rows(rng, n, d)
    params = IvfPqParams(nlist=nlist, m=m, nbits=nbits, seed=seed, kmeans_iters=iters)
    index = train_ivfpq(keys, params)
    ivfpq_add(index, np.arange(n), keys)
    return index, keys


class TestFlatSearch:
    def test_three_key_example(self):
        keys = np.eye(3, dtype=np.float32)
        hits = FlatIndex(keys).search([0.9, 0.5, 0.1], k=2)
        assert [h.entry_id for h in hits] == [0, 1]
        assert hits[0].score == pytest.approx(0.9, abs=1e-6)

    def test_tie_break_by_ascending_id(self):
        keys = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        hits = FlatIndex(keys).search([1.0, 0.0], k=3)
        assert [h.entry_id for h in hits] == [0, 1, 2]

    def test_k_larger_than_n(self):
        keys = unit_rows(rng_for(0), 5, 8)
        hits = FlatIndex(keys).search(keys[0], k=50)
        assert len(hits) == 5

    def test_k_below_one_refused_on_an_empty_index_too(self):
        for n in (0, 3):
            index = FlatIndex(np.eye(n, 4, dtype=np.float32))
            assert len(index.search([1.0, 0.0, 0.0, 0.0], k=3)) == n
            with pytest.raises(InvalidInputError, match="k must be >= 1, got 0"):
                index.search([1.0, 0.0, 0.0, 0.0], k=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
    def test_non_integer_k_refused(self, k):
        """Without the check, 2.5 fails in np.partition with a bare TypeError
        and True passes as 1."""
        index = FlatIndex(np.eye(3, 4, dtype=np.float32))
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            index.search([1.0, 0.0, 0.0, 0.0], k=k)

    def test_numpy_integer_k_accepted(self):
        index, keys = small_index(n=50)
        assert len(FlatIndex(keys).search(keys[0], k=np.int64(2))) == 2
        assert len(ivfpq_search(index, keys[0], nprobe=2, recall_size=np.int32(3))) == 3
        with pytest.raises(InvalidInputError, match="recall_size must be an integer"):
            ivfpq_search(index, keys[0], nprobe=2, recall_size=3.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = rng_for(seed)
        keys = unit_rows(rng, 1000, 24)
        query = unit_rows(rng, 1, 24)[0]
        hits = FlatIndex(keys).search(query, k=20)
        oracle = naive_top_k(keys, query, 20)
        assert [h.entry_id for h in hits] == [i for i, _ in oracle]
        for h, (_, s) in zip(hits, [(i, s) for i, s in oracle]):
            assert h.score == pytest.approx(s, abs=1e-5)

    def test_scores_strictly_sorted(self):
        rng = rng_for(3)
        keys = unit_rows(rng, 200, 16)
        hits = FlatIndex(keys).search(unit_rows(rng, 1, 16)[0], k=200)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


def full_sort(ids, scores, k):
    """Full-lexsort oracle: every candidate ordered by (score desc, id asc)."""
    order = np.lexsort((ids, -scores))[:k]
    return pairs([SearchHit(int(ids[i]), float(scores[i])) for i in order])


def pairs(hits):
    """(id, repr(score)) per hit: compares NaN and the sign of zero exactly."""
    return [(h.entry_id, repr(h.score)) for h in hits]


def tied_keys(rng, n, d, distinct):
    """n keys drawn from only `distinct` unit rows, so scores tie heavily."""
    return unit_rows(rng, distinct, d)[rng.integers(0, distinct, n)]


class TestPartialTopK:
    """Top-k sorts only the rows scoring at least the k-th score; the result
    must equal a full lexsort, with ties across the k boundary."""

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_search_heavy_ties(self, seed):
        rng = rng_for(seed)
        keys = tied_keys(rng, 600, 8, distinct=6)
        q = unit_rows(rng, 1, 8)[0]
        scores = exact_scores(keys, q)
        assert np.unique(scores).size <= 6
        index = FlatIndex(keys)
        for k in (1, 7, 99, 100, 101, 250, 599, 600, 700):
            assert pairs(index.search(q, k)) == full_sort(np.arange(600), scores, k)

    @pytest.mark.parametrize("seed", range(3))
    def test_ivfpq_search_heavy_ties(self, seed):
        rng = rng_for(seed)
        params = IvfPqParams(nlist=4, m=4, nbits=4, seed=seed, kmeans_iters=5)
        index = train_ivfpq(unit_rows(rng, 300, 16), params)
        ivfpq_add(index, rng.permutation(600), tied_keys(rng, 600, 16, distinct=5))
        q = unit_rows(rng, 1, 16)[0]
        # recall_size >= the candidate count sorts every candidate in full
        full = ivfpq_search(index, q, nprobe=2, recall_size=index.ntotal)
        ids = np.array([h.entry_id for h in full])
        scores = np.array([h.score for h in full])
        assert np.unique(scores).size <= 5 and len(full) >= 100
        for r in (1, 40, 100, 150, len(full) - 1):
            assert pairs(ivfpq_search(index, q, nprobe=2, recall_size=r)) == full_sort(ids, scores, r)

    @pytest.mark.parametrize("seed", range(3))
    def test_rescore_heavy_ties(self, seed):
        rng = rng_for(seed)
        keys = tied_keys(rng, 400, 8, distinct=4)
        q = unit_rows(rng, 1, 8)[0]
        cand = rng.choice(400, 250, replace=False)
        cands = [SearchHit(int(i), 0.0) for i in cand]
        scores = exact_scores(keys[cand], q)
        for k in (1, 30, 62, 63, 64, 249, 250, 300):
            assert pairs(rescore(keys, cands, q, k)) == full_sort(cand, scores, k)

    def test_nan_and_signed_zero_scores(self):
        ids = np.array([7, 3, 1, 5, 2, 0, 6, 4, 8])
        scores = np.array([0.0, -0.0, np.nan, 1.0, 0.0, np.nan, -0.0, 1.0, -1.0])
        for k in range(1, 11):
            assert pairs(_hits(*_top_k(ids, scores, k))) == full_sort(ids, scores, k)


def sorted_rows(x):
    return x[np.lexsort(x.T[::-1])]


class TestKmeans:
    def test_k_equals_n_recovers_points(self):
        pts = rng_for(0).standard_normal((6, 4)).astype(np.float32)
        cents = kmeans(pts, k=6, iters=5, seed=0)
        # the centroids are exactly the points, up to permutation
        np.testing.assert_array_equal(sorted_rows(cents), sorted_rows(pts))

    def test_two_well_separated_blobs(self):
        rng = rng_for(1)
        a = rng.standard_normal((50, 3)).astype(np.float32) * 0.05 + np.array([10, 0, 0], dtype=np.float32)
        b = rng.standard_normal((50, 3)).astype(np.float32) * 0.05 + np.array([-10, 0, 0], dtype=np.float32)
        cents = kmeans(np.vstack([a, b]), k=2, iters=10, seed=0)
        means = sorted([float(c[0]) for c in cents])
        assert means[0] == pytest.approx(-10, abs=0.1)
        assert means[1] == pytest.approx(10, abs=0.1)

    @pytest.mark.parametrize("seed", range(5))
    def test_distortion_non_increasing(self, seed):
        pts = rng_for(seed).standard_normal((300, 8)).astype(np.float32)
        _, distortions = kmeans(pts, k=10, iters=15, seed=seed, return_distortions=True)
        for a, b in zip(distortions, distortions[1:]):
            assert b <= a + 1e-3 * abs(a)

    def test_deterministic(self):
        pts = rng_for(2).standard_normal((200, 8)).astype(np.float32)
        c1 = kmeans(pts, k=7, iters=10, seed=42)
        c2 = kmeans(pts, k=7, iters=10, seed=42)
        np.testing.assert_array_equal(c1, c2)

    def test_seed_changes_result(self):
        pts = rng_for(2).standard_normal((200, 8)).astype(np.float32)
        assert not np.array_equal(kmeans(pts, k=7, iters=2, seed=0),
                                  kmeans(pts, k=7, iters=2, seed=1))

    def test_k_exceeds_n_rejected(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.ones((3, 2), dtype=np.float32), k=4)


def lloyd_oracle(points, centroids, iters):
    """Reference Lloyd steps over the whole (N, k) product at once: argmax of
    all rows, sums by argsort + add.reduceat, farthest-point reseed of empty
    clusters."""
    points = np.ascontiguousarray(points, dtype=np.float32)
    centroids = centroids.astype(np.float32)
    n, k = points.shape[0], centroids.shape[0]
    p2 = np.einsum("ij,ij->i", points, points).astype(np.float64)
    distortions, empties = [], 0
    for _ in range(iters):
        cross = points @ centroids.T
        c2 = np.einsum("ij,ij->i", centroids, centroids)
        assign = (cross - 0.5 * c2).argmax(axis=1)
        point_d = p2 - 2.0 * cross[np.arange(n), assign].astype(np.float64) + c2[assign]
        np.maximum(point_d, 0.0, out=point_d)
        distortions.append(float(point_d.sum()))
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros((k, points.shape[1]), dtype=np.float64)
        order = np.argsort(assign, kind="stable")
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        nonempty = counts > 0
        sums[nonempty] = np.add.reduceat(points[order].astype(np.float64),
                                         starts[nonempty], axis=0)
        centroids[nonempty] = (sums[nonempty] / counts[nonempty, None]).astype(np.float32)
        for j in np.flatnonzero(~nonempty):
            empties += 1
            idx = int(point_d.argmax())
            centroids[j] = points[idx]
            point_d[idx] = -1.0
    return centroids, distortions, empties


class TestLloydOracle:
    """From the same initial centroids, kmeans's Lloyd steps (row blocks,
    sparse one-hot sums) equal the full-matrix oracle bit for bit."""

    def run_both(self, monkeypatch, points, init, iters):
        monkeypatch.setattr(index_module, "_kmeans_pp_init", lambda p, k, rng: init.copy())
        cents, dists = kmeans(points, k=init.shape[0], iters=iters, return_distortions=True)
        want, want_dists, empties = lloyd_oracle(points, init, iters)
        np.testing.assert_array_equal(cents, want)
        assert dists == want_dists
        return empties

    @pytest.mark.parametrize("seed", range(3))
    def test_several_row_blocks(self, monkeypatch, seed):
        rng = rng_for(seed)
        n = 2 * index_module._BLOCK + 808  # two full blocks and a partial one
        centers = rng.standard_normal((20, 8))
        points = (centers[rng.integers(0, 20, n)]
                  + 0.3 * rng.standard_normal((n, 8))).astype(np.float32)
        init = points[rng.choice(n, 24, replace=False)]
        self.run_both(monkeypatch, points, init, iters=6)

    def test_empty_clusters_reseeded(self, monkeypatch):
        rng = rng_for(5)
        points = rng.standard_normal((500, 4)).astype(np.float32)
        init = points[:8].copy()
        init[3] = 1e3       # far from every point: empty on the first step
        init[6] = init[2]   # a duplicate loses every tie to its twin
        empties = self.run_both(monkeypatch, points, init, iters=4)
        assert empties >= 2


class CountingRng:
    """A Generator that records which of its draws the caller made."""

    def __init__(self, seed):
        self.gen, self.calls = rng_for(seed), []

    def integers(self, n):
        self.calls.append("integers")
        return self.gen.integers(n)

    def random(self):
        self.calls.append("random")
        return self.gen.random()


class HighDrawRng:
    """Picks row `first`, then always draws the largest value that
    Generator.random can return."""

    def __init__(self, first):
        self.first = first

    def integers(self, n):
        return self.first

    def random(self):
        return 1.0 - 2.0**-53


class TestKmeansPlusPlusInit:
    def test_k_equals_n_distinct_points_gives_a_permutation(self):
        pts = rng_for(3).standard_normal((40, 6)).astype(np.float32)
        cents = _kmeans_pp_init(pts, 40, rng_for(0))
        np.testing.assert_array_equal(sorted_rows(cents), sorted_rows(pts))

    def test_identical_points_fall_back_to_uniform_draws(self):
        pts = np.tile(np.array([0.3, -1.2, 2.5], dtype=np.float32), (50, 1))
        rng = CountingRng(0)
        cents = _kmeans_pp_init(pts, 5, rng)
        # every weight is exactly 0 after the first pick: no weighted draw
        assert rng.calls == ["integers"] * 5
        np.testing.assert_array_equal(cents, pts[:5])
        full = kmeans(pts, k=5, iters=3, seed=0)
        assert np.isfinite(full).all()
        np.testing.assert_array_equal(full, pts[:5])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 7.3, 1e3])
    def test_zero_weight_tail_is_never_drawn(self, scale):
        pts = np.array([[1, 0], [0, 1], [-1, 0]] + [[0, -1]] * 7, dtype=np.float32) * scale
        # rows 3..9 are one point: once row 3 is picked they all weigh 0
        cents = _kmeans_pp_init(pts, 4, HighDrawRng(first=3))
        np.testing.assert_array_equal(cents, pts[[3, 2, 1, 0]])


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kmeans(self, bad):
        pts = rng_for(0).standard_normal((50, 4)).astype(np.float32)
        pts[7, 2] = bad
        with pytest.raises(InvalidInputError, match="row 7"):
            kmeans(pts, k=4, iters=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_train_ivfpq(self, bad):
        keys = unit_rows(rng_for(0), 300, 16)
        keys[11, 0] = bad
        with pytest.raises(InvalidInputError, match="row 11"):
            train_ivfpq(keys, IvfPqParams(nlist=4, m=4, nbits=4, kmeans_iters=2))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_ivfpq_add(self, bad):
        index, keys = small_index()
        more = keys[:5].copy()
        more[4, 3] = bad
        with pytest.raises(InvalidInputError, match="row 4"):
            ivfpq_add(index, np.arange(1000, 1005), more)
        assert index.ntotal == len(keys)


class TestTrainIvfPq:
    def test_deterministic_bit_for_bit(self):
        keys = unit_rows(rng_for(0), 300, 16)
        params = IvfPqParams(nlist=4, m=4, nbits=4, seed=7, kmeans_iters=5)
        i1 = train_ivfpq(keys, params)
        i2 = train_ivfpq(keys, params)
        np.testing.assert_array_equal(i1.coarse_centroids, i2.coarse_centroids)
        np.testing.assert_array_equal(i1.pq_codebooks, i2.pq_codebooks)

    def test_codebook_shapes(self):
        index, _ = small_index(n=300, d=16, nlist=4, m=4, nbits=4)
        assert index.coarse_centroids.shape == (4, 16)
        assert index.pq_codebooks.shape == (4, 16, 4)  # (m, 2^nbits, dsub)

    def test_generous_capacity_reconstructs_exactly(self):
        # with nlist clusters >= points per distinct direction and ksub >= n,
        # residual quantization is near-lossless
        rng = rng_for(3)
        keys = unit_rows(rng, 64, 8)
        params = IvfPqParams(nlist=1, m=1, nbits=6, seed=0, kmeans_iters=30)
        index = train_ivfpq(keys, params)
        ivfpq_add(index, np.arange(64), keys)
        ids, codes = list_rows(index, 0)
        recon = index.decode(0, codes)
        order = np.argsort(ids)
        np.testing.assert_allclose(recon[order], keys, atol=1e-4)

    def test_dim_not_divisible_rejected(self):
        with pytest.raises(InvalidInputError):
            train_ivfpq(unit_rows(rng_for(0), 100, 10), IvfPqParams(nlist=2, m=4, nbits=2))

    def test_insufficient_points_rejected(self):
        with pytest.raises(InvalidInputError):
            train_ivfpq(unit_rows(rng_for(0), 10, 16), IvfPqParams(nlist=32, m=4, nbits=4))


class TestIvfPqAdd:
    def test_total_count_preserved(self):
        index, _ = small_index(n=400)
        assert index.ntotal == 400
        assert sum(len(list_rows(index, l)[0]) for l in range(index.params.nlist)) == 400

    def test_each_key_in_nearest_list(self):
        index, keys = small_index(n=100)
        for list_no in range(index.params.nlist):
            for i in list_rows(index, list_no)[0]:
                scores = index.coarse_centroids @ keys[i]
                assert scores.argmax() == list_no

    def test_duplicate_id_rejected(self):
        index, keys = small_index(n=50)
        with pytest.raises(InvalidInputError):
            ivfpq_add(index, [10], keys[:1])

    def test_two_batches_save_same_bytes_as_one(self, tmp_path):
        rng = rng_for(8)
        keys = unit_rows(rng, 150, 16)
        ids = rng.permutation(150)
        params = IvfPqParams(nlist=4, m=4, nbits=4, seed=0, kmeans_iters=5)
        one = train_ivfpq(keys, params)
        ivfpq_add(one, ids, keys)
        two = train_ivfpq(keys, params)
        ivfpq_add(two, ids[:70], keys[:70])
        ivfpq_add(two, ids[70:], keys[70:])
        p1, p2 = tmp_path / "one.pivf", tmp_path / "two.pivf"
        save_index(one, p1)
        save_index(two, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert two.ntotal == 150 and two.offsets[0] == 0
        assert np.all(np.diff(two.offsets) >= 0)

    def test_duplicate_id_across_batches_rejected(self):
        rng = rng_for(9)
        keys = unit_rows(rng, 60, 16)
        index = train_ivfpq(keys, IvfPqParams(nlist=4, m=4, nbits=4, seed=0, kmeans_iters=5))
        ivfpq_add(index, np.arange(30), keys[:30])
        with pytest.raises(InvalidInputError):
            ivfpq_add(index, np.arange(29, 59), keys[30:])
        with pytest.raises(InvalidInputError):
            ivfpq_add(index, [40, 40], keys[30:32])
        assert index.ntotal == 30

    def test_incremental_add_matches_bulk(self):
        rng = rng_for(5)
        keys = unit_rows(rng, 120, 16)
        params = IvfPqParams(nlist=4, m=4, nbits=4, seed=0, kmeans_iters=5)
        bulk = train_ivfpq(keys, params)
        ivfpq_add(bulk, np.arange(120), keys)
        inc = train_ivfpq(keys, params)
        ivfpq_add(inc, np.arange(60), keys[:60])
        ivfpq_add(inc, np.arange(60, 120), keys[60:])
        q = unit_rows(rng, 1, 16)[0]
        h1 = ivfpq_search(bulk, q, nprobe=4, recall_size=120)
        h2 = ivfpq_search(inc, q, nprobe=4, recall_size=120)
        assert h1 == h2


class TestNearestKernel:
    """Coarse assignment and PQ encoding both go through index._nearest."""

    def test_row_blocks_save_same_bytes(self, monkeypatch, tmp_path):
        keys = unit_rows(rng_for(4), 4 * 37 + 9, 16)  # four blocks of 37 rows and a partial one
        params = IvfPqParams(nlist=4, m=4, nbits=4, seed=3, kmeans_iters=5)

        def saved(name):
            index = train_ivfpq(keys, params)
            ivfpq_add(index, np.arange(len(keys)), keys)
            save_index(index, tmp_path / name)
            return (tmp_path / name).read_bytes()

        default = saved("default.pivf")
        monkeypatch.setattr(index_module, "_BLOCK", 37)
        assert saved("blocked.pivf") == default

    @pytest.mark.parametrize("block", ["one row", "more than n rows"])
    def test_block_size_keeps_choices_and_centroids(self, monkeypatch, block):
        """Blocks of one row and a single block of every row choose the same
        centroids as the default blocks, so k-means moves its centroids the
        same way. The winners' products and the distortions keep their bits
        in any block of two rows or more. A one-row block is numpy's
        vector-matrix case, a BLAS gemv, whose float32 products round
        differently from the matrix product's; they agree to that rounding."""
        rng = rng_for(6)
        n, k, dsub = 2 * index_module._BLOCK + 100, 16, 8
        centers = rng.standard_normal((k, dsub))
        points = (centers[rng.integers(0, k, n)]
                  + 0.3 * rng.standard_normal((n, dsub))).astype(np.float32)

        def run():
            cents, dists = kmeans(points, k, iters=5, seed=1, return_distortions=True)
            cross_at = np.empty(n, dtype=np.float32)
            half_c2 = 0.5 * np.einsum("ij,ij->i", cents, cents)
            return cents, dists, _nearest(points, cents, half_c2, cross_at), cross_at

        cents, dists, choice, cross_at = run()
        monkeypatch.setattr(index_module, "_BLOCK", 1 if block == "one row" else n + 1)
        got = run()
        np.testing.assert_array_equal(got[0], cents)
        np.testing.assert_array_equal(got[2], choice)
        assert np.array_equal(_nearest(points, cents, 0.0), np.argmax(points @ cents.T, axis=1))
        if block == "one row":
            bound = 4 * (dsub + 2) * 2.0**-24 * np.abs(points).sum(axis=1) * np.abs(cents).max()
            assert np.all(np.abs(got[3].astype(np.float64) - cross_at) <= bound)
            np.testing.assert_allclose(got[1], dists, rtol=1e-5)
        else:
            assert got[3].tobytes() == cross_at.tobytes() and got[1] == dists

    def test_short_last_block_joins_the_one_before(self, monkeypatch):
        """A last block of 5 rows is taken with the block before it, so at
        dsub 256 every row's product and choice keep the bits of a single
        block of every row; 5 rows alone take another BLAS kernel."""
        rng = rng_for(11)
        n = 2 * index_module._BLOCK + 5
        points = rng.standard_normal((n, 256)).astype(np.float32)
        cents = rng.standard_normal((16, 256)).astype(np.float32)
        half_c2 = 0.5 * np.einsum("ij,ij->i", cents, cents)

        def run():
            cross_at = np.empty(n, dtype=np.float32)
            return _nearest(points, cents, half_c2, cross_at), cross_at

        choice, cross_at = run()
        monkeypatch.setattr(index_module, "_BLOCK", n + 1)
        one_choice, one_cross_at = run()
        np.testing.assert_array_equal(choice, one_choice)
        assert cross_at.tobytes() == one_cross_at.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_codes_are_nearest_codewords(self, seed):
        """Each code's float64 squared distance to its residual's subvector is
        the float64 minimum over its codebook, up to the rounding of the
        float32 decision <x, c> - |c|^2 / 2."""
        index, keys = small_index(seed=seed, n=3000, d=32, nlist=8, m=8, nbits=6, iters=5)
        dsub = index.dsub
        lists = np.repeat(np.arange(index.params.nlist), np.diff(index.offsets))
        residuals = (keys[index.ids] - index.coarse_centroids[lists]).astype(np.float64)
        for j in range(index.params.m):
            sub = residuals[:, j * dsub:(j + 1) * dsub]
            book = index.pq_codebooks[j].astype(np.float64)
            d = ((sub[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
            chosen = d[np.arange(len(d)), index.codes[:, j]]
            # Each of the two compared scores is off by at most (dsub + 2) u
            # (|x| |c| + |c|^2) with u = 2^-24, and a distance is |x|^2 - 2 score.
            c_max = np.linalg.norm(book, axis=1).max()
            bound = 4 * (dsub + 2) * 2.0**-24 * (np.linalg.norm(sub, axis=1) * c_max + c_max**2)
            assert np.all(chosen - d.min(axis=1) <= bound)


def hand_index(coarse=None, codebooks=None, dim=4, **lists):
    """An IVF-PQ index of nlist 4, m 2, nbits 2 built by hand, not trained;
    lists are its ids, codes and offsets, if any."""
    params = IvfPqParams(nlist=4, m=2, nbits=2)
    rng = rng_for(0)
    coarse = unit_rows(rng, 4, dim) if coarse is None else coarse
    codebooks = rng.standard_normal((2, 4, 2)).astype(np.float32) if codebooks is None else codebooks
    return IvfPqIndex(params=params, dim=dim, coarse_centroids=coarse, pq_codebooks=codebooks,
                      **lists)


TWO_CODES = np.array([[0, 1], [2, 3]], dtype=np.uint8)


class TestIvfPqIndexConstruction:
    """The constructor refuses what load_index would refuse, so a hand-built
    index cannot be saved into a file that does not load."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coarse_centroid_refused(self, bad):
        coarse = unit_rows(rng_for(1), 4, 4)
        coarse[0, 1] = bad
        with pytest.raises(InvalidInputError, match="coarse centroids must be finite; row 0"):
            hand_index(coarse=coarse)

    def test_non_finite_codeword_refused(self):
        codebooks = np.zeros((2, 4, 2), dtype=np.float32)
        codebooks[1, 3, 0] = np.nan
        with pytest.raises(InvalidInputError, match="PQ codebooks must be finite; row 1"):
            hand_index(codebooks=codebooks)

    def test_too_few_centroids_refused(self):
        with pytest.raises(InvalidInputError, match=r"shape \(4, 4\), got shape \(3, 4\)"):
            hand_index(coarse=unit_rows(rng_for(1), 3, 4))

    @pytest.mark.parametrize("shape", [(2, 4, 3), (2, 3, 2), (1, 4, 2), (8, 2)])
    def test_codebooks_of_the_wrong_shape_refused(self, shape):
        with pytest.raises(InvalidInputError, match=r"PQ codebooks must be an array of shape"):
            hand_index(codebooks=np.zeros(shape, dtype=np.float32))

    def test_dim_not_divisible_by_m_refused(self):
        with pytest.raises(InvalidInputError, match="dim 5 not divisible by m=2"):
            hand_index(coarse=unit_rows(rng_for(1), 4, 5), dim=5)

    def test_hand_built_lists_are_searched(self):
        index = hand_index(ids=[7, 3], codes=TWO_CODES, offsets=[0, 1, 1, 2, 2])
        assert index.ntotal == 2 and index.ids.dtype == np.int64
        hits = ivfpq_search(index, unit_rows(rng_for(2), 1, 4)[0], nprobe=4, recall_size=10)
        assert sorted(h.entry_id for h in hits) == [3, 7]

    @pytest.mark.parametrize("offsets", [
        [0, 5, 5, 5, 5],  # ntotal 5 over 2 ids: ivfpq_search failed with a bare broadcast error
        [0, 1, 1, 1, 1],  # one id left out of every list
        [1, 1, 2, 2, 2],  # not from 0
        [0, 2, 1, 2, 2],  # falling
        [0, 1, 2, 2],  # nlist steps, not nlist + 1
    ])
    def test_offsets_that_do_not_cover_the_ids_refused(self, offsets):
        with pytest.raises(InvalidInputError, match=r"offsets must rise from 0 to len\(ids\) = 2"):
            hand_index(ids=[0, 1], codes=TWO_CODES, offsets=offsets)

    @pytest.mark.parametrize("offsets", [[[0, 1, 1, 2, 2]], [0.0, 1.0, 1.0, 2.0, 2.0]])
    def test_offsets_not_a_run_of_integers_refused(self, offsets):
        with pytest.raises(InvalidInputError, match="offsets must be a 1-D integer array"):
            hand_index(ids=[0, 1], codes=TWO_CODES, offsets=offsets)

    @pytest.mark.parametrize("codes, match", [
        (np.zeros((2, 3), dtype=np.uint8), r"codes must be a \(2, 2\) uint8 array"),
        (np.zeros((3, 2), dtype=np.uint8), r"codes must be a \(2, 2\) uint8 array"),
        (TWO_CODES.astype(np.int64), "codes must be a .* uint8 array, got int64"),
        (np.array([[0, 1], [4, 3]], dtype=np.uint8), "PQ code 4 out of range for ksub=4"),
    ])
    def test_codes_of_the_wrong_shape_type_or_range_refused(self, codes, match):
        with pytest.raises(InvalidInputError, match=match):
            hand_index(ids=[0, 1], codes=codes, offsets=[0, 1, 1, 2, 2])

    @pytest.mark.parametrize("ids, match", [
        ([4, 4], "duplicate entry id"),
        ([0.0, 1.0], "ids must be a 1-D integer array"),
        ([[0, 1]], "ids must be a 1-D integer array"),
        (None, "ids must be a 1-D integer array"),
    ])
    def test_repeated_or_non_integer_ids_refused(self, ids, match):
        with pytest.raises(InvalidInputError, match=match):
            hand_index(ids=ids, codes=TWO_CODES, offsets=[0, 1, 1, 2, 2])

    def test_loaded_file_with_a_repeated_id_refused(self, tmp_path):
        index, _ = small_index(n=50)
        ids = index.ids.copy()
        ids[1] = ids[0]
        index.ids = ids
        save_index(index, tmp_path / "i.pivf")
        with pytest.raises(FormatError, match="bad index lists: duplicate entry id"):
            load_index(tmp_path / "i.pivf")


class TestIvfPqSearch:
    def test_untrained_index_refused_at_construction(self):
        params = IvfPqParams(nlist=2, m=2, nbits=2)
        with pytest.raises(InvalidInputError, match="coarse centroids must be an array"):
            IvfPqIndex(params=params, dim=8, coarse_centroids=None, pq_codebooks=None)

    def test_invalid_nprobe_rejected(self):
        index, keys = small_index(n=50)
        with pytest.raises(InvalidInputError):
            ivfpq_search(index, keys[0], nprobe=0, recall_size=10)
        with pytest.raises(InvalidInputError):
            ivfpq_search(index, keys[0], nprobe=index.params.nlist + 1, recall_size=10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reconstruction_oracle(self, seed):
        """Approximate scores must equal exact inner products against the
        decoded (centroid + codeword) reconstructions of the probed lists."""
        index, keys = small_index(seed=seed, n=200)
        query = unit_rows(rng_for(seed + 100), 1, 16)[0]
        nprobe = 3
        coarse = (index.coarse_centroids @ query).astype(np.float64)
        probe = np.lexsort((np.arange(index.params.nlist), -coarse))[:nprobe]
        oracle = []
        for list_no in probe:
            ids, codes = list_rows(index, list_no)
            recon = index.decode(list_no, codes)
            for i, row in zip(ids, recon):
                oracle.append((float(row.astype(np.float64) @ query), int(i)))
        oracle.sort(key=lambda t: (-t[0], t[1]))
        hits = ivfpq_search(index, query, nprobe=nprobe, recall_size=25)
        assert [h.entry_id for h in hits] == [i for _, i in oracle[:25]]
        for h, (s, _) in zip(hits, oracle):
            assert h.score == pytest.approx(s, abs=1e-4)

    def test_recall_size_truncates(self):
        index, keys = small_index(n=200)
        hits = ivfpq_search(index, keys[0], nprobe=8, recall_size=7)
        assert len(hits) == 7

    @pytest.mark.parametrize("seed", range(3))
    def test_more_probes_never_hurt_recall(self, seed):
        index, keys = small_index(seed=seed, n=500, d=16, nlist=8)
        queries = unit_rows(rng_for(seed + 50), 20, 16)
        recalls = []
        for nprobe in (1, 2, 4, 8):
            hit_count = 0
            for q in queries:
                truth = {i for i, _ in naive_top_k(keys, q, 5)}
                cands = ivfpq_search(index, q, nprobe=nprobe, recall_size=50)
                reranked = rescore(keys, cands, q, k=5)
                hit_count += len(truth & {h.entry_id for h in reranked})
            recalls.append(hit_count / (20 * 5))
        for a, b in zip(recalls, recalls[1:]):
            assert b >= a

    @pytest.mark.parametrize("n, d", [(300, 16), (2000, 128), (2001, 128), (2002, 128),
                                      (2003, 128)])
    def test_exhaustive_probe_plus_rescore_equals_flat(self, n, d):
        """Rescoring the whole pool of an exhaustive probe gives flat search's
        hits, score bits included, for bank sizes of every residue mod 4. Half
        the queries lie near the bank's last rows, which end the flat product
        but not the pool."""
        index, keys = small_index(seed=9, n=n, d=d)
        flat = FlatIndex(keys)
        rng = rng_for(1000 + n)
        near = keys[-5:] + 0.05 * rng.standard_normal((5, d)).astype(np.float32)
        queries = np.concatenate([near / np.linalg.norm(near, axis=1, keepdims=True),
                                  unit_rows(rng, 5, d)])
        for q in queries:
            cands = ivfpq_search(index, q, nprobe=index.params.nlist, recall_size=n)
            for k in (1, 12, 50):
                assert rescore(keys, cands, q, k=k) == flat.search(q, k=k)


    @pytest.mark.parametrize("m, nbits", [(1, 1), (1, 4), (1, 8), (4, 1), (4, 4), (4, 8)])
    def test_adc_scores_equal_per_subspace_gather(self, tmp_path, m, nbits):
        """Every candidate's score is bit for bit the float64 sum of its m
        table entries, gathered per subspace as lut[j, code_j], plus its
        list's coarse score; the ranking is a full lexsort's. A wrong stride
        into the flattened table shows for every ksub; so does a change in
        the index read back from disk."""
        index, _ = small_index(seed=nbits, n=300, m=m, nbits=nbits, iters=4)
        save_index(index, tmp_path / "idx.pivf")
        loaded = load_index(tmp_path / "idx.pivf")
        query = unit_rows(rng_for(m + 10 * nbits), 1, 16)[0]
        lut = np.einsum("mkd,md->mk", index.pq_codebooks, query.reshape(m, index.dsub))
        coarse = (index.coarse_centroids @ query).astype(np.float64)
        probe = np.lexsort((np.arange(index.params.nlist), -coarse))[:5]
        ids, scores = [], []
        for list_no in probe:
            list_ids, codes = list_rows(index, list_no)
            ids.append(list_ids)
            adc = lut[np.arange(m)[None, :], codes].sum(axis=1, dtype=np.float64)
            scores.append(adc + coarse[list_no])
        ids, scores = np.concatenate(ids), np.concatenate(scores)
        for r in (1, 13, 50, ids.size):
            expected = full_sort(ids, scores, r)
            assert pairs(ivfpq_search(index, query, nprobe=5, recall_size=r)) == expected
            assert pairs(ivfpq_search(loaded, query, nprobe=5, recall_size=r)) == expected


class TestRescore:
    def test_uses_exact_scores(self):
        keys = np.eye(4, dtype=np.float32)
        cands = [SearchHit(2, 0.0), SearchHit(0, 0.0)]
        out = rescore(keys, cands, [0.5, 0.0, 0.9, 0.0], k=2)
        assert [h.entry_id for h in out] == [2, 0]
        assert out[0].score == pytest.approx(0.9, abs=1e-6)

    def test_result_subset_of_candidates(self):
        rng = rng_for(0)
        keys = unit_rows(rng, 100, 8)
        cands = [SearchHit(int(i), 0.0) for i in rng.choice(100, 30, replace=False)]
        out = rescore(keys, cands, unit_rows(rng, 1, 8)[0], k=10)
        assert {h.entry_id for h in out} <= {c.entry_id for c in cands}
        assert len(out) == 10

    def test_k_exceeding_candidates(self):
        keys = np.eye(3, dtype=np.float32)
        out = rescore(keys, [SearchHit(1, 0.0)], [0.0, 1.0, 0.0], k=5)
        assert len(out) == 1

    def test_empty_candidates(self):
        assert rescore(np.eye(2, dtype=np.float32), [], [1.0, 0.0], k=3) == []

    def test_out_of_range_id_rejected(self):
        with pytest.raises(InvalidInputError):
            rescore(np.eye(2, dtype=np.float32), [SearchHit(5, 0.0)], [1.0, 0.0], k=1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_refused(self, k):
        for cands in ([SearchHit(1, 0.0), SearchHit(0, 0.0)], []):
            with pytest.raises(InvalidInputError, match=f"k must be >= 1, got {k}"):
                rescore(np.eye(2, dtype=np.float32), cands, [1.0, 0.0], k=k)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle_on_candidate_subset(self, seed):
        rng = rng_for(seed)
        keys = unit_rows(rng, 200, 16)
        q = unit_rows(rng, 1, 16)[0]
        cand_ids = sorted(int(i) for i in rng.choice(200, 60, replace=False))
        cands = [SearchHit(i, 0.0) for i in cand_ids]
        out = rescore(keys, cands, q, k=15)
        oracle = [(i, s) for i, s in naive_top_k(keys, q, 200) if i in set(cand_ids)][:15]
        assert [h.entry_id for h in out] == [i for i, _ in oracle]


class TestQueryCheck:
    """Every search entry point takes a finite (D,) float32 query and raises
    InvalidInputError for anything else."""

    @pytest.mark.parametrize("bad", ["short", "long", "matrix", "nan", "inf"])
    @pytest.mark.parametrize("entry", ["flat", "ivfpq", "rescore"])
    def test_bad_query_rejected(self, entry, bad):
        index, keys = small_index(n=60)
        query = {"short": keys[0, :15], "long": np.append(keys[0], 0.0),
                 "matrix": keys[:1]}.get(bad, keys[0].copy())
        if bad in ("nan", "inf"):
            query[3] = np.nan if bad == "nan" else -np.inf
        with pytest.raises(InvalidInputError):
            if entry == "flat":
                FlatIndex(keys).search(query, k=5)
            elif entry == "ivfpq":
                ivfpq_search(index, query, nprobe=2, recall_size=10)
            else:
                rescore(keys, [SearchHit(0, 0.0), SearchHit(7, 0.0)], query, k=2)


def assert_same_arrays(got, want):
    assert (got.params, got.dim) == (want.params, want.dim)
    for name in ("coarse_centroids", "pq_codebooks", "offsets", "ids", "codes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestIndexPersistence:
    def test_round_trip_preserves_search(self, tmp_path):
        index, keys = small_index(n=250)
        path = tmp_path / "idx.pivf"
        save_index(index, path)
        loaded = load_index(path)
        assert_same_arrays(loaded, index)
        q = unit_rows(rng_for(77), 1, 16)[0]
        assert (ivfpq_search(loaded, q, nprobe=8, recall_size=40)
                == ivfpq_search(index, q, nprobe=8, recall_size=40))

    def test_save_load_save_byte_identical(self, tmp_path):
        index, _ = small_index(n=120)
        p1, p2 = tmp_path / "a.pivf", tmp_path / "b.pivf"
        save_index(index, p1)
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_matches_reference_encoding(self, tmp_path):
        index, _ = small_index(n=120)
        save_index(index, tmp_path / "i.pivf")
        raw = (tmp_path / "i.pivf").read_bytes()
        assert struct.unpack_from("<I", raw, 4) == (2,)
        assert raw == reference_index_bytes(index)
        assert_same_arrays(load_index(tmp_path / "i.pivf"), index)

    @pytest.mark.parametrize("offsets, bad", [([1, 1, 1, 1, 1, 1, 1, 1, 120], 0),
                                              ([0, 5, 3, 3, 3, 3, 3, 3, 120], 2)])
    def test_v2_offsets_refused_at_the_bad_one(self, tmp_path, offsets, bad):
        """Offsets that do not start at 0 or that fall are refused where
        they go wrong, before the ids and codes are sized, even when their
        checksum holds."""
        index, _ = small_index(n=120)
        path = tmp_path / "i.pivf"
        save_index(index, path)
        raw = bytearray(path.read_bytes())
        at = raw.index(np.asarray(index.offsets, "<i8").tobytes())
        raw[at:at + 72] = np.asarray(offsets, "<i8").tobytes()
        path.write_bytes(resealed(bytes(raw)))
        with pytest.raises(FormatError, match="offsets must start at 0 and never fall") as exc:
            load_index(path)
        assert exc.value.offset == at + 8 * bad

    def test_corrupt_magic(self, tmp_path):
        index, _ = small_index(n=120)
        path = tmp_path / "idx.pivf"
        save_index(index, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ZZZZ"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            load_index(path)
        assert exc.value.offset == 0

    def test_truncation(self, tmp_path):
        index, _ = small_index(n=120)
        path = tmp_path / "idx.pivf"
        save_index(index, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-6])
        with pytest.raises(FormatError):
            load_index(path)


def with_json_header(raw: bytes, at: int, header) -> bytes:
    """raw with the JSON block at byte offset `at` replaced by `header`."""
    old_len = int.from_bytes(raw[at:at + 4], "little")
    payload = json.dumps(header).encode("utf-8")
    return raw[:at] + struct.pack("<I", len(payload)) + payload + raw[at + 4 + old_len:]


# Byte offset of the JSON header block: after magic and version in an index
# file, and after magic, version, d_key, d_val and count in a bank file.
INDEX_HEADER_AT, BANK_HEADER_AT = 8, 24
PARAMS = {"nlist": 8, "m": 4, "nbits": 4, "seed": 0, "kmeans_iters": 10}
WEIGHTS = {"w_p": 1.0, "w_s": 0.3, "w_g": 0.01}


class TestHeaderValidation:
    @pytest.mark.parametrize("kind, header", [
        ("index", {**PARAMS, "extra": 1}),
        ("index", {**PARAMS, "m": 0}),
        ("index", {**PARAMS, "nlist": -1}),
        ("index", {**PARAMS, "m": "4"}),
        ("index", {**PARAMS, "nbits": 9}),
        ("index", {**PARAMS, "m": 3}),  # dim 16 is not a multiple of 3
        ("index", {k: v for k, v in PARAMS.items() if k != "seed"}),
        ("index", [8, 4, 4, 0, 10]),
        ("bank", {"weights": {**WEIGHTS, "extra": 1.0}, "manifest": {}}),
        ("bank", {"manifest": {}}),
        ("bank", {"weights": {**WEIGHTS, "w_s": "0.3"}, "manifest": {}}),
        ("bank", {"weights": WEIGHTS, "manifest": []}),
    ])
    def test_bad_header_is_format_error(self, tmp_path, kind, header):
        if kind == "index":
            index, _ = small_index(n=120)
            path, at, loader = tmp_path / "f.pivf", INDEX_HEADER_AT, load_index
            save_index(index, path)
        else:
            bank = MemoryBank(keys=np.eye(2, dtype=np.float32), values=np.eye(2, dtype=np.float32),
                              categories=["a", "b"], image_ids=["i", "j"],
                              boxes=[[0, 0, 1, 1]] * 2, blur=[None, 1.0], d_key=2, d_val=2)
            path, at, loader = tmp_path / "f.pbnk", BANK_HEADER_AT, load_bank
            save_bank(bank, path)
        # a header whose checksum holds meets the check of its fields
        path.write_bytes(resealed(with_json_header(path.read_bytes(), at, header)))
        with pytest.raises(FormatError) as exc:
            loader(path)
        assert exc.value.offset is not None
        assert "checksum" not in str(exc.value)

    def test_unchanged_header_loads(self, tmp_path):
        index, _ = small_index(n=120)
        path = tmp_path / "f.pivf"
        save_index(index, path)
        path.write_bytes(resealed(with_json_header(path.read_bytes(), INDEX_HEADER_AT, PARAMS)))
        assert load_index(path).params == index.params


class TestIvfPqParams:
    @pytest.mark.parametrize("fields", [
        {"nlist": 0}, {"m": 0}, {"kmeans_iters": 0}, {"nbits": 0}, {"nbits": 9},
        {"seed": -1}, {"m": "4"}, {"nlist": 8.0}, {"nbits": True},
    ])
    def test_invalid_fields_rejected(self, fields):
        with pytest.raises(InvalidInputError):
            IvfPqParams(**fields)

    def test_eight_bit_codes_accepted(self):
        assert IvfPqParams(nbits=8).ksub == 256


class TestExactScores:
    @pytest.mark.parametrize("seed", range(5))
    def test_float64_accumulation(self, seed):
        rng = rng_for(seed)
        keys = unit_rows(rng, 50, 128)
        q = unit_rows(rng, 1, 128)[0]
        scores = exact_scores(keys, q)
        assert scores.dtype == np.float64
        oracle = keys.astype(np.float64) @ q.astype(np.float64)
        np.testing.assert_allclose(scores, oracle, atol=1e-9)

    @pytest.mark.parametrize("d", [31, 32, 33, 128])
    def test_a_score_depends_only_on_its_row_and_query(self, d):
        """A row gets the same bits scored alone, in subsets of every size
        mod 4, through a view at any row offset, and as a row of a batch of
        queries. A float64 GEMV rounds a row by the rows in its block."""
        rng = rng_for(d)
        buffer = rng.standard_normal((208, d)).astype(np.float32)
        keys, queries = buffer[8:], unit_rows(rng, 6, d)
        full = exact_scores(keys, queries[0])
        for i in range(len(keys)):
            assert exact_scores(keys[i:i + 1], queries[0])[0] == full[i]
        sizes = [*range(2, 41), 63, 64, 65, 66, 101, 102, 199]
        assert {size % 4 for size in sizes} == {0, 1, 2, 3}
        for size in sizes:
            rows = rng.choice(len(keys), size=size, replace=False)
            np.testing.assert_array_equal(exact_scores(keys[rows], queries[0]), full[rows])
        for offset in range(9):
            np.testing.assert_array_equal(exact_scores(buffer[offset:offset + 200], queries[0]),
                                          exact_scores(buffer, queries[0])[offset:offset + 200])
        batch = np.einsum("ij,qj->qi", keys.astype(np.float64), queries.astype(np.float64))
        for q, row in zip(queries, batch):
            np.testing.assert_array_equal(row, exact_scores(keys, q))
