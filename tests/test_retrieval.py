import numpy as np
import pytest

from vismem.bank import (
    BankBuildConfig,
    EmbeddingProvider,
    GroundingRecord,
    KeyWeights,
    MemoryBank,
    build_bank,
    build_key,
)
from vismem.errors import InvalidInputError
from vismem.grids import Box2D
from vismem.index import (FlatIndex, IvfPqParams, SearchHit, exact_scores, ivfpq_add,
                          ivfpq_search, load_index, rescore, save_index, train_ivfpq)
from vismem.retrieval import (
    DEFAULT_RECALL_SIZE,
    DEFAULT_TAU,
    DEFAULT_TOP_K,
    Prototype,
    RetrievalQuery,
    _prototype,
    _retrieve_all,
    aggregate_prototype,
    build_query,
    retrieve,
    softmax_weights,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def make_fixture(seed=0, n_records=40, d_key=32, d_val=8, n_images=5, drop=0.0):
    rng = rng_for(seed)
    phrases = ["cat", "dog", "bird"]
    scenes = ["indoor", "street"]
    text = {p: rng.standard_normal(d_key).astype(np.float32) for p in phrases + scenes}
    images = {f"img{i}": rng.standard_normal(d_key).astype(np.float32) for i in range(n_images)}
    feats = {f"img{i}": rng.standard_normal((6, 6, d_val)).astype(np.float32) for i in range(n_images)}
    provider = EmbeddingProvider(text, images, feats)
    records = []
    for i in range(n_records):
        x0, y0 = rng.uniform(0, 0.4, 2)
        records.append(GroundingRecord(
            f"img{i % n_images}", Box2D(x0, y0, x0 + 0.3, y0 + 0.3),
            phrases[i % 3], scenes[i % 2], blur_score=float(i)))
    bank = build_bank(records, provider, BankBuildConfig(drop_fraction=drop))
    return provider, bank


class TestDefaults:
    def test_paper_constants(self):
        assert DEFAULT_TOP_K == 12
        assert DEFAULT_TAU == 0.07
        assert DEFAULT_RECALL_SIZE == 200


class TestBuildQuery:
    def test_same_arithmetic_as_key(self):
        provider, _ = make_fixture()
        w = KeyWeights()
        q = build_query(provider, "cat", "indoor", "img0", w)
        oracle = build_key(provider.text_embedding("cat"),
                           provider.text_embedding("indoor"),
                           provider.image_embedding("img0"), w)
        np.testing.assert_array_equal(q.vector, oracle)
        assert q.category == "cat"

    def test_empty_scene_drops_scene_term(self):
        provider, _ = make_fixture()
        w = KeyWeights()
        q = build_query(provider, "cat", "", "img0", w)
        zeros = np.zeros(32, dtype=np.float32)
        oracle = build_key(provider.text_embedding("cat"), zeros,
                           provider.image_embedding("img0"), w)
        np.testing.assert_array_equal(q.vector, oracle)

    def test_query_matches_identical_key_at_score_one(self):
        """A query built like an existing entry key retrieves it at cos ~= 1."""
        provider, bank = make_fixture()
        # entry 0 came from record 0: phrase cat, scene indoor, img0
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=1)
        assert hits[0].score == pytest.approx(1.0, abs=1e-5)
        assert bank.entries[hits[0].entry_id].category == "cat"


class TestSoftmaxWeights:
    def test_uniform_scores_uniform_weights(self):
        w = softmax_weights([2.0, 2.0, 2.0, 2.0], tau=0.07)
        np.testing.assert_allclose(w, 0.25, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_simplex_and_order(self, seed):
        rng = rng_for(seed)
        scores = rng.uniform(-1, 1, 15)
        w = softmax_weights(scores, tau=0.07)
        assert abs(w.sum() - 1.0) < 1e-12
        assert (w > 0).all()
        np.testing.assert_array_equal(np.argsort(w), np.argsort(scores))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_longdouble_oracle(self, seed):
        rng = rng_for(seed)
        scores = rng.uniform(-1, 1, 12)
        tau = 0.07
        e = np.exp(scores.astype(np.longdouble) / tau)
        oracle = (e / e.sum()).astype(np.float64)
        np.testing.assert_allclose(softmax_weights(scores, tau), oracle, atol=1e-9)

    def test_shift_invariance(self):
        scores = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(
            softmax_weights(scores, 0.07), softmax_weights(scores + 100.0, 0.07), atol=1e-12)

    def test_extreme_scores_do_not_overflow(self):
        w = softmax_weights([1e4, -1e4], tau=0.07)
        assert np.isfinite(w).all() and abs(w.sum() - 1.0) < 1e-12

    def test_tau_to_zero_approaches_argmax(self):
        scores = [0.2, 0.9, 0.5]
        w = softmax_weights(scores, tau=1e-4)
        assert w[1] == pytest.approx(1.0, abs=1e-10)

    def test_large_tau_approaches_uniform(self):
        w = softmax_weights([0.2, 0.9, 0.5], tau=1e6)
        np.testing.assert_allclose(w, 1 / 3, atol=1e-6)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax_weights([1.0], tau=0.0)
        with pytest.raises(InvalidInputError):
            softmax_weights([1.0], tau=-0.07)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_nonfinite_tau_rejected(self, tau):
        with pytest.raises(InvalidInputError, match="tau must be finite and > 0"):
            softmax_weights([1.0, 2.0], tau=tau)

    @pytest.mark.parametrize("scores, tau", [([], 0.07), ([np.nan, 1.0], 0.07),
                                             ([1.0, np.inf], 0.07), ([-np.inf], 0.07),
                                             ([1.0, 2.0], 1e-308)])
    def test_empty_or_nonfinite_scores_rejected(self, scores, tau):
        """No scores, or one that is not finite divided by tau, is refused
        rather than giving NaN weights."""
        with pytest.raises(InvalidInputError, match="softmax needs scores"):
            softmax_weights(scores, tau)


class TestRetrieve:
    def test_empty_bank(self):
        provider, bank = make_fixture(n_records=0)
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        assert retrieve(bank, FlatIndex.from_bank(bank), q) == []

    def test_returns_at_most_k(self):
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        assert len(retrieve(bank, FlatIndex.from_bank(bank), q, k=5)) == 5
        assert len(retrieve(bank, FlatIndex.from_bank(bank), q, k=1000)) == len(bank)

    def test_default_k_is_twelve(self):
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        assert len(retrieve(bank, FlatIndex.from_bank(bank), q)) == 12

    def test_flat_equals_flat_search(self):
        provider, bank = make_fixture()
        q = build_query(provider, "dog", "street", "img1", bank.weights)
        index = FlatIndex.from_bank(bank)
        assert retrieve(bank, index, q, k=8) == index.search(q.vector, 8)

    @pytest.mark.parametrize("exclude", ["img0", "img2"])
    def test_exclusion_matches_filtered_bank_oracle(self, exclude):
        """Excluding an image must give the same hits as searching a bank that
        never contained that image's entries (modulo the id remapping)."""
        provider, bank = make_fixture(n_records=40)
        q = build_query(provider, "cat", "indoor", "img1", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=10, exclude_image=exclude)
        assert all(bank.entries[h.entry_id].image_id != exclude for h in hits)

        kept = np.flatnonzero(bank.image_ids != exclude)
        sub_hits = FlatIndex(bank.keys[kept]).search(q.vector, 10)
        orig_ids = [int(kept[h.entry_id]) for h in sub_hits]
        assert [h.entry_id for h in hits] == orig_ids
        assert [h.score for h in hits] == [h.score for h in sub_hits]

    def test_exclusion_with_ivfpq_index(self):
        provider, bank = make_fixture(n_records=60, seed=2)
        keys = bank.keys_matrix()
        params = IvfPqParams(nlist=4, m=4, nbits=4, seed=0, kmeans_iters=8)
        index = train_ivfpq(keys, params)
        ivfpq_add(index, np.arange(len(bank)), keys)
        q = build_query(provider, "bird", "indoor", "img3", bank.weights)
        hits = retrieve(bank, index, q, k=10, exclude_image="img3",
                        nprobe=4, recall_size=len(bank))
        assert all(bank.entries[h.entry_id].image_id != "img3" for h in hits)
        assert len(hits) == 10
        # with exhaustive probing and full recall this equals the flat oracle
        flat_hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=10, exclude_image="img3")
        assert [h.entry_id for h in hits] == [h.entry_id for h in flat_hits]

    def test_ivfpq_two_stage_equals_flat_when_exhaustive(self):
        provider, bank = make_fixture(n_records=60, seed=3)
        keys = bank.keys_matrix()
        index = train_ivfpq(keys, IvfPqParams(nlist=4, m=4, nbits=4, seed=1, kmeans_iters=8))
        ivfpq_add(index, np.arange(len(bank)), keys)
        q = build_query(provider, "cat", "street", "img2", bank.weights)
        approx = retrieve(bank, index, q, k=12, nprobe=4, recall_size=len(bank))
        exact = retrieve(bank, FlatIndex.from_bank(bank), q, k=12)
        assert approx == exact

    @pytest.mark.parametrize("exclude", [None, "img3"])
    @pytest.mark.parametrize("nprobe", [2, 4])
    def test_ivfpq_equals_rescored_pool_filtered_and_cut(self, tmp_path, exclude, nprobe):
        """retrieve keeps the hits and the score bits of rescoring the whole
        pool of ivfpq_search, ranking it, filtering it and cutting it to k:
        for 1, 4 and 8 code bits, 1 and 4 subspaces, an index read back from
        disk, pools of every size mod 4, and keys repeated ten times each, so
        that ties fall on the recall_size cut."""
        provider, bank = make_fixture(n_records=300, seed=4)
        pool_sizes, tied_cuts = set(), 0
        for m, nbits, reload in [(4, 4, False), (1, 1, False), (4, 8, False), (1, 8, True),
                                 (4, 1, True)]:
            index = train_ivfpq(bank.keys, IvfPqParams(nlist=4, m=m, nbits=nbits, seed=2,
                                                       kmeans_iters=8))
            ivfpq_add(index, np.arange(len(bank)), bank.keys)
            if reload:
                save_index(index, tmp_path / "index.pivf")
                index = load_index(tmp_path / "index.pivf")
            for category, image in [("cat", "img3"), ("bird", "img0"), ("dog", "img2")]:
                q = build_query(provider, category, "street", image, bank.weights)
                full = ivfpq_search(index, q.vector, nprobe=nprobe, recall_size=index.ntotal)
                for recall_size in (12, 13, 14, 15, 17, 22):
                    pool = ivfpq_search(index, q.vector, nprobe=nprobe, recall_size=recall_size)
                    pool_sizes.add(len(pool) % 4)
                    tied_cuts += full[recall_size - 1].score == full[recall_size].score
                    ranked = rescore(bank.keys, pool, q.vector, k=len(pool))
                    for k in (1, 5, 12):
                        expected = [h for h in ranked
                                    if exclude is None or bank.image_ids[h.entry_id] != exclude][:k]
                        hits = retrieve(bank, index, q, k=k, exclude_image=exclude, nprobe=nprobe,
                                        recall_size=recall_size)
                        assert ([(h.entry_id, repr(h.score)) for h in hits]
                                == [(h.entry_id, repr(h.score)) for h in expected])
        assert pool_sizes == {0, 1, 2, 3} and tied_cuts > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_query_rejected(self, bad):
        provider, bank = make_fixture(n_records=60, seed=2)
        index = train_ivfpq(bank.keys, IvfPqParams(nlist=4, m=4, nbits=4, seed=0, kmeans_iters=4))
        ivfpq_add(index, np.arange(len(bank)), bank.keys)
        q = build_query(provider, "bird", "indoor", "img3", bank.weights)
        q.vector[5] = bad
        for searched in (index, FlatIndex.from_bank(bank)):
            with pytest.raises(InvalidInputError):
                retrieve(bank, searched, q)

    def test_invalid_k(self):
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        with pytest.raises(InvalidInputError):
            retrieve(bank, FlatIndex.from_bank(bank), q, k=0)

    def test_other_index_types_rejected(self):
        """retrieve searches a FlatIndex or an IvfPqIndex; an object that
        only has a search method is refused, as is the key matrix itself."""
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)

        class Searchable:
            def search(self, query, k):
                return []

        for index in (Searchable(), bank.keys, None):
            with pytest.raises(InvalidInputError, match="FlatIndex or an IvfPqIndex"):
                retrieve(bank, index, q)

    @pytest.mark.parametrize("exclude", [None, "img0"])
    @pytest.mark.parametrize("rows, d_key", [(60, 32), (10, 32), (40, 16)])
    def test_flat_index_of_other_shape_rejected(self, rows, d_key, exclude):
        """A flat index with more rows than the bank would return ids past
        its end, one with fewer would search keys that are not the bank's,
        and one of another dim would score other vectors: each is refused,
        naming both shapes."""
        provider, bank = make_fixture(n_records=40, d_key=d_key)
        _, other = make_fixture(n_records=rows, d_key=32)
        q = build_query(provider, "cat", "indoor", "img1", bank.weights)
        with pytest.raises(InvalidInputError,
                           match=f"{rows} keys of dim 32, the bank 40 keys of dim {d_key}"):
            retrieve(bank, FlatIndex.from_bank(other), q, exclude_image=exclude)

    def test_ivfpq_index_of_other_dim_rejected(self):
        """A 16-dim index over an 8-dim bank, searched with a query the
        index accepts, is refused before its pool is rescored."""
        provider, wide = make_fixture(n_records=60, d_key=16)
        _, bank = make_fixture(n_records=60, d_key=8)
        index = train_ivfpq(wide.keys, IvfPqParams(nlist=4, m=4, nbits=4, seed=0, kmeans_iters=4))
        ivfpq_add(index, np.arange(len(wide)), wide.keys)
        q = build_query(provider, "cat", "indoor", "img1", wide.weights)
        with pytest.raises(InvalidInputError, match="index has dim 16, the bank's keys dim 8"):
            retrieve(bank, index, q, nprobe=4)


    @pytest.mark.parametrize("exclude", [None, "img0"])
    def test_ivfpq_index_of_other_count_rejected(self, exclude):
        """An index filled from a 10-entry bank, over a 40-entry bank of the
        same dim, would search a quarter of the bank; it is refused, naming
        both counts."""
        provider, bank = make_fixture(n_records=40)
        _, small = make_fixture(n_records=10)
        index = train_ivfpq(small.keys, IvfPqParams(nlist=2, m=4, nbits=2, seed=0,
                                                    kmeans_iters=4))
        ivfpq_add(index, np.arange(len(small)), small.keys)
        q = build_query(provider, "cat", "indoor", "img1", bank.weights)
        with pytest.raises(InvalidInputError, match="index holds 10 entries, the bank 40"):
            retrieve(bank, index, q, nprobe=2, exclude_image=exclude)


def tied_bank(images, d_key=16, d_val=4, distinct=6, seed=0):
    """A bank whose keys are `distinct` unit rows, each repeated many times
    in shuffled order, so that most queries tie across many entries; entry
    i belongs to image images[i]."""
    rng = rng_for(seed)
    base = rng.standard_normal((distinct, d_key)).astype(np.float32)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    n = len(images)
    keys = base[rng.permutation(np.arange(n) % distinct)]
    values = rng.standard_normal((n, d_val)).astype(np.float32)
    return MemoryBank(d_key=d_key, d_val=d_val, keys=keys, values=values,
                      categories=["c"] * n, image_ids=images, boxes=[[0.0, 0.0, 1.0, 1.0]] * n,
                      blur=[None] * n), base


class TestRetrieveAll:
    """The one retrieval pass of run_pipeline equals a loop of single
    retrieve calls, bit for bit, and its arrays build the same prototypes."""

    N = 64

    def _queries(self, base, seed=1):
        rng = rng_for(seed)
        noise = rng.standard_normal((3, base.shape[1])).astype(np.float32)
        # rows of the bank (ties at the top), zero (every score ties), and random
        return np.concatenate([base[:3], np.zeros((1, base.shape[1]), np.float32), noise])

    def _indexes(self, bank):
        index = train_ivfpq(bank.keys, IvfPqParams(nlist=4, m=4, nbits=4, seed=0,
                                                   kmeans_iters=4))
        ivfpq_add(index, np.arange(len(bank)), bank.keys)
        return [(FlatIndex.from_bank(bank), 1, 1)] + [
            (index, nprobe, recall_size) for nprobe in (1, 4) for recall_size in (5, self.N)]

    def _assert_equals_loop(self, bank, index, queries, k, exclude, nprobe, recall_size):
        ranked = _retrieve_all(bank, index, queries, k, exclude, nprobe, recall_size)
        assert len(ranked) == len(queries)
        for q, (ids, scores) in zip(queries, ranked):
            query = RetrievalQuery(category="c", vector=q)
            hits = retrieve(bank, index, query, k=k, exclude_image=exclude, nprobe=nprobe,
                            recall_size=recall_size)
            assert (list(zip(ids.tolist(), map(repr, scores.tolist())))
                    == [(h.entry_id, repr(h.score)) for h in hits])
            assert ids.dtype == np.int64 and scores.dtype == np.float64
            if isinstance(index, FlatIndex):  # and a sort of exact_scores over the kept rows
                exact = exact_scores(bank.keys, q)
                rows = [i for i in range(len(bank))
                        if exclude is None or bank.image_ids[i] != exclude]
                expected = sorted(rows, key=lambda i: (-exact[i], i))[:k]
                assert ids.tolist() == expected and scores.tolist() == exact[expected].tolist()
            proto = _prototype(bank, ids, scores, "c", DEFAULT_TAU)
            oracle = aggregate_prototype(bank, hits, query)
            np.testing.assert_array_equal(proto.vector, oracle.vector)
            assert proto.neighbors == oracle.neighbors
        return ranked

    @pytest.mark.parametrize("k", [1, 12, 1000])
    @pytest.mark.parametrize("exclude", [None, "a", "b", "absent"])
    def test_heavy_ties_and_exclusion(self, k, exclude):
        """Image b holds 3 entries, so excluding a leaves fewer than k = 12;
        k = 1000 is above N."""
        bank, base = tied_bank(["b" if i in (5, 20, 41) else "a" for i in range(self.N)])
        queries = self._queries(base)
        for index, nprobe, recall_size in self._indexes(bank):
            ranked = self._assert_equals_loop(bank, index, queries, k, exclude, nprobe,
                                              recall_size)
            if exclude == "a":
                assert all(len(ids) <= 3 for ids, _ in ranked)
        flat = FlatIndex.from_bank(bank)
        ids, scores = _retrieve_all(bank, flat, queries[3:4], k, None, 1, 1)[0]
        assert np.all(scores == 0.0) and ids.tolist() == list(range(min(k, self.N)))

    def test_exclusion_removes_every_row(self):
        bank, base = tied_bank(["a"] * self.N)
        for index, nprobe, recall_size in self._indexes(bank):
            ranked = self._assert_equals_loop(bank, index, self._queries(base), 12, "a",
                                              nprobe, recall_size)
            assert all(ids.size == 0 for ids, _ in ranked)

    def test_empty_bank(self):
        """Flat and IVF-PQ indexes of no entries give no hits and empty
        prototypes for every query."""
        bank, base = tied_bank([])
        trained, _ = tied_bank(["a"] * self.N)
        empty_ivfpq = train_ivfpq(trained.keys, IvfPqParams(nlist=4, m=4, nbits=4, seed=0,
                                                            kmeans_iters=2))
        for index in (FlatIndex.from_bank(bank), empty_ivfpq):
            ranked = self._assert_equals_loop(bank, index, self._queries(base), 12, None, 4, 10)
            assert all(ids.size == 0 for ids, _ in ranked)

    def test_many_queries_on_a_built_bank(self):
        """Every category and image of the shared fixture as one stack."""
        provider, bank = make_fixture(n_records=60, seed=5)
        queries = np.stack([build_query(provider, c, s, f"img{i}", bank.weights).vector
                            for c in ("cat", "dog", "bird") for s in ("indoor", "street")
                            for i in range(5)])
        index = train_ivfpq(bank.keys, IvfPqParams(nlist=4, m=4, nbits=4, seed=3,
                                                   kmeans_iters=4))
        ivfpq_add(index, np.arange(len(bank)), bank.keys)
        for searched, nprobe in ((FlatIndex.from_bank(bank), 1), (index, 2), (index, 4)):
            for exclude in (None, "img2"):
                self._assert_equals_loop(bank, searched, queries, 12, exclude, nprobe, 20)


class TestAggregatePrototype:
    def test_single_hit_returns_normalized_value(self):
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=1)
        proto = aggregate_prototype(bank, hits, q)
        entry_val = bank.entries[hits[0].entry_id].value
        np.testing.assert_allclose(proto.vector, entry_val / np.linalg.norm(entry_val), atol=1e-6)
        assert proto.neighbors[0][2] == pytest.approx(1.0)

    def test_unit_norm_output(self):
        provider, bank = make_fixture()
        q = build_query(provider, "dog", "indoor", "img1", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=12)
        proto = aggregate_prototype(bank, hits, q)
        assert abs(np.linalg.norm(proto.vector) - 1.0) < 1e-5

    def test_matches_direct_formula(self):
        provider, bank = make_fixture(seed=4)
        q = build_query(provider, "bird", "street", "img2", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=8)
        proto = aggregate_prototype(bank, hits, q, tau=0.1)
        w = softmax_weights([h.score for h in hits], 0.1)
        acc = sum(a * bank.entries[h.entry_id].value.astype(np.float64)
                  for h, a in zip(hits, w))
        oracle = acc / np.linalg.norm(acc)
        np.testing.assert_allclose(proto.vector, oracle, atol=1e-5)

    def test_empty_hits_give_zero_prototype(self):
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        proto = aggregate_prototype(bank, [], q)
        assert proto.is_empty
        np.testing.assert_array_equal(proto.vector, np.zeros(bank.d_val, dtype=np.float32))

    def test_default_tau(self):
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=3)
        proto = aggregate_prototype(bank, hits, q)
        assert proto.neighbors == aggregate_prototype(bank, hits, q, tau=0.07).neighbors

    def test_tau_validation(self):
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        with pytest.raises(InvalidInputError):
            aggregate_prototype(bank, [], q, tau=0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -0.07])
    def test_tau_must_be_finite_and_positive(self, tau):
        """A bad tau is reported as such, with hits or without, and not as
        the non-finite weights it would give."""
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=3)
        for given in ([], hits):
            with pytest.raises(InvalidInputError, match="tau must be finite and > 0"):
                aggregate_prototype(bank, given, q, tau=tau)

    @pytest.mark.parametrize("bad", ["minus_one", "n"])
    def test_hit_id_outside_the_bank_rejected(self, bad):
        """-1 is not read as the bank's last entry, nor N as an IndexError."""
        provider, bank = make_fixture()
        q = build_query(provider, "cat", "indoor", "img0", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=3)
        hits[1] = SearchHit(-1 if bad == "minus_one" else len(bank), hits[1].score)
        with pytest.raises(InvalidInputError, match="entry id out of range"):
            aggregate_prototype(bank, hits, q)

    def test_neighbor_weights_sum_to_one(self):
        provider, bank = make_fixture(seed=6)
        q = build_query(provider, "cat", "street", "img4", bank.weights)
        hits = retrieve(bank, FlatIndex.from_bank(bank), q, k=12)
        proto = aggregate_prototype(bank, hits, q)
        assert sum(a for _, _, a in proto.neighbors) == pytest.approx(1.0, abs=1e-9)
