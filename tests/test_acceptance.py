"""Acceptance suite: every release criterion, one pass/fail test each.

These tests pin the published defaults and the numerical contracts of the
whole pipeline. Tolerances are part of the contract and must not be loosened.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.
"""

import math
import time

import numpy as np
import pytest

from vismem.bank import (
    BankBuildConfig,
    MemoryBank,
    MemoryEntry,
    build_bank,
    entry_stride,
    laplacian_variance,
    load_bank,
    save_bank,
)
from vismem.errors import FormatError
from vismem.grids import (
    Box2D,
    Point2D,
    bilinear_sample,
    gaussian_smooth,
    l2_normalize,
    layer_norm,
)
from vismem.index import (
    FlatIndex,
    IvfPqParams,
    SearchHit,
    ivfpq_add,
    ivfpq_search,
    load_index,
    rescore,
    save_index,
    train_ivfpq,
)
from vismem.pipeline import PipelineConfig, pipeline_report, run_pipeline
from vismem.priors import (
    DensePrior,
    extract_anchors,
    radius_cells_to_normalized,
)
from vismem.refine import (
    UNCONSTRAINED,
    LogitsMatrix,
    RefinementParams,
    constrain_logits,
    load_params,
    save_params,
)
from vismem.retrieval import RetrievalQuery, aggregate_prototype, softmax_weights
from vismem.synthetic import INPUT_IMAGE_ID, ScenarioSpec, gen_synthetic, random_regions


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d)).astype(np.float32)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def clustered_keys(rng, n, d, n_centers, rel_noise):
    """Unit keys around random unit centers with per-component relative noise."""
    centers = unit_rows(rng, n_centers, d)
    assign = rng.integers(0, n_centers, n)
    keys = centers[assign] + (rel_noise / math.sqrt(d)) * rng.standard_normal((n, d)).astype(np.float32)
    return (keys / np.linalg.norm(keys, axis=1, keepdims=True)).astype(np.float32), centers


class TestOracleEquivalence:
    def test_exhaustive_probe_plus_rescore_equals_flat(self):
        """10 seeded banks of 10k x 128 unit keys: ivfpq_search with
        nprobe=nlist and an exhaustive recall pool, rescored, must equal
        FlatIndex.search exactly for k in {1, 12, 50}; total runtime < 60 s."""
        start = time.perf_counter()
        n, d = 10_000, 128
        params = IvfPqParams(nlist=16, m=8, nbits=4, seed=0, kmeans_iters=4)
        for bank_seed in range(10):
            rng = rng_for(bank_seed)
            keys = unit_rows(rng, n, d)
            index = train_ivfpq(keys, params)
            ivfpq_add(index, np.arange(n), keys)
            flat = FlatIndex(keys)
            for q_num in range(5):
                q = unit_rows(rng_for(10_000 + bank_seed * 10 + q_num), 1, d)[0]
                candidates = ivfpq_search(index, q, nprobe=params.nlist, recall_size=n)
                for k in (1, 12, 50):
                    approx = rescore(keys, candidates, q, k=k)
                    exact = flat.search(q, k=k)
                    assert approx == exact, (
                        f"bank {bank_seed}, query {q_num}, k={k}: "
                        "two-stage result differs from the flat oracle")
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle-equivalence sweep took {elapsed:.1f}s (limit 60s)"
        print(f"PASS oracle equivalence: 10 banks x 5 queries x k in {{1,12,50}} "
              f"exact in {elapsed:.1f}s")


class TestApproximateRecall:
    def test_recall_at_12_and_nprobe_monotonicity(self):
        """50k x 256 clustered bank, nlist=256, m=16, nbits=8: mean recall@12
        with nprobe=16 and recall_size=200 must be >= 0.95 over 1,000
        queries, and recall must be non-decreasing over the nprobe sweep."""
        n, d, k = 50_000, 256, 12
        rng = rng_for(12345)
        keys, centers = clustered_keys(rng, n, d, n_centers=500, rel_noise=0.8)
        params = IvfPqParams(nlist=256, m=16, nbits=8, seed=0, kmeans_iters=8)
        index = train_ivfpq(keys, params)
        ivfpq_add(index, np.arange(n), keys)

        n_queries = 1000
        assign = rng.integers(0, 500, n_queries)
        queries = centers[assign] + (0.8 / math.sqrt(d)) * rng.standard_normal(
            (n_queries, d)).astype(np.float32)
        queries = (queries / np.linalg.norm(queries, axis=1, keepdims=True)).astype(np.float32)

        # flat oracle, vectorized: exact float64 scores, top-12 per query
        scores = keys.astype(np.float64) @ queries.astype(np.float64).T  # (n, nq)
        top = np.argpartition(-scores, k, axis=0)[:k].T  # (nq, k)
        truth = [set(int(i) for i in row) for row in top]

        recalls = []
        for nprobe in (1, 4, 16, 64, 256):
            overlap = 0
            for qi in range(n_queries):
                cands = ivfpq_search(index, queries[qi], nprobe=nprobe, recall_size=200)
                hits = rescore(keys, cands, queries[qi], k=k)
                overlap += len(truth[qi] & {h.entry_id for h in hits})
            recalls.append(overlap / (n_queries * k))
        assert recalls[2] >= 0.95, f"recall@12 at nprobe=16 is {recalls[2]:.4f} < 0.95"
        for a, b in zip(recalls, recalls[1:]):
            assert b >= a, f"recall decreased along the nprobe sweep: {recalls}"
        print(f"PASS approximate recall: recall@12 over nprobe (1,4,16,64,256) = "
              f"{[round(r, 4) for r in recalls]}")


class TestPaperConstantConformance:
    def test_defaults_in_emitted_config_report(self):
        spec = ScenarioSpec(regions=[], entries_per_category=0, distractors=8,
                            d_key=16, d_val=8, seed=0)
        scenario = gen_synthetic(spec)
        bank = build_bank(scenario.records, scenario.provider, BankBuildConfig(drop_fraction=0.0))
        config = PipelineConfig()
        results = run_pipeline(config, bank, FlatIndex.from_bank(bank),
                               scenario.provider, INPUT_IMAGE_ID, [],
                               RefinementParams.zero_init(spec.d_val))
        report = pipeline_report(config, results, INPUT_IMAGE_ID)
        emitted = report["config"]
        assert emitted["k"] == 12
        assert emitted["tau_p"] == 0.07
        assert (emitted["w_p"], emitted["w_s"], emitted["w_g"]) == (1.0, 0.3, 0.01)
        assert emitted["recall_size"] == 200
        assert emitted["drop_fraction"] == 0.10
        print("PASS paper constants: k=12, tau_p=0.07, weights=(1.0,0.3,0.01), "
              "recall_size=200, drop_fraction=0.10 in the emitted config report")


class TestSoftmaxPrototypeSuite:
    def test_two_hundred_seeded_cases(self):
        tau = 0.07
        for case in range(200):
            rng = rng_for(case)
            n = int(rng.integers(2, 16))
            scores = rng.uniform(-1.0, 1.0, n)
            w = softmax_weights(scores, tau)
            # simplex
            assert abs(float(w.sum()) - 1.0) <= 1e-5
            assert (w > 0).all()
            # order preservation
            assert np.array_equal(np.argsort(w), np.argsort(scores))
            # shift invariance
            shifted = softmax_weights(scores + float(rng.uniform(-50, 50)), tau)
            assert np.max(np.abs(w - shifted)) <= 1e-6
            # tau -> 0 top-1 convergence (angular 1e-3 at tau=1e-4): build a
            # value bundle and check the prototype collapses onto the argmax
            # hit's normalized value
            d_val = 8
            values = unit_rows(rng, n, d_val)
            entries = [
                MemoryEntry(key=np.zeros(4, dtype=np.float32), value=values[i],
                            category="c", image_id=f"i{i}",
                            box=Box2D(0, 0, 1, 1), blur_score=None)
                for i in range(n)
            ]
            bank = MemoryBank(entries=entries, d_key=4, d_val=d_val,
                              weights=None, manifest={})
            # convergence needs a score gap well above tau; use separated
            # scores (min gap 2/(n-1) >> 1e-4)
            sep_scores = rng.permutation(np.linspace(-1.0, 1.0, n))
            hits = [SearchHit(i, float(s)) for i, s in enumerate(sep_scores)]
            query = RetrievalQuery(category="c", vector=np.zeros(4, dtype=np.float32))
            proto = aggregate_prototype(bank, hits, query, tau=1e-4)
            top_value = l2_normalize(values[int(np.argmax(sep_scores))])
            cosine = float(np.clip(proto.vector.astype(np.float64) @ top_value, -1.0, 1.0))
            assert math.acos(cosine) <= 1e-3
            # single-hit identity
            solo = aggregate_prototype(bank, hits[:1], query, tau=tau)
            np.testing.assert_allclose(solo.vector, l2_normalize(values[0]), atol=1e-6)
            assert solo.neighbors[0][2] == pytest.approx(1.0)
        print("PASS softmax/prototype suite: 200 seeded cases (simplex 1e-5, order, "
              "shift invariance 1e-6, tau->0 angular 1e-3, single-hit identity)")


class TestPriorRecovery:
    def _trial(self, trial_seed, noise):
        p_count = trial_seed % 5 + 1
        rng = rng_for(trial_seed)
        cats = [f"c{i}" for i in range(p_count)]
        regions = random_regions(p_count, 32, 32, extent=3, min_separation=8.0,
                                 rng=rng, categories=cats)
        spec = ScenarioSpec(regions=regions, noise=noise, seed=trial_seed,
                            d_key=32, d_val=16, entries_per_category=6, distractors=8)
        scenario = gen_synthetic(spec)
        bank = build_bank(scenario.records, scenario.provider,
                          BankBuildConfig(drop_fraction=0.0))
        results = run_pipeline(PipelineConfig(), bank, FlatIndex.from_bank(bank),
                               scenario.provider, INPUT_IMAGE_ID, cats,
                               RefinementParams.zero_init(spec.d_val),
                               scene=spec.scene)
        tol = 1.5 / 32
        for cat in cats:
            anchors = results[cat].anchors
            if anchors is None:
                return False
            pts = anchors.points()
            for gt in scenario.gt_centers[cat]:
                if not any(abs(p.x - gt.x) <= tol and abs(p.y - gt.y) <= tol for p in pts):
                    return False
        return True

    def test_planted_scenarios(self):
        """100 seeded trials per noise level; every planted center must get
        an anchor within 1.5 cell widths: 100% at sigma_n=0 and >= 95% at
        sigma_n=0.05."""
        clean = sum(self._trial(t, 0.0) for t in range(100))
        noisy = sum(self._trial(t, 0.05) for t in range(100))
        assert clean == 100, f"only {clean}/100 clean trials recovered every center"
        assert noisy >= 95, f"only {noisy}/100 noisy trials recovered every center"
        print(f"PASS prior recovery: {clean}/100 at sigma=0, {noisy}/100 at sigma=0.05")


def _peaks_oracle(hm, threshold):
    h, w = hm.shape
    out = []
    for r in range(h):
        for c in range(w):
            v = float(hm[r, c])
            if v < threshold:
                continue
            ok = True
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and hm[rr, cc] > hm[r, c]:
                        ok = False
            if ok:
                out.append((r, c, v))
    out.sort(key=lambda p: (-p[2], p[0], p[1]))
    return out


class TestPeakExtractionOracle:
    def test_five_hundred_heatmaps(self):
        for seed in range(500):
            rng = rng_for(seed)
            h = int(rng.integers(5, 18))
            w = int(rng.integers(5, 18))
            hm = rng.uniform(0, 1, (h, w)).astype(np.float32)
            threshold = float(rng.uniform(0.1, 0.7))
            max_anchors = int(rng.integers(1, 12))
            radius = radius_cells_to_normalized(float(rng.uniform(1.0, 4.0)), h, w)
            prior = DensePrior(category="x", heatmap=hm, sigma=1.0)
            anchors = extract_anchors(prior, threshold=threshold, radius=radius,
                                      max_anchors=max_anchors)
            accepted = []
            for r, c, resp in _peaks_oracle(hm.astype(np.float64), threshold):
                if len(accepted) >= max_anchors:
                    break
                x, y = (c + 0.5) / w, (r + 0.5) / h
                if all(math.hypot(x - ax, y - ay) >= radius for ax, ay, _ in accepted):
                    accepted.append((x, y, resp))
            got = [(p.x, p.y, resp) for p, resp in anchors.anchors]
            assert len(got) == len(accepted), f"seed {seed}: anchor count mismatch"
            for (gx, gy, gr), (ox, oy, orr) in zip(got, accepted):
                assert (gx, gy) == (ox, oy), f"seed {seed}: anchor position mismatch"
                assert gr == pytest.approx(orr, abs=1e-7)
        print("PASS peak-extraction oracle: 500 seeded heatmaps exact")


class TestBaselineReduction:
    def test_zero_projections_are_bank_independent(self):
        """With W_s = W_d = 0 the refined prompt embeddings must be
        bit-identical across three different bank variants and equal
        layer_norm(e)."""
        d_val = 16
        rng = rng_for(0)
        params = RefinementParams(
            e=rng.standard_normal(d_val).astype(np.float32),
            w_sparse=np.zeros((d_val, d_val), dtype=np.float32),
            w_dense=np.zeros((d_val, d_val), dtype=np.float32),
            ln_gain=np.ones(d_val, dtype=np.float32),
            ln_bias=np.zeros(d_val, dtype=np.float32),
        )
        expected = layer_norm(params.e, params.ln_gain, params.ln_bias, params.ln_eps)

        variants = []
        for variant, (epc, dis, seed) in enumerate([(6, 8, 0), (12, 4, 1), (3, 30, 2)]):
            rng_v = rng_for(100 + variant)
            regions = random_regions(2, 32, 32, extent=3, min_separation=8.0,
                                     rng=rng_v, categories=["a", "b"])
            spec = ScenarioSpec(regions=regions, d_key=32, d_val=d_val, seed=seed,
                                entries_per_category=epc, distractors=dis)
            scenario = gen_synthetic(spec)
            bank = build_bank(scenario.records, scenario.provider,
                              BankBuildConfig(drop_fraction=0.0))
            results = run_pipeline(PipelineConfig(), bank, FlatIndex.from_bank(bank),
                                   scenario.provider, INPUT_IMAGE_ID, ["a", "b"],
                                   params, scene=spec.scene)
            embeddings = [p.embedding for res in results.values() for p in res.prompts]
            assert embeddings, f"variant {variant} produced no prompts"
            for emb in embeddings:
                np.testing.assert_array_equal(emb, expected)
            variants.append(embeddings[0])
        np.testing.assert_array_equal(variants[0], variants[1])
        np.testing.assert_array_equal(variants[1], variants[2])
        print("PASS baseline reduction: zero-projection prompts bit-identical across "
              "3 bank variants and equal to layer_norm(e)")


class TestMaskCorrectness:
    def test_two_hundred_seeded_matrices(self):
        for seed in range(200):
            rng = rng_for(seed)
            n_cats = int(rng.integers(2, 8))
            n_rows = int(rng.integers(1, 12))
            cats = [f"c{i}" for i in range(n_cats)]
            values = rng.standard_normal((n_rows, n_cats)).astype(np.float32)
            sources = []
            for _ in range(n_rows):
                if rng.uniform() < 0.2:
                    sources.append(UNCONSTRAINED)
                else:
                    sources.append(cats[int(rng.integers(0, n_cats))])
            logits = LogitsMatrix(values.copy(), cats, sources)
            masked = constrain_logits(logits)
            for i, src in enumerate(sources):
                row = masked.values[i]
                if src == UNCONSTRAINED:
                    np.testing.assert_array_equal(row, values[i])
                    continue
                finite = np.flatnonzero(np.isfinite(row))
                assert finite.shape == (1,), f"seed {seed} row {i}: not exactly one finite"
                col = int(finite[0])
                assert cats[col] == src
                assert row[col] == values[i, col]
                assert cats[int(row.argmax())] == src
        print("PASS mask correctness: 200 seeded logit matrices")


class TestNumericMicroOracles:
    def test_layer_norm_moments(self):
        for seed in range(100):
            rng = rng_for(seed)
            dim = int(rng.integers(16, 512))
            v = (rng.standard_normal(dim) * rng.uniform(0.5, 5.0)
                 + rng.uniform(-3, 3)).astype(np.float32)
            out = layer_norm(v, np.ones(dim, dtype=np.float32),
                             np.zeros(dim, dtype=np.float32), 1e-12).astype(np.float64)
            assert abs(out.mean()) <= 1e-6
            assert abs(out.var() - 1.0) <= 1e-3
        print("PASS micro-oracle: layer_norm moments over 100 cases")

    def test_gaussian_impulse_symmetry_and_mass(self):
        for seed in range(100):
            rng = rng_for(seed)
            size = int(rng.integers(4, 12)) * 2 + 1
            sigma = float(rng.uniform(0.4, 2.0))
            m = np.zeros((size, size), dtype=np.float32)
            m[size // 2, size // 2] = 1.0
            out = gaussian_smooth(m, sigma).astype(np.float64)
            assert abs(out.sum() - 1.0) <= 1e-5
            assert np.max(np.abs(out - out[::-1, :])) <= 1e-5
            assert np.max(np.abs(out - out[:, ::-1])) <= 1e-5
        print("PASS micro-oracle: Gaussian impulse mass and symmetry over 100 cases")

    def test_bilinear_cell_center_exactness(self):
        for seed in range(100):
            rng = rng_for(seed)
            h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            grid = rng.standard_normal((h, w, 3)).astype(np.float32)
            r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
            out = bilinear_sample(grid, Point2D((c + 0.5) / w, (r + 0.5) / h))
            np.testing.assert_allclose(out, grid[r, c], atol=1e-6)
        print("PASS micro-oracle: bilinear cell-center exactness over 100 cases")

    def test_laplacian_variance_against_direct_convolution(self):
        kernel = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64)
        for seed in range(100):
            rng = rng_for(seed)
            h, w = int(rng.integers(3, 14)), int(rng.integers(3, 14))
            img = rng.uniform(0, 255, (h, w))
            responses = [
                (img[r - 1 : r + 2, c - 1 : c + 2] * kernel).sum()
                for r in range(1, h - 1)
                for c in range(1, w - 1)
            ]
            oracle = float(np.var(responses))
            got = laplacian_variance(img)
            assert got == pytest.approx(oracle, rel=1e-6, abs=1e-9), f"seed {seed}"
        print("PASS micro-oracle: Laplacian variance vs direct convolution over 100 cases")


class TestPersistence:
    def _scenario_bank(self):
        regions = random_regions(2, 32, 32, extent=3, min_separation=8.0,
                                 rng=rng_for(0), categories=["a", "b"])
        spec = ScenarioSpec(regions=regions, d_key=32, d_val=16, seed=0,
                            entries_per_category=10, distractors=10)
        scenario = gen_synthetic(spec)
        return build_bank(scenario.records, scenario.provider, BankBuildConfig())

    def test_round_trips_and_corruption(self, tmp_path):
        bank = self._scenario_bank()
        keys = bank.keys_matrix()
        params = IvfPqParams(nlist=2, m=4, nbits=3, seed=0, kmeans_iters=5)
        index = train_ivfpq(keys, params)
        ivfpq_add(index, np.arange(len(bank)), keys)
        refine_params = RefinementParams.seeded_init(16, seed=1)

        # bank: save -> load -> save bit-exact; entry stride contract
        b1, b2 = tmp_path / "b1.pbnk", tmp_path / "b2.pbnk"
        save_bank(bank, b1)
        save_bank(load_bank(b1), b2)
        assert b1.read_bytes() == b2.read_bytes()
        assert entry_stride(bank.d_key, bank.d_val) == 4 * (bank.d_key + bank.d_val) + 148

        # index
        i1, i2 = tmp_path / "i1.pivf", tmp_path / "i2.pivf"
        save_index(index, i1)
        save_index(load_index(i1), i2)
        assert i1.read_bytes() == i2.read_bytes()

        # refinement parameters
        p1, p2 = tmp_path / "p1.pprm", tmp_path / "p2.pprm"
        save_params(refine_params, p1)
        save_params(load_params(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        # corrupted headers raise FormatError, never crash
        for path, loader in ((b1, load_bank), (i1, load_index), (p1, load_params)):
            raw = bytearray(path.read_bytes())
            raw[:4] = b"BAD!"
            bad = tmp_path / (path.name + ".bad")
            bad.write_bytes(bytes(raw))
            with pytest.raises(FormatError):
                loader(bad)
            truncated = tmp_path / (path.name + ".trunc")
            truncated.write_bytes(path.read_bytes()[:-5])
            with pytest.raises(FormatError):
                loader(truncated)
        print("PASS persistence: bank/index/params bit-exact round trips, "
              "stride contract, corruption -> FormatError")


class TestBuildReproducibility:
    def test_two_runs_over_1000_records(self, tmp_path):
        """Two independent builds over 1,000 synthetic records with blur
        filtering must produce byte-identical bank files and a balanced
        manifest."""
        regions = random_regions(5, 32, 32, extent=3, min_separation=8.0,
                                 rng=rng_for(3), categories=[f"c{i}" for i in range(5)])
        spec = ScenarioSpec(regions=regions, d_key=32, d_val=16, seed=3,
                            entries_per_category=150, distractors=250)
        paths = []
        manifests = []
        for run in range(2):
            scenario = gen_synthetic(spec)
            assert len(scenario.records) == 1000
            bank = build_bank(scenario.records, scenario.provider,
                              BankBuildConfig(drop_fraction=0.10))
            path = tmp_path / f"run{run}.pbnk"
            save_bank(bank, path)
            paths.append(path)
            manifests.append(bank.manifest)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        m = manifests[0]
        removed = (m["removed_excluded"] + m["removed_small"]
                   + m["removed_merge"] + m["removed_blur"])
        assert m["input_count"] == 1000
        assert m["removed_blur"] == 100
        assert m["input_count"] - removed == m["output_count"]
        print("PASS build reproducibility: byte-identical banks over 1,000 records, "
              "manifest balances")
