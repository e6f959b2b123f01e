import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from vismem.errors import FormatError, InvalidInputError, MissingEmbeddingError
from vismem.grids import Point2D, bilinear_sample, inner, layer_norm
from vismem.priors import DEFAULT_MAX_ANCHORS, AnchorSet, DensePrior
from vismem.refine import (
    _refine,
    UNCONSTRAINED,
    LogitsMatrix,
    MemoryGuidedPrompt,
    RefinementParams,
    constrain_logits,
    dense_feature,
    load_params,
    refine_all,
    refine_preactivation,
    refine_prompt,
    resample_heatmap,
    save_params,
    score_prompts,
    sparse_feature,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def anchor_at(r, c, h, w, resp=1.0):
    return Point2D((c + 0.5) / w, (r + 0.5) / h), resp


class TestDenseFeature:
    def test_unit_weights_sum_window(self):
        rng = rng_for(0)
        feats = rng.standard_normal((9, 9, 4)).astype(np.float32)
        heat = np.ones((9, 9), dtype=np.float32)
        pt, _ = anchor_at(4, 4, 9, 9)
        out = dense_feature(feats, heat, pt, window=3)
        oracle = feats[3:6, 3:6].astype(np.float64).sum(axis=(0, 1))
        np.testing.assert_allclose(out, oracle, atol=1e-5)

    def test_zero_heat_is_zero(self):
        feats = rng_for(1).standard_normal((7, 7, 3)).astype(np.float32)
        pt, _ = anchor_at(3, 3, 7, 7)
        out = dense_feature(feats, np.zeros((7, 7), dtype=np.float32), pt)
        np.testing.assert_array_equal(out, np.zeros(3, dtype=np.float32))

    def test_window_clipped_at_border(self):
        rng = rng_for(2)
        feats = rng.standard_normal((6, 6, 2)).astype(np.float32)
        heat = rng.uniform(0, 1, (6, 6)).astype(np.float32)
        pt, _ = anchor_at(0, 0, 6, 6)
        out = dense_feature(feats, heat, pt, window=5)
        region = (heat[0:3, 0:3, None].astype(np.float64) * feats[0:3, 0:3]).sum(axis=(0, 1))
        np.testing.assert_allclose(out, region, atol=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_oracle(self, seed):
        rng = rng_for(seed)
        h, w, d = 10, 12, 5
        feats = rng.standard_normal((h, w, d)).astype(np.float32)
        heat = rng.uniform(0, 1, (h, w)).astype(np.float32)
        r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
        pt, _ = anchor_at(r, c, h, w)
        window = 5
        half = window // 2
        oracle = np.zeros(d, dtype=np.float64)
        for rr in range(max(0, r - half), min(h, r + half + 1)):
            for cc in range(max(0, c - half), min(w, c + half + 1)):
                oracle += float(heat[rr, cc]) * feats[rr, cc].astype(np.float64)
        np.testing.assert_allclose(dense_feature(feats, heat, pt, window), oracle, atol=1e-4)

    def test_weights_not_normalized(self):
        """Doubling the heatmap must double the feature."""
        rng = rng_for(3)
        feats = rng.standard_normal((8, 8, 3)).astype(np.float32)
        heat = rng.uniform(0, 1, (8, 8)).astype(np.float32)
        pt, _ = anchor_at(4, 4, 8, 8)
        a = dense_feature(feats, heat, pt)
        b = dense_feature(feats, 2.0 * heat, pt)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-4)

    def test_even_window_rejected(self):
        feats = np.zeros((4, 4, 2), dtype=np.float32)
        with pytest.raises(InvalidInputError):
            dense_feature(feats, np.zeros((4, 4), dtype=np.float32), Point2D(0.5, 0.5), window=4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            dense_feature(np.zeros((4, 4, 2), dtype=np.float32),
                          np.zeros((5, 4), dtype=np.float32), Point2D(0.5, 0.5))


class TestSparseFeature:
    def test_is_bilinear_sample(self):
        feats = rng_for(0).standard_normal((6, 6, 4)).astype(np.float32)
        pt = Point2D(0.31, 0.62)
        np.testing.assert_array_equal(sparse_feature(feats, pt), bilinear_sample(feats, pt))


class TestResampleHeatmap:
    def test_identity_on_same_shape(self):
        hm = rng_for(0).uniform(0, 1, (7, 9)).astype(np.float32)
        out = resample_heatmap(hm, 7, 9)
        np.testing.assert_array_equal(out, hm)
        assert out is not hm

    def test_constant_preserved(self):
        hm = np.full((4, 4), 0.7, dtype=np.float32)
        np.testing.assert_allclose(resample_heatmap(hm, 9, 13), 0.7, atol=1e-6)

    def test_exact_integer_upsample_centers(self):
        """2x upsample: the four target cells covering a source cell whose
        neighbors are equal share its value."""
        hm = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        hm2 = resample_heatmap(hm, 4, 4)
        np.testing.assert_allclose(hm2, 1.0, atol=1e-6)

    def test_linear_ramp_preserved(self):
        """Bilinear resampling reproduces an affine function exactly away
        from the clamped borders."""
        w = 8
        hm = np.tile(np.arange(w, dtype=np.float32), (8, 1))
        out = resample_heatmap(hm, 8, 16)
        gx = np.clip((np.arange(16) + 0.5) / 16 * w - 0.5, 0.0, w - 1.0)
        np.testing.assert_allclose(out[0], gx, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pointwise_bilinear_sample(self, seed):
        hm = rng_for(seed).uniform(0, 1, (6, 5)).astype(np.float32)
        th, tw = 9, 11
        out = resample_heatmap(hm, th, tw)
        grid3 = hm[:, :, None]
        for r in range(th):
            for c in range(tw):
                pt = Point2D((c + 0.5) / tw, (r + 0.5) / th)
                assert out[r, c] == pytest.approx(float(bilinear_sample(grid3, pt)[0]), abs=1e-5)

    @pytest.mark.parametrize("source, target", [((6, 5), (9, 11)), ((7, 9), (3, 4)),
                                                ((1, 4), (5, 1)), ((16, 16), (128, 64))])
    def test_bit_equal_to_bilinear_sample_at_cell_centers(self, source, target):
        """Resampling and point sampling share one kernel, so every target
        cell center gives the same bits."""
        hm = rng_for(sum(target)).uniform(0, 1, source).astype(np.float32)
        th, tw = target
        grid3 = hm[:, :, None]
        expected = np.array([[bilinear_sample(grid3, Point2D((c + 0.5) / tw, (r + 0.5) / th))[0]
                              for c in range(tw)] for r in range(th)], dtype=np.float32)
        np.testing.assert_array_equal(resample_heatmap(hm, th, tw), expected)

    def test_bad_target_rejected(self):
        with pytest.raises(InvalidInputError):
            resample_heatmap(np.zeros((3, 3), dtype=np.float32), 0, 4)


class TestRefinePrompt:
    def test_zero_init_reduces_to_layer_norm_of_e(self):
        dim = 16
        params = RefinementParams.zero_init(dim)
        rng = rng_for(0)
        out = refine_prompt(params, rng.standard_normal(dim).astype(np.float32),
                            rng.standard_normal(dim).astype(np.float32))
        oracle = layer_norm(np.zeros(dim, dtype=np.float32), params.ln_gain,
                            params.ln_bias, params.ln_eps)
        np.testing.assert_array_equal(out, oracle)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_composition_oracle(self, seed):
        rng = rng_for(seed)
        dim = 12
        params = RefinementParams.seeded_init(dim, seed=seed)
        f_s = rng.standard_normal(dim).astype(np.float32)
        f_d = rng.standard_normal(dim).astype(np.float32)
        pre = (params.e.astype(np.float64)
               + params.w_sparse.astype(np.float64) @ f_s
               + params.w_dense.astype(np.float64) @ f_d).astype(np.float32)
        oracle = layer_norm(pre, params.ln_gain, params.ln_bias, params.ln_eps)
        np.testing.assert_allclose(refine_prompt(params, f_s, f_d), oracle, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_preactivation_is_linear(self, seed):
        rng = rng_for(seed)
        dim = 8
        params = RefinementParams.seeded_init(dim, seed=seed)
        f1, f2, g1, g2 = (rng.standard_normal(dim).astype(np.float32) for _ in range(4))
        lhs = refine_preactivation(params, (f1 + f2).astype(np.float32),
                                   (g1 + g2).astype(np.float32))
        rhs = (refine_preactivation(params, f1, g1).astype(np.float64)
               + refine_preactivation(params, f2, g2) - params.e)
        np.testing.assert_allclose(lhs, rhs, atol=1e-4)

    def test_output_moments(self):
        params = RefinementParams.seeded_init(64, seed=1)
        rng = rng_for(9)
        out = refine_prompt(params, rng.standard_normal(64).astype(np.float32),
                            rng.standard_normal(64).astype(np.float32)).astype(np.float64)
        assert abs(out.mean()) < 1e-5
        assert abs(out.var() - 1.0) < 1e-2

    def test_dim_mismatch_rejected(self):
        params = RefinementParams.zero_init(8)
        with pytest.raises(InvalidInputError):
            refine_prompt(params, np.zeros(4, dtype=np.float32), np.zeros(8, dtype=np.float32))


class TestRefineAll:
    def _setup(self, n_anchors=3, n_scales=2, dim=6, seed=0):
        rng = rng_for(seed)
        scales = [rng.standard_normal((8 * (s + 1), 8 * (s + 1), dim)).astype(np.float32)
                  for s in range(n_scales)]
        hm = rng.uniform(0, 1, (8, 8)).astype(np.float32)
        prior = DensePrior(category="cat", heatmap=hm, sigma=1.0)
        anchors = AnchorSet(category="cat", anchors=[
            anchor_at(i + 1, 2 * i + 1, 8, 8, resp=1.0 - 0.1 * i) for i in range(n_anchors)])
        return scales, prior, anchors

    def test_cardinality_scales_times_anchors(self):
        scales, prior, anchors = self._setup(n_anchors=3, n_scales=2)
        params = RefinementParams.seeded_init(6)
        prompts = refine_all(scales, prior, anchors, params, "cat")
        assert len(prompts) == 6

    def test_ordering_scale_then_anchor(self):
        scales, prior, anchors = self._setup(n_anchors=2, n_scales=3)
        prompts = refine_all(scales, prior, anchors, RefinementParams.seeded_init(6), "cat")
        assert [p.scale_index for p in prompts] == [0, 0, 1, 1, 2, 2]
        pts = anchors.points()
        assert [(p.anchor.x, p.anchor.y) for p in prompts[:2]] == [(q.x, q.y) for q in pts]

    def test_source_category_attached(self):
        scales, prior, anchors = self._setup()
        prompts = refine_all(scales, prior, anchors, RefinementParams.seeded_init(6), "dog")
        assert all(p.source_category == "dog" for p in prompts)

    def test_matches_manual_composition(self):
        scales, prior, anchors = self._setup(n_anchors=1, n_scales=2)
        params = RefinementParams.seeded_init(6, seed=3)
        prompts = refine_all(scales, prior, anchors, params, "cat")
        pt = anchors.points()[0]
        for s_idx, feats in enumerate(scales):
            heat = resample_heatmap(prior.heatmap, feats.shape[0], feats.shape[1])
            f_s = sparse_feature(feats, pt)
            f_d = dense_feature(feats, heat, pt, params.window)
            np.testing.assert_array_equal(prompts[s_idx].embedding,
                                          refine_prompt(params, f_s, f_d))

    @pytest.mark.parametrize("n_anchors", [1, 3, 10])
    @pytest.mark.parametrize("dim", [32, 33])
    @pytest.mark.parametrize("per_scale", [False, True])
    def test_bit_equal_to_refine_prompt_per_anchor(self, n_anchors, dim, per_scale):
        """The batched path gives each (scale, anchor) the bits of
        refine_prompt on its own sparse and dense features."""
        rng = rng_for(100 * dim + n_anchors)
        scales = [rng.standard_normal((s, s + 2, dim)).astype(np.float32) for s in (16, 8, 4)]
        prior = DensePrior(category="cat", heatmap=rng.uniform(0, 1, (16, 18)).astype(np.float32),
                           sigma=1.0)
        points = [Point2D(*rng.uniform(0.0, 1.0, size=2)) for _ in range(n_anchors)]
        if n_anchors >= 3:  # clamped borders and corners
            points[-2:] = [Point2D(0.0, 1.0), Point2D(1.0, 0.03)]
        anchors = AnchorSet(category="cat",
                            anchors=[(p, 1.0 - 0.01 * i) for i, p in enumerate(points)])
        if per_scale:
            params = [RefinementParams.seeded_init(dim, seed=s, window=3) for s in range(3)]
        else:
            params = RefinementParams.seeded_init(dim, seed=7)
        prompts = refine_all(scales, prior, anchors, params, "cat")
        assert len(prompts) == 3 * n_anchors
        for s_idx, feats in enumerate(scales):
            p = params[s_idx] if per_scale else params
            heat = resample_heatmap(prior.heatmap, feats.shape[0], feats.shape[1])
            for a_idx, pt in enumerate(points):
                expected = refine_prompt(p, sparse_feature(feats, pt),
                                         dense_feature(feats, heat, pt, p.window))
                np.testing.assert_array_equal(prompts[s_idx * n_anchors + a_idx].embedding,
                                              expected)

    def test_per_scale_params(self):
        scales, prior, anchors = self._setup(n_anchors=1, n_scales=2)
        p0 = RefinementParams.seeded_init(6, seed=10)
        p1 = RefinementParams.seeded_init(6, seed=11)
        prompts = refine_all(scales, prior, anchors, [p0, p1], "cat")
        assert not np.array_equal(prompts[0].embedding, prompts[1].embedding)
        solo = refine_all(scales[:1], prior, anchors, [p0], "cat")
        np.testing.assert_array_equal(prompts[0].embedding, solo[0].embedding)

    def test_per_scale_length_mismatch_rejected(self):
        scales, prior, anchors = self._setup(n_scales=2)
        with pytest.raises(InvalidInputError):
            refine_all(scales, prior, anchors, [RefinementParams.seeded_init(6)], "cat")

    def test_no_anchors_no_prompts(self):
        scales, prior, _ = self._setup()
        empty = AnchorSet(category="cat", anchors=[])
        assert refine_all(scales, prior, empty, RefinementParams.seeded_init(6), "cat") == []


class TestRefineEveryCategoryAtOnce:
    """_refine of several categories gives each category the bits that
    refine_all gives it alone."""

    @pytest.mark.parametrize("dim", [32, 33])
    @pytest.mark.parametrize("per_scale", [False, True])
    def test_bit_equal_to_refine_all_per_category(self, dim, per_scale):
        rng = rng_for(10 * dim + per_scale)
        # The heatmaps' own shape (resampling copies), a taller and narrower
        # one, and one narrower than the window.
        scales = [rng.standard_normal(shape + (dim,)).astype(np.float32)
                  for shape in ((16, 18), (24, 12), (3, 2))]
        counts = {"none": 0, "one": 1, "full": DEFAULT_MAX_ANCHORS, "few": 3}
        borders = [Point2D(0.0, 0.0), Point2D(1.0, 1.0), Point2D(0.0, 1.0), Point2D(1.0, 0.03)]
        priors, anchor_sets = [], []
        for category, count in counts.items():
            points = [Point2D(*rng.uniform(0.0, 1.0, size=2)) for _ in range(count)]
            if count == DEFAULT_MAX_ANCHORS:
                points[-len(borders):] = borders
            anchor_sets.append(AnchorSet(category=category, anchors=[
                (p, 1.0 - 0.01 * i) for i, p in enumerate(points)]))
            priors.append(DensePrior(category=category, sigma=1.0,
                                     heatmap=rng.uniform(0, 1, (16, 18)).astype(np.float32)))
        if per_scale:
            params = [RefinementParams.seeded_init(dim, seed=s, window=w)
                      for s, w in enumerate((3, 5, 7))]
        else:
            params = RefinementParams.seeded_init(dim, seed=7, window=5)

        batched = _refine(scales, [p.heatmap for p in priors], anchor_sets, params, list(counts))
        assert [len(prompts) for prompts in batched] == [3 * n for n in counts.values()]
        for category, prior, anchors, prompts in zip(counts, priors, anchor_sets, batched):
            alone = refine_all(scales, prior, anchors, params, category)
            assert len(prompts) == len(alone)
            for got, want in zip(prompts, alone):
                np.testing.assert_array_equal(got.embedding, want.embedding)
                assert (got.anchor, got.scale_index, got.source_category) == \
                    (want.anchor, want.scale_index, want.source_category)

    def test_overflow_reported_for_the_first_category_it_hits(self):
        """'late' overflows on the second scale only and 'hot' on the first:
        refined one by one, 'late' comes first, so its failure is raised."""
        calm, late, hot = (anchor_at(r, r, 8, 8)[0] for r in (1, 4, 6))
        scales = []
        for cell in (6, 4):  # hot's cell, then late's
            grid = np.zeros((8, 8, 4), dtype=np.float32)
            grid[cell, cell] = 3e38
            scales.append(grid)
        params = RefinementParams(e=np.zeros(4), w_sparse=2 * np.eye(4), w_dense=np.zeros((4, 4)),
                                  ln_gain=np.ones(4), ln_bias=np.zeros(4))
        names = ["calm", "late", "hot"]
        anchor_sets = [AnchorSet(category=c, anchors=[(p, 1.0)])
                       for c, p in zip(names, (calm, late, hot))]
        tagged = []

        @contextmanager
        def stage(category):
            try:
                yield
            except InvalidInputError:
                tagged.append(category)
                raise

        heat = np.ones((8, 8), dtype=np.float32)
        with pytest.raises(InvalidInputError, match="overflows float32"), \
                np.errstate(over="ignore"):
            _refine(scales, [heat] * 3, anchor_sets, params, names, stage=stage)
        assert tagged == ["late"]
        assert len(_refine(scales, [heat], anchor_sets[:1], params, names[:1], stage=stage)[0]) == 2


class TestOverflowIsAnErrorNotAWarning:
    """A pre-activation that overflows float32 raises InvalidInputError and
    prints no RuntimeWarning first: a sparse feature of 3e38 times 2."""

    def _params(self):
        return RefinementParams(e=np.zeros(4), w_sparse=2 * np.eye(4), w_dense=np.zeros((4, 4)),
                                ln_gain=np.ones(4), ln_bias=np.zeros(4))

    def _big(self):
        return np.full(4, 3e38, dtype=np.float32)

    @pytest.mark.parametrize("refine", [refine_prompt, refine_preactivation])
    def test_single_prompt(self, refine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflows float32"):
                refine(self._params(), self._big(), np.zeros(4, dtype=np.float32))

    def test_refine_all(self):
        grid = np.zeros((8, 8, 4), dtype=np.float32)
        grid[3, 3] = self._big()
        heat = np.ones((8, 8), dtype=np.float32)
        anchors = AnchorSet(category="cat", anchors=[anchor_at(3, 3, 8, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflows float32"):
                refine_all([grid], DensePrior("cat", heat, 0.0), anchors, self._params(), "cat")


class TestScoreAndConstrain:
    def _prompts(self, sources, dim=4, seed=0):
        rng = rng_for(seed)
        return [MemoryGuidedPrompt(
            embedding=rng.standard_normal(dim).astype(np.float32),
            source_category=s, anchor=Point2D(0.5, 0.5), scale_index=0)
            for s in sources]

    def test_score_is_inner_product(self):
        prompts = self._prompts(["cat"])
        embs = {"cat": np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32),
                "dog": np.array([0.0, 1.0, 0.0, 0.0], dtype=np.float32)}
        logits = score_prompts(prompts, embs)
        assert logits.values[0, 0] == pytest.approx(float(prompts[0].embedding[0]), abs=1e-6)
        assert logits.values[0, 1] == pytest.approx(float(prompts[0].embedding[1]), abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_inner_oracle_to_one_ulp(self, seed):
        """One float64 product for every (prompt, category) pair stays within
        one float32 ulp of a separate inner() per pair."""
        rng = rng_for(seed)
        cats = [f"c{j}" for j in range(7)]
        prompts = self._prompts([cats[int(i)] for i in rng.integers(0, 7, 40)], dim=33, seed=seed)
        embs = {c: rng.standard_normal(33).astype(np.float32) for c in cats}
        logits = score_prompts(prompts, embs)
        oracle = np.array([[inner(p.embedding, embs[c]) for c in cats] for p in prompts],
                          dtype=np.float32)
        assert logits.values.dtype == np.float32
        np.testing.assert_array_max_ulp(logits.values, oracle, maxulp=1)

    def test_missing_embedding_and_dimension_rejected(self):
        prompts = self._prompts(["cat"])
        with pytest.raises(MissingEmbeddingError, match="'dog'"):
            score_prompts(prompts, {"cat": np.ones(4, dtype=np.float32), "dog": None})
        with pytest.raises(MissingEmbeddingError):
            score_prompts([], {"dog": None})
        with pytest.raises(InvalidInputError):
            score_prompts(prompts, {"cat": np.ones(5, dtype=np.float32)})
        with pytest.raises(InvalidInputError):
            score_prompts(prompts, {"cat": np.array([1.0, np.nan, 0.0, 0.0], dtype=np.float32)})

    @pytest.mark.parametrize("bad, message", [
        (np.ones((2, 2), dtype=np.float32), r"non-empty 1-D vector, got shape \(2, 2\)"),
        (np.zeros(0, dtype=np.float32), r"non-empty 1-D vector, got shape \(0,\)"),
        (np.ones(5, dtype=np.float32), "all vectors must share one dimension"),
        (np.array([0.0, np.inf, 0.0, 0.0]), "^1-D vector contains non-finite entries$"),
        ([0.0, 0.0, np.nan, 0.0], "^1-D vector contains non-finite entries$"),
    ])
    def test_bad_prompt_embedding_rejected_as_as_vector_would(self, bad, message):
        prompts = self._prompts(["cat", "cat", "cat"])
        prompts[1].embedding = bad
        with pytest.raises(InvalidInputError, match=message):
            score_prompts(prompts, {"cat": np.ones(4, dtype=np.float32)})

    def test_constrain_masks_off_source(self):
        prompts = self._prompts(["cat", "dog"])
        embs = {"cat": np.ones(4, dtype=np.float32), "dog": np.ones(4, dtype=np.float32)}
        logits = score_prompts(prompts, embs)
        masked = constrain_logits(logits)
        cat_col = masked.categories.index("cat")
        dog_col = masked.categories.index("dog")
        assert masked.values[0, dog_col] == -np.inf
        assert masked.values[1, cat_col] == -np.inf
        assert np.isfinite(masked.values[0, cat_col])
        assert masked.values[0, cat_col] == logits.values[0, cat_col]

    def test_argmax_after_mask_is_source(self):
        rng = rng_for(5)
        cats = ["a", "b", "c", "d"]
        values = rng.standard_normal((20, 4)).astype(np.float32)
        sources = [cats[int(i)] for i in rng.integers(0, 4, 20)]
        masked = constrain_logits(LogitsMatrix(values, cats, sources))
        for i, src in enumerate(sources):
            assert cats[int(masked.values[i].argmax())] == src

    def test_unconstrained_rows_untouched(self):
        values = rng_for(6).standard_normal((2, 3)).astype(np.float32)
        logits = LogitsMatrix(values, ["a", "b", "c"], [UNCONSTRAINED, "b"])
        masked = constrain_logits(logits)
        np.testing.assert_array_equal(masked.values[0], values[0])
        assert np.isinf(masked.values[1, 0]) and np.isinf(masked.values[1, 2])

    def test_unknown_source_rejected(self):
        logits = LogitsMatrix(np.zeros((1, 2), dtype=np.float32), ["a", "b"], ["zz"])
        with pytest.raises(InvalidInputError):
            constrain_logits(logits)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(InvalidInputError):
            LogitsMatrix(np.zeros((1, 2), dtype=np.float32), ["a", "a"], ["a"])


class TestParamsPersistence:
    def test_shared_round_trip(self, tmp_path):
        params = RefinementParams.seeded_init(10, seed=4, window=3)
        path = tmp_path / "p.pprm"
        save_params(params, path)
        loaded = load_params(path)
        assert isinstance(loaded, RefinementParams)
        np.testing.assert_array_equal(loaded.e, params.e)
        np.testing.assert_array_equal(loaded.w_sparse, params.w_sparse)
        np.testing.assert_array_equal(loaded.w_dense, params.w_dense)
        np.testing.assert_array_equal(loaded.ln_gain, params.ln_gain)
        np.testing.assert_array_equal(loaded.ln_bias, params.ln_bias)
        assert loaded.window == 3
        # ln_eps is stored as f32
        assert loaded.ln_eps == pytest.approx(params.ln_eps, rel=1e-6)

    def test_per_scale_round_trip(self, tmp_path):
        sets = [RefinementParams.seeded_init(6, seed=s) for s in range(3)]
        path = tmp_path / "p.pprm"
        save_params(sets, path)
        loaded = load_params(path)
        assert isinstance(loaded, list) and len(loaded) == 3
        for a, b in zip(loaded, sets):
            np.testing.assert_array_equal(a.w_dense, b.w_dense)

    def test_refinement_identical_after_reload(self, tmp_path):
        params = RefinementParams.seeded_init(8, seed=1)
        path = tmp_path / "p.pprm"
        save_params(params, path)
        loaded = load_params(path)
        rng = rng_for(0)
        f_s = rng.standard_normal(8).astype(np.float32)
        f_d = rng.standard_normal(8).astype(np.float32)
        np.testing.assert_array_equal(refine_prompt(params, f_s, f_d),
                                      refine_prompt(loaded, f_s, f_d))

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "p.pprm"
        save_params(RefinementParams.zero_init(4), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_params(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "p.pprm"
        save_params(RefinementParams.zero_init(4), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_params(path)

    def test_mixed_dims_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            save_params([RefinementParams.zero_init(4), RefinementParams.zero_init(6)],
                        tmp_path / "p.pprm")


class TestParamsValidation:
    def test_even_window_rejected(self):
        with pytest.raises(InvalidInputError):
            RefinementParams.zero_init(4, window=4)

    def test_bad_projection_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            RefinementParams(
                e=np.zeros(4, dtype=np.float32),
                w_sparse=np.zeros((4, 3), dtype=np.float32),
                w_dense=np.zeros((4, 4), dtype=np.float32),
                ln_gain=np.ones(4, dtype=np.float32),
                ln_bias=np.zeros(4, dtype=np.float32),
            )
