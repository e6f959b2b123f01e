import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from vismem.errors import FormatError, InvalidInputError, MissingEmbeddingError
from vismem.grids import _layer_norm, Point2D, bilinear_sample, cell_centers, layer_norm
from vismem.priors import DEFAULT_MAX_ANCHORS, AnchorSet, DensePrior
from vismem.refine import (
    _preactivations,
    _prompts,
    _refine,
    _window_sums,
    UNCONSTRAINED,
    LogitsMatrix,
    MemoryGuidedPrompt,
    RefinementParams,
    constrain_logits,
    load_params,
    refine_all,
    save_params,
    score_prompts,
)

from oracles import clipped_window_sum, refine_prompt, resample_heatmap


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def anchor_at(r, c, h, w, resp=1.0):
    return Point2D((c + 0.5) / w, (r + 0.5) / h), resp


def window_sum(feats, heat, pt, window=5):
    """_window_sums of one anchor: its dense feature."""
    return _window_sums(feats, heat[None], np.zeros(1, dtype=np.intp), np.array([pt.x]),
                        np.array([pt.y]), window)[0]


def cell_of(pt, h, w):
    """The (row, column) of the cell of an h x w grid that holds pt."""
    return min(h - 1, int(pt.y * h)), min(w - 1, int(pt.x * w))


def per_anchor_prompt(feats, heatmap, pt, params):
    """One anchor's prompt at one scale, from the test-side oracles."""
    h, w, _ = feats.shape
    heat = resample_heatmap(heatmap, h, w)
    dense = clipped_window_sum(feats, heat, *cell_of(pt, h, w), params.window)
    return refine_prompt(params, bilinear_sample(feats, pt), dense)


class TestDenseFeature:
    def test_unit_weights_sum_window(self):
        rng = rng_for(0)
        feats = rng.standard_normal((9, 9, 4)).astype(np.float32)
        heat = np.ones((9, 9), dtype=np.float32)
        pt, _ = anchor_at(4, 4, 9, 9)
        out = window_sum(feats, heat, pt, window=3)
        oracle = feats[3:6, 3:6].astype(np.float64).sum(axis=(0, 1))
        np.testing.assert_allclose(out, oracle, atol=1e-5)

    def test_zero_heat_is_zero(self):
        feats = rng_for(1).standard_normal((7, 7, 3)).astype(np.float32)
        pt, _ = anchor_at(3, 3, 7, 7)
        out = window_sum(feats, np.zeros((7, 7), dtype=np.float32), pt)
        np.testing.assert_array_equal(out, np.zeros(3, dtype=np.float32))

    def test_window_clipped_at_border(self):
        rng = rng_for(2)
        feats = rng.standard_normal((6, 6, 2)).astype(np.float32)
        heat = rng.uniform(0, 1, (6, 6)).astype(np.float32)
        pt, _ = anchor_at(0, 0, 6, 6)
        out = window_sum(feats, heat, pt, window=5)
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
        np.testing.assert_allclose(window_sum(feats, heat, pt, window), oracle, atol=1e-4)

    def test_weights_not_normalized(self):
        """Doubling the heatmap must double the feature."""
        rng = rng_for(3)
        feats = rng.standard_normal((8, 8, 3)).astype(np.float32)
        heat = rng.uniform(0, 1, (8, 8)).astype(np.float32)
        pt, _ = anchor_at(4, 4, 8, 8)
        a = window_sum(feats, heat, pt)
        b = window_sum(feats, 2.0 * heat, pt)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-4)

    def test_even_window_rejected(self):
        with pytest.raises(InvalidInputError, match="window must be odd"):
            RefinementParams.zero_init(2, window=4)

    def test_shape_mismatch_rejected(self):
        """A heatmap of any (H, W) is read at the scale's cells; one of
        another rank is refused."""
        anchors = AnchorSet(category="cat", anchors=[anchor_at(1, 1, 4, 4)])
        prior = DensePrior(category="cat", heatmap=np.zeros((5, 4, 1), dtype=np.float32), sigma=1.0)
        with pytest.raises(InvalidInputError):
            refine_all([np.zeros((4, 4, 2), dtype=np.float32)], prior, anchors,
                       RefinementParams.zero_init(2), "cat")


class TestDenseFeatureBytes:
    """A window sum has exactly the bits of the clipped window's sum."""

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", [(9, 8), (3, 2)])
    @pytest.mark.parametrize("zero_heat", [False, True])
    def test_equals_clipped_window_sum(self, d, window, shape, zero_heat):
        h, w = shape
        rng = rng_for(window * 10 + d)
        feats = rng.standard_normal((h, w, d)).astype(np.float32)
        heat = rng.uniform(0, 1, (h, w)).astype(np.float32)
        if zero_heat:  # every term is 0.0 * negative = -0.0
            feats, heat = -np.abs(feats) - 1.0, np.zeros((h, w), dtype=np.float32)
        cells = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1), (h // 2, 0), (h // 2, w // 2)]
        anchors = [(anchor_at(r, c, h, w)[0], r, c) for r, c in cells]
        anchors.append((Point2D(1.0, 1.0), h - 1, w - 1))  # x = 1 lies in the last cell
        for pt, r, c in anchors:
            out = window_sum(feats, heat, pt, window)
            assert out.dtype == np.float32 and out.shape == (d,)
            assert out.tobytes() == clipped_window_sum(feats, heat, r, c, window).tobytes(), (r, c)


class TestWindowOnlyHeat:
    """At a scale of another shape than the heatmaps', the window sums read
    the heat of the window cells alone, with the bits of the heatmap
    resampled to the scale's shape followed by the clipped window's sum."""

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    @pytest.mark.parametrize("heat_shape, scale_shape", [
        ((7, 5), (4, 3)), ((12, 16), (6, 8)), ((3, 4), (8, 9)), ((16, 16), (4, 4)),
        ((5, 5), (1, 1)), ((1, 6), (3, 2))])
    def test_equals_resample_then_gather(self, d, window, heat_shape, scale_shape):
        (hh, hw), (h, w) = heat_shape, scale_shape
        rng = rng_for(window * 100 + hh * 10 + d)
        heats = rng.uniform(0, 1, (3, hh, hw)).astype(np.float32)
        feats = rng.standard_normal((h, w, d)).astype(np.float32)
        cells = [(0, 0), (0, hw - 1), (hh - 1, 0), (hh - 1, hw - 1), (hh // 2, 0), (0, hw // 2),
                 (hh // 2, hw // 2)]
        points = [((c + 0.5) / hw, (r + 0.5) / hh) for r, c in cells]
        points += [(1.0, 1.0), (0.0, 0.0), (1.0, 0.0), *rng.uniform(0, 1, (5, 2))]
        xs, ys = np.array(points, dtype=np.float64).T
        owners = np.arange(len(points)) % len(heats)
        got = _window_sums(feats, heats, owners, xs, ys, window)
        resampled = [resample_heatmap(heat, h, w) for heat in heats]
        for i, (x, y) in enumerate(zip(xs, ys)):
            r, c = cell_of(Point2D(x, y), h, w)
            want = clipped_window_sum(feats, resampled[owners[i]], r, c, window)
            assert got[i].tobytes() == want.tobytes(), (i, x, y)


class TestSparseFeature:
    def test_is_bilinear_sample(self):
        """With e = 0, W_s = I, W_d = 0 and an identity layer norm, a prompt
        is the layer norm of the bilinear sample at its anchor."""
        feats = rng_for(0).standard_normal((6, 6, 4)).astype(np.float32)
        pt = Point2D(0.31, 0.62)
        params = RefinementParams(e=np.zeros(4), w_sparse=np.eye(4), w_dense=np.zeros((4, 4)),
                                  ln_gain=np.ones(4), ln_bias=np.zeros(4))
        prior = DensePrior(category="cat", heatmap=np.ones((6, 6), dtype=np.float32), sigma=1.0)
        (prompt,) = refine_all([feats], prior, AnchorSet(category="cat", anchors=[(pt, 1.0)]),
                               params, "cat")
        np.testing.assert_array_equal(prompt.embedding, layer_norm(
            bilinear_sample(feats, pt), params.ln_gain, params.ln_bias, params.ln_eps))


def heat_at_cells(heat, th, tw):
    """The heat _window_sums reads at each cell of a th x tw scale: the sum of
    a one-cell window over a one-channel grid of ones."""
    cx, cy = cell_centers(th, tw)
    return _window_sums(np.ones((th, tw, 1), dtype=np.float32), heat[None],
                        np.zeros(th * tw, dtype=np.intp), cx.ravel(), cy.ravel(),
                        1).reshape(th, tw)


class TestResampleHeatmap:
    """A heatmap is read at a scale of another shape as its bilinear
    resampling to that shape."""

    def test_identity_on_same_shape(self):
        hm = rng_for(0).uniform(0, 1, (7, 9)).astype(np.float32)
        out = heat_at_cells(hm, 7, 9)
        np.testing.assert_array_equal(out, hm)
        assert out is not hm

    def test_constant_preserved(self):
        hm = np.full((4, 4), 0.7, dtype=np.float32)
        np.testing.assert_allclose(heat_at_cells(hm, 9, 13), 0.7, atol=1e-6)

    def test_exact_integer_upsample_centers(self):
        """2x upsample: the four target cells covering a source cell whose
        neighbors are equal share its value."""
        hm = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        hm2 = heat_at_cells(hm, 4, 4)
        np.testing.assert_allclose(hm2, 1.0, atol=1e-6)

    def test_linear_ramp_preserved(self):
        """Bilinear resampling reproduces an affine function exactly away
        from the clamped borders."""
        w = 8
        hm = np.tile(np.arange(w, dtype=np.float32), (8, 1))
        out = heat_at_cells(hm, 8, 16)
        gx = np.clip((np.arange(16) + 0.5) / 16 * w - 0.5, 0.0, w - 1.0)
        np.testing.assert_allclose(out[0], gx, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pointwise_bilinear_sample(self, seed):
        hm = rng_for(seed).uniform(0, 1, (6, 5)).astype(np.float32)
        th, tw = 9, 11
        out = heat_at_cells(hm, th, tw)
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
        np.testing.assert_array_equal(heat_at_cells(hm, th, tw), expected)

    def test_bad_target_rejected(self):
        """A scale with no cells is refused."""
        prior = DensePrior(category="cat", heatmap=np.zeros((3, 3), dtype=np.float32), sigma=1.0)
        anchors = AnchorSet(category="cat", anchors=[(Point2D(0.5, 0.5), 1.0)])
        with pytest.raises(InvalidInputError):
            refine_all([np.zeros((0, 4, 2), dtype=np.float32)], prior, anchors,
                       RefinementParams.zero_init(2), "cat")


def weights64(params):
    """A parameter set's e, W_s and W_d as _refine casts them for _preactivations."""
    return tuple(a.astype(np.float64) for a in (params.e, params.w_sparse, params.w_dense))


def prompt_rows(params, f_s, f_d):
    """The prompts _refine makes of (A, D) stacks of sparse and dense features."""
    return _layer_norm(_preactivations(weights64(params), f_s, f_d), params.ln_gain,
                       params.ln_bias, params.ln_eps)


class TestRefinePrompt:
    def test_zero_init_reduces_to_layer_norm_of_e(self):
        dim = 16
        params = RefinementParams.zero_init(dim)
        rng = rng_for(0)
        out = prompt_rows(params, rng.standard_normal((1, dim)).astype(np.float32),
                          rng.standard_normal((1, dim)).astype(np.float32))[0]
        oracle = layer_norm(np.zeros(dim, dtype=np.float32), params.ln_gain,
                            params.ln_bias, params.ln_eps)
        np.testing.assert_array_equal(out, oracle)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_composition_oracle(self, seed):
        rng = rng_for(seed)
        dim = 12
        params = RefinementParams.seeded_init(dim, seed=seed)
        f_s = rng.standard_normal((3, dim)).astype(np.float32)
        f_d = rng.standard_normal((3, dim)).astype(np.float32)
        out = prompt_rows(params, f_s, f_d)
        for i in range(3):
            pre = (params.e.astype(np.float64)
                   + params.w_sparse.astype(np.float64) @ f_s[i]
                   + params.w_dense.astype(np.float64) @ f_d[i]).astype(np.float32)
            oracle = layer_norm(pre, params.ln_gain, params.ln_bias, params.ln_eps)
            np.testing.assert_allclose(out[i], oracle, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_preactivation_is_linear(self, seed):
        rng = rng_for(seed)
        dim = 8
        params = RefinementParams.seeded_init(dim, seed=seed)
        f1, f2, g1, g2 = (rng.standard_normal(dim).astype(np.float32) for _ in range(4))
        lhs = _preactivations(weights64(params), (f1 + f2)[None], (g1 + g2)[None])[0]
        parts = _preactivations(weights64(params), np.stack([f1, f2]),
                                np.stack([g1, g2])).astype(np.float64)
        np.testing.assert_allclose(lhs, parts[0] + parts[1] - params.e, atol=1e-4)

    def test_summation_order_kept_on_cancelling_terms(self):
        """W_s = I and f_s = -e with e large, so e + W_s f_s cancels to zero
        exactly and then + W_d f_d keeps W_d f_d whole. Adding W_d f_d to
        either other term first loses bits that survive the float32 cast and
        the layer norm."""
        dim = 8
        rng = rng_for(4)
        e = (1e13 * rng.standard_normal(dim)).astype(np.float32)
        params = RefinementParams(e=e, w_sparse=np.eye(dim), ln_gain=np.ones(dim),
                                  w_dense=rng.standard_normal((dim, dim)) / np.sqrt(dim),
                                  ln_bias=np.zeros(dim))
        f_s, f_d = -e, rng.standard_normal(dim).astype(np.float32)
        got = prompt_rows(params, f_s[None], f_d[None])[0]
        assert got.tobytes() == refine_prompt(params, f_s, f_d).tobytes()
        e64 = e.astype(np.float64)
        sparse = params.w_sparse.astype(np.float64) @ f_s
        dense = params.w_dense.astype(np.float64) @ f_d
        for pre in (e64 + (sparse + dense), (e64 + dense) + sparse):
            other = layer_norm(pre.astype(np.float32), params.ln_gain, params.ln_bias,
                               params.ln_eps)
            assert other.tobytes() != got.tobytes()

    @pytest.mark.parametrize("dim", [1, 3, 32, 65])
    def test_one_matmul_keeps_each_rows_product(self, dim):
        """_preactivations applies each W to all rows in one np.matmul call,
        numpy's matrix-vector case: every row keeps the bits of its own
        float64 W @ f, on a 90-row and a one-row stack. Each W has a column
        of 1e20 and one of -1e20 where every f holds 1, so a sum that meets
        1e20 before the small terms loses them and the order of the sum shows
        through the float32 store; a one (A, D) @ (D, D) product reorders it.
        If numpy ever dispatches the call otherwise, this fails rather than
        let the prompts' bits drift."""
        rng = rng_for(dim)
        spread = lambda *shape: 10.0 ** rng.uniform(-3.0, 3.0, shape)
        e, w_s, w_d = (rng.standard_normal(shape) * spread(*shape)
                       for shape in ((dim,), (dim, dim), (dim, dim)))
        big = [0, dim // 2] if dim >= 3 else []
        for w in (w_s, w_d):
            w[:, big] = [1e20, -1e20][:len(big)]
        params = RefinementParams(e=e.astype(np.float32), w_sparse=w_s, w_dense=w_d,
                                  ln_gain=np.ones(dim), ln_bias=np.zeros(dim))
        weights = weights64(params)
        for rows in (90, 1):
            f_s, f_d = ((rng.standard_normal((rows, dim)) * spread(rows, 1)).astype(np.float32)
                        for _ in range(2))
            f_s[:, big] = f_d[:, big] = 1.0
            want = np.stack([(weights[0] + weights[1] @ f_s[i].astype(np.float64)
                              + weights[2] @ f_d[i].astype(np.float64)).astype(np.float32)
                             for i in range(rows)])
            assert _preactivations(weights, f_s, f_d).tobytes() == want.tobytes()

    def test_parameters_cast_once_per_call(self, monkeypatch):
        """_refine casts a parameter set shared by three scales to float64
        once, not once per scale."""
        params = RefinementParams.seeded_init(4, seed=0)
        casts = []
        real = np.ndarray.astype

        class Counted(np.ndarray):
            def astype(self, dtype, *args, **kwargs):
                if dtype is np.float64:
                    casts.append(self.shape)
                return real(np.asarray(self), dtype, *args, **kwargs)

        for name in ("e", "w_sparse", "w_dense"):
            setattr(params, name, getattr(params, name).view(Counted))
        scales = [rng_for(s).standard_normal((8, 8, 4)).astype(np.float32) for s in range(3)]
        anchors = AnchorSet(category="cat", anchors=[(Point2D(0.5, 0.5), 1.0)])
        _refine(scales, [np.ones((8, 8), np.float32)], [anchors], params, ["cat"])
        assert sorted(casts) == [(4,), (4, 4), (4, 4)]

    def test_output_moments(self):
        params = RefinementParams.seeded_init(64, seed=1)
        rng = rng_for(9)
        out = prompt_rows(params, rng.standard_normal((1, 64)).astype(np.float32),
                          rng.standard_normal((1, 64)).astype(np.float32))[0].astype(np.float64)
        assert abs(out.mean()) < 1e-5
        assert abs(out.var() - 1.0) < 1e-2

    def test_dim_mismatch_rejected(self):
        anchors = AnchorSet(category="cat", anchors=[anchor_at(1, 1, 4, 4)])
        prior = DensePrior(category="cat", heatmap=np.ones((4, 4), dtype=np.float32), sigma=1.0)
        with pytest.raises(InvalidInputError, match="feature dimensions"):
            refine_all([np.zeros((4, 4, 4), dtype=np.float32)], prior, anchors,
                       RefinementParams.zero_init(8), "cat")


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
            np.testing.assert_array_equal(prompts[s_idx].embedding,
                                          per_anchor_prompt(feats, prior.heatmap, pt, params))

    @pytest.mark.parametrize("n_anchors", [1, 3, 10])
    @pytest.mark.parametrize("dim", [32, 33])
    @pytest.mark.parametrize("per_scale", [False, True])
    def test_bit_equal_to_refine_prompt_per_anchor(self, n_anchors, dim, per_scale):
        """The batched path gives each (scale, anchor) the bits of the
        per-anchor oracle on its own sparse and dense features."""
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
            for a_idx, pt in enumerate(points):
                expected = per_anchor_prompt(feats, prior.heatmap, pt, p)
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

        stacks = _refine(scales, [p.heatmap for p in priors], anchor_sets, params, list(counts))
        batched = [_prompts(stack, anchors, category)
                   for stack, anchors, category in zip(stacks, anchor_sets, counts)]
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
    prints no RuntimeWarning first: a sparse feature of 3e38 times 2. So does
    a layer norm whose gain of 3e38 scales a normalized entry above 1."""

    def _params(self):
        return RefinementParams(e=np.zeros(4), w_sparse=2 * np.eye(4), w_dense=np.zeros((4, 4)),
                                ln_gain=np.ones(4), ln_bias=np.zeros(4))

    def _big(self):
        return np.full(4, 3e38, dtype=np.float32)

    def test_refine_all(self):
        grid = np.zeros((8, 8, 4), dtype=np.float32)
        grid[3, 3] = self._big()
        heat = np.ones((8, 8), dtype=np.float32)
        anchors = AnchorSet(category="cat", anchors=[anchor_at(3, 3, 8, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflows float32"):
                refine_all([grid], DensePrior("cat", heat, 0.0), anchors, self._params(), "cat")

    def _ln_params(self):
        return RefinementParams(e=np.zeros(4), w_sparse=np.eye(4), w_dense=np.zeros((4, 4)),
                                ln_gain=np.full(4, 3e38), ln_bias=np.zeros(4))

    def _spread(self):
        return np.array([1, 2, 3, 4], dtype=np.float32)  # normalizes to +-0.45, +-1.34

    @contextmanager
    def _raises_ln_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="layer norm overflows float32"):
                yield

    def test_layer_norm(self):
        with self._raises_ln_overflow():
            layer_norm(self._spread(), np.full(4, 3e38), np.zeros(4))

    def test_refine_all_layer_norm(self):
        grid = np.zeros((8, 8, 4), dtype=np.float32)
        grid[3, 3] = self._spread()
        heat = np.ones((8, 8), dtype=np.float32)
        anchors = AnchorSet(category="cat", anchors=[anchor_at(3, 3, 8, 8)])
        with self._raises_ln_overflow():
            refine_all([grid], DensePrior("cat", heat, 0.0), anchors, self._ln_params(), "cat")


class TestScoreAndConstrain:
    def test_logits_are_stored_as_float32(self):
        """Stored as given, integer values make constrain_logits raise a bare
        OverflowError, and a nested list makes the constructor raise
        AttributeError."""
        logits = LogitsMatrix([[1, 2], [3, 4]], ["cat", "dog"], ["cat", "dog"])
        assert logits.values.dtype == np.float32
        masked = constrain_logits(logits).values
        np.testing.assert_array_equal(masked, np.array([[1, -np.inf], [-np.inf, 4]], np.float32))
        values = np.zeros((1, 2), dtype=np.float32)
        assert LogitsMatrix(values, ["cat", "dog"], ["cat"]).values is values  # no copy

    @pytest.mark.parametrize("values", [[[1, 2], [3]], [[1, 2], [3, [4]]], [["a", 2], [3, 4]]])
    def test_values_that_make_no_matrix_are_invalid_input(self, values):
        """numpy's bare ValueError once escaped from the constructor."""
        with pytest.raises(InvalidInputError, match="logits values"):
            LogitsMatrix(values, ["cat", "dog"], ["cat", "dog"])

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
        one float32 ulp of a separate float64 dot per pair."""
        rng = rng_for(seed)
        cats = [f"c{j}" for j in range(7)]
        prompts = self._prompts([cats[int(i)] for i in rng.integers(0, 7, 40)], dim=33, seed=seed)
        embs = {c: rng.standard_normal(33).astype(np.float32) for c in cats}
        logits = score_prompts(prompts, embs)
        oracle = np.array([[np.dot(p.embedding.astype(np.float64), embs[c].astype(np.float64))
                            for c in cats] for p in prompts], dtype=np.float32)
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
        # Two bad embeddings: the first one's error wins.
        ((np.array([np.nan, 0.0, 0.0, 0.0]), np.ones((2, 2), dtype=np.float32)),
         "^1-D vector contains non-finite entries$"),
    ])
    def test_bad_prompt_embedding_rejected_as_as_vector_would(self, bad, message):
        prompts = self._prompts(["cat", "cat", "cat"])
        for prompt, embedding in zip(prompts[1:], bad if isinstance(bad, tuple) else (bad,)):
            prompt.embedding = embedding
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
        feats = rng.standard_normal((6, 6, 8)).astype(np.float32)
        prior = DensePrior(category="cat", heatmap=rng.uniform(0, 1, (6, 6)).astype(np.float32),
                           sigma=1.0)
        anchors = AnchorSet(category="cat", anchors=[anchor_at(2, 3, 6, 6)])
        for a, b in zip(refine_all([feats], prior, anchors, params, "cat"),
                        refine_all([feats], prior, anchors, loaded, "cat")):
            np.testing.assert_array_equal(a.embedding, b.embedding)

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

    @pytest.mark.parametrize("params", [[], [None]], ids=["no sets", "not a parameter set"])
    def test_bad_list_is_not_saved(self, tmp_path, params):
        path = tmp_path / "p.pprm"
        with pytest.raises(InvalidInputError, match="non-empty list of them"):
            save_params(params, path)
        assert not path.exists()


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
