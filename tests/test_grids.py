import math

import numpy as np
import pytest

from vismem.errors import InvalidInputError
from vismem.grids import (
    Box2D,
    Point2D,
    bilinear_sample,
    cell_centers,
    gaussian_kernel_1d,
    gaussian_smooth,
    inner,
    l2_normalize,
    layer_norm,
    mean_pool_region,
    minmax_rescale,
    weighted_combine,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestL2Normalize:
    def test_scales_to_unit_norm(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-7)

    def test_zero_vector_convention(self):
        np.testing.assert_array_equal(l2_normalize([0.0, 0.0]), [0.0, 0.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_output_norm_is_one(self, seed):
        v = rng_for(seed).standard_normal(256).astype(np.float32)
        out = l2_normalize(v)
        # independent high-precision norm via fsum
        norm = math.sqrt(math.fsum(float(x) * float(x) for x in out))
        assert abs(norm - 1.0) < 1e-6

    def test_idempotent_on_unit_vectors(self):
        u = l2_normalize(rng_for(7).standard_normal(64))
        np.testing.assert_allclose(l2_normalize(u), u, atol=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            l2_normalize([1.0, float("nan")])


class TestInner:
    def test_orthogonality(self):
        assert inner([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_self_similarity(self):
        u = l2_normalize([1.0, 2.0, 2.0])
        assert abs(inner(u, u) - 1.0) < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_fsum_oracle(self, seed):
        rng = rng_for(seed)
        a = rng.standard_normal(300).astype(np.float32)
        b = rng.standard_normal(300).astype(np.float32)
        oracle = math.fsum(float(x) * float(y) for x, y in zip(a, b))
        assert abs(inner(a, b) - oracle) < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_and_bilinear(self, seed):
        rng = rng_for(seed)
        a, b, c = (rng.standard_normal(64).astype(np.float32) for _ in range(3))
        assert abs(inner(a, b) - inner(b, a)) < 1e-5
        lhs = inner((2.0 * a + b).astype(np.float32), c)
        assert abs(lhs - (2.0 * inner(a, c) + inner(b, c))) < 1e-5

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            inner([1.0, 2.0], [1.0])


class TestWeightedCombine:
    def test_identity(self):
        u = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        np.testing.assert_allclose(weighted_combine([u], [1.0]), u)

    def test_convexity(self):
        u = np.array([1.0, -1.0], dtype=np.float32)
        np.testing.assert_allclose(weighted_combine([u, u], [0.5, 0.5]), u, atol=1e-7)

    def test_basis_combination(self):
        e1 = np.array([1.0, 0.0, 0.0], dtype=np.float32)
        e2 = np.array([0.0, 1.0, 0.0], dtype=np.float32)
        np.testing.assert_allclose(
            weighted_combine([e1, e2], [1.0, 0.3]), [1.0, 0.3, 0.0], atol=1e-7)

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            weighted_combine([], [])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            weighted_combine([[1.0, 2.0], [1.0]], [1.0, 1.0])


class TestMeanPoolRegion:
    def test_constant_field(self):
        u = np.array([1.5, -2.0, 0.25], dtype=np.float32)
        grid = np.broadcast_to(u, (5, 7, 3))
        out = mean_pool_region(grid, Box2D(0.1, 0.2, 0.9, 0.8))
        np.testing.assert_allclose(out, u, atol=1e-6)

    def test_exact_column_subset(self):
        grid = np.arange(2 * 2 * 1, dtype=np.float32).reshape(2, 2, 1)
        out = mean_pool_region(grid, Box2D(0.0, 0.0, 0.5, 1.0))
        np.testing.assert_allclose(out, [(grid[0, 0, 0] + grid[1, 0, 0]) / 2])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_oracle(self, seed):
        grid = rng_for(seed).standard_normal((8, 8, 4)).astype(np.float32)
        box = Box2D(0.25, 0.25, 0.75, 0.75)
        covered = []
        for r in range(8):
            for c in range(8):
                cx, cy = (c + 0.5) / 8, (r + 0.5) / 8
                if box.x0 <= cx <= box.x1 and box.y0 <= cy <= box.y1:
                    covered.append(grid[r, c].astype(np.float64))
        oracle = np.mean(covered, axis=0)
        np.testing.assert_allclose(mean_pool_region(grid, box), oracle, atol=1e-6)

    def test_full_box_equals_global_mean(self):
        grid = rng_for(3).standard_normal((6, 5, 3)).astype(np.float32)
        out = mean_pool_region(grid, Box2D(0.0, 0.0, 1.0, 1.0))
        np.testing.assert_allclose(out, grid.reshape(-1, 3).mean(axis=0), atol=1e-5)

    def test_tiny_box_falls_back_to_center_cell(self):
        grid = rng_for(4).standard_normal((4, 4, 2)).astype(np.float32)
        out = mean_pool_region(grid, Box2D(0.26, 0.26, 0.27, 0.27))
        np.testing.assert_array_equal(out, grid[1, 1])


class TestBilinearSample:
    def test_exact_at_cell_center(self):
        grid = rng_for(0).standard_normal((4, 6, 3)).astype(np.float32)
        p = Point2D((2 + 0.5) / 6, (1 + 0.5) / 4)
        np.testing.assert_allclose(bilinear_sample(grid, p), grid[1, 2], atol=1e-6)

    def test_corner_clamps_to_corner_cell(self):
        grid = rng_for(1).standard_normal((3, 3, 2)).astype(np.float32)
        np.testing.assert_allclose(bilinear_sample(grid, Point2D(0.0, 0.0)), grid[0, 0], atol=1e-6)

    def test_midpoint_is_arithmetic_mean(self):
        grid = rng_for(2).standard_normal((3, 4, 2)).astype(np.float32)
        p = Point2D((0.5 + 1.5) / 2 / 4, (0 + 0.5) / 3)
        expected = (grid[0, 0].astype(np.float64) + grid[0, 1]) / 2
        np.testing.assert_allclose(bilinear_sample(grid, p), expected, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_continuity(self, seed):
        rng = rng_for(seed)
        grid = rng.standard_normal((8, 8, 4)).astype(np.float32)
        x, y = rng.uniform(0.01, 0.98, size=2)
        a = bilinear_sample(grid, Point2D(x, y))
        b = bilinear_sample(grid, Point2D(x + 1e-6, y + 1e-6))
        assert np.max(np.abs(a - b)) < 1e-3


    @pytest.mark.parametrize("seed", range(3))
    def test_equals_whole_grid_float64_formula(self, seed):
        """Gathering the four cells before the cast changes no bit against
        interpolating in a float64 copy of the whole grid."""
        def oracle(grid, p):
            h, w, _ = grid.shape
            gx = min(max(p.x * w - 0.5, 0.0), w - 1.0)
            gy = min(max(p.y * h - 0.5, 0.0), h - 1.0)
            c0, r0 = int(math.floor(gx)), int(math.floor(gy))
            c1, r1 = min(c0 + 1, w - 1), min(r0 + 1, h - 1)
            fx, fy = gx - c0, gy - r0
            g = grid.astype(np.float64)
            top = (1.0 - fx) * g[r0, c0] + fx * g[r0, c1]
            bot = (1.0 - fx) * g[r1, c0] + fx * g[r1, c1]
            return ((1.0 - fy) * top + fy * bot).astype(np.float32)

        rng = rng_for(seed)
        for h, w in ((1, 1), (1, 5), (6, 1), (7, 9)):
            grid = rng.standard_normal((h, w, 5)).astype(np.float32)
            edges = [0.0, 0.5 / w, 1.0 - 0.5 / w, 1.0]
            points = [Point2D(x, y) for x in edges for y in (0.0, 0.5 / h, 1.0)]
            points += [Point2D(*rng.uniform(0.0, 1.0, size=2)) for _ in range(50)]
            for p in points:
                np.testing.assert_array_equal(bilinear_sample(grid, p), oracle(grid, p))

def reflect_convolve_oracle(scalar_map, sigma):
    """Direct 2-D convolution with an explicit edge-including reflect pad."""
    radius = math.ceil(3 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-0.5 * (x / sigma) ** 2)
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    padded = np.pad(scalar_map.astype(np.float64), radius, mode="symmetric")
    h, w = scalar_map.shape
    out = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            out[r, c] = (padded[r : r + 2 * radius + 1, c : c + 2 * radius + 1] * k2).sum()
    return out


class TestGaussianSmooth:
    def test_sigma_zero_is_noop(self):
        m = rng_for(0).standard_normal((5, 5)).astype(np.float32)
        np.testing.assert_array_equal(gaussian_smooth(m, 0.0), m)

    def test_constant_map_preserved(self):
        m = np.full((7, 9), 3.5, dtype=np.float32)
        np.testing.assert_allclose(gaussian_smooth(m, 2.0), m, atol=1e-5)

    def test_impulse_mass_and_symmetry(self):
        m = np.zeros((9, 9), dtype=np.float32)
        m[4, 4] = 1.0
        out = gaussian_smooth(m, 1.0)
        assert abs(out.sum() - 1.0) < 1e-5
        np.testing.assert_allclose(out, out[::-1, :], atol=1e-6)
        np.testing.assert_allclose(out, out[:, ::-1], atol=1e-6)
        np.testing.assert_allclose(out, out.T, atol=1e-6)

    @pytest.mark.parametrize("seed,sigma", [(s, sg) for s in range(5) for sg in (0.5, 1.0, 2.0)])
    def test_matches_direct_convolution_oracle(self, seed, sigma):
        m = rng_for(seed).standard_normal((10, 12)).astype(np.float32)
        np.testing.assert_allclose(
            gaussian_smooth(m, sigma), reflect_convolve_oracle(m, sigma), atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_mass_preservation(self, seed):
        m = rng_for(seed).standard_normal((11, 7)).astype(np.float32)
        out = gaussian_smooth(m, 1.5)
        assert abs(float(out.sum()) - float(m.astype(np.float64).sum())) < 1e-4

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            gaussian_smooth(np.ones((3, 3), dtype=np.float32), -0.1)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_kernel_refuses_sigma_not_finite_and_positive(self, sigma):
        """Without the check, 0 gives [nan], NaN a bare ValueError and -1 an
        empty kernel."""
        with pytest.raises(InvalidInputError, match="sigma must be finite and > 0"):
            gaussian_kernel_1d(sigma)


class TestMinmaxRescale:
    def test_affine_rescale(self):
        out = minmax_rescale(np.array([[-2.0, 0.0, 2.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]], atol=1e-7)

    def test_constant_maps_to_zeros(self):
        out = minmax_rescale(np.full((4, 4), 7.0, dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros((4, 4), dtype=np.float32))

    @pytest.mark.parametrize("seed", range(10))
    def test_range_and_order(self, seed):
        m = rng_for(seed).standard_normal((6, 8)).astype(np.float32)
        out = minmax_rescale(m)
        assert out.min() == 0.0 and abs(out.max() - 1.0) < 1e-6
        assert np.argmax(out) == np.argmax(m) and np.argmin(out) == np.argmin(m)
        # rank order preserved
        np.testing.assert_array_equal(
            np.argsort(out.ravel(), kind="stable"), np.argsort(m.ravel(), kind="stable"))


class TestLayerNorm:
    def test_standardized_input_passthrough(self):
        rng = rng_for(0)
        v = rng.standard_normal(512)
        v = (v - v.mean()) / v.std()
        v = v.astype(np.float32)
        ones = np.ones(512, dtype=np.float32)
        zeros = np.zeros(512, dtype=np.float32)
        np.testing.assert_allclose(layer_norm(v, ones, zeros, 1e-12), v, atol=1e-4)

    def test_constant_input_absorbed_by_eps(self):
        v = np.full(16, 5.0, dtype=np.float32)
        out = layer_norm(v, np.ones(16, dtype=np.float32), np.zeros(16, dtype=np.float32), 1e-5)
        np.testing.assert_allclose(out, np.zeros(16), atol=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_output_moments(self, seed):
        v = rng_for(seed).standard_normal(256).astype(np.float32) * 3.0 + 1.0
        ones = np.ones(256, dtype=np.float32)
        zeros = np.zeros(256, dtype=np.float32)
        out = layer_norm(v, ones, zeros, 1e-5).astype(np.float64)
        assert abs(out.mean()) <= 1e-6
        assert abs(out.var() - 1.0) < 1e-3

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            layer_norm([1.0, 2.0], [1.0], [0.0, 0.0])

    @pytest.mark.parametrize("dim", [1, 32, 33, 256])
    def test_stack_equals_single_rows(self, dim):
        rng = rng_for(dim)
        rows = (rng.standard_normal((10, dim)) * 3.0 + 1.0).astype(np.float32)
        gain = rng.uniform(0.5, 1.5, dim).astype(np.float32)
        bias = rng.standard_normal(dim).astype(np.float32)
        out = layer_norm(rows, gain, bias, 1e-5)
        assert out.shape == rows.shape and out.dtype == np.float32
        np.testing.assert_array_equal(out, np.stack([layer_norm(r, gain, bias, 1e-5)
                                                     for r in rows]))

    def test_stack_rejects_bad_rows(self):
        ones, zeros = np.ones(4, dtype=np.float32), np.zeros(4, dtype=np.float32)
        with pytest.raises(InvalidInputError, match="share one dimension"):
            layer_norm(np.zeros((3, 5), dtype=np.float32), ones, zeros)
        for bad in (np.nan, np.inf):
            rows = np.zeros((3, 4), dtype=np.float32)
            rows[1, 2] = bad
            with pytest.raises(InvalidInputError, match="non-finite"):
                layer_norm(rows, ones, zeros)
        with pytest.raises(InvalidInputError):
            layer_norm(np.zeros((2, 3, 4), dtype=np.float32), ones, zeros)


class TestGeometry:
    def test_invalid_box_rejected(self):
        with pytest.raises(InvalidInputError):
            Box2D(0.5, 0.0, 0.5, 1.0)
        with pytest.raises(InvalidInputError):
            Box2D(0.0, 0.0, 1.1, 1.0)

    def test_point_bounds(self):
        with pytest.raises(InvalidInputError):
            Point2D(-0.1, 0.5)

    def test_cell_centers(self):
        cx, cy = cell_centers(2, 4)
        np.testing.assert_allclose(cx[0], [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(cy[:, 0], [0.25, 0.75])

    def test_iou(self):
        a = Box2D(0.0, 0.0, 0.5, 0.5)
        assert a.iou(a) == 1.0
        assert a.iou(Box2D(0.5, 0.5, 1.0, 1.0)) == 0.0
