import math
import tracemalloc
import warnings

import numpy as np
import pytest

from vismem.bank import KeyWeights, build_key
from vismem.errors import InvalidInputError
from vismem.grids import (
    Box2D,
    Point2D,
    bilinear_sample,
    cell_centers,
    gaussian_kernel_1d,
    gaussian_smooth,
    l2_normalize,
    layer_norm,
)
from vismem import grids as grids_module
from vismem.bank import _value_column
from vismem.grids import (EPS_NORM, _all_finite, _box_cells, _box_means, _gaussian_smooth,
                          _l2_normalize, _minmax_rescale)
from vismem.index import FlatIndex, exact_scores

from oracles import mask_mean_pool, oracle_l2_normalize


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestAllFinite:
    """_all_finite, the one finiteness check: the flat dot product of an array
    with itself, checked element by element only when that is not finite."""

    BAD = [np.nan, np.inf, -np.inf]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("shape", [(1000,), (8, 125), (4, 10, 25)])
    def test_each_leading_position_and_the_last_refused(self, shape, bad, dtype):
        arr = rng_for(0).standard_normal(shape).astype(dtype)
        assert _all_finite(arr)
        for at in [*range(64), arr.size - 1]:
            flat = arr.ravel().copy()
            flat[at] = bad
            assert not _all_finite(flat.reshape(shape)), at

    @pytest.mark.parametrize("bad", BAD)
    def test_every_position_of_short_vectors_refused(self, bad):
        """Every length a vectorized kernel may split into blocks and a tail."""
        for n in range(1, 66):
            assert _all_finite(np.ones(n, np.float32))
            for at in range(n):
                v = np.ones(n, np.float32)
                v[at] = bad
                assert not _all_finite(v), (n, at)

    @pytest.mark.parametrize("dtype, big", [(np.float32, 1e20), (np.float64, 1e200)])
    def test_squares_that_overflow_are_accepted_without_a_warning(self, dtype, big):
        arr = np.full((3, 70), big, dtype=dtype)
        arr[1, 5] = -big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _all_finite(arr)
            arr[2, 69] = np.nan
            assert not _all_finite(arr)

    def test_empty_array_is_finite(self):
        assert _all_finite(np.empty((0, 4), np.float32))

    def test_views_see_only_their_own_elements(self):
        arr = rng_for(1).standard_normal((6, 40)).astype(np.float32)
        arr[:, 1::2] = np.nan  # outside every view below but the transpose
        views = [arr[:, ::2], arr[::2, ::2], arr[:, -2::-2]]
        assert all(_all_finite(v) for v in views)
        assert not _all_finite(arr.T)  # F-contiguous: read in memory order
        arr[2, 38] = np.inf
        assert not any(_all_finite(v) for v in views)

    def test_contiguous_grid_allocates_almost_nothing(self):
        grid = rng_for(2).standard_normal((128, 128, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            assert _all_finite(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.nbytes // 100


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


def exact_inner(a, b) -> float:
    """exact_scores of one key row against a query."""
    return float(exact_scores(np.array([a], dtype=np.float32), np.array(b, dtype=np.float32))[0])


class TestInner:
    """The exact inner product of flat search and rescoring, index.exact_scores:
    float32 vectors multiplied and summed in float64."""

    def test_orthogonality(self):
        assert exact_inner([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_self_similarity(self):
        u = l2_normalize([1.0, 2.0, 2.0])
        assert abs(exact_inner(u, u) - 1.0) < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_fsum_oracle(self, seed):
        rng = rng_for(seed)
        a = rng.standard_normal(300).astype(np.float32)
        b = rng.standard_normal(300).astype(np.float32)
        oracle = math.fsum(float(x) * float(y) for x, y in zip(a, b))
        assert abs(exact_inner(a, b) - oracle) < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_and_bilinear(self, seed):
        rng = rng_for(seed)
        a, b, c = (rng.standard_normal(64).astype(np.float32) for _ in range(3))
        assert abs(exact_inner(a, b) - exact_inner(b, a)) < 1e-5
        lhs = exact_inner((2.0 * a + b).astype(np.float32), c)
        assert abs(lhs - (2.0 * exact_inner(a, c) + exact_inner(b, c))) < 1e-5

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            FlatIndex(np.array([[1.0, 2.0]], dtype=np.float32)).search([1.0], 1)


class TestWeightedCombine:
    """build_key's weighted mix of its phrase, scene and image vectors, which
    it then unit-normalizes."""

    ZERO = np.zeros(3, dtype=np.float32)

    def test_identity(self):
        u = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        np.testing.assert_allclose(build_key(u, self.ZERO, self.ZERO, KeyWeights(1.0, 0.0, 0.0)),
                                   u / np.linalg.norm(u), atol=1e-7)

    def test_convexity(self):
        u = np.array([1.0, -1.0], dtype=np.float32)
        zero = np.zeros(2, dtype=np.float32)
        np.testing.assert_allclose(build_key(u, u, zero, KeyWeights(0.5, 0.5, 0.0)),
                                   u / np.linalg.norm(u), atol=1e-7)

    def test_basis_combination(self):
        e1 = np.array([1.0, 0.0, 0.0], dtype=np.float32)
        e2 = np.array([0.0, 1.0, 0.0], dtype=np.float32)
        np.testing.assert_allclose(build_key(e1, e2, self.ZERO, KeyWeights(1.0, 0.3, 0.0)),
                                   np.array([1.0, 0.3, 0.0]) / math.hypot(1.0, 0.3), atol=1e-7)

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            build_key([], [], [], KeyWeights())

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="share one dimension"):
            build_key([1.0, 2.0], [1.0], [1.0, 2.0], KeyWeights())


def pool_box(grid, box: Box2D) -> np.ndarray:
    """The bank's pool of one box: _box_means of one record."""
    return _box_means([grid], [0], np.array([box.as_list()]))[0]


class TestMeanPoolRegion:
    def test_constant_field(self):
        u = np.array([1.5, -2.0, 0.25], dtype=np.float32)
        grid = np.broadcast_to(u, (5, 7, 3))
        out = pool_box(grid, Box2D(0.1, 0.2, 0.9, 0.8))
        np.testing.assert_allclose(out, u, atol=1e-6)

    def test_exact_column_subset(self):
        grid = np.arange(2 * 2 * 1, dtype=np.float32).reshape(2, 2, 1)
        out = pool_box(grid, Box2D(0.0, 0.0, 0.5, 1.0))
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
        np.testing.assert_allclose(pool_box(grid, box), oracle, atol=1e-6)

    def test_full_box_equals_global_mean(self):
        grid = rng_for(3).standard_normal((6, 5, 3)).astype(np.float32)
        out = pool_box(grid, Box2D(0.0, 0.0, 1.0, 1.0))
        np.testing.assert_allclose(out, grid.reshape(-1, 3).mean(axis=0), atol=1e-5)

    def test_tiny_box_falls_back_to_center_cell(self):
        grid = rng_for(4).standard_normal((4, 4, 2)).astype(np.float32)
        out = pool_box(grid, Box2D(0.26, 0.26, 0.27, 0.27))
        np.testing.assert_array_equal(out, grid[1, 1])


def seeded_axis_range(rng, n, mode):
    """Edges lo < hi on an axis of n cells: "random"; "centers", lo on a cell
    center and hi on a later one (or 1); "upper", hi on a center; "gap",
    strictly between two neighbouring centers (or a center and a border),
    so that no center is covered."""
    centers = (np.arange(n, dtype=np.float64) + 0.5) / n
    if mode == "random":
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
    elif mode == "centers":
        i = int(rng.integers(n))
        j = int(rng.integers(i, n + 1))
        lo, hi = centers[i], centers[j] if i < j < n else 1.0
    elif mode == "upper":
        hi = centers[rng.integers(n)]
        lo = rng.uniform(0.0, hi)
    else:
        edges = np.concatenate([[0.0], centers, [1.0]])
        k = int(rng.integers(n + 1))
        lo, hi = edges[k] + (edges[k + 1] - edges[k]) * np.sort(rng.uniform(0.1, 0.9, 2))
    return float(lo), float(hi)


class TestMeanPoolOracle:
    """The row-by-column slice of _box_cells pools the same cells, in the same
    order, as the whole-grid mask, and _box_means sums them as the mask's mean
    does, so the means agree bit for bit; and boxes that cover no center pool
    the cell holding their center."""

    @pytest.mark.parametrize("shape", [(1, 7), (6, 1), (5, 8), (9, 9), (16, 3)])
    def test_slice_kernel_matches_mask_oracle(self, shape):
        h, w = shape
        rng = rng_for(h * 100 + w)
        grid = rng.standard_normal((h, w, 5)).astype(np.float32)
        signs = rng.random(grid.shape)
        grid[signs < 0.1] = -0.0
        grid[signs > 0.95] = 0.0
        modes = ("random", "centers", "upper", "gap")
        boxes, fallbacks = [], 0
        for _ in range(400):
            x0, x1 = seeded_axis_range(rng, w, modes[rng.integers(4)])
            y0, y1 = seeded_axis_range(rng, h, modes[rng.integers(4)])
            boxes.append(Box2D(x0, y0, x1, y1))
        coords = np.array([b.as_list() for b in boxes])
        batch = _box_cells(h, w, coords)
        means = _box_means([grid], np.zeros(len(boxes), dtype=np.intp), coords)
        on_center = 0
        for box, cells, got in zip(boxes, batch, means):
            want = mask_mean_pool(grid, box)
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
            fallbacks += cells[0] == cells[1]
            on_center += any(np.any(box_edge == (np.arange(n) + 0.5) / n) for box_edge, n in
                             ((box.x0, w), (box.x1, w), (box.y0, h), (box.y1, h)))
        assert fallbacks >= 50 and on_center >= 100


def decades_stack(rng, n, d):
    """n float32 rows of width d whose scales span 10 decades, 1e-5 to 1e5,
    then rows with norms just above, at and below EPS_NORM, and zero rows."""
    rows = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-5.0, 5.0, (n, 1))
    tiny = np.zeros((4, d))
    tiny[:, 0] = [np.nextafter(np.float32(EPS_NORM), np.float32(1)), EPS_NORM, 1e-13, 0.0]
    return np.concatenate([rows, tiny, -tiny]).astype(np.float32)


class TestBatchedRowNorm:
    """_l2_normalize takes every row's norm in one np.matmul call, numpy's
    vector case, which gives each row the dot product np.linalg.norm takes of
    it alone. If numpy ever dispatches that call otherwise, these fail rather
    than let a bank's bits drift."""

    @staticmethod
    def quotients(stack):
        """Each row divided in float64 by its own np.linalg.norm, or zeros."""
        x = stack.astype(np.float64)
        norms = np.array([np.linalg.norm(row) for row in x]).reshape(-1, 1)
        return np.where(norms > EPS_NORM, x / np.where(norms > EPS_NORM, norms, 1.0), 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 17, 64, 256])
    def test_stack_matches_per_row_norm(self, dim):
        """The float32 rows, and the float64 quotients themselves through a
        float64 out, where a norm one ulp off cannot hide in the float32 store."""
        stack = decades_stack(rng_for(dim), 300, dim)
        want = np.stack([oracle_l2_normalize(row) for row in stack])
        got = _l2_normalize(stack)
        assert got.tobytes() == want.tobytes()
        out = stack.copy()
        assert _l2_normalize(out, out=out) is out and out.tobytes() == want.tobytes()
        whole = np.empty(stack.shape)
        _l2_normalize(stack, out=whole)
        assert whole.tobytes() == self.quotients(stack).tobytes()

    def test_rows_at_and_below_eps_are_zeroed(self):
        stack = decades_stack(rng_for(1), 0, 3)
        got = _l2_normalize(stack)
        np.testing.assert_array_equal(np.abs(got[:, 0]), [1, 0, 0, 0, 1, 0, 0, 0])
        assert not got[:, 1:].any()

    @pytest.mark.parametrize("dim", [1, 5, 64])
    def test_one_row_stack_and_vector(self, dim):
        for row in decades_stack(rng_for(dim + 7), 20, dim):
            want = oracle_l2_normalize(row).tobytes()
            assert _l2_normalize(row[None]).tobytes() == want
            assert _l2_normalize(row).tobytes() == want
            whole = np.empty(dim)
            _l2_normalize(row, out=whole)
            assert whole.tobytes() == self.quotients(row[None])[0].tobytes()

    def test_empty_stack(self):
        assert _l2_normalize(np.zeros((0, 4), np.float32)).shape == (0, 4)


def pool_oracle(grids, rows, boxes):
    """mask_mean_pool of each record, one at a time."""
    return np.stack([mask_mean_pool(grids[g], b) for g, b in zip(rows, boxes)]).reshape(
        len(boxes), grids[0].shape[2] if grids else 0)


def box_array(boxes):
    return np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(-1, 4)


class TestBoxMeans:
    """_box_means and the bank's _value_column against the whole-grid mask
    oracle, record by record, bit for bit."""

    @staticmethod
    def scene(rng, dim, shapes=((7, 9), (1, 6), (8, 1), (12, 12)), n=300):
        """Grids whose cell scales span 12 decades, so that a different
        summation order shows, with signed zeros; and records over them in an
        order that interleaves the grids, with boxes of every kind."""
        grids = []
        for h, w in shapes:
            g = rng.standard_normal((h, w, dim)) * 10.0 ** rng.uniform(-6, 6, (h, w, 1))
            marks = rng.random((h, w))
            g[marks < 0.08] = -0.0
            g[marks > 0.95] = 0.0
            grids.append(g.astype(np.float32))
        rows = rng.integers(0, len(grids), n)
        modes = ("random", "centers", "upper", "gap")
        boxes = []
        for g in rows:
            h, w = shapes[g]
            x0, x1 = seeded_axis_range(rng, w, modes[rng.integers(4)])
            y0, y1 = seeded_axis_range(rng, h, modes[rng.integers(4)])
            boxes.append(Box2D(x0, y0, x1, y1))
        return grids, rows, boxes

    @pytest.mark.parametrize("dim", [1, 2, 5, 32])
    def test_matches_mask_oracle(self, dim):
        """dim 1 is where numpy's mean sums pairwise, not cell by cell."""
        grids, rows, boxes = self.scene(rng_for(dim), dim)
        want = pool_oracle(grids, rows, boxes)
        got = _box_means(grids, rows, box_array(boxes))
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        values = _value_column(grids, rows.tolist(), box_array(boxes))
        assert values.tobytes() == np.stack([oracle_l2_normalize(v) for v in want]).tobytes()

    def test_one_channel_sums_pairwise(self):
        """Cells 1e17, 1, 1, 1, -1e17, 1, 1, 1, 1. Added one by one (numpy's
        mean for D >= 2), the first three 1s are lost to 1e17 and the sum is 4.
        numpy's pairwise sum for D = 1 adds the 1s to 1e17 and -1e17 in pairs,
        which loses all but the last, and the sum is 1. Each D keeps its own."""
        row = np.array([1e17, 1, 1, 1, -1e17, 1, 1, 1, 1], dtype=np.float32)
        whole = Box2D(0.0, 0.0, 1.0, 1.0)
        for dim, total in ((1, 1.0), (2, 4.0)):
            grid = np.repeat(row[None, :, None], dim, axis=2)
            got = _box_means([grid], [0], box_array([whole]))[0]
            np.testing.assert_array_equal(got, np.float32(total / 9))
            assert got.tobytes() == mask_mean_pool(grid, whole).tobytes()

    @pytest.mark.parametrize("dim", [1, 4])
    def test_row_and_column_boxes(self, dim):
        """1 x N and N x 1 boxes: one row or one column of cells."""
        rng = rng_for(10 + dim)
        grid = rng.standard_normal((6, 10, dim)).astype(np.float32)
        boxes = ([Box2D(0.0, (r + 0.2) / 6, 1.0, (r + 0.8) / 6) for r in range(6)]
                 + [Box2D((c + 0.2) / 10, 0.0, (c + 0.8) / 10, 1.0) for c in range(10)])
        rows = np.zeros(len(boxes), dtype=np.intp)
        cells = _box_cells(6, 10, box_array(boxes))
        assert ((cells[:, 1] - cells[:, 0]) * (cells[:, 3] - cells[:, 2]) > 1).all()
        got = _box_means([grid], rows, box_array(boxes))
        assert got.tobytes() == pool_oracle([grid], rows, boxes).tobytes()

    def test_fallback_cells_and_signed_zeros(self):
        """A box that covers no centre copies its cell, -0.0 included; a box
        that covers one -0.0 cell averages it to +0.0, as the mask's mean does."""
        grid = np.full((4, 4, 2), -0.0, dtype=np.float32)
        grid[2, 2] = [1.5, -2.0]
        boxes = [Box2D(0.26, 0.26, 0.27, 0.27),   # no centre: cell (1, 1)
                 Box2D(0.3, 0.3, 0.45, 0.45),     # the centre of cell (1, 1)
                 Box2D(0.51, 0.51, 0.52, 0.52),   # no centre: cell (2, 2)
                 Box2D(0.0, 0.0, 0.5, 0.5)]       # four -0.0 cells
        rows = np.zeros(len(boxes), dtype=np.intp)
        got = _box_means([grid], rows, box_array(boxes))
        assert got.tobytes() == pool_oracle([grid], rows, boxes).tobytes()
        assert np.signbit(got[0]).all() and not np.signbit(got[1]).any()
        assert not np.signbit(got[3]).any()
        np.testing.assert_array_equal(got[2], [1.5, -2.0])

    def test_no_records(self):
        assert _box_means([], [], np.empty((0, 4))).shape == (0, 0)
        grid = np.ones((2, 2, 3), dtype=np.float32)
        assert _box_means([grid], [], np.empty((0, 4))).shape == (0, 3)
        assert _value_column([], [], np.empty((0, 4))).shape == (0, 0)

    @pytest.mark.parametrize("cap", [1, 40])
    def test_pass_size_keeps_the_bits(self, monkeypatch, cap):
        """One record per pass (cap 1), and passes that split grids' runs."""
        grids, rows, boxes = self.scene(rng_for(5), 3, n=120)
        want = _box_means(grids, rows, box_array(boxes))
        monkeypatch.setattr(grids_module, "_POOL_FLOATS", cap)
        got = _box_means(grids, rows, box_array(boxes))
        assert got.tobytes() == want.tobytes() == pool_oracle(grids, rows, boxes).tobytes()


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


    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (37, 100), (128, 128)])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_float32_map_smoothed_as_its_float64_copy(self, shape, sigma):
        """The map goes to scipy as float32, into float64 scratch: the bits
        of the float64 copy smoothed by two correlate1d passes."""
        from scipy import ndimage

        m = rng_for(shape[0] + shape[1]).standard_normal(shape).astype(np.float32)
        kernel = gaussian_kernel_1d(sigma)
        once = ndimage.correlate1d(m.astype(np.float64), kernel, axis=0, mode="reflect")
        expected = ndimage.correlate1d(once, kernel, axis=1, mode="reflect").astype(np.float32)
        work = np.full((2, *shape), np.nan)
        for out in (gaussian_smooth(m, sigma), _gaussian_smooth(m, kernel, work)):
            assert out.dtype == np.float32 and out.tobytes() == expected.tobytes()


class TestMinmaxRescale:
    def test_affine_rescale(self):
        out = _minmax_rescale(np.array([[-2.0, 0.0, 2.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]], atol=1e-7)

    def test_constant_maps_to_zeros(self):
        out = _minmax_rescale(np.full((4, 4), 7.0, dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros((4, 4), dtype=np.float32))

    @pytest.mark.parametrize("seed", range(4))
    def test_subtraction_taken_in_float64(self, seed):
        """map - lo is taken in float64, with or without scratch. NumPy 2
        takes a float32 array minus a Python float in float32, and that
        rounds many of these cells to other bits."""
        m = rng_for(seed).uniform(-1, 1, (16, 16)).astype(np.float32)
        lo, hi = float(m.min()), float(m.max())
        expected = ((m.astype(np.float64) - lo) / (hi - lo)).astype(np.float32)
        in_float32 = ((m - lo).astype(np.float64) / (hi - lo)).astype(np.float32)
        assert (m - lo).dtype == np.float32 and (in_float32 != expected).sum() > 10
        for out in (_minmax_rescale(m), _minmax_rescale(m, np.full(m.shape, np.nan))):
            assert out.dtype == np.float32 and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_range_and_order(self, seed):
        m = rng_for(seed).standard_normal((6, 8)).astype(np.float32)
        out = _minmax_rescale(m)
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

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.inf, math.nan])
    def test_eps_must_be_finite_and_positive(self, eps):
        """Without the check, inf returns the bias and NaN reads as an overflow."""
        with pytest.raises(InvalidInputError, match="eps must be finite and > 0"):
            layer_norm([1.0, 2.0], [1.0, 1.0], [0.0, 0.0], eps)

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
