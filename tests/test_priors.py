import math

import numpy as np
import pytest

from vismem import priors as priors_module
from vismem.errors import InvalidInputError
from vismem.grids import Box2D, gaussian_smooth, minmax_rescale
from vismem.priors import (
    AnchorSet,
    DensePrior,
    anchors_from_gt,
    dense_prior,
    dense_priors,
    extract_anchors,
    find_peaks,
    radius_cells_to_normalized,
)
from vismem.retrieval import Prototype


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def proto_of(vec, category="cat"):
    v = np.asarray(vec, dtype=np.float32)
    v = v / np.linalg.norm(v)
    return Prototype(category=category, vector=v, neighbors=[(0, 1.0, 1.0)])


def empty_proto(d, category="cat"):
    return Prototype(category=category, vector=np.zeros(d, dtype=np.float32),
                     neighbors=[])


class TestDensePrior:
    def test_empty_prototype_gives_zero_map(self):
        grid = rng_for(0).standard_normal((5, 5, 4)).astype(np.float32)
        prior = dense_prior(grid, empty_proto(4))
        np.testing.assert_array_equal(prior.heatmap, np.zeros((5, 5), dtype=np.float32))

    def test_aligned_cell_is_maximum(self):
        d = 8
        rng = rng_for(1)
        u = rng.standard_normal(d).astype(np.float32)
        u /= np.linalg.norm(u)
        grid = rng.standard_normal((9, 9, d)).astype(np.float32) * 0.1
        grid[4, 4] = u * 5.0  # perfectly aligned, any magnitude
        prior = dense_prior(grid, proto_of(u), sigma=0.5)
        assert np.unravel_index(prior.heatmap.argmax(), (9, 9)) == (4, 4)
        assert prior.heatmap[4, 4] == pytest.approx(1.0, abs=1e-6)

    def test_magnitude_invariance(self):
        """Cells are direction-only: scaling a cell's features must not change the map."""
        rng = rng_for(2)
        grid = rng.standard_normal((6, 6, 4)).astype(np.float32)
        scaled = grid * rng.uniform(0.5, 10.0, (6, 6, 1)).astype(np.float32)
        p = proto_of(rng.standard_normal(4))
        np.testing.assert_allclose(dense_prior(grid, p).heatmap,
                                   dense_prior(scaled, p).heatmap, atol=1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_composition_oracle(self, seed):
        rng = rng_for(seed)
        grid = rng.standard_normal((8, 10, 6)).astype(np.float32)
        p = proto_of(rng.standard_normal(6))
        sigma = 1.0
        g = grid.astype(np.float64)
        norms = np.linalg.norm(g, axis=2, keepdims=True)
        raw = ((g / norms) @ p.vector.astype(np.float64)).astype(np.float32)
        oracle = minmax_rescale(gaussian_smooth(raw, sigma))
        np.testing.assert_allclose(dense_prior(grid, p, sigma).heatmap, oracle, atol=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_priors_share_one_normalized_grid(self, seed):
        """Many prototypes over one grid, a zero cell and empty prototypes
        among them, give the composition oracle's heatmap for each, in order."""
        rng = rng_for(seed)
        grid = rng.standard_normal((8, 10, 6)).astype(np.float32)
        grid[2, 3] = 0.0
        protos = [proto_of(rng.standard_normal(6), f"c{i}") for i in range(5)]
        protos[1] = empty_proto(6, "c1")
        priors = dense_priors(grid, protos, sigma=0.7)
        assert [p.category for p in priors] == [p.category for p in protos]
        g = grid.astype(np.float64)
        norms = np.linalg.norm(g, axis=2, keepdims=True)
        unit = np.where(norms > 1e-12, g / np.where(norms > 1e-12, norms, 1.0), 0.0)
        for proto, prior in zip(protos, priors):
            assert prior.sigma == 0.7
            if proto.is_empty:
                np.testing.assert_array_equal(prior.heatmap, np.zeros((8, 10), np.float32))
                continue
            raw = (unit @ proto.vector.astype(np.float64)).astype(np.float32)
            np.testing.assert_array_equal(prior.heatmap, minmax_rescale(gaussian_smooth(raw, 0.7)))

    def test_dense_priors_check_grid_and_every_prototype(self):
        grid = rng_for(4).standard_normal((3, 3, 4)).astype(np.float32)
        assert dense_priors(grid, []) == []
        with pytest.raises(InvalidInputError):
            dense_priors(grid, [proto_of([1.0, 0.0, 0.0, 0.0]), empty_proto(3)])
        grid[1, 1, 2] = np.nan
        with pytest.raises(InvalidInputError):
            dense_priors(grid, [])

    def test_range_zero_one(self):
        rng = rng_for(3)
        prior = dense_prior(rng.standard_normal((7, 7, 4)).astype(np.float32),
                            proto_of(rng.standard_normal(4)))
        assert prior.heatmap.min() >= 0.0 and prior.heatmap.max() <= 1.0 + 1e-6

    def test_constant_compatibility_gives_zeros(self):
        u = np.array([1.0, 0.0, 0.0], dtype=np.float32)
        grid = np.broadcast_to(u, (5, 5, 3)).copy()
        prior = dense_prior(grid, proto_of(u))
        np.testing.assert_array_equal(prior.heatmap, np.zeros((5, 5), dtype=np.float32))

    def test_zero_cells_treated_as_zero_similarity(self):
        grid = np.zeros((4, 4, 3), dtype=np.float32)
        grid[0, 0] = [1.0, 0.0, 0.0]
        grid[3, 3] = [-1.0, 0.0, 0.0]
        prior = dense_prior(grid, proto_of([1.0, 0.0, 0.0]), sigma=0.1)
        assert prior.heatmap[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert prior.heatmap[3, 3] == pytest.approx(0.0, abs=1e-6)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            dense_prior(np.zeros((3, 3, 4), dtype=np.float32), proto_of([1.0, 0.0]))


def heatmap_oracle(grid, proto, sigma):
    """The straightforward composition: the whole grid normalized in float64,
    then one product of it with the prototype."""
    g = grid.astype(np.float64)
    norms = np.linalg.norm(g, axis=2)
    g /= np.where(norms > 1e-12, norms, 1.0)[:, :, None]
    g[norms <= 1e-12] = 0.0
    raw = (g @ proto.vector.astype(np.float64)).astype(np.float32)
    return minmax_rescale(gaussian_smooth(raw, sigma))


class TestBlockedDensePriors:
    """The grid is normalized and multiplied a block of whole grid rows at a
    time; every heatmap keeps the bits of the whole-grid product."""

    SHAPES = [
        (300, 7, 64),   # one block and a few rows more
        (1200, 5, 8),   # several blocks, the last one short
        (3, 2049, 8),   # a row wider than a block: one row per block
        (5, 1, 4),      # H*W = 5, 1 (mod 4)
        (6, 3, 4),      # H*W = 18, 2 (mod 4)
        (7, 5, 4),      # H*W = 35, 3 (mod 4)
        (40, 60, 1),    # D = 1
        (30, 70, 33),   # D = 33
    ]

    @staticmethod
    def _set_block(monkeypatch, block, h, w):
        if block == "one_row":
            monkeypatch.setattr(priors_module, "_BLOCK", 1)
        elif block == "whole_grid":
            monkeypatch.setattr(priors_module, "_BLOCK", (h + 1) * w)

    @pytest.mark.parametrize("block", ["default", "one_row", "whole_grid"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_bit_identical_to_whole_grid_product(self, shape, block, monkeypatch):
        h, w, d = shape
        self._set_block(monkeypatch, block, h, w)
        rng = rng_for(h * w + d)
        grid = rng.standard_normal(shape).astype(np.float32)
        grid[0, 0] = 0.0
        grid[h // 2, w - 1] = 1e-13  # below EPS_NORM: a zero cell too
        protos = [proto_of(rng.standard_normal(d), f"c{i}") for i in range(4)]
        protos.insert(1, empty_proto(d, "e0"))
        protos.append(empty_proto(d, "e1"))
        priors = dense_priors(grid, protos, sigma=1.0)
        assert [p.category for p in priors] == [p.category for p in protos]
        for proto, prior in zip(protos, priors):
            expected = (np.zeros((h, w), np.float32) if proto.is_empty
                        else heatmap_oracle(grid, proto, 1.0))
            assert prior.heatmap.dtype == np.float32
            assert prior.heatmap.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", ["default", "one_row", "whole_grid"])
    @pytest.mark.parametrize("shape", [(8, 10, 8), (7, 5, 16), (300, 7, 32), (30, 70, 32)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_summation_order_kept_on_cancelling_cells(self, shape, block, monkeypatch):
        """Half the cells are (x, -x) against a prototype (a, a): their exact
        product is 0, so the float64 rounding of the sum survives the float32
        cast and the rescale (sigma 0). A product that sums in another order,
        as a flattened (H*W, D) GEMV or a GEMM over all prototypes do, changes
        their bits."""
        h, w, d = shape
        self._set_block(monkeypatch, block, h, w)
        rng = rng_for(d)
        a = rng.standard_normal(d // 2).astype(np.float32)
        x = rng.standard_normal((h, w, d // 2)).astype(np.float32)
        cancel = np.concatenate([x, -x], axis=2)
        agree = np.concatenate([np.abs(x) * np.sign(a)] * 2, axis=2)
        grid = np.where(rng.random((h, w, 1)) < 0.5, cancel, agree)
        protos = [Prototype(category="c", vector=np.concatenate([a, a]), neighbors=[(0, 1.0, 1.0)]),
                  proto_of(rng.standard_normal(d), "r")]
        for proto, prior in zip(protos, dense_priors(grid, protos, sigma=0.0)):
            assert prior.heatmap.tobytes() == heatmap_oracle(grid, proto, 0.0).tobytes()


class TestSigmaChecked:
    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("empty_only", [True, False])
    def test_dense_priors_reject_bad_sigma(self, sigma, empty_only):
        grid = rng_for(5).standard_normal((4, 4, 3)).astype(np.float32)
        protos = [empty_proto(3)] if empty_only else [empty_proto(3), proto_of([1.0, 2.0, 3.0])]
        with pytest.raises(InvalidInputError, match="sigma"):
            dense_priors(grid, protos, sigma)
        with pytest.raises(InvalidInputError, match="sigma"):
            dense_prior(grid, protos[-1], sigma)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_gaussian_smooth_rejects_bad_sigma(self, sigma):
        with pytest.raises(InvalidInputError, match="sigma"):
            gaussian_smooth(np.ones((3, 3), np.float32), sigma)


def peaks_oracle(hm, threshold):
    """Exhaustive neighborhood check, independent of the vectorized version."""
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


class TestFindPeaks:
    def test_single_bump(self):
        hm = np.zeros((5, 5), dtype=np.float32)
        hm[2, 3] = 1.0
        peaks = find_peaks(hm, 0.5)
        assert peaks == [(2, 3, 1.0)]

    def test_plateau_cells_all_peaks(self):
        hm = np.zeros((4, 4), dtype=np.float32)
        hm[1:3, 1:3] = 1.0
        peaks = find_peaks(hm, 0.5)
        assert [(r, c) for r, c, _ in peaks] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_threshold_excludes_low_peaks(self):
        hm = np.zeros((5, 5), dtype=np.float32)
        hm[1, 1] = 0.4
        hm[3, 3] = 0.8
        assert [(r, c) for r, c, _ in find_peaks(hm, 0.5)] == [(3, 3)]

    def test_border_cells_can_be_peaks(self):
        hm = np.zeros((3, 3), dtype=np.float32)
        hm[0, 0] = 1.0
        assert find_peaks(hm, 0.5)[0][:2] == (0, 0)

    def test_sort_order_ties_row_then_col(self):
        hm = np.zeros((5, 5), dtype=np.float32)
        hm[4, 0] = hm[0, 4] = hm[2, 2] = 0.9
        assert [(r, c) for r, c, _ in find_peaks(hm, 0.5)] == [(0, 4), (2, 2), (4, 0)]

    @pytest.mark.parametrize("seed, shape, threshold, levels", [
        *(pytest.param(seed, (12, 14), 0.3, None, id=str(seed)) for seed in range(20)),
        *(pytest.param(seed, shape, threshold, levels,
                       id=f"{seed}-{shape[0]}x{shape[1]}-t{threshold}-q{levels}")
          for seed in range(3)
          for shape in [(12, 14), (1, 1), (1, 9), (9, 1)]
          for threshold in [0.0, 1.0]
          for levels in [None, 3]),
    ])
    def test_matches_exhaustive_oracle(self, seed, shape, threshold, levels):
        """levels=3 quantizes the map to {0, 0.5, 1}, which makes plateaus."""
        hm = rng_for(seed).uniform(0, 1, shape).astype(np.float32)
        if levels is not None:
            hm = (np.floor(hm * levels) / (levels - 1)).astype(np.float32)
        assert find_peaks(hm, threshold) == peaks_oracle(hm.astype(np.float64), threshold)


def greedy_oracle(peaks, h, w, radius, max_anchors):
    accepted = []
    for r, c, resp in peaks:
        if len(accepted) >= max_anchors:
            break
        x, y = (c + 0.5) / w, (r + 0.5) / h
        if all(math.hypot(x - ax, y - ay) >= radius for ax, ay, _ in accepted):
            accepted.append((x, y, resp))
    return accepted


class TestExtractAnchors:
    def _prior(self, hm):
        return DensePrior(category="cat", heatmap=np.asarray(hm, dtype=np.float32), sigma=1.0)

    def test_cell_center_coordinates(self):
        hm = np.zeros((4, 8), dtype=np.float32)
        hm[1, 5] = 1.0
        anchors = extract_anchors(self._prior(hm))
        (pt, resp), = anchors.anchors
        assert (pt.x, pt.y) == ((5 + 0.5) / 8, (1 + 0.5) / 4)
        assert resp == 1.0

    def test_suppression_removes_close_second_peak(self):
        hm = np.zeros((10, 10), dtype=np.float32)
        hm[4, 4] = 1.0
        hm[4, 6] = 0.9  # 2 cells away < default 3-cell radius
        hm[4, 9] = 0.8  # 5 cells away, kept
        anchors = extract_anchors(self._prior(hm))
        assert len(anchors) == 2
        assert [a[1] for a in anchors.anchors] == [1.0, pytest.approx(0.8)]

    def test_max_anchors_cap(self):
        hm = np.zeros((20, 20), dtype=np.float32)
        for i in range(15):
            hm[(i * 5) % 20, (i * 7) % 20] = 0.9
        anchors = extract_anchors(self._prior(hm), max_anchors=4)
        assert len(anchors) == 4

    def test_responses_descending(self):
        hm = rng_for(0).uniform(0, 1, (15, 15)).astype(np.float32)
        anchors = extract_anchors(self._prior(hm), threshold=0.2)
        resps = [r for _, r in anchors.anchors]
        assert resps == sorted(resps, reverse=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_greedy_oracle(self, seed):
        hm = rng_for(seed).uniform(0, 1, (16, 16)).astype(np.float32)
        prior = self._prior(hm)
        radius = radius_cells_to_normalized(3.0, 16, 16)
        anchors = extract_anchors(prior, threshold=0.4, radius=radius, max_anchors=6)
        oracle = greedy_oracle(peaks_oracle(hm.astype(np.float64), 0.4), 16, 16, radius, 6)
        assert len(anchors) == len(oracle)
        for (pt, resp), (x, y, oresp) in zip(anchors.anchors, oracle):
            assert (pt.x, pt.y) == (x, y)
            assert resp == pytest.approx(oresp, abs=1e-7)

    def test_empty_heatmap_no_anchors(self):
        anchors = extract_anchors(self._prior(np.zeros((6, 6))))
        assert len(anchors) == 0 and anchors.points() == []

    def test_threshold_validation(self):
        with pytest.raises(InvalidInputError):
            extract_anchors(self._prior(np.zeros((4, 4))), threshold=1.5)

    def test_radius_validation(self):
        with pytest.raises(InvalidInputError):
            extract_anchors(self._prior(np.zeros((4, 4))), radius=0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -0.25])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(InvalidInputError, match="radius must be finite and > 0"):
            extract_anchors(self._prior(np.eye(4)), radius=radius)

    @pytest.mark.parametrize("max_anchors", [0, -3])
    def test_max_anchors_must_be_positive(self, max_anchors):
        """The map has peaks, so a cap below 1 would silently keep none."""
        assert len(extract_anchors(self._prior(np.eye(4)))) > 0
        with pytest.raises(InvalidInputError, match="max_anchors must be >= 1"):
            extract_anchors(self._prior(np.eye(4)), max_anchors=max_anchors)

    def test_radius_conversion(self):
        assert radius_cells_to_normalized(3.0, 10, 20) == 3.0 / 20
        assert radius_cells_to_normalized(3.0, 40, 20) == 3.0 / 40


class TestAnchorsFromGt:
    def test_box_centers_unit_response(self):
        boxes = [Box2D(0.0, 0.0, 0.4, 0.2), Box2D(0.5, 0.5, 1.0, 1.0)]
        anchors = anchors_from_gt(boxes, "dog")
        assert anchors.category == "dog"
        assert [(p.x, p.y) for p in anchors.points()] == [(0.2, 0.1), (0.75, 0.75)]
        assert all(r == 1.0 for _, r in anchors.anchors)

    def test_no_suppression_between_overlapping_boxes(self):
        b = Box2D(0.4, 0.4, 0.6, 0.6)
        anchors = anchors_from_gt([b, b, b], "cat")
        assert len(anchors) == 3

    def test_empty(self):
        assert len(anchors_from_gt([], "cat")) == 0


class TestPlantedRecovery:
    """A prototype-aligned block planted in an otherwise orthogonal grid must
    be recovered as the top anchor at the planted location."""

    @pytest.mark.parametrize("seed", range(10))
    def test_recovers_planted_center(self, seed):
        rng = rng_for(seed)
        d = 16
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0].astype(np.float32)
        u, others = basis[0], basis[1:]
        h = w = 16
        coeff = rng.standard_normal((h, w, d - 1)).astype(np.float32)
        grid = np.einsum("hwk,kd->hwd", coeff, others)  # orthogonal to u everywhere
        r0, c0 = int(rng.integers(3, 13)), int(rng.integers(3, 13))
        grid[r0 - 1 : r0 + 2, c0 - 1 : c0 + 2] = u * 3.0
        prior = dense_prior(grid, proto_of(u), sigma=1.0)
        anchors = extract_anchors(prior, threshold=0.5)
        assert len(anchors) >= 1
        pt, resp = anchors.anchors[0]
        assert abs(pt.x - (c0 + 0.5) / w) <= 1.5 / w
        assert abs(pt.y - (r0 + 0.5) / h) <= 1.5 / h
