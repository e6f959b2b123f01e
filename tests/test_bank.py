import io
import math
import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from vismem.bank import (
    NAME_FIELD_BYTES,
    BankBuildConfig,
    EmbeddingProvider,
    GroundingRecord,
    HashingProvider,
    KeyWeights,
    MemoryBank,
    MemoryEntry,
    blur_filter,
    build_bank,
    build_key,
    entry_stride,
    filter_small_boxes,
    laplacian_variance,
    load_bank,
    load_embedding_table,
    load_grounding_records,
    merge_duplicates,
    read_pgm,
    save_bank,
    save_embedding_table,
    write_pgm,
    _ascii_names,
    _decode_names,
    _encode_names,
    _record_dtype,
)
from vismem.artifacts import load_feature_grid, save_feature_grid
from vismem.errors import FormatError, InvalidInputError, MissingEmbeddingError
from vismem.grids import Box2D, l2_normalize
from vismem.index import IvfPqParams, ivfpq_add, load_index, save_index, train_ivfpq
from vismem.refine import RefinementParams, load_params, save_params
from vismem import serial
from vismem.serial import Reader

from oracles import (mask_mean_pool, oracle_key, record_by_record_bank, reference_bank_bytes,
                     resealed, v2_parts)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def make_provider(seed=0, d_key=32, d_val=8, n_images=4, phrases=("cat", "dog"), scenes=("indoor",)):
    rng = rng_for(seed)
    text = {p: rng.standard_normal(d_key).astype(np.float32) for p in phrases}
    text.update({s: rng.standard_normal(d_key).astype(np.float32) for s in scenes})
    images = {f"img{i}": rng.standard_normal(d_key).astype(np.float32) for i in range(n_images)}
    feats = {f"img{i}": rng.standard_normal((6, 6, d_val)).astype(np.float32) for i in range(n_images)}
    return EmbeddingProvider(text, images, feats)


class TestBuildKey:
    def test_phrase_only_reduction(self):
        p = np.array([3.0, 4.0], dtype=np.float32)
        z = np.zeros(2, dtype=np.float32)
        out = build_key(p, z, z, KeyWeights(1.0, 0.0, 0.0))
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-6)

    def test_orthonormal_closed_form(self):
        e = np.eye(3, dtype=np.float32)
        out = build_key(e[0], e[1], e[2], KeyWeights())
        norm = math.sqrt(1.0 + 0.3 ** 2 + 0.01 ** 2)
        np.testing.assert_allclose(out, np.array([1.0, 0.3, 0.01]) / norm, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_formula(self, seed):
        rng = rng_for(seed)
        p, s, g = (rng.standard_normal(64).astype(np.float32) for _ in range(3))
        w = KeyWeights(0.7, 0.2, 0.05)
        oracle = l2_normalize(0.7 * p.astype(np.float64) + 0.2 * s + 0.05 * g)
        np.testing.assert_allclose(build_key(p, s, g, w), oracle, atol=1e-6)

    def test_default_weights(self):
        w = KeyWeights()
        assert (w.w_p, w.w_s, w.w_g) == (1.0, 0.3, 0.01)

    def test_overflow_refused_without_a_warning(self):
        """A finite sum past the float32 range is refused, and the cast that
        finds it warns of nothing first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="non-finite"):
                build_key(np.full(4, 3.4e38, np.float32), np.full(4, 3e38, np.float32),
                          np.zeros(4, np.float32), KeyWeights())


class TestKeySummationOrder:
    """A key adds w_p * phrase, then w_s * scene, then w_g * image to float64
    zeros. In each entry the phrase and scene terms cancel to a residual that
    the image term nearly cancels, so adding the terms in any other order
    loses bits that survive the float32 cast and the normalization."""

    def _cancelling(self, d=16, seed=0):
        rng = rng_for(seed)
        w = KeyWeights()
        scene = (1e6 * rng.standard_normal(d)).astype(np.float32)
        phrase = (-w.w_s * scene.astype(np.float64)).astype(np.float32)
        residual = phrase.astype(np.float64) + w.w_s * scene.astype(np.float64)
        image = (-residual / w.w_g).astype(np.float32)
        return phrase, scene, image

    def _summed(self, vectors, order):
        w = KeyWeights()
        terms = [float(a) * v.astype(np.float64) for a, v in zip((w.w_p, w.w_s, w.w_g), vectors)]
        acc = np.zeros(len(vectors[0]))
        for i in order:
            acc += terms[i]
        return l2_normalize(acc.astype(np.float32))

    def test_the_inputs_tell_the_orders_apart(self):
        vectors = self._cancelling()
        want = self._summed(vectors, (0, 1, 2))
        np.testing.assert_array_equal(oracle_key(*vectors, KeyWeights()), want)
        for order in [(2, 1, 0), (0, 2, 1)]:  # reversed, and the image before the scene
            assert self._summed(vectors, order).tobytes() != want.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_build_key(self, seed):
        vectors = self._cancelling(seed=seed)
        assert build_key(*vectors, KeyWeights()).tobytes() == \
            oracle_key(*vectors, KeyWeights()).tobytes()

    def test_build_bank(self):
        phrase, scene, image = self._cancelling()
        provider = EmbeddingProvider({"cat": phrase, "indoor": scene}, {"img": image},
                                     {"img": np.ones((4, 4, 3), np.float32)})
        records = [GroundingRecord("img", Box2D(0.1, 0.1, 0.6, 0.6), "cat", "indoor")]
        bank = build_bank(records, provider, BankBuildConfig(drop_fraction=0.0))
        assert bank.keys[0].tobytes() == oracle_key(phrase, scene, image, KeyWeights()).tobytes()


class TestBuildValue:
    """A bank value is the unit-normalized mean of the grid cells in its box."""

    def test_constant_grid_gives_unit_direction(self):
        u = np.array([1.0, 2.0, 2.0], dtype=np.float32)
        prov = HashingProvider(d_key=4, d_val=3,
                               feature_table={"a": np.broadcast_to(u, (4, 4, 3)).copy()})
        rec = GroundingRecord("a", Box2D(0.0, 0.0, 1.0, 1.0), "x")
        bank = build_bank([rec], prov, BankBuildConfig(drop_fraction=0.0))
        np.testing.assert_allclose(bank.values[0], u / 3.0, atol=1e-6)

    def test_missing_grid_raises(self):
        rec = GroundingRecord("nope", Box2D(0, 0, 1, 1), "x")
        with pytest.raises(MissingEmbeddingError):
            build_bank([rec], HashingProvider(d_key=4, d_val=3), BankBuildConfig(drop_fraction=0.0))


class TestFilterSmallBoxes:
    def test_threshold_is_strict_below(self):
        big = GroundingRecord("a", Box2D(0.0, 0.0, 0.5, 0.5), "x")
        tiny = GroundingRecord("a", Box2D(0.0, 0.0, 0.005, 0.005), "x")
        out = filter_small_boxes([big, tiny], 1e-4)
        assert out == [big]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = rng_for(seed)
        recs = []
        for _ in range(50):
            x0, y0 = rng.uniform(0, 0.8, 2)
            w, h = rng.uniform(0.001, 0.2, 2)
            recs.append(GroundingRecord("a", Box2D(x0, y0, x0 + w, y0 + h), "x"))
        out = filter_small_boxes(recs, 0.01)
        oracle = [r for r in recs if r.box.area >= 0.01]
        assert out == oracle


class TestLaplacianVariance:
    def test_constant_image_is_zero(self):
        assert laplacian_variance(np.full((8, 8), 100.0)) == pytest.approx(0.0, abs=1e-9)

    def test_checkerboard_sharper_than_ramp(self):
        r, c = np.indices((8, 8))
        checker = ((r + c) % 2).astype(np.float64) * 255
        ramp = np.linspace(0, 255, 64).reshape(8, 8)
        assert laplacian_variance(checker) > laplacian_variance(ramp)

    def test_single_bright_pixel_enumeration_oracle(self):
        img = np.zeros((5, 5), dtype=np.float64)
        img[2, 2] = 1.0
        kernel = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64)
        responses = []
        for r in range(1, 4):
            for c in range(1, 4):
                responses.append((img[r - 1 : r + 2, c - 1 : c + 2] * kernel).sum())
        oracle = float(np.var(responses))
        assert laplacian_variance(img) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_image_enumeration_oracle(self, seed):
        img = rng_for(seed).uniform(0, 255, (7, 9))
        kernel = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64)
        responses = [
            (img[r - 1 : r + 2, c - 1 : c + 2] * kernel).sum()
            for r in range(1, 6)
            for c in range(1, 8)
        ]
        assert laplacian_variance(img) == pytest.approx(float(np.var(responses)), rel=1e-6)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            laplacian_variance(np.ones((2, 5)))


class TestBlurFilter:
    def _recs(self, n):
        return [GroundingRecord("a", Box2D(0, 0, 0.5, 0.5), f"p{i}") for i in range(n)]

    def test_zero_fraction_identity(self):
        recs = self._recs(5)
        assert blur_filter(recs, [1, 2, 3, 4, 5], 0.0) == recs

    def test_drops_floor_fraction(self):
        recs = self._recs(20)
        scores = list(range(20))
        out = blur_filter(recs, scores, 0.10)
        assert len(out) == 18
        assert out == recs[2:]

    def test_floor_rounding(self):
        recs = self._recs(19)
        out = blur_filter(recs, list(range(19)), 0.10)
        assert len(out) == 18  # floor(1.9) == 1 dropped

    def test_ties_drop_lower_index_first(self):
        recs = self._recs(10)
        scores = [0.0] * 10
        out = blur_filter(recs, scores, 0.2)
        assert out == recs[2:]

    @pytest.mark.parametrize("drop", [0.0, 0.3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_refused(self, drop, bad):
        recs = self._recs(10)
        scores = [float(i) for i in range(10)]
        scores[4] = scores[7] = bad
        with pytest.raises(InvalidInputError,
                           match=r"record \(image 'a', phrase 'p4'\) has a non-finite blur"):
            blur_filter(recs, scores, drop)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sorted_oracle(self, seed):
        rng = rng_for(seed)
        recs = self._recs(37)
        scores = rng.uniform(0, 1, 37).tolist()
        out = blur_filter(recs, scores, 0.25)
        n_drop = math.floor(0.25 * 37)
        dropped = {i for _, i in sorted((s, i) for i, s in enumerate(scores))[:n_drop]}
        oracle = [r for i, r in enumerate(recs) if i not in dropped]
        assert out == oracle


class TestMergeDuplicates:
    def test_identical_boxes_collapse(self):
        b = Box2D(0.1, 0.1, 0.5, 0.5)
        recs = [GroundingRecord("a", b, "cat"), GroundingRecord("a", b, "cat")]
        assert merge_duplicates(recs, 0.9) == recs[:1]

    def test_different_phrase_or_image_not_merged(self):
        b = Box2D(0.1, 0.1, 0.5, 0.5)
        recs = [
            GroundingRecord("a", b, "cat"),
            GroundingRecord("a", b, "dog"),
            GroundingRecord("b", b, "cat"),
        ]
        assert merge_duplicates(recs, 0.9) == recs

    def test_disjoint_boxes_kept(self):
        recs = [
            GroundingRecord("a", Box2D(0.0, 0.0, 0.4, 0.4), "cat"),
            GroundingRecord("a", Box2D(0.6, 0.6, 1.0, 1.0), "cat"),
        ]
        assert merge_duplicates(recs, 0.9) == recs

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_greedy_oracle(self, seed):
        rng = rng_for(seed)
        recs = []
        for _ in range(60):
            x0, y0 = rng.uniform(0, 0.5, 2)
            recs.append(GroundingRecord(
                "a", Box2D(x0, y0, x0 + rng.uniform(0.2, 0.4), y0 + rng.uniform(0.2, 0.4)),
                rng.choice(["cat", "dog"])))
        out = merge_duplicates(recs, 0.5)
        kept = []
        for rec in recs:
            if any(k.image_id == rec.image_id and k.phrase == rec.phrase
                   and k.box.iou(rec.box) >= 0.5 for k in kept):
                continue
            kept.append(rec)
        assert out == kept


class TestBuildBank:
    def _records(self, n=10, provider_seed=0):
        rng = rng_for(100 + provider_seed)
        recs = []
        for i in range(n):
            x0, y0 = rng.uniform(0, 0.4, 2)
            recs.append(GroundingRecord(
                image_id=f"img{i % 4}",
                box=Box2D(x0, y0, x0 + rng.uniform(0.2, 0.5), y0 + rng.uniform(0.2, 0.5)),
                phrase="cat" if i % 2 else "dog",
                scene="indoor",
                blur_score=float(rng.uniform(0.1, 10.0)),
            ))
        return recs

    def test_empty_input(self):
        bank = build_bank([], make_provider())
        assert len(bank) == 0
        assert bank.manifest["input_count"] == 0 and bank.manifest["output_count"] == 0

    def test_single_record_matches_composition(self):
        prov = make_provider()
        rec = self._records(1)[0]
        bank = build_bank([rec], prov, BankBuildConfig(drop_fraction=0.0))
        assert len(bank) == 1
        entry = bank.entries[0]
        key = oracle_key(
            prov.text_embedding(rec.phrase), prov.text_embedding(rec.scene),
            prov.image_embedding(rec.image_id), KeyWeights())
        np.testing.assert_array_equal(entry.key, key)
        np.testing.assert_array_equal(
            entry.value, l2_normalize(mask_mean_pool(prov.feature_grid(rec.image_id), rec.box)))
        assert entry.category == rec.phrase

    def test_manifest_balances(self):
        prov = make_provider()
        recs = self._records(100)
        # plant a tiny box and an exact duplicate
        recs[3] = GroundingRecord("img0", Box2D(0.0, 0.0, 0.001, 0.001), "cat", "indoor", blur_score=1.0)
        recs[7] = GroundingRecord(recs[6].image_id, recs[6].box, recs[6].phrase, "indoor", blur_score=1.0)
        bank = build_bank(recs, prov, BankBuildConfig(exclude_images=frozenset({"img2"})))
        m = bank.manifest
        assert m["input_count"] == 100
        assert m["removed_excluded"] == sum(1 for r in recs if r.image_id == "img2")
        assert m["removed_small"] >= 1 and m["removed_merge"] >= 1
        total_removed = (m["removed_excluded"] + m["removed_small"]
                         + m["removed_merge"] + m["removed_blur"])
        assert m["input_count"] - total_removed == m["output_count"] == len(bank)

    def test_blur_stage_drops_ten_percent(self):
        prov = make_provider()
        recs = self._records(50)
        bank = build_bank(recs, prov)
        assert bank.manifest["removed_blur"] == math.floor(0.10 * 50)

    @pytest.mark.parametrize("drop", [0.0, 0.3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_blur_score_refused(self, drop, bad):
        """NaN would be stored as the bank's "no score" and escape the filter."""
        recs = self._records(10)
        for i in (2, 5, 8):
            recs[i].blur_score = bad
        with pytest.raises(InvalidInputError, match=r"record \(image 'img2', phrase 'dog'\) "
                                                    r"has a non-finite blur score"):
            build_bank(recs, make_provider(), BankBuildConfig(drop_fraction=drop))

    def test_keys_and_values_unit_norm(self):
        bank = build_bank(self._records(20), make_provider())
        np.testing.assert_allclose(
            np.linalg.norm(bank.keys_matrix(), axis=1), 1.0, atol=1e-5)
        np.testing.assert_allclose(
            np.linalg.norm(bank.values, axis=1), 1.0, atol=1e-5)

    def test_deterministic_and_byte_identical(self, tmp_path):
        prov = make_provider()
        recs = self._records(40)
        b1 = build_bank(recs, prov)
        b2 = build_bank(list(recs), make_provider())
        assert b1 == b2
        p1, p2 = tmp_path / "a.pbnk", tmp_path / "b.pbnk"
        save_bank(b1, p1)
        save_bank(b2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_each_embedding_and_grid_looked_up_once(self):
        """The bank equals the record-by-record composition, while each
        distinct text, image and feature grid is asked for only once."""
        base = make_provider()
        calls = []

        class Counting(EmbeddingProvider):
            def text_embedding(self, text):
                calls.append(("text", text))
                return super().text_embedding(text)

            def image_embedding(self, image_id):
                calls.append(("image", image_id))
                return super().image_embedding(image_id)

            def feature_grid(self, image_id):
                calls.append(("grid", image_id))
                return super().feature_grid(image_id)

        prov = Counting(base.text_table, base.image_table, base.feature_table)
        recs = self._records(40)
        bank = build_bank(recs, prov, BankBuildConfig(drop_fraction=0.0, iou_threshold=1.0))
        assert len(bank) == len(recs)
        # Two phrases and one scene, four images, four grids.
        assert len(calls) == len(set(calls)) == 3 + 4 + 4
        for key, value, rec in zip(bank.keys, bank.values, recs):
            np.testing.assert_array_equal(key, oracle_key(
                base.text_embedding(rec.phrase), base.text_embedding(rec.scene),
                base.image_embedding(rec.image_id), KeyWeights()))
            np.testing.assert_array_equal(
                value, l2_normalize(mask_mean_pool(base.feature_grid(rec.image_id), rec.box)))

    def test_missing_embedding_names_offender(self):
        prov = make_provider()
        rec = GroundingRecord("img0", Box2D(0, 0, 0.5, 0.5), "unseen-phrase", "indoor", blur_score=1.0)
        with pytest.raises(MissingEmbeddingError, match="unseen-phrase"):
            build_bank([rec], prov, BankBuildConfig(drop_fraction=0.0))

    def test_image_id_mask_excludes_one_image(self):
        bank = build_bank(self._records(20), make_provider(), BankBuildConfig(drop_fraction=0.0))
        held = bank.image_ids == "img1"
        kept = np.flatnonzero(~held)
        assert all(bank.entries[i].image_id != "img1" for i in kept)
        held_out = set(np.flatnonzero(held).tolist())
        assert held_out
        assert set(kept.tolist()) | held_out == set(range(len(bank)))


def mixed_provider(d_key=16, d_val=6):
    """Texts, images and grids for build_bank's oracle: grids of five shapes,
    among them a single row and a single column, and a signed zero in every
    key input."""
    rng = rng_for(7)
    shapes = {"wide": (1, 9), "tall": (7, 1), "square": (6, 6), "odd": (5, 8), "big": (16, 12)}
    text = {t: rng.standard_normal(d_key).astype(np.float32) for t in ("cat", "dog", "fox", "indoor")}
    images = {i: rng.standard_normal(d_key).astype(np.float32) for i in shapes}
    for vector in (*text.values(), *images.values()):
        vector[0] = -0.0  # a key's entry 0 is +0.0 only if its sum starts from zeros
    grids = {i: rng.standard_normal((*shape, d_val)).astype(np.float32)
             for i, shape in shapes.items()}
    return EmbeddingProvider(text, images, grids, d_key=d_key)


def mixed_records(n=120, seed=3):
    """Records with repeated phrases and images, an empty scene on some, and
    boxes that cover no cell center of their grid."""
    rng = rng_for(seed)
    images, phrases = ["wide", "tall", "square", "odd", "big"], ["cat", "dog", "fox"]
    records = []
    for i in range(n):
        image = images[int(rng.integers(len(images)))]
        if i % 5 == 0:  # a small box between centers of every grid shape above
            x0, y0 = 0.5 + 0.001 * rng.random(), 0.52 + 0.001 * rng.random()
            box = Box2D(x0, y0, x0 + 0.011, y0 + 0.011)
        else:
            x0, y0 = rng.uniform(0.0, 0.6, 2)
            box = Box2D(x0, y0, x0 + rng.uniform(0.05, 0.4), y0 + rng.uniform(0.05, 0.4))
        records.append(GroundingRecord(image, box, phrases[int(rng.integers(3))],
                                       "" if i % 3 == 0 else "indoor",
                                       blur_score=float(rng.uniform(0.1, 10.0))))
    return records


def build_outcome(build):
    """The type and message of the error a build raised, which it must."""
    with pytest.raises((InvalidInputError, MissingEmbeddingError)) as exc:
        with np.errstate(over="ignore"):  # the oracle casts an overflowing key
            build()
    return type(exc.value), str(exc.value)


class TestBankBuildConfig:
    """The filter fields are checked, by their stages' rules, when the
    config is made: a NaN drop_fraction used to skip the blur filter in
    silence and write nan into the manifest, and a string one raised a bare
    TypeError from build_bank."""

    @pytest.mark.parametrize("field, value, message", [
        ("drop_fraction", math.nan, "drop_fraction must be finite and in [0, 1), got nan"),
        ("drop_fraction", "0.1", "drop_fraction must be a number, got '0.1'"),
        ("drop_fraction", 1.0, "drop_fraction must be finite and in [0, 1), got 1.0"),
        ("min_area", -1e-4, "min_area must be finite and >= 0, got -0.0001"),
        ("min_area", None, "min_area must be a number, got None"),
        ("iou_threshold", 0.0, "iou_threshold must be finite and in (0, 1], got 0.0"),
        ("iou_threshold", True, "iou_threshold must be a number, got True"),
    ])
    def test_bad_filter_field_refused_when_made(self, field, value, message):
        with pytest.raises(InvalidInputError) as exc:
            BankBuildConfig(**{field: value})
        assert str(exc.value) == message

    def test_fields_stored_as_python_floats(self, tmp_path):
        config = BankBuildConfig(min_area=0, iou_threshold=np.float32(1.0),
                                 drop_fraction=np.float64(0.25))
        assert [(type(v), v) for v in (config.min_area, config.iou_threshold,
                                       config.drop_fraction)] == [(float, 0.0), (float, 1.0),
                                                                  (float, 0.25)]
        bank = build_bank(TestBuildBank()._records(20), make_provider(), config)
        assert bank.manifest["drop_fraction"] == 0.25 and bank.manifest["removed_blur"] == 5
        save_bank(bank, tmp_path / "b.pbnk")
        assert load_bank(tmp_path / "b.pbnk").manifest == bank.manifest


class TestBuildBankOracle:
    """The columnar build saves the same bytes as the record-by-record oracle
    and refuses the same first record with the same error."""

    @pytest.mark.parametrize("config", [BankBuildConfig(), BankBuildConfig(
        drop_fraction=0.0, iou_threshold=1.0, exclude_images=frozenset({"odd"}),
        weights=KeyWeights(0.7, 0.2, 0.05))])
    def test_saved_bytes_equal_the_oracle(self, tmp_path, config):
        records, provider = mixed_records(), mixed_provider()
        bank = build_bank(records, provider, config)
        oracle = record_by_record_bank(records, provider, config)
        assert len(bank) > 60 and set(bank.categories) == {"cat", "dog", "fox"}
        save_bank(bank, tmp_path / "got.pbnk")
        save_bank(oracle, tmp_path / "want.pbnk")
        assert (tmp_path / "got.pbnk").read_bytes() == (tmp_path / "want.pbnk").read_bytes()

    def test_the_mixed_set_has_fallback_boxes(self):
        provider = mixed_provider()
        fallbacks = 0
        for rec in mixed_records():
            h, w, _ = provider.feature_grid(rec.image_id).shape
            cx = (np.arange(w) + 0.5) / w
            cy = (np.arange(h) + 0.5) / h
            fallbacks += not (np.any((cx >= rec.box.x0) & (cx <= rec.box.x1))
                              and np.any((cy >= rec.box.y0) & (cy <= rec.box.y1)))
        assert fallbacks >= 10

    class Faulty(EmbeddingProvider):
        """A provider that hands out a NaN, an overflowing or a short vector
        for the names it is told to, without the constructor's checks."""

        def __init__(self, base, nan=(), huge=(), short=()):
            super().__init__(base.text_table, base.image_table, base.feature_table,
                             d_key=base.d_key)
            self.nan, self.huge, self.short = nan, huge, short

        def _fault(self, name, vector):
            if name in self.nan:
                vector = vector.copy()
                vector[1] = np.nan
            elif name in self.huge:
                vector = np.full_like(vector, 3e38)
            elif name in self.short:
                vector = vector[:-1]
            return vector

        def text_embedding(self, text):
            return self._fault(text, super().text_embedding(text))

        def image_embedding(self, image_id):
            return self._fault(image_id, super().image_embedding(image_id))

    @pytest.mark.parametrize("faults, missing_grid, expected", [
        # a NaN phrase embedding in record 2, a missing grid in record 5
        (dict(nan=("fox",)), "tall", "non-finite"),
        # the reverse order: the missing grid comes first
        (dict(nan=("fox",)), "wide", "no feature grid"),
        # a scene one entry short of the phrase and image
        (dict(short=("indoor",)), None, "share one dimension"),
        # an image vector one entry short, before the missing grid
        (dict(short=("square",)), "tall", "share one dimension"),
        # a key whose weighted sum overflows float32 (record 4), before the missing grid
        (dict(huge=("dog", "indoor")), "tall", "non-finite"),
        # the overflowing key and the missing grid in one record: the key first
        (dict(huge=("dog", "indoor")), "big", "non-finite"),
        # a NaN image embedding and a missing grid in one record
        (dict(nan=("odd",)), "odd", "non-finite"),
    ])
    def test_first_failing_record_raises_the_oracle_error(self, faults, missing_grid, expected):
        base = mixed_provider()
        if missing_grid is not None:
            del base.feature_table[missing_grid]
        provider = self.Faulty(base, **faults)
        records = [GroundingRecord(image, Box2D(0.1, 0.1, 0.6, 0.6), phrase, scene, blur_score=1.0)
                   for image, phrase, scene in [
                       ("wide", "cat", "indoor"), ("square", "cat", ""), ("odd", "fox", "indoor"),
                       ("wide", "cat", ""), ("big", "dog", "indoor"), ("tall", "dog", "indoor"),
                       ("big", "fox", "indoor"), ("square", "dog", "indoor")]]
        config = BankBuildConfig(drop_fraction=0.0, iou_threshold=1.0)
        got = build_outcome(lambda: build_bank(records, provider, config))
        assert got == build_outcome(lambda: record_by_record_bank(records, provider, config))
        assert expected in got[1]


class TestBankPersistence:
    def _bank(self, n=25):
        rng = rng_for(100)
        recs = []
        for i in range(n):
            # float32-representable coordinates so disk round trips are lossless
            x0, y0 = (float(np.float32(v)) for v in rng.uniform(0, 0.4, 2))
            recs.append(GroundingRecord(
                f"img{i % 4}", Box2D(x0, y0, float(np.float32(x0 + 0.3)), float(np.float32(y0 + 0.3))),
                "cat" if i % 2 else "dog", "indoor", blur_score=float(i)))
        return build_bank(recs, make_provider())

    def test_round_trip_equality(self, tmp_path):
        bank = self._bank()
        path = tmp_path / "bank.pbnk"
        save_bank(bank, path)
        assert load_bank(path) == bank

    def test_file_size_matches_stride(self, tmp_path):
        bank = self._bank()
        path = tmp_path / "bank.pbnk"
        save_bank(bank, path)
        size = path.stat().st_size
        per_entry = entry_stride(bank.d_key, bank.d_val)
        assert per_entry == 4 * (bank.d_key + bank.d_val) + 148
        assert per_entry * len(bank) < size
        # one extra entry (manifest JSON stays the same length: 25->26 inputs,
        # 23->24 outputs) grows the file by exactly one stride
        bigger = self._bank(n=26)
        path2 = tmp_path / "bank2.pbnk"
        save_bank(bigger, path2)
        assert len(bigger) == len(bank) + 1
        assert path2.stat().st_size - size == per_entry

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bank.pbnk"
        save_bank(self._bank(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            load_bank(path)
        assert exc.value.offset == 0

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bank.pbnk"
        save_bank(self._bank(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_bank(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "bank.pbnk"
        save_bank(self._bank(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(FormatError):
            load_bank(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "bank.pbnk"
        save_bank(self._bank(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_bank(path)

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "sub" / "bank.pbnk"
        with pytest.raises(OSError):
            save_bank(self._bank(), target)
        assert not target.exists()


def hand_bank(categories, image_ids, blur_scores, d_key=6, d_val=3):
    rng = rng_for(11)
    entries = [
        MemoryEntry(key=l2_normalize(rng.standard_normal(d_key).astype(np.float32)),
                    value=l2_normalize(rng.standard_normal(d_val).astype(np.float32)),
                    category=c, image_id=i, box=Box2D(0.1, 0.2, 0.3 + 0.1 * n, 0.9),
                    blur_score=b)
        for n, (c, i, b) in enumerate(zip(categories, image_ids, blur_scores))
    ]
    return MemoryBank(entries=entries, d_key=d_key, d_val=d_val, manifest={"n": len(entries)})


class TestBankEncoding:
    NAMES = ["caf\u00e9 \u732b", "x" * 64, "plain"]

    def test_save_matches_reference_encoding(self, tmp_path):
        bank = hand_bank(self.NAMES, ["\u00fcber", "img", "y" * 64], [None, 2.5, 0.0])
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        assert path.read_bytes() == reference_bank_bytes(bank)
        loaded = load_bank(path)
        assert loaded == bank
        assert loaded.categories.tolist() == self.NAMES
        assert [e.blur_score for e in loaded.entries] == [None, 2.5, 0.0]
        assert math.isnan(loaded.blur[0])

    def test_built_bank_matches_reference_encoding(self, tmp_path):
        bank = TestBankPersistence()._bank()
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        assert path.read_bytes() == reference_bank_bytes(bank)

    def test_empty_bank_matches_reference_encoding(self, tmp_path):
        bank = build_bank([], make_provider())
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        assert path.read_bytes() == reference_bank_bytes(bank)
        assert load_bank(path) == bank

    def test_columns_are_read_only(self):
        bank = hand_bank(self.NAMES, ["a", "b", "c"], [1.0, 2.0, 3.0])
        assert bank.keys_matrix() is bank.keys
        for column in (bank.keys, bank.values, bank.categories, bank.image_ids,
                       bank.boxes, bank.blur):
            assert not column.flags.writeable

    def test_name_over_64_bytes_rejected(self, tmp_path):
        # 33 two-byte characters: 33 code points but 66 bytes
        bank = hand_bank(["\u00e9" * 33], ["img"], [None])
        with pytest.raises(FormatError, match="exceeds"):
            save_bank(bank, tmp_path / "b.pbnk")
        with pytest.raises(FormatError, match="exceeds"):
            save_bank(hand_bank(["cat"], ["i" * 65], [None]), tmp_path / "b.pbnk")
        assert not (tmp_path / "b.pbnk").exists()

    @staticmethod
    def patched_files(tmp_path, bank, v1_at, v2_at, data):
        """The v1 and v2 files of bank with data written at the offset that
        v1_at(layout, raw) or v2_at(parts) gives; the v2 file is resealed,
        so that the loader's own check of the field refuses it."""
        save_bank(bank, tmp_path / "v2.pbnk")
        v1 = bytearray(reference_bank_bytes(bank, 1))
        v2 = bytearray((tmp_path / "v2.pbnk").read_bytes())
        for raw, at in ((v1, v1_at(_record_dtype(bank.d_key, bank.d_val), v1)),
                        (v2, v2_at(v2_parts(bytes(v2))))):
            raw[at:at + len(data)] = data
        (tmp_path / "v1.pbnk").write_bytes(bytes(v1))
        (tmp_path / "v2.pbnk").write_bytes(resealed(bytes(v2)))
        return tmp_path / "v1.pbnk", tmp_path / "v2.pbnk"

    @pytest.mark.parametrize("corner, value", [(0, -5.0), (2, 0.05), (3, float("nan"))])
    def test_box_out_of_range_rejected(self, tmp_path, corner, value):
        bank = hand_bank(["cat", "dog"], ["img0", "img1"], [None, None])
        # the last entry's box corner
        paths = self.patched_files(
            tmp_path, bank,
            lambda layout, raw: len(raw) - layout.itemsize + layout.fields["box"][1] + 4 * corner,
            lambda parts: parts["box"][0] + 16 + 4 * corner, struct.pack("<f", value))
        for path in paths:
            with pytest.raises(FormatError, match="box outside"):
                load_bank(path)

    def test_invalid_utf8_name_rejected(self, tmp_path):
        bank = hand_bank(["cat", "dog"], ["img0", "img1"], [None, None])
        # the second entry's category, then the second byte of its image id
        for field, col, byte in (("category", 0, 0xFF), ("image_id", 1, 0xC3)):
            paths = self.patched_files(
                tmp_path, bank,
                lambda layout, raw: len(raw) - layout.itemsize + layout.fields[field][1] + col,
                lambda parts: parts[field][0] + 64 + col, bytes([byte]))
            for path in paths:
                with pytest.raises(FormatError, match="UTF-8"):
                    load_bank(path)

    @pytest.mark.parametrize("field, row, col", [("image_id", 1, 2), ("category", 2, 0),
                                                 ("category", 0, 5)])
    def test_invalid_utf8_reported_at_its_own_name(self, tmp_path, field, row, col):
        """The offset is the bad name's 64-byte field: in v1 its record's
        offset plus the field's, in v2 its section's start plus 64 per row."""
        bank = hand_bank(["cat", "dog", "cow"], ["img0", "img1", "img2"], [None, 1.0, None])
        layout = _record_dtype(bank.d_key, bank.d_val)
        records_at = len(reference_bank_bytes(bank, 1)) - len(bank) * layout.itemsize
        v1_field = records_at + row * layout.itemsize + layout.fields[field][1]
        v2_field = v2_parts(reference_bank_bytes(bank, 2))[field][0] + 64 * row
        v1, v2 = self.patched_files(tmp_path, bank, lambda layout, raw: v1_field + col,
                                    lambda parts: v2_field + col, b"\xff")
        what = "a category" if field == "category" else "an image id"
        for path, offset in ((v1, v1_field), (v2, v2_field)):
            with pytest.raises(FormatError, match=f"bad UTF-8 in {what}") as exc:
                load_bank(path)
            assert exc.value.offset == offset, path.name

    def test_v2_file_unsealed_after_a_patch_fails_its_checksum(self, tmp_path):
        bank = hand_bank(["cat", "dog"], ["img0", "img1"], [None, None])
        save_bank(bank, tmp_path / "b.pbnk")
        raw = (tmp_path / "b.pbnk").read_bytes()
        for name, (start, end) in v2_parts(raw).items():
            bad = bytearray(raw)
            bad[end - 1] ^= 0x01  # the last byte of the part: an ASCII name or a float
            (tmp_path / "b.pbnk").write_bytes(bytes(bad))
            with pytest.raises(FormatError, match="checksum") as exc:
                load_bank(tmp_path / "b.pbnk")
            assert exc.value.offset == end, name
            assert str(exc.value).startswith(f"bank {name} "), name


class TestBankMigration:
    """A v1 bank file still loads; save_bank writes it back as v2, which
    loads to the same columns, bit for bit."""

    def test_v1_file_loads_and_is_written_back_as_v2(self, tmp_path):
        bank = hand_bank(TestBankEncoding.NAMES, ["\u00fcber", "img", "y" * 64], [None, 2.5, 0.0])
        (tmp_path / "v1.pbnk").write_bytes(reference_bank_bytes(bank, 1))
        from_v1 = load_bank(tmp_path / "v1.pbnk")
        assert from_v1 == bank and math.isnan(from_v1.blur[0])
        save_bank(from_v1, tmp_path / "v2.pbnk")
        raw = (tmp_path / "v2.pbnk").read_bytes()
        assert struct.unpack_from("<I", raw, 4) == (2,)
        assert raw == reference_bank_bytes(bank, 2)
        from_v2 = load_bank(tmp_path / "v2.pbnk")
        assert from_v2 == from_v1
        for column in ("keys", "values", "categories", "image_ids", "boxes", "blur"):
            got, want = getattr(from_v2, column), getattr(from_v1, column)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), column

    def test_non_ascii_names_round_trip_through_v2(self, tmp_path):
        names = ["caf\u00e9 \u732b", "\u00fc" * 32, "a\x00b"]
        bank = hand_bank(names, names[::-1], [None, 1.0, None])
        save_bank(bank, tmp_path / "b.pbnk")
        loaded = load_bank(tmp_path / "b.pbnk")
        assert loaded == bank
        assert loaded.categories.tolist() == names and loaded.image_ids.tolist() == names[::-1]


class TestNameColumns:
    """All-ASCII name columns take a cast and others UTF-8 coding; both give
    the bytes and dtypes of np.char.encode and np.char.decode."""

    CASES = {
        "ascii categories, non-ASCII image ids": (["cat", "dog", "cat"],
                                                  ["\u00fcber", "\u732b-1", "img"]),
        "non-ASCII categories, ascii image ids": (["caf\u00e9", "dog", "\u732b"],
                                                  ["img-0", "img-1", "img-22"]),
        "embedded NUL, trailing space, 64 bytes": (["a\x00b", "cat ", "c" * 64],
                                                   ["\x00x", "img ", "i" * 64]),
        "every name empty": (["", "", ""], ["", "", ""]),
    }

    @staticmethod
    def decoded_dtype(names):
        return np.char.decode(np.array([n.encode("utf-8") for n in names], dtype="S64"),
                              "utf-8").dtype

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_trip_bytes_and_dtypes(self, tmp_path, case):
        categories, image_ids = self.CASES[case]
        bank = hand_bank(categories, image_ids, [None, 1.5, 0.0])
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        assert path.read_bytes() == reference_bank_bytes(bank)
        loaded = load_bank(path)
        assert loaded == bank
        assert loaded.categories.tolist() == categories
        assert loaded.image_ids.tolist() == image_ids
        assert loaded.categories.dtype == self.decoded_dtype(categories)
        assert loaded.image_ids.dtype == self.decoded_dtype(image_ids)
        save_bank(loaded, tmp_path / "again.pbnk")
        assert (tmp_path / "again.pbnk").read_bytes() == path.read_bytes()

    @staticmethod
    def names_up_to(width, rows, where):
        """rows ASCII names of lengths up to width, the one at row where
        (if any) exactly width long."""
        names = [chr(97 + i % 26) * ((7 * i) % (width + 1)) for i in range(rows)]
        if rows:
            names[where % rows] = "z" * width
        return names

    @staticmethod
    def assert_same_column(got, want):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 5, 64, 127])
    @pytest.mark.parametrize("where", ["first", "last", "middle"])
    def test_ascii_names_equal_np_char(self, rows, where):
        """Every longest name of 0 to 64 bytes, at the first row, the last
        (an odd count's halving remainder) or in between."""
        at = {"first": 0, "last": -1, "middle": rows // 2}[where]
        for width in range(NAME_FIELD_BYTES + 1):
            names = self.names_up_to(width, rows, at)
            fields = np.array([n.encode() for n in names], dtype=f"S{NAME_FIELD_BYTES}")
            self.assert_same_column(
                _ascii_names(fields.view(np.uint8).reshape(rows, NAME_FIELD_BYTES), "U"),
                np.char.decode(fields, "utf-8"))
            column = np.array(names, dtype=f"U{NAME_FIELD_BYTES}")
            self.assert_same_column(
                _ascii_names(column.view(np.uint32).reshape(rows, NAME_FIELD_BYTES), "S"),
                np.char.encode(column, "utf-8"))

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 64, 127])
    @pytest.mark.parametrize("where", ["first", "last", "middle"])
    def test_non_ascii_name_falls_back(self, rows, where):
        at = {"first": 0, "last": -1, "middle": rows // 2}[where]
        names = self.names_up_to(10, rows, 0)
        names[at] = names[at][:3] + "\u00e9"
        fields = np.array([n.encode() for n in names], dtype=f"S{NAME_FIELD_BYTES}")
        column = np.array(names, dtype=f"U{NAME_FIELD_BYTES}")
        assert _ascii_names(fields.view(np.uint8).reshape(rows, NAME_FIELD_BYTES), "U") is None
        assert _ascii_names(column.view(np.uint32).reshape(rows, NAME_FIELD_BYTES), "S") is None
        self.assert_same_column(_decode_names(fields, "a name", 0, NAME_FIELD_BYTES),
                                np.char.decode(fields, "utf-8"))
        self.assert_same_column(_encode_names(column), np.char.encode(column, "utf-8"))

    def test_column_wider_than_its_names(self, tmp_path):
        base = hand_bank(["cat", "dog"], ["img0", "img1"], [None, None])
        bank = MemoryBank(d_key=base.d_key, d_val=base.d_val, manifest=base.manifest,
                          keys=base.keys, values=base.values,
                          categories=np.array(["cat", "dog"], dtype="U80"),
                          image_ids=np.array(["img0", "img1"], dtype="U100"),
                          boxes=base.boxes, blur=base.blur)
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        assert path.read_bytes() == reference_bank_bytes(base)
        loaded = load_bank(path)
        assert loaded == bank
        assert (loaded.categories.dtype, loaded.image_ids.dtype) == (np.dtype("<U3"),
                                                                      np.dtype("<U4"))

    def test_loaded_columns_hold_no_file_buffer(self, tmp_path):
        bank = hand_bank(["cat", "caf\u00e9"], ["img0", "img1"], [None, 2.0])
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert_own_memory([loaded.keys, loaded.values, loaded.categories, loaded.image_ids,
                           loaded.boxes, loaded.blur])

    def test_other_loaders_hand_out_arrays_that_own_their_memory(self, tmp_path):
        rng = rng_for(9)
        index = train_ivfpq(rng.standard_normal((40, 8)).astype(np.float32),
                            IvfPqParams(nlist=4, m=2, nbits=2, kmeans_iters=2))
        ivfpq_add(index, np.arange(40), rng.standard_normal((40, 8)).astype(np.float32))
        save_index(index, tmp_path / "i.pivf")
        loaded = load_index(tmp_path / "i.pivf")
        assert_own_memory([loaded.coarse_centroids, loaded.pq_codebooks, loaded.ids,
                           loaded.codes, loaded.offsets])
        save_params([RefinementParams.seeded_init(3, seed=s) for s in (1, 2)],
                    tmp_path / "p.pprm")
        assert_own_memory([getattr(p, name) for p in load_params(tmp_path / "p.pprm")
                           for name in ("e", "w_sparse", "w_dense", "ln_gain", "ln_bias")])
        save_feature_grid(rng.standard_normal((2, 3, 4)), tmp_path / "g.pgrd")
        assert_own_memory([load_feature_grid(tmp_path / "g.pgrd")])
        save_embedding_table({name: rng.standard_normal(3) for name in ("cat", "caf\u00e9")},
                             tmp_path / "t.pmem")
        assert_own_memory(list(load_embedding_table(tmp_path / "t.pmem").values()))

    def test_shaped_float_arrays_are_read_into_not_reshaped(self, tmp_path):
        """A loaded grid owns its data, so it enters a provider's table by
        being frozen in place, not copied."""
        rng = rng_for(9)
        save_feature_grid(rng.standard_normal((2, 3, 4)), tmp_path / "g.pgrd")
        grid = load_feature_grid(tmp_path / "g.pgrd")
        assert grid.shape == (2, 3, 4) and grid.base is None and grid.flags.writeable
        index = train_ivfpq(rng.standard_normal((40, 8)).astype(np.float32),
                            IvfPqParams(nlist=4, m=2, nbits=2, kmeans_iters=2))
        save_index(index, tmp_path / "i.pivf")
        loaded = load_index(tmp_path / "i.pivf")
        assert loaded.coarse_centroids.base is None and loaded.pq_codebooks.base is None
        provider = EmbeddingProvider(feature_table={"g": grid})
        assert provider.feature_grid("g") is grid and not grid.flags.writeable

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_bank_loads_from_a_pipe(self, tmp_path):
        bank = hand_bank(["cat", "caf\u00e9"], ["img0", "img1"], [None, 2.0])
        save_bank(bank, tmp_path / "b.pbnk")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=((tmp_path / "b.pbnk").read_bytes(),), daemon=True)
        writer.start()
        loaded = load_bank(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded == bank


def assert_own_memory(arrays):
    """Each array owns its memory, or views an array of no more bytes that
    does, and no two of them share any."""
    for arr in arrays:
        owner = arr
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
            assert owner.nbytes <= arr.nbytes
        assert owner.base is None
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def buffer_load_error(raw: bytes) -> str:
    """The FormatError that reading raw as a bank with a Reader over it in
    memory, as a pipe is read, gives, field by field as load_bank reads it,
    with one `array` call for the whole body and no checksum checked; ""
    if the fields all read."""
    try:
        r = Reader(io.BytesIO(raw), len(raw))
        r._expect_header("PBNK", 1, 2)
        d_key, d_val, count = r.u32(), r.u32(), r.u64()
        r.block()
        if r.version == 2:
            r.u64()  # the header's checksum
        r.array(body_bytes(r.version, count, d_key, d_val), np.uint8)
        r.expect_eof()
    except FormatError as exc:
        return str(exc)
    return ""


def body_bytes(version, count, d_key, d_val):
    """The bytes of a bank file after its header: the entries, and in v2
    each section's 8-byte checksum."""
    return count * entry_stride(d_key, d_val) + (6 * 8 if version == 2 else 0)


class TestStreamedLoad:
    """load_bank reads a v2 file's sections straight into the bank's columns,
    a piece at a time, and a v1 file's records a chunk at a time: the bank
    equals the saved one for any piece or chunk size, and a short, long or
    oversized file fails as a Reader over the whole file in memory, the pipe
    path, does."""

    NAMES = ["caf\u00e9", "dog", "\u732b", "x" * 64, "\u00fc" * 32, "", "cat", "a\x00b"]

    def saved(self, tmp_path, n=10):
        rng = rng_for(12)
        bank = MemoryBank(d_key=6, d_val=3, keys=rng.standard_normal((n, 6)),
                          values=rng.standard_normal((n, 3)),
                          categories=[self.NAMES[i % 8] for i in range(n)],
                          image_ids=[f"img-{i}" + "\u00e9" * (i % 3) for i in range(n)],
                          boxes=[[0.1, 0.2, 0.3 + 0.05 * i, 0.9] for i in range(n)],
                          blur=[None if i % 3 else float(i) for i in range(n)],
                          manifest={"n": n})
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        return bank, path

    def saved_both(self, tmp_path):
        """The bank, and its v1 file by the reference encoder and v2 file by
        save_bank, as (version, path) pairs."""
        bank, path = self.saved(tmp_path)
        v1 = tmp_path / "v1.pbnk"
        v1.write_bytes(reference_bank_bytes(bank, 1))
        return bank, [(1, v1), (2, path)]

    @pytest.mark.parametrize("records_per_chunk", [1, 2.5, 3, 1000])
    def test_any_chunk_size_loads_the_same_bank(self, tmp_path, monkeypatch, records_per_chunk):
        # 2.5 records per chunk read 2 whole records at a time, so neighbouring
        # non-ASCII names land on both sides of each chunk boundary; the
        # pieces of a v2 section are cut at other places again
        bank, paths = self.saved_both(tmp_path)
        stride = entry_stride(bank.d_key, bank.d_val)
        monkeypatch.setattr(serial, "RECORD_CHUNK_BYTES", int(records_per_chunk * stride))
        for _, path in paths:
            loaded = load_bank(path)
            assert loaded == bank
            assert loaded.categories.tolist() == bank.categories.tolist()
            assert loaded.image_ids.tolist() == bank.image_ids.tolist()
            for column in ("categories", "image_ids"):
                names = [name.encode("utf-8") for name in getattr(bank, column).tolist()]
                want = np.char.decode(np.array(names, dtype="S64"), "utf-8").dtype
                assert getattr(loaded, column).dtype == want

    def test_chunks_are_whole_records_read_in_order(self, tmp_path, monkeypatch):
        bank, [(_, path), _] = self.saved_both(tmp_path)
        stride = entry_stride(bank.d_key, bank.d_val)
        monkeypatch.setattr(serial, "RECORD_CHUNK_BYTES", 3 * stride + 1)
        raw = path.read_bytes()
        with Reader.stream(path, "PBNK", 1) as r:
            d_key, d_val, count = r.u32(), r.u32(), r.u64()
            r.json_block()
            start = r.offset
            dtype = np.dtype([("x", "u1", (stride,))])
            chunks = [(first, chunk.tobytes()) for first, chunk in r.record_chunks(dtype, count)]
            r.expect_eof()
        assert [first for first, _ in chunks] == [0, 3, 6, 9]
        assert b"".join(data for _, data in chunks) == raw[start:]

    @pytest.mark.parametrize("chunk_bytes, pieces", [(1, [8] * 15), (20, [16] * 7 + [8]),
                                                     (100, [96, 24]), (10**6, [120])])
    def test_sections_are_read_in_whole_word_pieces_in_order(self, tmp_path, monkeypatch,
                                                             chunk_bytes, pieces):
        """The 10 x 3 float values are read straight into their column, in
        pieces of whole 8-byte words but for the last, each checked where it
        starts in the file."""
        bank, path = self.saved(tmp_path)
        monkeypatch.setattr(serial, "RECORD_CHUNK_BYTES", chunk_bytes)
        raw = path.read_bytes()
        start, end = v2_parts(raw)["value"]
        seen = []
        with Reader.stream(path, "PBNK", 2) as r:
            r.array(start - r.offset, np.uint8)  # up to the values section
            column = r.sections({"value": ((len(bank), bank.d_val), "<f4",
                                           lambda piece, at: seen.append((at, piece.tobytes())))},
                                "bank")["value"]
        assert [len(data) for _, data in seen] == pieces
        assert [at for at, _ in seen] == [start + sum(pieces[:i]) for i in range(len(pieces))]
        assert b"".join(data for _, data in seen) == column.tobytes() == raw[start:end]

    @pytest.mark.parametrize("records_per_chunk", [1, 3, 1000])
    @pytest.mark.parametrize("bad, want", [
        ([(7, "key", 0, np.nan), (4, "value", 1, np.inf)], (4, "value", 1, "non-finite value")),
        ([(5, "blur", 0, np.inf), (5, "key", 5, -np.inf)], (5, "key", 5, "non-finite key")),
        ([(6, "key", 2, np.nan), (2, "blur", 0, -np.inf)], (2, "blur", 0, "infinite blur score")),
    ])
    def test_first_bad_float_refused_at_its_offset(self, tmp_path, monkeypatch,
                                                   records_per_chunk, bad, want):
        """In a v1 file, the first NaN or inf key or value float, or inf blur
        score, in file order, whichever chunk holds it; NaN blur means "no
        score" and loads."""
        bank, path = self.saved(tmp_path)
        layout = _record_dtype(bank.d_key, bank.d_val)
        raw = bytearray(reference_bank_bytes(bank, 1))
        records_at = len(raw) - len(bank) * layout.itemsize
        def at(row, field, col):
            return records_at + row * layout.itemsize + layout.fields[field][1] + 4 * col
        for row, field, col, value in bad:
            struct.pack_into("<f", raw, at(row, field, col), value)
        path.write_bytes(bytes(raw))
        monkeypatch.setattr(serial, "RECORD_CHUNK_BYTES", records_per_chunk * layout.itemsize)
        assert np.isnan(bank.blur).any()
        with pytest.raises(FormatError, match=want[3]) as exc:
            load_bank(path)
        assert exc.value.offset == at(*want[:3])

    @pytest.mark.parametrize("chunk_bytes", [8, 24, 10**6])
    @pytest.mark.parametrize("bad, want", [
        ([(7, "key", 0, np.nan), (4, "value", 1, np.inf)], (7, "key", 0, "non-finite key")),
        ([(7, "key", 0, np.nan), (3, "key", 1, np.inf)], (3, "key", 1, "non-finite key")),
        ([(2, "blur", 0, -np.inf), (4, "value", 1, np.inf)], (4, "value", 1, "non-finite value")),
        ([(6, "blur", 0, np.inf), (2, "blur", 0, -np.inf)], (2, "blur", 0, "infinite blur score")),
    ])
    def test_first_bad_float_refused_at_its_v2_offset(self, tmp_path, monkeypatch,
                                                      chunk_bytes, bad, want):
        """In a v2 file whose checksums hold, the first NaN or inf key or
        value float, or inf blur score, in file order (keys, values, boxes,
        blur), whichever piece holds it."""
        bank, path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        parts = v2_parts(bytes(raw))
        widths = {"key": 4 * bank.d_key, "value": 4 * bank.d_val, "blur": 4}
        def at(row, field, col):
            return parts[field][0] + row * widths[field] + 4 * col
        for row, field, col, value in bad:
            struct.pack_into("<f", raw, at(row, field, col), value)
        path.write_bytes(resealed(bytes(raw)))
        monkeypatch.setattr(serial, "RECORD_CHUNK_BYTES", chunk_bytes)
        with pytest.raises(FormatError, match=want[3]) as exc:
            load_bank(path)
        assert exc.value.offset == at(*want[:3])

    def test_truncation_fails_as_a_buffer_read_does(self, tmp_path):
        bank, paths = self.saved_both(tmp_path)
        stride = entry_stride(bank.d_key, bank.d_val)
        for version, path in paths:
            raw = path.read_bytes()
            body = body_bytes(version, len(bank), bank.d_key, bank.d_val)
            body_at = len(raw) - body
            cuts = {"four entries into the body": body_at + 4 * stride,
                    "mid-entry": body_at + 4 * stride + 7,
                    "right after the header": body_at,
                    "inside the header's last field": body_at - 3,
                    "inside the count": 20, "inside the magic": 2}
            for where, cut in cuts.items():
                path.write_bytes(raw[:cut])
                with pytest.raises(FormatError) as exc:
                    load_bank(path)
                assert str(exc.value) == buffer_load_error(raw[:cut]) != "", (version, where)
                assert "truncated file" in str(exc.value), (version, where)
            path.write_bytes(raw[:body_at + 4 * stride])
            with pytest.raises(FormatError) as exc:
                load_bank(path)
            assert exc.value.offset == body_at
            assert f"need {body} bytes, have {4 * stride}" in str(exc.value)

    def test_trailing_bytes_fail_as_a_buffer_read_does(self, tmp_path):
        _, paths = self.saved_both(tmp_path)
        for _, path in paths:
            raw = path.read_bytes()
            path.write_bytes(raw + b"\x00" * 5)
            with pytest.raises(FormatError) as exc:
                load_bank(path)
            assert str(exc.value) == buffer_load_error(raw + b"\x00" * 5)
            assert "5 trailing bytes" in str(exc.value) and exc.value.offset == len(raw)

    def test_count_past_the_file_fails_before_any_column_is_sized(self, tmp_path):
        bank, paths = self.saved_both(tmp_path)
        for version, path in paths:
            raw = bytearray(path.read_bytes())
            struct.pack_into("<Q", raw, 16, 10**6)  # columns of about 90 MB
            if version == 2:  # a header whose checksum holds
                raw = resealed(bytes(raw))
            path.write_bytes(bytes(raw))
            tracemalloc.start()
            try:
                with pytest.raises(FormatError) as exc:
                    load_bank(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert str(exc.value) == buffer_load_error(bytes(raw))
            assert f"need {body_bytes(version, 10**6, bank.d_key, bank.d_val)} bytes" in str(
                exc.value)
            assert peak < 2**20

    def test_file_that_shrinks_while_read_is_truncated(self):
        dtype = np.dtype([("x", "<f4", (3,))])
        r = serial.Reader(io.BytesIO(bytes(5 * dtype.itemsize)), 6 * dtype.itemsize)
        with pytest.raises(FormatError) as exc:
            list(r.record_chunks(dtype, 6))
        assert exc.value.offset == 0
        assert f"need {6 * dtype.itemsize} bytes, have {5 * dtype.itemsize}" in str(exc.value)

    def test_section_of_a_file_that_shrinks_is_truncated(self):
        # 16 bytes of floats read; its checksum, 8 bytes at offset 16, has 4
        r = serial.Reader(io.BytesIO(bytes(20)), 24)
        with pytest.raises(FormatError) as exc:
            r.sections({"floats": (4, "<f4", None)}, "test")
        assert exc.value.offset == 16 and "need 8 bytes, have 4" in str(exc.value)

    def test_field_of_a_file_that_shrinks_is_truncated(self):
        r = serial.Reader(io.BytesIO(bytes(6)), 8)
        assert r.u32() == 0
        with pytest.raises(FormatError) as exc:
            r.u32()
        assert exc.value.offset == 4 and "need 4 bytes, have 2" in str(exc.value)

    def test_load_holds_the_columns_plus_one_chunk(self, tmp_path):
        """A whole-file buffer would take the peak to about twice the file."""
        n, d_key, d_val = 20_000, 256, 32
        rng = rng_for(5)
        bank = MemoryBank(d_key=d_key, d_val=d_val, keys=rng.standard_normal((n, d_key)),
                          values=rng.standard_normal((n, d_val)),
                          categories=[f"c{i % 500}" for i in range(n)],
                          image_ids=[f"img-{i}" for i in range(n)],
                          boxes=[[0.0, 0.0, 1.0, 1.0]] * n, blur=[None] * n)
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        del bank
        tracemalloc.start()
        try:
            loaded = load_bank(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(getattr(loaded, c).nbytes for c in ("keys", "values", "categories",
                                                          "image_ids", "boxes", "blur"))
        assert path.stat().st_size > columns
        assert peak < columns + 2 * serial.RECORD_CHUNK_BYTES + 2**20

    def test_constructor_copies_what_a_loader_would_hand_over(self):
        keys = np.ones((2, 4), dtype=np.float32)
        names = np.array(["a", "b"])
        bank = MemoryBank(d_key=4, d_val=0, keys=keys, values=np.zeros((2, 0), np.float32),
                          categories=names, image_ids=names, boxes=[[0, 0, 1, 1]] * 2,
                          blur=np.zeros(2, np.float32))
        assert not np.shares_memory(bank.keys, keys)
        assert not np.shares_memory(bank.categories, names)
        assert keys.flags.writeable


class TestColumnShapes:
    """Every column of a non-empty bank has exactly its (n,) or (n, d) shape,
    with n taken from image_ids."""

    def columns(self, n=2, d_key=4, d_val=3):
        return dict(keys=np.ones((n, d_key)), values=np.ones((n, d_val)),
                    categories=["c"] * n, image_ids=[f"i{j}" for j in range(n)],
                    boxes=[[0.0, 0.0, 1.0, 1.0]] * n, blur=[None] * n)

    def test_well_shaped_columns_build(self):
        bank = MemoryBank(d_key=4, d_val=3, **self.columns())
        assert len(bank) == 2 and bank.keys.shape == (2, 4) and bank.values.shape == (2, 3)

    def test_rows_glued_together_rejected(self):
        """Four 8-wide rows have the size of two 16-wide ones; a reshape
        would accept them."""
        with pytest.raises(InvalidInputError) as exc:
            MemoryBank(d_key=16, d_val=3, **{**self.columns(), "keys": np.ones((4, 8))})
        message = str(exc.value)
        assert "'keys'" in message and "(4, 8)" in message and "(2, 16)" in message

    @pytest.mark.parametrize("column, data", [
        ("keys", np.ones((2, 5))),
        ("values", np.ones((3, 3))),
        ("values", np.ones(6)),
        ("categories", ["c"]),
        ("boxes", [[0.0, 0.0, 1.0, 1.0]] * 3),
        ("blur", [[1.0], [2.0]]),
        ("keys", [np.ones(4), np.ones(3)]),
    ])
    def test_mis_shaped_column_rejected(self, column, data):
        with pytest.raises(InvalidInputError, match=f"'{column}'"):
            MemoryBank(d_key=4, d_val=3, **{**self.columns(), column: data})

    def test_empty_bank_builds(self):
        for bank in (MemoryBank(d_key=4, d_val=3), MemoryBank(entries=[], d_key=4, d_val=3),
                     MemoryBank(d_key=4, d_val=3, **self.columns(n=0))):
            assert len(bank) == 0
            assert bank.keys.shape == (0, 4) and bank.values.shape == (0, 3)
            assert bank.boxes.shape == (0, 4) and bank.blur.shape == (0,)


class TestEmbeddingTableIO:
    def test_round_trip(self, tmp_path):
        rng = rng_for(0)
        table = {f"word{i}": rng.standard_normal(16).astype(np.float32) for i in range(5)}
        path = tmp_path / "t.pmem"
        save_embedding_table(table, path)
        loaded = load_embedding_table(path)
        assert set(loaded) == set(table)
        for k in table:
            np.testing.assert_array_equal(loaded[k], table[k])

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "t.pmem"
        save_embedding_table({"a": np.ones(4, dtype=np.float32)}, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_embedding_table(path)


class TestPgm:
    def test_round_trip(self, tmp_path):
        # writer min-max scales to 0..255; integer input spanning that range
        # round trips exactly
        img = rng_for(0).integers(0, 256, (5, 7)).astype(np.float64)
        img.flat[0], img.flat[1] = 0.0, 255.0
        path = tmp_path / "im.pgm"
        write_pgm(img, path)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_rejects_non_p5(self, tmp_path):
        path = tmp_path / "im.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(FormatError):
            read_pgm(path)


class TestRecordLoading:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"image_id": "a", "box": [0.1, 0.2, 0.5, 0.6], "phrase": "cat", '
            '"scene": "indoor", "blur_score": 2.5}\n'
            '{"image_id": "b", "box": [0.0, 0.0, 1.0, 1.0], "phrase": "dog"}\n'
        )
        recs = load_grounding_records(path)
        assert len(recs) == 2
        assert recs[0].image_id == "a" and recs[0].phrase == "cat"
        assert recs[0].box == Box2D(0.1, 0.2, 0.5, 0.6)
        assert recs[0].blur_score == 2.5
        assert recs[1].scene == "" and recs[1].blur_score is None

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"image_id": "a"}\n')
        with pytest.raises(FormatError):
            load_grounding_records(path)


class TestHashingProvider:
    def test_deterministic_unit_vectors(self):
        p1 = HashingProvider(d_key=64, d_val=16, seed=3)
        p2 = HashingProvider(d_key=64, d_val=16, seed=3)
        v1, v2 = p1.text_embedding("cat"), p2.text_embedding("cat")
        np.testing.assert_array_equal(v1, v2)
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-5

    def test_seed_changes_vectors(self):
        a = HashingProvider(d_key=64, d_val=16, seed=0).text_embedding("cat")
        b = HashingProvider(d_key=64, d_val=16, seed=1).text_embedding("cat")
        assert not np.array_equal(a, b)

    def test_distinct_strings_distinct_vectors(self):
        p = HashingProvider(d_key=64, d_val=16)
        assert not np.array_equal(p.text_embedding("cat"), p.text_embedding("dog"))
        assert not np.array_equal(p.text_embedding("cat"), p.image_embedding("cat"))

    def test_empty_scene_is_zero(self):
        p = HashingProvider(d_key=8, d_val=4)
        np.testing.assert_array_equal(p.text_embedding(""), np.zeros(8, dtype=np.float32))
        zeros = p.text_embedding("")
        assert zeros.flags.writeable and p.text_embedding("") is not zeros  # not kept

    def test_text_vector_drawn_once_and_read_only(self):
        p = HashingProvider(d_key=16, d_val=4, seed=2)
        v = p.text_embedding("cat")
        assert p.text_embedding("cat") is v and not v.flags.writeable
        assert v.tobytes() == p._hash_vector("text", "cat").tobytes()
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0

    def test_providers_share_no_text_vector(self):
        a, b = (HashingProvider(d_key=16, d_val=4, seed=seed) for seed in (0, 1))
        va, vb = a.text_embedding("cat"), b.text_embedding("cat")
        assert not np.shares_memory(va, vb) and not np.array_equal(va, vb)
        assert vb.tobytes() == HashingProvider(d_key=16, d_val=4, seed=1).text_embedding("cat").tobytes()

    def test_new_seed_or_dim_draws_anew(self):
        p = HashingProvider(d_key=16, d_val=4, seed=0)
        p.text_embedding("cat")
        p.seed, p.d_key = 1, 8
        assert p.text_embedding("cat").tobytes() == \
            HashingProvider(d_key=8, d_val=4, seed=1).text_embedding("cat").tobytes()
        p.seed = [1]  # a seed that is not hashable still draws
        assert p.text_embedding("cat").tobytes() == p._hash_vector("text", "cat").tobytes()

    def test_image_vectors_are_not_kept(self):
        p = HashingProvider(d_key=16, d_val=4)
        v = p.image_embedding("img")
        w = p.image_embedding("img")
        assert w is not v and v.flags.writeable and v.tobytes() == w.tobytes()


def nan_grid(shape=(4, 4, 3)):
    grid = np.ones(shape, np.float32)
    grid[1, 2, 0] = np.nan
    return grid


def nan_vector(d=4):
    v = np.ones(d, np.float32)
    v[2] = np.nan
    return v


class TestCheckedTables:
    """A provider's text, image and feature tables check each array as it
    enters and hold it read-only from then on."""

    @pytest.mark.parametrize("table, bad", [("text_table", nan_vector()),
                                            ("image_table", nan_vector()),
                                            ("feature_table", nan_grid())])
    def test_constructor_refuses_non_finite(self, table, bad):
        with pytest.raises(InvalidInputError, match=rf"{table}\['x'\]: .*non-finite"):
            EmbeddingProvider(**{table: {"ok": np.abs(np.nan_to_num(bad)), "x": bad}})

    @pytest.mark.parametrize("table, bad", [("text_table", nan_vector()),
                                            ("image_table", nan_vector()),
                                            ("feature_table", nan_grid())])
    def test_item_assignment_refuses_non_finite(self, table, bad):
        provider = make_provider(d_key=4, d_val=3)
        tab = getattr(provider, table)
        before = dict(tab)
        with pytest.raises(InvalidInputError, match="non-finite"):
            tab["x"] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            tab.update({"y": bad})
        with pytest.raises(InvalidInputError, match="non-finite"):
            tab.setdefault("z", bad)
        assert dict(tab) == before

    def test_a_grid_is_refused_by_shape(self):
        provider = EmbeddingProvider()
        with pytest.raises(InvalidInputError, match=r"feature_table\['a'\]: .*feature grid"):
            provider.feature_table["a"] = np.ones((4, 3), np.float32)

    def test_stored_grid_owning_its_data_is_frozen_in_place(self):
        grid = np.ones((4, 4, 3), np.float32)
        provider = EmbeddingProvider(feature_table={"a": grid})
        provider.feature_table["b"] = later = np.zeros((2, 2, 3), np.float32)
        assert provider.feature_grid("a") is grid and provider.feature_grid("b") is later
        for held in (provider.feature_grid("a"), grid, later):
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0, 0] = 5.0
        assert grid[0, 0, 0] == 1.0 and later[0, 0, 0] == 0.0

    @pytest.mark.parametrize("table", ["text_table", "image_table"])
    def test_stored_vector_is_read_only(self, table):
        v = np.ones(4, np.float32)
        tab = getattr(EmbeddingProvider(**{table: {"a": v}}), table)
        assert tab["a"] is v
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 2.0

    def test_a_view_is_copied_and_its_base_stays_writable(self):
        base = np.ones((8, 4, 3), np.float32)
        view = base[:4]
        provider = EmbeddingProvider(feature_table={"v": view})
        held = provider.feature_grid("v")
        assert held is not view and held.flags.owndata and not held.flags.writeable
        assert base.flags.writeable and view.flags.writeable
        base[0, 0, 0] = 9.0
        assert held[0, 0, 0] == 1.0

    def test_a_broadcast_is_copied(self):
        u = np.array([1.0, 2.0, 2.0], dtype=np.float32)
        provider = HashingProvider(d_key=4, d_val=3)
        provider.feature_table["b"] = np.broadcast_to(u, (4, 4, 3))
        held = provider.feature_grid("b")
        assert held.flags.owndata and not held.flags.writeable
        np.testing.assert_array_equal(held, np.broadcast_to(u, (4, 4, 3)))

    def test_a_converted_array_leaves_the_callers_writable(self):
        grid = np.ones((4, 4, 3), np.float64)
        provider = EmbeddingProvider(feature_table={"a": grid})
        held = provider.feature_grid("a")
        assert held.dtype == np.float32 and not held.flags.writeable and grid.flags.writeable

    def test_a_provider_built_from_another_s_tables_shares_their_arrays(self):
        base = make_provider()
        again = EmbeddingProvider(base.text_table, base.image_table, base.feature_table)
        for name in ("text_table", "image_table", "feature_table"):
            old, new = getattr(base, name), getattr(again, name)
            assert new is not old and list(new) == list(old)
            assert all(new[k] is old[k] for k in old)

    def test_behaves_as_a_dict(self):
        provider = make_provider(n_images=3)
        tab = provider.feature_table
        assert len(tab) == 3 and list(tab) == ["img0", "img1", "img2"]
        assert "img1" in tab and "nope" not in tab
        assert tab.get("nope") is None and tab.get("img1") is provider.feature_grid("img1")
        assert [k for k, _ in tab.items()] == list(tab.keys())
        popped = tab.pop("img1")
        assert popped.shape == (6, 6, 8) and "img1" not in tab and tab.pop("img1", None) is None
        del tab["img0"]
        assert list(tab) == ["img2"] and len(tab) == 1
        with pytest.raises(KeyError):
            del tab["img0"]
        with pytest.raises(MissingEmbeddingError):
            provider.feature_grid("img0")


class TestEmbeddingProviderDims:
    @pytest.mark.parametrize("dims", [dict(d_key=-3), dict(d_key=0), dict(d_val=0),
                                      dict(d_key=4, d_val=-1)])
    def test_dim_below_one_refused(self, dims):
        with pytest.raises(InvalidInputError, match="dims must be >= 1"):
            EmbeddingProvider({"cat": np.ones(4, np.float32)},
                              feature_table={"a": np.ones((2, 2, 3), np.float32)}, **dims)

    @pytest.mark.parametrize("dims", [dict(d_key=2.5), dict(d_val=True), dict(d_key=np.float64(4.0))])
    def test_non_integer_dim_refused(self, dims):
        with pytest.raises(InvalidInputError, match="dims must be >= 1 and integers"):
            EmbeddingProvider({"cat": np.ones(4, np.float32)}, **dims)

    @pytest.mark.parametrize("dims", [dict(d_key=None, d_val=4), dict(d_key=2.5, d_val=4),
                                      dict(d_key=8, d_val=True), dict(d_key=0, d_val=4)])
    def test_hashing_dim_refused(self, dims):
        with pytest.raises(InvalidInputError, match="hashing dims must be >= 1 and integers"):
            HashingProvider(**dims)

    def test_numpy_integer_dims_taken_as_ints(self, tmp_path):
        provider = HashingProvider(d_key=np.int64(8), d_val=np.int32(3),
                                   feature_table={"a": np.ones((2, 2, 3), np.float32)})
        assert (provider.d_key, provider.d_val) == (8, 3) and type(provider.d_key) is int
        table = EmbeddingProvider({"cat": np.ones(4, np.float32)}, d_key=np.int64(4))
        assert table.d_key == 4 and table.text_embedding("").shape == (4,)
        bank = build_bank([GroundingRecord("a", Box2D(0.0, 0.0, 1.0, 1.0), "cat", blur_score=1.0)],
                          provider, BankBuildConfig(drop_fraction=0.0))
        save_bank(bank, tmp_path / "b.pbnk")
        assert load_bank(tmp_path / "b.pbnk") == bank


class TestBoxesOnce:
    def test_each_records_box_listed_once(self, monkeypatch):
        """build_bank makes one float64 boxes array and adopts it as the
        bank's box column."""
        records, provider = mixed_records(), mixed_provider()
        calls = []
        real = Box2D.as_list
        monkeypatch.setattr(Box2D, "as_list", lambda box: calls.append(box) or real(box))
        bank = build_bank(records, provider, BankBuildConfig(drop_fraction=0.0))
        assert len(calls) == len(bank) > 60
        want = np.array([real(box) for box in calls], dtype=np.float32)
        np.testing.assert_array_equal(bank.boxes, want)
