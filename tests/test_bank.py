import io
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from vismem.bank import (
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
    build_value,
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
)
from vismem.errors import FormatError, InvalidInputError, MissingEmbeddingError
from vismem.grids import Box2D, l2_normalize
from vismem import serial
from vismem.serial import Reader, Writer


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


class TestBuildValue:
    def test_constant_grid_gives_unit_direction(self):
        u = np.array([1.0, 2.0, 2.0], dtype=np.float32)
        prov = EmbeddingProvider(feature_table={"a": np.broadcast_to(u, (4, 4, 3)).copy()})
        out = build_value(prov, "a", Box2D(0.0, 0.0, 1.0, 1.0))
        np.testing.assert_allclose(out, u / 3.0, atol=1e-6)

    def test_missing_grid_raises(self):
        with pytest.raises(MissingEmbeddingError):
            build_value(EmbeddingProvider(), "nope", Box2D(0, 0, 1, 1))


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
        oracle_key = build_key(
            prov.text_embedding(rec.phrase), prov.text_embedding(rec.scene),
            prov.image_embedding(rec.image_id), KeyWeights())
        np.testing.assert_array_equal(entry.key, oracle_key)
        np.testing.assert_array_equal(entry.value, build_value(prov, rec.image_id, rec.box))
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
            np.testing.assert_array_equal(key, build_key(
                base.text_embedding(rec.phrase), base.text_embedding(rec.scene),
                base.image_embedding(rec.image_id), KeyWeights()))
            np.testing.assert_array_equal(value, build_value(base, rec.image_id, rec.box))

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


def reference_bank_bytes(bank):
    """The v1 bank file written one entry and one field at a time."""
    w = Writer()
    w.magic("PBNK").u32(1).u32(bank.d_key).u32(bank.d_val).u64(len(bank))
    w.json_block({"weights": bank.weights.as_dict(), "manifest": bank.manifest})
    for e in bank.entries:
        w.f32_array(e.key).f32_array(e.value)
        for name in (e.category, e.image_id):
            encoded = name.encode("utf-8")
            assert len(encoded) <= 64
            w.raw(encoded + b"\x00" * (64 - len(encoded)))
        w.f32_array(np.asarray(e.box.as_list(), dtype=np.float32))
        w.f32(math.nan if e.blur_score is None else e.blur_score)
    return w.getvalue()


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

    @pytest.mark.parametrize("corner, value", [(0, -5.0), (2, 0.05), (3, float("nan"))])
    def test_box_out_of_range_rejected(self, tmp_path, corner, value):
        bank = hand_bank(["cat", "dog"], ["img0", "img1"], [None, None])
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        raw = bytearray(path.read_bytes())
        stride = entry_stride(bank.d_key, bank.d_val)
        box_at = len(raw) - stride + 4 * (bank.d_key + bank.d_val) + 2 * 64
        raw[box_at + 4 * corner:box_at + 4 * corner + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="box"):
            load_bank(path)

    def test_invalid_utf8_name_rejected(self, tmp_path):
        bank = hand_bank(["cat", "dog"], ["img0", "img1"], [None, None])
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        raw = bytearray(path.read_bytes())
        stride = entry_stride(bank.d_key, bank.d_val)
        records_start = len(raw) - 2 * stride
        category_at = records_start + stride + 4 * (bank.d_key + bank.d_val)
        raw[category_at] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            load_bank(path)
        raw[category_at] = ord("d")
        raw[category_at + 64 + 1] = 0xC3  # truncated two-byte sequence in an image id
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            load_bank(path)



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
        columns = [loaded.keys, loaded.values, loaded.categories, loaded.image_ids,
                   loaded.boxes, loaded.blur]
        for column in columns:
            owner = column
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
                assert owner.nbytes <= column.nbytes
            assert owner.base is None
        for i, a in enumerate(columns):
            for b in columns[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_reader_records_are_read_only(self, tmp_path):
        bank = hand_bank(["cat", "dog"], ["img0", "img1"], [None, None])
        path = tmp_path / "b.pbnk"
        save_bank(bank, path)
        r = Reader.open(path, "PBNK", 1)
        d_key, _, _ = r.u32(), r.u32(), r.u64()
        r.json_block()
        first_key = r.records(np.dtype("<f4"), d_key)
        assert not first_key.flags.writeable
        with pytest.raises(ValueError):
            first_key[0] = 1.0
        for data in (bytes(16), bytearray(16), np.zeros(16, dtype=np.uint8)):
            assert not Reader(data).records(np.dtype("<f4"), 4).flags.writeable

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

def buffer_load_error(raw: bytes) -> str:
    """The FormatError that reading raw as a bank with one in-memory Reader
    gives, field by field as load_bank reads it; "" if the fields all read."""
    try:
        r = Reader(raw)
        r._expect_header("PBNK", 1)
        d_key, d_val, count = r.u32(), r.u32(), r.u64()
        r.json_block()
        r.records(np.dtype([("x", "u1", (entry_stride(d_key, d_val),))]), count)
        r.expect_eof()
    except FormatError as exc:
        return str(exc)
    return ""


class TestStreamedLoad:
    """load_bank reads the records a chunk at a time into the bank's columns:
    the bank equals the saved one for any chunk size, and a short, long or
    oversized file fails as a read of the whole file into one buffer does."""

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

    @pytest.mark.parametrize("records_per_chunk", [1, 2.5, 3, 1000])
    def test_any_chunk_size_loads_the_same_bank(self, tmp_path, monkeypatch, records_per_chunk):
        # 2.5 records per chunk read 2 whole records at a time, so neighbouring
        # non-ASCII names land on both sides of each chunk boundary
        bank, path = self.saved(tmp_path)
        stride = entry_stride(bank.d_key, bank.d_val)
        monkeypatch.setattr(serial, "RECORD_CHUNK_BYTES", int(records_per_chunk * stride))
        loaded = load_bank(path)
        assert loaded == bank
        assert loaded.categories.tolist() == bank.categories.tolist()
        assert loaded.image_ids.tolist() == bank.image_ids.tolist()
        for column in ("categories", "image_ids"):
            names = [name.encode("utf-8") for name in getattr(bank, column).tolist()]
            want = np.char.decode(np.array(names, dtype="S64"), "utf-8").dtype
            assert getattr(loaded, column).dtype == want

    def test_chunks_are_whole_records_read_in_order(self, tmp_path, monkeypatch):
        bank, path = self.saved(tmp_path)
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

    def test_truncation_fails_as_a_buffer_read_does(self, tmp_path):
        bank, path = self.saved(tmp_path)
        raw = path.read_bytes()
        stride = entry_stride(bank.d_key, bank.d_val)
        records_at = len(raw) - len(bank) * stride
        cuts = {"at a record boundary": records_at + 4 * stride,
                "mid-record": records_at + 4 * stride + 7,
                "right after the header": records_at,
                "inside the JSON block": records_at - 3,
                "inside the count": 20, "inside the magic": 2}
        for where, cut in cuts.items():
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError) as exc:
                load_bank(path)
            assert str(exc.value) == buffer_load_error(raw[:cut]) != "", where
            assert "truncated file" in str(exc.value), where
        path.write_bytes(raw[:records_at + 4 * stride])
        with pytest.raises(FormatError) as exc:
            load_bank(path)
        assert exc.value.offset == records_at
        assert f"need {len(bank) * stride} bytes, have {4 * stride}" in str(exc.value)

    def test_trailing_bytes_fail_as_a_buffer_read_does(self, tmp_path):
        _, path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" * 5)
        with pytest.raises(FormatError) as exc:
            load_bank(path)
        assert str(exc.value) == buffer_load_error(raw + b"\x00" * 5)
        assert "5 trailing bytes" in str(exc.value) and exc.value.offset == len(raw)

    def test_count_past_the_file_fails_before_any_column_is_sized(self, tmp_path):
        bank, path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 16, 10**6)  # columns of about 90 MB
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as exc:
                load_bank(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == buffer_load_error(bytes(raw))
        assert f"need {10**6 * entry_stride(bank.d_key, bank.d_val)} bytes" in str(exc.value)
        assert peak < 2**20

    def test_file_that_shrinks_while_read_is_truncated(self):
        dtype = np.dtype([("x", "<f4", (3,))])
        r = serial._StreamReader(io.BytesIO(bytes(5 * dtype.itemsize)), 6 * dtype.itemsize)
        with pytest.raises(FormatError) as exc:
            list(r.record_chunks(dtype, 6))
        assert exc.value.offset == 0
        assert f"need {6 * dtype.itemsize} bytes, have {5 * dtype.itemsize}" in str(exc.value)

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
