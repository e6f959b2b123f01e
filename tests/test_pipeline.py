import numpy as np
import pytest

from vismem import pipeline as pipeline_module
from vismem.bank import (BankBuildConfig, EmbeddingProvider, KeyWeights, build_bank, build_key,
                         save_bank)
from vismem.errors import InvalidInputError, VismemError
from vismem.grids import as_grid
from vismem.index import FlatIndex, IvfPqParams, ivfpq_add, train_ivfpq
from vismem.pipeline import (
    CategoryResult,
    PipelineConfig,
    load_config,
    pipeline_report,
    run_pipeline,
    save_config,
)
from vismem.priors import dense_prior, extract_anchors, radius_cells_to_normalized
from vismem.refine import RefinementParams, constrain_logits, refine_all, score_prompts
from vismem.retrieval import _retrieve_all, aggregate_prototype, build_query, retrieve
from vismem.synthetic import (
    INPUT_IMAGE_ID,
    PlantedRegion,
    ScenarioSpec,
    gen_synthetic,
    random_regions,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def standard_scenario(seed=0, noise=0.0, regions=None, **kwargs):
    if regions is None:
        regions = [
            PlantedRegion(8, 8, 3, "cat"),
            PlantedRegion(24, 20, 3, "dog"),
        ]
    spec = ScenarioSpec(regions=regions, noise=noise, seed=seed,
                        entries_per_category=12, distractors=20, **kwargs)
    return gen_synthetic(spec)


def bank_and_index(scenario, drop=0.0):
    bank = build_bank(scenario.records, scenario.provider,
                      BankBuildConfig(drop_fraction=drop))
    return bank, FlatIndex.from_bank(bank)


class TestPipelineConfig:
    def test_published_defaults(self):
        c = PipelineConfig()
        assert c.k == 12
        assert c.tau_p == 0.07
        assert (c.w_p, c.w_s, c.w_g) == (1.0, 0.3, 0.01)
        assert c.recall_size == 200
        assert c.drop_fraction == 0.10
        assert c.nlist == 256 and c.m == 16 and c.nbits == 8 and c.nprobe == 16
        assert c.sigma == 1.0 and c.peak_threshold == 0.5
        assert c.radius_cells == 3.0 and c.max_anchors == 10 and c.window == 5

    def test_dict_round_trip(self):
        c = PipelineConfig(k=7, tau_p=0.2, nlist=32)
        assert PipelineConfig.from_dict(c.to_dict()) == c

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            PipelineConfig.from_dict({"bogus": 1})

    def test_ini_round_trip(self):
        c = PipelineConfig(k=5, tau_p=0.11, sigma=2.0, nprobe=4, drop_fraction=0.25)
        assert PipelineConfig.from_ini(c.to_ini()) == c

    def test_ini_file_round_trip(self, tmp_path):
        c = PipelineConfig(k=9, recall_size=77)
        path = tmp_path / "cfg.ini"
        save_config(c, path)
        assert load_config(path) == c

    def test_partial_ini_keeps_defaults(self):
        c = PipelineConfig.from_ini("[retrieval]\nk = 3\n")
        assert c.k == 3 and c.tau_p == 0.07

    def test_unknown_section_rejected(self):
        with pytest.raises(InvalidInputError):
            PipelineConfig.from_ini("[mystery]\nx = 1\n")

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            PipelineConfig(k=0)
        with pytest.raises(InvalidInputError):
            PipelineConfig(tau_p=0.0)
        with pytest.raises(InvalidInputError):
            PipelineConfig(window=4)

    def test_index_fields_validated_up_front(self):
        with pytest.raises(InvalidInputError):
            PipelineConfig(m=0)
        with pytest.raises(InvalidInputError):
            PipelineConfig(nbits=9)
        with pytest.raises(InvalidInputError, match="nprobe"):
            PipelineConfig(nlist=8, nprobe=9)
        assert PipelineConfig(nlist=8, nprobe=8).nprobe == 8

    def test_bank_filters_validated_up_front(self):
        for fields in ({"min_area": -1e-9}, {"iou_threshold": 0.0},
                       {"iou_threshold": -0.5}, {"iou_threshold": 1.0 + 1e-9},
                       {"iou_threshold": 5.0}):
            with pytest.raises(InvalidInputError, match="min_area must be >= 0 and iou_threshold"):
                PipelineConfig(**fields)
        config = PipelineConfig(min_area=0.0, iou_threshold=1.0)
        assert (config.min_area, config.iou_threshold) == (0.0, 1.0)

    FLOAT_FIELDS = ("w_p", "w_s", "w_g", "tau_p", "sigma", "peak_threshold", "radius_cells",
                    "min_area", "iou_threshold", "drop_fraction")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_non_finite_float_fields_rejected(self, key, value):
        with pytest.raises(InvalidInputError, match=f"config key '{key}' must be finite"):
            PipelineConfig(**{key: value})
        with pytest.raises(InvalidInputError, match=f"config key '{key}' must be finite"):
            PipelineConfig.from_dict({key: value})

    def test_non_finite_ini_value_message(self):
        with pytest.raises(InvalidInputError,
                           match=r"^config key 'sigma' must be finite, got 'nan'$"):
            PipelineConfig.from_ini("[priors]\nsigma = nan\n")

    def test_parse_value(self):
        assert PipelineConfig.parse_value("k", "7") == 7
        assert PipelineConfig.parse_value("tau_p", "0.5") == 0.5
        for key, raw in (("k", "abc"), ("k", "1.5"), ("tau_p", "nan"), ("bogus", "1")):
            with pytest.raises(InvalidInputError):
                PipelineConfig.parse_value(key, raw)

    def test_malformed_ini_rejected(self):
        for text in ("k = 3\n", "[retrieval]\nk = abc\n", "[retrieval]\nk = 1\nk = 2\n"):
            with pytest.raises(InvalidInputError):
                PipelineConfig.from_ini(text)

    def test_weights_and_index_params(self):
        c = PipelineConfig(w_p=0.5, nlist=8, m=2, nbits=3, nprobe=8, seed=4, kmeans_iters=6)
        assert c.weights().w_p == 0.5
        p = c.index_params()
        assert (p.nlist, p.m, p.nbits, p.seed, p.kmeans_iters) == (8, 2, 3, 4, 6)


class TestGenSynthetic:
    def test_deterministic(self):
        a = standard_scenario(seed=5)
        b = standard_scenario(seed=5)
        np.testing.assert_array_equal(a.input_grid, b.input_grid)
        assert [r.image_id for r in a.records] == [r.image_id for r in b.records]
        np.testing.assert_array_equal(
            a.provider.text_embedding("cat"), b.provider.text_embedding("cat"))

    def test_seed_changes_grid(self):
        assert not np.array_equal(standard_scenario(seed=0).input_grid,
                                  standard_scenario(seed=1).input_grid)

    def test_record_census(self):
        s = standard_scenario()
        assert len(s.records) == 2 * 12 + 20
        assert sum(1 for r in s.records if r.phrase == "cat") == 12

    def test_directions_orthonormal(self):
        s = standard_scenario()
        u, v = s.directions["cat"], s.directions["dog"]
        assert abs(np.dot(u, v)) < 1e-5
        assert abs(np.linalg.norm(u) - 1.0) < 1e-5

    def test_background_orthogonal_to_categories(self):
        s = standard_scenario()
        grid = s.input_grid.astype(np.float64)
        # away from the planted blocks the grid is orthogonal to both directions
        corner = grid[0, 0]
        assert abs(corner @ s.directions["cat"]) < 1e-5
        assert abs(corner @ s.directions["dog"]) < 1e-5

    def test_planted_block_carries_direction(self):
        s = standard_scenario()
        np.testing.assert_allclose(s.input_grid[8, 8], s.directions["cat"], atol=1e-6)

    def test_gt_centers(self):
        s = standard_scenario()
        (pt,) = s.gt_centers["cat"]
        assert (pt.x, pt.y) == ((8 + 0.5) / 32, (8 + 0.5) / 32)

    def test_region_bounds_validated(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec(regions=[PlantedRegion(0, 0, 5, "cat")])

    @pytest.mark.parametrize("field, value", [
        ("grid_h", 0), ("grid_w", 0), ("d_key", 0), ("d_val", 0),
        ("entries_per_category", -1), ("distractors", -1),
        ("noise", -1.0), ("noise", float("nan")), ("noise", float("inf")),
    ])
    def test_spec_values_validated(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            ScenarioSpec(**{field: value})

    @pytest.mark.parametrize("count, size, categories, message", [
        (-1, 32, ["a"], "count must be >= 0"),
        (2, 32, [], "no categories"),
        (2, 2, ["a"], "no room"),
    ])
    def test_random_regions_arguments_validated(self, count, size, categories, message):
        with pytest.raises(InvalidInputError, match=message):
            random_regions(count, size, size, 3, min_separation=1.0, rng=rng_for(0),
                           categories=categories)

    def test_no_regions_need_no_category_or_room(self):
        assert random_regions(0, 2, 2, 3, min_separation=1.0, rng=rng_for(0),
                              categories=[]) == []

    def test_random_regions_respect_separation(self):
        rng = rng_for(0)
        regions = random_regions(5, 32, 32, 3, min_separation=6.0, rng=rng,
                                 categories=["a", "b"])
        assert len(regions) == 5
        for i, r1 in enumerate(regions):
            for r2 in regions[i + 1:]:
                d = np.hypot(r1.center_row - r2.center_row, r1.center_col - r2.center_col)
                assert d >= 6.0


class TestRunPipeline:
    def test_key_weights_must_be_the_banks(self):
        """A config keyed differently from the bank is refused, naming both
        weight sets, before any embedding is looked up."""
        s = standard_scenario()
        bank_weights = KeyWeights(w_s=0.9, w_g=0.5)
        bank = build_bank(s.records, s.provider, BankBuildConfig(weights=bank_weights))
        params = RefinementParams.zero_init(s.spec.d_val)
        with pytest.raises(InvalidInputError) as exc:
            run_pipeline(PipelineConfig(), bank, FlatIndex.from_bank(bank), EmbeddingProvider(),
                         INPUT_IMAGE_ID, ["cat"], params)
        assert str(KeyWeights()) in str(exc.value) and str(bank_weights) in str(exc.value)
        config = PipelineConfig(w_s=0.9, w_g=0.5)
        results = run_pipeline(config, bank, FlatIndex.from_bank(bank), s.provider,
                               INPUT_IMAGE_ID, ["cat"], params, scene=s.spec.scene)
        query = build_query(s.provider, "cat", s.spec.scene, INPUT_IMAGE_ID, bank_weights)
        assert results["cat"].hits == retrieve(bank, FlatIndex.from_bank(bank), query)

    def test_window_must_be_the_parameters(self):
        """A config whose window differs from a parameter set's is refused,
        naming both windows, before any embedding is looked up: refinement
        uses the parameters' window, so the report's config would be wrong."""
        s = standard_scenario()
        bank, index = bank_and_index(s)
        shared = RefinementParams.zero_init(s.spec.d_val, window=5)
        per_scale = [shared, RefinementParams.zero_init(s.spec.d_val, window=3), shared]
        for params in (shared, per_scale):
            with pytest.raises(InvalidInputError,
                               match="config's window 7 differs from a parameter set's window"):
                run_pipeline(PipelineConfig(window=7), bank, index, EmbeddingProvider(),
                             INPUT_IMAGE_ID, ["cat"], params)
        with pytest.raises(InvalidInputError, match="window 5 differs from .* window 3"):
            run_pipeline(PipelineConfig(window=5), bank, index, EmbeddingProvider(),
                         INPUT_IMAGE_ID, ["cat"], per_scale)
        results = run_pipeline(PipelineConfig(window=5), bank, index, s.provider,
                               INPUT_IMAGE_ID, ["cat"], shared, scene=s.spec.scene)
        assert results["cat"].prompts

    def test_planted_categories_found(self):
        s = standard_scenario()
        bank, index = bank_and_index(s)
        config = PipelineConfig(drop_fraction=0.0)
        params = RefinementParams.zero_init(s.spec.d_val)
        results = run_pipeline(config, bank, index, s.provider, INPUT_IMAGE_ID,
                               s.categories, params, scene=s.spec.scene)
        for cat in ("cat", "dog"):
            res = results[cat]
            assert not res.prototype.is_empty
            assert len(res.anchors) >= 1
            top = res.anchors.anchors[0][0]
            gt = s.gt_centers[cat][0]
            assert abs(top.x - gt.x) <= 1.5 / 32 and abs(top.y - gt.y) <= 1.5 / 32

    def test_prototype_matches_direction(self):
        s = standard_scenario()
        bank, index = bank_and_index(s)
        results = run_pipeline(PipelineConfig(), bank, index, s.provider,
                               INPUT_IMAGE_ID, ["cat"], RefinementParams.zero_init(s.spec.d_val),
                               scene=s.spec.scene)
        proto = results["cat"].prototype
        assert abs(float(proto.vector @ s.directions["cat"])) > 0.999

    def test_masked_argmax_is_source_category(self):
        s = standard_scenario()
        bank, index = bank_and_index(s)
        results = run_pipeline(PipelineConfig(), bank, index, s.provider,
                               INPUT_IMAGE_ID, s.categories,
                               RefinementParams.seeded_init(s.spec.d_val),
                               scene=s.spec.scene)
        for cat, res in results.items():
            assert res.logits is not None
            for row in res.logits.values:
                assert res.logits.categories[int(np.argmax(row))] == cat

    def test_unknown_category_empty_result(self):
        """A category with no aligned memory still runs; its prototype comes
        from whatever nearest neighbors exist, but an unseen embedding that
        retrieves nothing yields an empty result."""
        s = standard_scenario()
        bank, _ = bank_and_index(s)
        # empty bank exercises the no-evidence path deterministically
        empty_bank = build_bank([], s.provider)
        results = run_pipeline(PipelineConfig(), empty_bank, FlatIndex.from_bank(empty_bank),
                               s.provider, INPUT_IMAGE_ID, ["cat"],
                               RefinementParams.zero_init(s.spec.d_val))
        res = results["cat"]
        assert res.prototype.is_empty
        assert res.prior is None and res.anchors is None
        assert res.prompts == [] and res.logits is None

    def test_found_categories_without_anchors(self):
        """An all-zero input grid gives every found category a zero heatmap
        and no anchors, so no prompts and no logits, and raises nothing."""
        s = standard_scenario()
        bank, index = bank_and_index(s)
        grid = s.provider.feature_grid(INPUT_IMAGE_ID)
        s.provider.feature_table[INPUT_IMAGE_ID] = np.zeros_like(grid)
        results = run_pipeline(PipelineConfig(), bank, index, s.provider, INPUT_IMAGE_ID,
                               s.categories, RefinementParams.seeded_init(s.spec.d_val),
                               scene=s.spec.scene)
        assert all(not res.prototype.is_empty for res in results.values())
        for res in results.values():
            assert not res.prior.heatmap.any()
            assert res.anchors.anchors == []
            assert res.prompts == [] and res.logits is None

    def test_ivfpq_path_matches_flat_on_exhaustive_settings(self):
        s = standard_scenario(seed=3)
        bank, flat = bank_and_index(s)
        keys = bank.keys_matrix()
        params = PipelineConfig(nlist=4, m=4, nbits=4, nprobe=4,
                                recall_size=len(bank), kmeans_iters=8)
        index = train_ivfpq(keys, params.index_params())
        ivfpq_add(index, np.arange(len(bank)), keys)
        rp = RefinementParams.zero_init(s.spec.d_val)
        r_flat = run_pipeline(params, bank, flat, s.provider, INPUT_IMAGE_ID,
                              ["cat"], rp, scene=s.spec.scene)
        r_ivf = run_pipeline(params, bank, index, s.provider, INPUT_IMAGE_ID,
                             ["cat"], rp, scene=s.spec.scene)
        assert [h.entry_id for h in r_flat["cat"].hits] == [h.entry_id for h in r_ivf["cat"].hits]
        np.testing.assert_array_equal(r_flat["cat"].prototype.vector,
                                      r_ivf["cat"].prototype.vector)

    def test_stage_and_category_in_error(self):
        s = standard_scenario()
        bank, index = bank_and_index(s)
        # wrong parameter dimension fails inside refine_all
        bad_params = RefinementParams.zero_init(s.spec.d_val + 1)
        with pytest.raises(VismemError, match=r"stage refine_all.*'cat'"):
            run_pipeline(PipelineConfig(), bank, index, s.provider, INPUT_IMAGE_ID,
                         ["cat"], bad_params, scene=s.spec.scene)

    @pytest.mark.parametrize("stage", ["build_query", "retrieve", "dense_prior",
                                       "extract_anchors", "score_prompts"])
    def test_error_tag_per_stage(self, stage):
        s = standard_scenario()
        bank, index = bank_and_index(s)
        grid = s.provider.feature_grid(INPUT_IMAGE_ID)
        wider = np.concatenate([grid, grid[..., :1]], axis=2)  # one channel more than d_val
        provider, config, scales = s.provider, PipelineConfig(), None
        params = RefinementParams.zero_init(s.spec.d_val)
        if stage == "build_query":  # no text embedding for "cat"
            provider = EmbeddingProvider(feature_table={INPUT_IMAGE_ID: grid}, d_key=bank.d_key)
        elif stage == "retrieve":  # the default nprobe=16 does not fit 4 lists
            index = train_ivfpq(bank.keys, IvfPqParams(nlist=4, m=4, nbits=4, kmeans_iters=2))
            ivfpq_add(index, np.arange(len(bank)), bank.keys)
        elif stage == "dense_prior":  # prototypes have d_val channels, the grid one more
            s.provider.feature_table[INPUT_IMAGE_ID] = wider
        elif stage == "extract_anchors":
            config = PipelineConfig(radius_cells=0.0)
        else:  # prompts from the wider scale do not match the prototypes' dim
            scales, params = [wider], RefinementParams.zero_init(s.spec.d_val + 1)
        with pytest.raises(VismemError) as exc:
            run_pipeline(config, bank, index, provider, INPUT_IMAGE_ID, ["cat"], params,
                         scene=s.spec.scene, scales=scales)
        where = stage if stage == "dense_prior" else f"{stage}, category 'cat'"
        assert str(exc.value).startswith(f"[stage {where}] ")

    def test_ivfpq_index_of_other_count_refused_in_retrieve(self):
        """An index filled with half the bank's entries is refused before any
        search, tagged with the first category."""
        s = standard_scenario()
        bank, _ = bank_and_index(s)
        index = train_ivfpq(bank.keys, IvfPqParams(nlist=4, m=4, nbits=4, kmeans_iters=2))
        half = len(bank) // 2
        ivfpq_add(index, np.arange(half), bank.keys[:half])
        with pytest.raises(InvalidInputError) as exc:
            run_pipeline(PipelineConfig(nprobe=4), bank, index, s.provider, INPUT_IMAGE_ID,
                         ["dog", "cat"], RefinementParams.zero_init(s.spec.d_val),
                         scene=s.spec.scene)
        assert str(exc.value) == (f"[stage retrieve, category 'dog'] the index holds {half} "
                                  f"entries, the bank {len(bank)}")

    @pytest.mark.parametrize("kind", ["flat", "ivfpq"])
    def test_query_fault_tagged_with_its_category(self, kind, monkeypatch):
        """A non-finite query of the second category is refused under that
        category, though all queries are searched in one pass."""
        s = standard_scenario()
        bank, index = bank_and_index(s)
        if kind == "ivfpq":
            index = train_ivfpq(bank.keys, IvfPqParams(nlist=4, m=4, nbits=4, kmeans_iters=2))
            ivfpq_add(index, np.arange(len(bank)), bank.keys)
        cat = s.provider.text_embedding("cat")
        def build_key_nan_for_cat(phrase, *context):
            key = build_key(phrase, *context)
            return np.full_like(key, np.nan) if np.array_equal(phrase, cat) else key
        monkeypatch.setattr(pipeline_module, "build_key", build_key_nan_for_cat)
        with pytest.raises(InvalidInputError) as exc:
            run_pipeline(PipelineConfig(nprobe=4), bank, index, s.provider, INPUT_IMAGE_ID,
                         ["dog", "cat"], RefinementParams.zero_init(s.spec.d_val),
                         scene=s.spec.scene)
        assert str(exc.value) == "[stage retrieve, category 'cat'] query must be finite"

    def test_prompt_overflowing_in_layer_norm_tagged_in_scoring(self):
        """A finite layer-norm gain that overflows float32 makes non-finite
        prompts, which scoring rejects for the first category it scores."""
        s = standard_scenario()
        bank, index = bank_and_index(s)
        params = RefinementParams.seeded_init(s.spec.d_val, seed=1)
        params = RefinementParams(e=params.e, w_sparse=params.w_sparse, w_dense=params.w_dense,
                                  ln_gain=np.full(s.spec.d_val, 3e38), ln_bias=params.ln_bias)
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError) as exc:
            run_pipeline(PipelineConfig(), bank, index, s.provider, INPUT_IMAGE_ID,
                         ["cat", "dog"], params, scene=s.spec.scene)
        assert str(exc.value) == ("[stage score_prompts, category 'cat'] "
                                  "1-D vector contains non-finite entries")

    def test_report_structure(self):
        s = standard_scenario()
        bank, index = bank_and_index(s)
        config = PipelineConfig()
        results = run_pipeline(config, bank, index, s.provider, INPUT_IMAGE_ID,
                               s.categories, RefinementParams.zero_init(s.spec.d_val),
                               scene=s.spec.scene)
        report = pipeline_report(config, results, INPUT_IMAGE_ID)
        assert report["image_id"] == INPUT_IMAGE_ID
        assert report["categories"] == s.categories
        assert report["config"]["k"] == 12 and report["config"]["tau_p"] == 0.07
        cat = report["results"]["cat"]
        assert len(cat["retrieval"]) == min(12, len(bank))
        assert cat["prototype_norm"] == pytest.approx(1.0, abs=1e-5)
        assert cat["prompt_count"] == len(results["cat"].prompts)
        assert all(m == "cat" for m in cat["masked_argmax"])
        import json
        json.dumps(report)  # must be serializable

    def test_distractors_do_not_hijack_retrieval(self):
        """Retrieved neighbors for a planted category are its own memory
        entries, not distractors."""
        s = standard_scenario()
        bank, index = bank_and_index(s)
        results = run_pipeline(PipelineConfig(), bank, index, s.provider,
                               INPUT_IMAGE_ID, ["cat"],
                               RefinementParams.zero_init(s.spec.d_val),
                               scene=s.spec.scene)
        top_hits = results["cat"].hits[:5]
        for h in top_hits:
            assert bank.entries[h.entry_id].category == "cat"


def avg_pool(grid, factor):
    h, w, d = grid.shape
    return grid.reshape(h // factor, factor, w // factor, factor, d).mean(axis=(1, 3))


def blind_retrieve(blind):
    """retrieve that finds nothing for one query vector, so one category
    gets an empty prototype while the others do not."""
    def search(bank, index, query, **kwargs):
        return [] if np.array_equal(query.vector, blind) else retrieve(bank, index, query, **kwargs)
    return search


def blind_retrieve_all(blind):
    """run_pipeline's retrieval pass, blind to the same query vector."""
    def search(bank, index, queries, *args):
        ranked = _retrieve_all(bank, index, queries, *args)
        nothing = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
        return [nothing if np.array_equal(q, blind) else r for q, r in zip(queries, ranked)]
    return search


class TestPipelineComposesPublicFunctions:
    """run_pipeline does its per-image work once, yet gives what composing the
    public functions per category gives, bit for bit."""

    def _oracle(self, config, bank, index, provider, image_id, categories, params,
                scene, scales, exclude_image, search=retrieve):
        out, protos = {}, {}
        for category in categories:
            query = build_query(provider, category, scene, image_id, config.weights())
            hits = search(bank, index, query, k=config.k, exclude_image=exclude_image,
                          nprobe=config.nprobe, recall_size=config.recall_size)
            proto = aggregate_prototype(bank, hits, query, tau=config.tau_p)
            protos[category] = proto
            if proto.is_empty:
                out[category] = (hits, proto, None, None, [])
                continue
            prior = dense_prior(provider.feature_grid(image_id), proto, sigma=config.sigma)
            radius = radius_cells_to_normalized(config.radius_cells, *prior.heatmap.shape)
            anchors = extract_anchors(prior, threshold=config.peak_threshold,
                                      radius=radius, max_anchors=config.max_anchors)
            out[category] = (hits, proto, prior, anchors,
                             refine_all(scales, prior, anchors, params, category))
        embs = {c: p.vector for c, p in protos.items() if not p.is_empty}
        return {c: (*r, constrain_logits(score_prompts(r[4], embs)) if r[4] else None)
                for c, r in out.items()}

    def test_multi_scale_with_exclusion_and_an_empty_prototype(self, monkeypatch):
        regions = [PlantedRegion(8, 8, 3, "cat"), PlantedRegion(24, 20, 3, "dog"),
                   PlantedRegion(20, 6, 3, "bird")]
        s = standard_scenario(seed=4, noise=0.05, regions=regions)
        bank = build_bank(s.records, s.provider, BankBuildConfig(drop_fraction=0.0))
        config = PipelineConfig(peak_threshold=0.3)
        bird = build_query(s.provider, "bird", s.spec.scene, INPUT_IMAGE_ID, config.weights())
        search = blind_retrieve(bird.vector)
        monkeypatch.setattr(pipeline_module, "_retrieve_all", blind_retrieve_all(bird.vector))
        index = FlatIndex.from_bank(bank)
        grid = s.provider.feature_grid(INPUT_IMAGE_ID)
        scales = [grid, avg_pool(grid, 2), avg_pool(grid, 4)]
        params = [RefinementParams.seeded_init(s.spec.d_val, seed=i) for i in range(3)]
        exclude = str(bank.image_ids[bank.categories == "cat"][0])
        args = (config, bank, index, s.provider, INPUT_IMAGE_ID, s.categories, params)
        kwargs = dict(scene=s.spec.scene, scales=scales, exclude_image=exclude)
        results = run_pipeline(*args, **kwargs)
        oracle = self._oracle(*args, search=search, **kwargs)

        assert list(results) == s.categories == list(oracle)
        assert results["bird"].prototype.is_empty and results["bird"].logits is None
        assert exclude not in {str(bank.image_ids[h.entry_id]) for h in results["cat"].hits}
        self._assert_bit_equal(results, oracle, len(scales))

    def test_many_categories_unsmoothed_with_shared_params(self):
        """Six categories of one image refined in one pass, with one parameter
        set for every scale; the smallest scale is narrower than the window."""
        names = [f"c{i}" for i in range(6)]
        regions = random_regions(12, 48, 48, extent=3, min_separation=7.0, rng=rng_for(5),
                                 categories=names)
        s = standard_scenario(seed=9, noise=0.05, regions=regions, grid_h=48, grid_w=48)
        bank, index = bank_and_index(s)
        config = PipelineConfig(sigma=0.0, peak_threshold=0.4)
        grid = s.provider.feature_grid(INPUT_IMAGE_ID)
        scales = [grid, avg_pool(grid, 2), avg_pool(grid, 16)]
        params = RefinementParams.seeded_init(s.spec.d_val, seed=2)
        args = (config, bank, index, s.provider, INPUT_IMAGE_ID, s.categories, params)
        kwargs = dict(scene=s.spec.scene, scales=scales, exclude_image=None)
        results = run_pipeline(*args, **kwargs)
        oracle = self._oracle(*args, **kwargs)

        assert list(results) == s.categories == names
        assert all(not r.prototype.is_empty for r in results.values())
        assert scales[2].shape[:2] == (3, 3) and params.window == 5
        assert max(len(r.anchors) for r in results.values()) > 1
        self._assert_bit_equal(results, oracle, len(scales))

    def test_provider_grid_as_a_scale_is_checked_once(self, monkeypatch):
        """A scale that is the provider's grid object reuses the input grid's
        check; a copy of it is checked on its own. Both give the same bits."""
        s = standard_scenario(seed=4, noise=0.05)
        bank, index = bank_and_index(s)
        grid = s.provider.feature_grid(INPUT_IMAGE_ID)
        params = RefinementParams.seeded_init(s.spec.d_val, seed=1)
        checked = []
        def as_grid_counted(g):
            checked.append(g)
            return as_grid(g)
        monkeypatch.setattr(pipeline_module, "as_grid", as_grid_counted)
        args = (PipelineConfig(peak_threshold=0.3), bank, index, s.provider, INPUT_IMAGE_ID,
                s.categories, params)
        results = run_pipeline(*args, scene=s.spec.scene, scales=[grid, avg_pool(grid, 2)])
        assert len(checked) == 2 and checked[0] is grid and checked[1] is not grid
        checked.clear()
        copies = run_pipeline(*args, scene=s.spec.scene,
                              scales=[grid.copy(), avg_pool(grid, 2)])
        assert len(checked) == 3
        oracle = {c: (r.hits, r.prototype, r.prior, r.anchors, r.prompts, r.logits)
                  for c, r in copies.items()}
        self._assert_bit_equal(results, oracle, 2)

    @staticmethod
    def _assert_bit_equal(results, oracle, n_scales):
        for category, (hits, proto, prior, anchors, prompts, logits) in oracle.items():
            res = results[category]
            assert [(h.entry_id, h.score) for h in res.hits] == [(h.entry_id, h.score) for h in hits]
            np.testing.assert_array_equal(res.prototype.vector, proto.vector)
            assert res.prototype.neighbors == proto.neighbors
            if prior is None:
                assert res.prior is None and res.anchors is None and res.prompts == []
                continue
            np.testing.assert_array_equal(res.prior.heatmap, prior.heatmap)
            assert res.anchors.anchors == anchors.anchors and len(anchors) >= 1
            assert len(res.prompts) == len(prompts) == n_scales * len(anchors)
            for got, want in zip(res.prompts, prompts):
                np.testing.assert_array_equal(got.embedding, want.embedding)
                assert (got.anchor, got.scale_index, got.source_category) == \
                    (want.anchor, want.scale_index, want.source_category)
            np.testing.assert_array_equal(res.logits.values, logits.values)
            assert (res.logits.categories, res.logits.sources) == \
                (logits.categories, logits.sources)


class TestBadFeatureGrids:
    """A non-finite input grid or scale fails loudly with a stage name, even
    when no category reaches refinement."""

    def _nan_at(self, grid, r=3, c=5):
        bad = np.array(grid, dtype=np.float32)
        bad[r, c, 0] = np.nan
        return bad

    @pytest.mark.parametrize("empty_bank", [False, True])
    def test_nan_in_one_scale(self, empty_bank):
        s = standard_scenario()
        bank, index = bank_and_index(s)
        if empty_bank:
            bank = build_bank([], s.provider)
            index = FlatIndex.from_bank(bank)
        grid = s.provider.feature_grid(INPUT_IMAGE_ID)
        scales = [grid, self._nan_at(avg_pool(grid, 2), 1, 1), avg_pool(grid, 4)]
        with pytest.raises(InvalidInputError, match=r"\[stage scales\].*non-finite"):
            run_pipeline(PipelineConfig(), bank, index, s.provider, INPUT_IMAGE_ID,
                         s.categories, RefinementParams.zero_init(s.spec.d_val),
                         scene=s.spec.scene, scales=scales)

    @pytest.mark.parametrize("empty_bank", [False, True])
    @pytest.mark.parametrize("explicit_scales", [False, True])
    def test_nan_in_input_grid(self, empty_bank, explicit_scales):
        s = standard_scenario()
        bank, index = bank_and_index(s)
        if empty_bank:
            bank = build_bank([], s.provider)
            index = FlatIndex.from_bank(bank)
        grid = s.provider.feature_grid(INPUT_IMAGE_ID)
        scales = [grid] if explicit_scales else None
        s.provider.feature_table[INPUT_IMAGE_ID] = self._nan_at(grid)
        with pytest.raises(InvalidInputError, match=r"\[stage input_grid\].*non-finite"):
            run_pipeline(PipelineConfig(), bank, index, s.provider, INPUT_IMAGE_ID,
                         s.categories, RefinementParams.zero_init(s.spec.d_val),
                         scene=s.spec.scene, scales=scales)
