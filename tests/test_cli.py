import argparse
import json
import re
import shlex
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from vismem import artifacts, cli
from vismem.bank import HashingProvider, KeyWeights, load_bank, save_embedding_table
from vismem.cli import build_parser, main
from vismem.errors import InvalidInputError
from vismem.index import FlatIndex, IvfPqIndex, IvfPqParams, exact_scores, ivfpq_add, save_index
from vismem.refine import RefinementParams, save_params
from vismem.retrieval import build_query
from vismem.synthetic import ScenarioSpec


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    rc = main([
        "gen-synthetic", "--out", str(out), "--seed", "7",
        "--grid-size", "24", "--key-dim", "32", "--val-dim", "16",
        "--categories", "2", "--regions", "2",
        "--entries-per-category", "8", "--distractors", "10",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def bank_path(scenario_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("bank") / "bank.pbnk"
    rc = main([
        "build-memory", "--scenario", str(scenario_dir), "--out", str(out),
        "--set", "drop_fraction=0.0",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def index_path(scenario_dir, bank_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("index") / "idx.pivf"
    rc = main([
        "build-index", "--bank", str(bank_path), "--out", str(out),
        "--set", "nlist=4", "--set", "m=4", "--set", "nbits=4",
        "--set", "nprobe=4", "--set", "kmeans_iters=5",
    ])
    assert rc == 0
    return out


class TestGenSynthetic:
    def test_writes_expected_files(self, scenario_dir):
        assert (scenario_dir / "records.jsonl").exists()
        assert (scenario_dir / "scenario.json").exists()
        assert (scenario_dir / "features" / "input.pgrd").exists()

    def test_scenario_metadata(self, scenario_dir):
        meta = json.loads((scenario_dir / "scenario.json").read_text())
        assert meta["d_key"] == 32 and meta["d_val"] == 16
        assert len(meta["categories"]) == 2
        assert meta["image_id"] == "input"
        assert all(len(pts) >= 1 for pts in meta["gt_centers"].values())

    def test_deterministic(self, scenario_dir, tmp_path):
        rc = main([
            "gen-synthetic", "--out", str(tmp_path), "--seed", "7",
            "--grid-size", "24", "--key-dim", "32", "--val-dim", "16",
            "--categories", "2", "--regions", "2",
            "--entries-per-category", "8", "--distractors", "10",
        ])
        assert rc == 0
        assert ((tmp_path / "records.jsonl").read_bytes()
                == (scenario_dir / "records.jsonl").read_bytes())
        assert ((tmp_path / "features" / "input.pgrd").read_bytes()
                == (scenario_dir / "features" / "input.pgrd").read_bytes())

    def test_parser_defaults_are_the_spec_defaults(self):
        args = build_parser().parse_args(["gen-synthetic", "--out", "x"])
        spec = {f.name: f.default for f in fields(ScenarioSpec)}
        assert args.grid_size == spec["grid_h"] == spec["grid_w"]
        assert (args.key_dim, args.val_dim, args.noise, args.seed) == (
            spec["d_key"], spec["d_val"], spec["noise"], spec["seed"])
        assert (args.entries_per_category, args.distractors) == (
            spec["entries_per_category"], spec["distractors"])


class TestBuildMemory:
    def test_manifest_on_stdout(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "bank.pbnk"
        rc = main(["build-memory", "--scenario", str(scenario_dir), "--out", str(out)])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out.strip())
        assert manifest["input_count"] == 2 * 8 + 10
        assert manifest["output_count"] == manifest["input_count"] - manifest["removed_blur"]
        assert out.exists()

    def test_missing_records_is_usage_error(self, tmp_path):
        rc = main(["build-memory", "--hash-key-dim", "8", "--hash-val-dim", "4",
                   "--out", str(tmp_path / "b.pbnk")])
        assert rc == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = main(["build-memory", "--records", str(tmp_path / "none.jsonl"),
                   "--hash-key-dim", "8", "--hash-val-dim", "4",
                   "--out", str(tmp_path / "b.pbnk")])
        assert rc == 2


class TestBuildIndex:
    def test_index_written(self, index_path):
        assert index_path.exists()

    def test_bad_config_value_exits_1(self, bank_path, tmp_path):
        rc = main(["build-index", "--bank", str(bank_path),
                   "--out", str(tmp_path / "i.pivf"), "--set", "nlist=abc"])
        assert rc == 1


class TestRetrieve:
    def test_jsonl_output(self, scenario_dir, bank_path, tmp_path):
        meta = json.loads((scenario_dir / "scenario.json").read_text())
        cats = tmp_path / "cats.txt"
        cats.write_text("\n".join(meta["categories"]) + "\n")
        out = tmp_path / "hits.jsonl"
        rc = main([
            "retrieve", "--scenario", str(scenario_dir), "--bank", str(bank_path),
            "--categories", str(cats), "--image-id", "input",
            "--scene", meta["scene"], "--out", str(out),
        ])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [l["category"] for l in lines] == meta["categories"]
        for line in lines:
            assert len(line["hits"]) == 12
            assert len(line["prototype"]) == meta["d_val"]
            norm = float(np.linalg.norm(line["prototype"]))
            assert norm == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("existing", [None, b"an earlier run's output\n"])
    def test_failure_partway_writes_no_output(self, scenario_dir, bank_path, tmp_path, capsys,
                                              existing):
        """cat-0 retrieves and cat-1 has no text embedding: exit 2, and --out
        is neither created nor changed."""
        provider = HashingProvider(d_key=32, d_val=16, seed=7)
        save_embedding_table({"cat-0": provider.text_embedding("cat-0")}, tmp_path / "t.pmem")
        save_embedding_table({"input": provider.image_embedding("input")}, tmp_path / "i.pmem")
        (tmp_path / "cats.txt").write_text("cat-0\ncat-1\n")
        out = tmp_path / "part.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        rc = main(["retrieve", "--text-table", str(tmp_path / "t.pmem"),
                   "--image-table", str(tmp_path / "i.pmem"), "--bank", str(bank_path),
                   "--categories", str(tmp_path / "cats.txt"), "--image-id", "input",
                   "--out", str(out)])
        assert rc == 2
        assert "no text embedding for 'cat-1'" in assert_one_error_line(capsys)
        assert (out.read_bytes() if out.exists() else None) == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["t.pmem", "i.pmem", "cats.txt"] + ([out.name] if existing else []))

    def test_with_ivfpq_index(self, scenario_dir, bank_path, index_path, tmp_path):
        meta = json.loads((scenario_dir / "scenario.json").read_text())
        cats = tmp_path / "cats.txt"
        cats.write_text(meta["categories"][0] + "\n")
        out = tmp_path / "hits.jsonl"
        rc = main([
            "retrieve", "--scenario", str(scenario_dir), "--bank", str(bank_path),
            "--index", str(index_path), "--categories", str(cats),
            "--image-id", "input", "--scene", meta["scene"], "--out", str(out),
            "--set", "nprobe=4",
        ])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1


class TestPriorsAndRefine:
    @pytest.fixture()
    def retrieval_line(self, scenario_dir, bank_path, tmp_path):
        meta = json.loads((scenario_dir / "scenario.json").read_text())
        cats = tmp_path / "cats.txt"
        cats.write_text(meta["categories"][0] + "\n")
        out = tmp_path / "hits.jsonl"
        rc = main([
            "retrieve", "--scenario", str(scenario_dir), "--bank", str(bank_path),
            "--categories", str(cats), "--image-id", "input",
            "--scene", meta["scene"], "--out", str(out),
        ])
        assert rc == 0
        return out, meta

    def test_priors_then_refine(self, scenario_dir, retrieval_line, tmp_path):
        hits_path, meta = retrieval_line
        grid = scenario_dir / "features" / "input.pgrd"
        heat = tmp_path / "prior.pmap"
        anchors = tmp_path / "anchors.jsonl"
        pgm = tmp_path / "prior.pgm"
        rc = main([
            "priors", "--grid", str(grid), "--prototype", str(hits_path),
            "--out-heatmap", str(heat), "--out-anchors", str(anchors),
            "--out-pgm", str(pgm),
        ])
        assert rc == 0
        hm = artifacts.load_scalar_map(heat)
        assert hm.shape == (24, 24)
        assert hm.min() >= 0.0 and hm.max() <= 1.0 + 1e-6
        anchor_objs = [json.loads(l) for l in anchors.read_text().splitlines()]
        assert len(anchor_objs) >= 1
        # top anchor sits at the planted ground-truth center
        gt = meta["gt_centers"][meta["categories"][0]]
        top = anchor_objs[0]
        assert any(abs(top["x"] - x) <= 1.5 / 24 and abs(top["y"] - y) <= 1.5 / 24
                   for x, y in gt)
        assert pgm.exists()

        params_path = tmp_path / "params.pprm"
        save_params(RefinementParams.seeded_init(meta["d_val"], seed=0), params_path)
        prompts_path = tmp_path / "prompts.pvec"
        sidecar = tmp_path / "prompts.jsonl"
        rc = main([
            "refine", "--grids", str(grid), "--heatmap", str(heat),
            "--anchors", str(anchors), "--params", str(params_path),
            "--out-prompts", str(prompts_path), "--out-sidecar", str(sidecar),
        ])
        assert rc == 0
        prompts = artifacts.load_vectors(prompts_path)
        side = [json.loads(l) for l in sidecar.read_text().splitlines()]
        assert prompts.shape == (len(anchor_objs), meta["d_val"])
        assert len(side) == len(anchor_objs)
        assert all(s["category"] == meta["categories"][0] for s in side)


class TestPipeline:
    def test_report_written(self, scenario_dir, bank_path, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main([
            "pipeline", "--scenario", str(scenario_dir), "--bank", str(bank_path),
            "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        meta = json.loads((scenario_dir / "scenario.json").read_text())
        assert report["categories"] == meta["categories"]
        assert report["config"]["k"] == 12
        assert report["config"]["tau_p"] == 0.07
        assert report["config"]["recall_size"] == 200
        for cat in meta["categories"]:
            res = report["results"][cat]
            assert res["prototype_norm"] == pytest.approx(1.0, abs=1e-4)
            assert len(res["anchors"]) >= 1
            assert all(m == cat for m in res["masked_argmax"])

    def test_config_file_and_overrides(self, scenario_dir, bank_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[retrieval]\nk = 5\n")
        rc = main([
            "pipeline", "--scenario", str(scenario_dir), "--bank", str(bank_path),
            "--config", str(cfg), "--set", "sigma=2.0",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["k"] == 5
        assert report["config"]["sigma"] == 2.0

    def test_missing_bank_exits_2(self, scenario_dir, tmp_path):
        rc = main([
            "pipeline", "--scenario", str(scenario_dir),
            "--bank", str(tmp_path / "missing.pbnk"),
        ])
        assert rc == 2

    def test_no_scenario_and_no_categories_exits_2(self, scenario_dir, bank_path, capsys):
        rc = main([
            "pipeline", "--bank", str(bank_path),
            "--features-dir", str(scenario_dir / "features"),
            "--hash-key-dim", "32", "--image-id", "input",
        ])
        assert rc == 2
        assert load_bank(bank_path).keys.shape == (26, 32)
        assert "--categories" in assert_one_error_line(capsys)


class TestOutOfRangeValuesExit2:
    """Values the commands cannot run with end in one error line and exit
    2, not in a traceback or a file a later command refuses."""

    @pytest.mark.parametrize("flags, reason", [
        (["--categories", "0", "--regions", "2"], "no categories"),
        (["--grid-size", "2"], "no room"),
        (["--key-dim", "0"], "d_key"),
        (["--val-dim", "0"], "d_val"),
        (["--noise", "-1"], "noise"),
        (["--noise", "nan"], "noise"),
        (["--regions", "-1"], "count"),
        (["--entries-per-category", "-1"], "entries_per_category"),
        (["--distractors", "-1"], "distractors"),
        (["--seed", "-1"], "seed"),
    ])
    def test_gen_synthetic(self, tmp_path, capsys, flags, reason):
        assert main(["gen-synthetic", "--out", str(tmp_path / "scn"), *flags]) == 2
        assert reason in assert_one_error_line(capsys)
        assert not (tmp_path / "scn").exists()


class TestNprobeBoundToIndex:
    """nprobe is checked against the loaded index's nlist, not the config's."""

    @pytest.fixture(scope="class")
    def wide_index_path(self, bank_path, tmp_path_factory):
        # 512 lists, more than the config's default nlist of 256; the
        # centroids are random, as no bank here has 512 keys to train on.
        memory = load_bank(bank_path)
        rng = np.random.Generator(np.random.PCG64(0))
        params = IvfPqParams(nlist=512, m=4, nbits=4)
        index = IvfPqIndex(
            params=params, dim=memory.d_key,
            coarse_centroids=rng.standard_normal((512, memory.d_key)).astype(np.float32),
            pq_codebooks=rng.standard_normal((4, 16, memory.d_key // 4)).astype(np.float32))
        ivfpq_add(index, np.arange(len(memory)), memory.keys)
        out = tmp_path_factory.mktemp("wide") / "wide.pivf"
        save_index(index, out)
        return out

    @pytest.mark.parametrize("command", ["pipeline", "retrieve"])
    def test_nprobe_over_index_nlist_exits_2(self, command, scenario_dir, bank_path,
                                             index_path, tmp_path, capsys):
        # The index has nlist=4; the default nprobe of 16 fits the config's
        # nlist of 256 but not the index.
        (tmp_path / "cats.txt").write_text("cat-0\n")
        extra = {"pipeline": ["--scenario", str(scenario_dir)],
                 "retrieve": ["--scenario", str(scenario_dir), "--image-id", "input",
                              "--categories", str(tmp_path / "cats.txt")]}[command]
        rc = main([command, "--bank", str(bank_path), "--index", str(index_path), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "nprobe=16" in err and "nlist=4" in err and "--set nprobe=" in err

    def test_nprobe_over_config_nlist_accepted(self, scenario_dir, bank_path,
                                               wide_index_path, tmp_path, capsys):
        (tmp_path / "cats.txt").write_text("cat-0\n")
        rc = main(["retrieve", "--scenario", str(scenario_dir), "--bank", str(bank_path),
                   "--index", str(wide_index_path), "--categories", str(tmp_path / "cats.txt"),
                   "--image-id", "input", "--set", "nprobe=300"])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["hits"]) >= 1
        rc = main(["pipeline", "--scenario", str(scenario_dir), "--bank", str(bank_path),
                   "--index", str(wide_index_path), "--set", "nprobe=300"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["nprobe"] == 300 and report["config"]["nlist"] == 512


class TestConfigErrors:
    """A bad config value or file is a data error: exit 2 and one error line."""

    def _build_index(self, bank_path, tmp_path, *extra):
        return main(["build-index", "--bank", str(bank_path),
                     "--out", str(tmp_path / "i.pivf"), *extra])

    def _assert_reported(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_ini_value_exits_2(self, bank_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[retrieval]\nk = abc\n")
        assert self._build_index(bank_path, tmp_path, "--config", str(cfg)) == 2
        self._assert_reported(capsys)

    def test_ini_without_section_exits_2(self, bank_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("k = 5\n")
        assert self._build_index(bank_path, tmp_path, "--config", str(cfg)) == 2
        self._assert_reported(capsys)

    @pytest.mark.parametrize("setting", ["iou_threshold=5", "iou_threshold=0", "min_area=-0.1"])
    def test_bad_bank_filter_exits_2(self, scenario_dir, bank_path, index_path, setting, capsys):
        args = ["pipeline", "--scenario", str(scenario_dir), "--bank", str(bank_path),
                "--index", str(index_path), "--set", "nprobe=4"]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--set", setting]) == 2
        self._assert_reported(capsys)

    def test_zero_m_exits_2(self, bank_path, tmp_path, capsys):
        assert self._build_index(bank_path, tmp_path, "--set", "m=0") == 2
        self._assert_reported(capsys)
        assert not (tmp_path / "i.pivf").exists()

    def test_nan_key_in_bank_exits_2(self, bank_path, tmp_path, capsys):
        # load_bank does not check key values, so the bank loads; training refuses it
        data = bank_path.read_bytes()
        at = data.find(load_bank(bank_path).keys[0].tobytes())
        assert at > 0
        nan_bank = tmp_path / "nan.pbnk"
        nan_bank.write_bytes(data[:at] + np.float32(np.nan).tobytes() + data[at + 4:])
        rc = main(["build-index", "--bank", str(nan_bank), "--out", str(tmp_path / "i.pivf"),
                   "--set", "nlist=4", "--set", "m=4", "--set", "nbits=4",
                   "--set", "nprobe=4", "--set", "kmeans_iters=5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "row 0" in err
        assert not (tmp_path / "i.pivf").exists()


class TestUsageErrors:
    def test_no_subcommand_exits_1(self):
        assert main([]) == 1

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert main(["build-index"]) == 1

    def test_bad_set_key_exits_1(self, bank_path, tmp_path):
        rc = main(["build-index", "--bank", str(bank_path),
                   "--out", str(tmp_path / "i.pivf"), "--set", "nonsense=3"])
        assert rc == 1


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


class TestMalformedFilesExit2:
    """A malformed input file exits 2 with one error line, never a traceback."""

    def test_bank_with_huge_d_key(self, scenario_dir, bank_path, tmp_path, capsys):
        raw = bytearray(bank_path.read_bytes())
        raw[8:12] = (2**31).to_bytes(4, "little")  # d_key
        bad = tmp_path / "bad.pbnk"
        bad.write_bytes(bytes(raw))
        (tmp_path / "cats.txt").write_text("cat-0\n")
        rc = main(["retrieve", "--scenario", str(scenario_dir), "--bank", str(bad),
                   "--categories", str(tmp_path / "cats.txt"), "--image-id", "input"])
        assert rc == 2
        assert "offset 8" in assert_one_error_line(capsys)

    def test_params_with_zero_sets(self, scenario_dir, tmp_path, capsys):
        params = tmp_path / "p.pprm"
        save_params(RefinementParams.zero_init(16), params)
        raw = bytearray(params.read_bytes()[:28])  # the header of a shared file, no set
        raw[16:20] = (0).to_bytes(4, "little")  # set count
        params.write_bytes(bytes(raw))
        heat = tmp_path / "h.pmap"
        artifacts.save_scalar_map(np.ones((24, 24), dtype=np.float32), heat)
        (tmp_path / "anchors.jsonl").write_text('{"x": 0.5, "y": 0.5, "response": 1.0}\n')
        rc = main(["refine", "--grids", str(scenario_dir / "features" / "input.pgrd"),
                   "--heatmap", str(heat), "--anchors", str(tmp_path / "anchors.jsonl"),
                   "--params", str(params), "--out-prompts", str(tmp_path / "o.pvec"),
                   "--out-sidecar", str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "0 sets" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("val_dim, grid_dims, shapes", [
        (4, 16, [", 16)", ", 4)"]),  # every pooled value has 16 dims
        (16, 8, ["inhomogeneous"]),  # one memory image's grid has 8 of 16 dims
    ])
    def test_values_that_fit_no_value_column(self, scenario_dir, tmp_path, capsys, val_dim,
                                             grid_dims, shapes):
        features = tmp_path / "features"
        shutil.copytree(scenario_dir / "features", features)
        grid = artifacts.load_feature_grid(features / "mem-cat-0-0.pgrd")
        artifacts.save_feature_grid(np.ascontiguousarray(grid[:, :, :grid_dims]),
                                    features / "mem-cat-0-0.pgrd")
        out = tmp_path / "b.pbnk"
        rc = main(["build-memory", "--hash-key-dim", "8", "--hash-val-dim", str(val_dim),
                   "--features-dir", str(features),
                   "--records", str(scenario_dir / "records.jsonl"), "--out", str(out)])
        assert rc == 2
        message = assert_one_error_line(capsys)
        assert "bank column 'values'" in message and all(s in message for s in shapes)
        assert not out.exists()

    def test_records_line_not_an_object(self, scenario_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        lines = (scenario_dir / "records.jsonl").read_text().splitlines()
        records.write_text("\n".join([lines[0], "5", *lines[1:]]) + "\n")
        rc = main(["build-memory", "--scenario", str(scenario_dir), "--records", str(records),
                   "--out", str(tmp_path / "b.pbnk")])
        assert rc == 2
        assert "line 2" in assert_one_error_line(capsys)
        assert not (tmp_path / "b.pbnk").exists()


class TestLoadedFilesSupplyConfig:
    """A loaded bank supplies the key weights, an index nlist, m, nbits and
    kmeans_iters, and a parameter file the window; a --set that disagrees
    exits 2 and names both values."""

    @pytest.fixture(scope="class")
    def params_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("params") / "p.pprm"
        save_params(RefinementParams.zero_init(16, window=3), out)
        return out

    @pytest.fixture(scope="class")
    def w_s_bank_path(self, scenario_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("bank") / "w_s.pbnk"
        assert main(["build-memory", "--scenario", str(scenario_dir), "--out", str(out),
                     "--set", "drop_fraction=0.0", "--set", "w_s=0.5"]) == 0
        return out

    def _pipeline(self, scenario_dir, bank, *extra):
        return main(["pipeline", "--scenario", str(scenario_dir), "--bank", str(bank), *extra])

    def test_window_from_params_file(self, scenario_dir, bank_path, params_path, capsys):
        assert self._pipeline(scenario_dir, bank_path, "--params", str(params_path)) == 0
        assert json.loads(capsys.readouterr().out)["config"]["window"] == 3
        assert self._pipeline(scenario_dir, bank_path, "--params", str(params_path),
                              "--set", "window=3") == 0

    def test_window_conflict_exits_2(self, scenario_dir, bank_path, params_path, capsys):
        rc = self._pipeline(scenario_dir, bank_path, "--params", str(params_path),
                            "--set", "window=7")
        assert rc == 2
        err = assert_one_error_line(capsys)
        assert "window=7" in err and "window=3" in err

    def test_weights_from_bank(self, scenario_dir, w_s_bank_path, tmp_path, capsys):
        assert self._pipeline(scenario_dir, w_s_bank_path) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["config"]["w_p"], report["config"]["w_s"]) == (1.0, 0.5)
        # retrieve queries with the bank's weights: its best hit is the exact
        # flat maximum for a query keyed with w_s=0.5
        meta = json.loads((scenario_dir / "scenario.json").read_text())
        (tmp_path / "cats.txt").write_text("cat-0\n")
        assert main(["retrieve", "--scenario", str(scenario_dir), "--bank", str(w_s_bank_path),
                     "--categories", str(tmp_path / "cats.txt"), "--image-id", "input",
                     "--scene", meta["scene"]]) == 0
        best = json.loads(capsys.readouterr().out)["hits"][0]["score"]
        provider = HashingProvider(d_key=meta["d_key"], d_val=meta["d_val"], seed=meta["seed"])
        keys = load_bank(w_s_bank_path).keys
        scores = {w_s: exact_scores(keys, build_query(provider, "cat-0", meta["scene"], "input",
                                                      KeyWeights(w_s=w_s)).vector).max()
                  for w_s in (0.3, 0.5)}
        assert best == scores[0.5] != scores[0.3]

    def test_weight_conflict_exits_2(self, scenario_dir, w_s_bank_path, capsys):
        assert self._pipeline(scenario_dir, w_s_bank_path, "--set", "w_s=0.3") == 2
        err = assert_one_error_line(capsys)
        assert "w_s=0.3" in err and "w_s=0.5" in err

    def test_nlist_conflict_exits_2(self, scenario_dir, bank_path, index_path, capsys):
        rc = self._pipeline(scenario_dir, bank_path, "--index", str(index_path),
                            "--set", "nprobe=4", "--set", "nlist=8")
        assert rc == 2
        err = assert_one_error_line(capsys)
        assert "nlist=8" in err and "nlist=4" in err

    def test_index_params_from_index(self, scenario_dir, bank_path, index_path, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert self._pipeline(scenario_dir, bank_path, "--index", str(index_path),
                              "--set", "nprobe=2", "--report", str(report)) == 0
        config = json.loads(report.read_text())["config"]
        # the index fixture's values
        assert {k: config[k] for k in ("nlist", "m", "nbits", "kmeans_iters", "seed")} == {
            "nlist": 4, "m": 4, "nbits": 4, "kmeans_iters": 5, "seed": 0}

    @pytest.mark.parametrize("key, value, stored", [
        ("m", "8", "4"), ("nbits", "8", "4"), ("kmeans_iters", "25", "5"), ("seed", "9", "0")])
    def test_index_param_conflict_exits_2(self, scenario_dir, bank_path, index_path, capsys,
                                          key, value, stored):
        rc = self._pipeline(scenario_dir, bank_path, "--index", str(index_path),
                            "--set", "nprobe=2", "--set", f"{key}={value}")
        assert rc == 2
        err = assert_one_error_line(capsys)
        assert f"{key}={value}" in err and f"{key}={stored}" in err


class TestNonFiniteKeys:
    """A bank whose entry 0 has a NaN key: the flat index refuses it, as
    build-index does, instead of dropping that entry in silence."""

    @pytest.fixture()
    def nan_bank(self, bank_path, tmp_path):
        raw = bank_path.read_bytes()
        key0 = load_bank(bank_path).keys[0].tobytes()
        assert raw.count(key0) == 1
        at = raw.index(key0)
        bad = tmp_path / "nan.pbnk"
        bad.write_bytes(raw[:at] + np.float32(np.nan).tobytes() + raw[at + 4:])
        return bad

    def test_flat_index_refuses(self, nan_bank):
        bank = load_bank(nan_bank)
        assert len(bank) == 26 and np.isnan(bank.keys[0, 0])
        with pytest.raises(InvalidInputError, match="row 0 holds NaN"):
            FlatIndex.from_bank(bank)

    @pytest.mark.parametrize("command", ["retrieve", "pipeline"])
    def test_cli_exits_2_like_build_index(self, command, nan_bank, scenario_dir, tmp_path,
                                          capsys):
        assert main(["build-index", "--bank", str(nan_bank),
                     "--out", str(tmp_path / "i.pivf")]) == 2
        expected = assert_one_error_line(capsys)
        (tmp_path / "cats.txt").write_text("cat-0\n")
        extra = {"retrieve": ["--scenario", str(scenario_dir), "--image-id", "input",
                              "--categories", str(tmp_path / "cats.txt")],
                 "pipeline": ["--scenario", str(scenario_dir)]}[command]
        assert main([command, "--bank", str(nan_bank), *extra]) == 2
        assert assert_one_error_line(capsys) == expected


class TestMalformedJsonInputsExit2:
    """The CLI's own JSON inputs follow the loader contract: one error line
    naming the file and the line, exit 2."""

    def _refine(self, scenario_dir, tmp_path, anchors_text):
        params = tmp_path / "p.pprm"
        save_params(RefinementParams.zero_init(16), params)
        heat = tmp_path / "h.pmap"
        artifacts.save_scalar_map(np.ones((24, 24), dtype=np.float32), heat)
        anchors = tmp_path / "anchors.jsonl"
        anchors.write_text(anchors_text)
        rc = main(["refine", "--grids", str(scenario_dir / "features" / "input.pgrd"),
                   "--heatmap", str(heat), "--anchors", str(anchors),
                   "--params", str(params), "--out-prompts", str(tmp_path / "o.pvec"),
                   "--out-sidecar", str(tmp_path / "o.jsonl")])
        return rc, anchors

    @pytest.mark.parametrize("text, line, reason", [
        ('{"x": 0.5}\n', 1, "missing required field(s) ['y', 'response']"),
        ('{"x": 0.5, "y": 0.5, "response": 1.0}\nnot json\n', 2, "Expecting value"),
        ('{"x": 0.5, "y": 2.0, "response": 1.0}\n', 1, "outside [0, 1]^2"),
        ('{"x": 0.5, "y": 0.5, "response": true}\n', 1, "'response' must be a finite number"),
    ])
    def test_refine_anchors(self, scenario_dir, tmp_path, capsys, text, line, reason):
        rc, anchors = self._refine(scenario_dir, tmp_path, text)
        assert rc == 2
        err = assert_one_error_line(capsys)
        assert f"{anchors} line {line}: " in err and reason in err

    def test_priors_prototype(self, scenario_dir, tmp_path, capsys):
        proto = tmp_path / "proto.json"
        proto.write_text('{"category": "c"}\n')
        rc = main(["priors", "--grid", str(scenario_dir / "features" / "input.pgrd"),
                   "--prototype", str(proto), "--out-heatmap", str(tmp_path / "h.pmap"),
                   "--out-anchors", str(tmp_path / "a.jsonl")])
        assert rc == 2
        err = assert_one_error_line(capsys)
        assert f"{proto} line 1: " in err and "['prototype']" in err

    @pytest.mark.parametrize("command", ["retrieve", "pipeline"])
    def test_scenario_without_d_key(self, command, scenario_dir, bank_path, tmp_path, capsys):
        scenario = tmp_path / "scn"
        shutil.copytree(scenario_dir, scenario)
        meta = json.loads((scenario / "scenario.json").read_text())
        del meta["d_key"]
        (scenario / "scenario.json").write_text(json.dumps(meta, indent=2))
        (tmp_path / "cats.txt").write_text("cat-0\n")
        extra = (["--categories", str(tmp_path / "cats.txt"), "--image-id", "input"]
                 if command == "retrieve" else [])
        rc = main([command, "--scenario", str(scenario), "--bank", str(bank_path), *extra])
        assert rc == 2
        err = assert_one_error_line(capsys)
        assert f"{scenario / 'scenario.json'} line 1: " in err and "['d_key']" in err


def test_readme_cli_quick_start_runs(tmp_path, capsys):
    """Every command of the README's CLI block, with its paths moved to a
    temporary directory, exits 0."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    block = next(b for b in blocks if "vismem gen-synthetic" in b)
    commands = block.replace("\\\n", " ").replace("/tmp/", f"{tmp_path}/").splitlines()
    assert len(commands) >= 5
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "vismem"
        assert main(argv[1:]) == 0, command
    assert (tmp_path / "idx.pivf").exists()


def test_documented_subcommands_are_the_parser_s():
    """The subcommands that cli.py's docstring (argparse's description) and
    the README's "Subcommands:" sentence name are exactly the parser's."""
    parser = build_parser()
    choices = set(next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices)
    docstring = re.search(r"Subcommands: (.*?)\.", cli.__doc__, flags=re.S).group(1)
    assert set(re.split(r",\s*", docstring)) == choices
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"Subcommands: (.*?)\.", readme, flags=re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == choices


def test_readme_cli_block_writes_through_one_path(tmp_path, monkeypatch):
    """The README's CLI block, and retrieve, priors, refine and pipeline
    --report after it, run with `open` in vismem.cli refusing every write
    mode: each file the CLI writes goes through serial.atomic_write_bytes."""
    real_open = open

    def read_only_open(file, mode="r", *args, **kwargs):
        assert not set(mode) & set("wax+"), f"vismem.cli opened {file} with mode {mode!r}"
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", read_only_open, raising=False)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = next(b for b in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
                 if "vismem gen-synthetic" in b)
    for command in block.replace("\\\n", " ").replace("/tmp/", f"{tmp_path}/").splitlines():
        assert main(shlex.split(command)[1:]) == 0, command
    (tmp_path / "cats.txt").write_text("cat-0\ncat-1\n")
    save_params(RefinementParams.seeded_init(32, seed=0), tmp_path / "p.pprm")
    grid = str(tmp_path / "scn" / "features" / "input.pgrd")
    for argv in (
        ["retrieve", "--scenario", f"{tmp_path}/scn", "--bank", f"{tmp_path}/bank.pbnk",
         "--categories", f"{tmp_path}/cats.txt", "--image-id", "input",
         "--out", f"{tmp_path}/hits.jsonl"],
        ["priors", "--grid", grid, "--prototype", f"{tmp_path}/hits.jsonl",
         "--out-heatmap", f"{tmp_path}/h.pmap", "--out-anchors", f"{tmp_path}/a.jsonl"],
        ["refine", "--grids", grid, "--heatmap", f"{tmp_path}/h.pmap",
         "--anchors", f"{tmp_path}/a.jsonl", "--params", f"{tmp_path}/p.pprm",
         "--out-prompts", f"{tmp_path}/p.pvec", "--out-sidecar", f"{tmp_path}/side.jsonl"],
        ["pipeline", "--scenario", f"{tmp_path}/scn", "--bank", f"{tmp_path}/bank.pbnk",
         "--report", f"{tmp_path}/report.json"],
    ):
        assert main(argv) == 0, argv
    assert (tmp_path / "side.jsonl").read_text().count("\n") >= 1
