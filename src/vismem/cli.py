"""Command-line interface.

Subcommands: gen-synthetic, build-memory, build-index, retrieve, priors,
refine, pipeline, bench. Exit codes: 0 success, 1 usage error, 2 data or
format error. Every output file is written whole and atomically, so a run
that fails leaves none behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import artifacts, bank as bank_mod
from .bank import (
    BankBuildConfig,
    EmbeddingProvider,
    HashingProvider,
    load_bank,
    load_embedding_table,
    load_grounding_records,
    save_bank,
    write_pgm,
)
from .errors import FormatError, InvalidInputError, VismemError
from .grids import Point2D, as_vector
from .index import FlatIndex, IvfPqIndex, ivfpq_add, load_index, save_index, train_ivfpq
from .pipeline import (
    PipelineConfig,
    bench,
    load_config,
    pipeline_report,
    run_pipeline,
)
from .priors import AnchorSet, DensePrior, dense_prior, extract_anchors, radius_cells_to_normalized
from .refine import RefinementParams, load_params, refine_all
from .retrieval import Prototype, aggregate_prototype, build_query, retrieve
from .serial import (atomic_write_bytes, is_json_number, json_fields, json_lines,
                     read_json_lines, read_json_object)
from .synthetic import INPUT_IMAGE_ID, ScenarioSpec, gen_synthetic, random_regions


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Bad command-line usage (exit code 1), as opposed to runtime failures."""


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI config file; flags and --set override it")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config value (repeatable)")


def _resolve_config(args, bank=None, index=None, params=None) -> PipelineConfig:
    """Config file, then --set, then the values that loaded files store: a
    bank's key weights, an IVF-PQ index's nlist and a parameter file's
    window. These override the config file; a --set that disagrees with one
    is an error. nprobe is checked against the lists a loaded index has."""
    config = load_config(args.config) if args.config else PipelineConfig()
    updates = {}
    for item in args.set:
        key, sep, raw = item.partition("=")
        if not sep:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            updates[key] = PipelineConfig.parse_value(key, raw)
        except InvalidInputError as exc:
            raise _UsageError(str(exc)) from None
    stored = {}  # key: (value, the loaded file that stores it)
    if bank is not None:
        stored.update({k: (float(v), "bank") for k, v in bank.weights.as_dict().items()})
    if isinstance(index, IvfPqIndex):
        stored["nlist"] = (index.params.nlist, "index")
    if params is not None:
        first = params if isinstance(params, RefinementParams) else params[0]
        stored["window"] = (first.window, "parameter file")
    for key, (value, source) in stored.items():
        if updates.setdefault(key, value) != value:
            raise InvalidInputError(f"--set {key}={updates[key]} disagrees with the loaded "
                                    f"{source}, which has {key}={value}")
    if isinstance(index, IvfPqIndex):
        nlist, nprobe = updates["nlist"], updates.get("nprobe", config.nprobe)
        if not 1 <= nprobe <= nlist:
            raise InvalidInputError(
                f"nprobe={nprobe} does not fit the loaded index, which has nlist={nlist}; "
                f"pass --set nprobe=N with 1 <= N <= {nlist}")
    return replace(config, **updates)


def _add_provider_args(p: argparse.ArgumentParser):
    p.add_argument("--text-table", help="PMEM file of text embeddings")
    p.add_argument("--image-table", help="PMEM file of image embeddings")
    p.add_argument("--features-dir", help="directory of <image_id>.pgrd feature grids")
    p.add_argument("--hash-key-dim", type=int,
                   help="use the deterministic hashing embedder with this key dim")
    p.add_argument("--hash-val-dim", type=int, help="value dim for the hashing embedder")
    p.add_argument("--hash-seed", type=int, default=0, help="seed for the hashing embedder")
    p.add_argument("--scenario", help="gen-synthetic output dir (implies hashing embedder)")


def _load_features_dir(path) -> dict:
    table = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".pgrd"):
            table[name[:-5]] = artifacts.load_feature_grid(os.path.join(path, name))
    return table


def _read_scenario(directory) -> dict:
    """The scenario.json that gen-synthetic writes, with the fields the CLI
    reads checked."""
    def check(meta) -> dict:
        d_key, d_val, _, categories, _, _ = json_fields(
            meta, d_key=int, d_val=int, seed=int, categories=list, image_id=str, scene=str)
        if d_key < 1 or d_val < 1 or not all(type(c) is str for c in categories):
            raise InvalidInputError("want d_key and d_val >= 1 and string categories")
        return meta

    return read_json_object(os.path.join(directory, "scenario.json"), check)


def _resolve_provider(args, scenario: dict | None = None) -> EmbeddingProvider:
    """The embedding source the flags name; scenario is --scenario's scenario.json, if read."""
    if args.scenario:
        meta = scenario or _read_scenario(args.scenario)
        features = _load_features_dir(os.path.join(args.scenario, "features"))
        return HashingProvider(d_key=meta["d_key"], d_val=meta["d_val"],
                               seed=meta["seed"], feature_table=features)
    features = _load_features_dir(args.features_dir) if args.features_dir else None
    if args.hash_key_dim:
        if not args.hash_val_dim and not features:
            raise InvalidInputError("--hash-val-dim or --features-dir required")
        d_val = args.hash_val_dim or next(iter(features.values())).shape[2]
        return HashingProvider(d_key=args.hash_key_dim, d_val=d_val,
                               seed=args.hash_seed, feature_table=features)
    text = load_embedding_table(args.text_table) if args.text_table else None
    image = load_embedding_table(args.image_table) if args.image_table else None
    if text is None and image is None and features is None:
        raise InvalidInputError(
            "no embedding source given (use --scenario, --hash-key-dim, or tables)")
    return EmbeddingProvider(text_table=text, image_table=image, feature_table=features)


def _load_any_index(path, bank):
    return FlatIndex.from_bank(bank) if path is None else load_index(path)


def _read_categories(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


# --- subcommand implementations ---------------------------------------------

def cmd_gen_synthetic(args) -> int:
    rng = np.random.Generator(np.random.PCG64(args.seed))
    categories = [f"cat-{i}" for i in range(args.categories)]
    regions = random_regions(args.regions, args.grid_size, args.grid_size,
                             extent=3, min_separation=8.0, rng=rng,
                             categories=categories)
    spec = ScenarioSpec(grid_h=args.grid_size, grid_w=args.grid_size,
                        d_key=args.key_dim, d_val=args.val_dim, regions=regions,
                        noise=args.noise, entries_per_category=args.entries_per_category,
                        distractors=args.distractors, seed=args.seed)
    scenario = gen_synthetic(spec)

    os.makedirs(os.path.join(args.out, "features"), exist_ok=True)
    atomic_write_bytes(os.path.join(args.out, "records.jsonl"), json_lines(
        {"image_id": rec.image_id, "box": rec.box.as_list(), "phrase": rec.phrase,
         "scene": rec.scene, "blur_score": rec.blur_score} for rec in scenario.records))
    for image_id, grid in scenario.provider.feature_table.items():
        artifacts.save_feature_grid(grid, os.path.join(args.out, "features", f"{image_id}.pgrd"))
    atomic_write_bytes(os.path.join(args.out, "scenario.json"), json.dumps({
        "d_key": spec.d_key, "d_val": spec.d_val, "seed": spec.seed, "scene": spec.scene,
        "image_id": INPUT_IMAGE_ID, "categories": scenario.categories,
        "gt_centers": {c: [[p.x, p.y] for p in pts] for c, pts in scenario.gt_centers.items()},
    }, indent=2, sort_keys=True).encode("utf-8"))
    print(f"wrote scenario with {len(scenario.records)} records to {args.out}")
    return 0


def cmd_build_memory(args) -> int:
    config = _resolve_config(args)
    provider = _resolve_provider(args)
    records_path = args.records or (os.path.join(args.scenario, "records.jsonl")
                                    if args.scenario else None)
    if records_path is None:
        raise InvalidInputError("--records (or --scenario) is required")
    records = load_grounding_records(records_path)
    exclude = frozenset(_read_categories(args.exclude_images)) if args.exclude_images else frozenset()
    built = bank_mod.build_bank(records, provider, BankBuildConfig(
        weights=config.weights(), min_area=config.min_area,
        iou_threshold=config.iou_threshold, drop_fraction=config.drop_fraction,
        exclude_images=exclude,
    ))
    save_bank(built, args.out)
    print(json.dumps(built.manifest, sort_keys=True))
    return 0


def cmd_build_index(args) -> int:
    memory = load_bank(args.bank)
    config = _resolve_config(args, memory)
    index = train_ivfpq(memory.keys, config.index_params())
    ivfpq_add(index, np.arange(len(memory)), memory.keys)
    save_index(index, args.out)
    print(f"trained IVF-PQ index over {len(memory)} keys -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    memory = load_bank(args.bank)
    index = _load_any_index(args.index, memory)
    config = _resolve_config(args, memory, index)
    provider = _resolve_provider(args)
    lines = []
    for category in _read_categories(args.categories):
        query = build_query(provider, category, args.scene, args.image_id, config.weights())
        hits = retrieve(memory, index, query, k=config.k, exclude_image=args.exclude_image,
                        nprobe=config.nprobe, recall_size=config.recall_size)
        proto = aggregate_prototype(memory, hits, query, tau=config.tau_p)
        lines.append({"category": category, "prototype": [float(v) for v in proto.vector],
                      "hits": [{"entry_id": h.entry_id, "score": h.score} for h in hits]})
    data = json_lines(lines)
    if args.out:
        atomic_write_bytes(args.out, data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def cmd_priors(args) -> int:
    config = _resolve_config(args)
    grid = artifacts.load_feature_grid(args.grid)

    def prototype(obj) -> Prototype:
        category, vector = json_fields(obj, category=str, prototype=list)
        hits = obj.get("hits", [])
        if not (all(map(is_json_number, vector)) and type(hits) is list):
            raise InvalidInputError("want a list of numbers as prototype and a list as hits")
        return Prototype(category=category, vector=as_vector(vector),
                         neighbors=[(*json_fields(h, entry_id=int, score=float), 0.0)
                                    for h in hits])

    protos = read_json_lines(args.prototype, prototype)
    if not protos:
        raise FormatError(f"{args.prototype}: no prototype line")
    proto = protos[0]
    prior = dense_prior(grid, proto, sigma=config.sigma)
    radius = radius_cells_to_normalized(config.radius_cells, *prior.heatmap.shape)
    anchors = extract_anchors(prior, threshold=config.peak_threshold,
                              radius=radius, max_anchors=config.max_anchors)
    artifacts.save_scalar_map(prior.heatmap, args.out_heatmap)
    if args.out_pgm:
        write_pgm(prior.heatmap, args.out_pgm)
    atomic_write_bytes(args.out_anchors, json_lines(
        {"x": point.x, "y": point.y, "response": resp, "category": anchors.category}
        for point, resp in anchors.anchors))
    print(f"{len(anchors)} anchors for {proto.category!r}")
    return 0


def cmd_refine(args) -> int:
    scales = [artifacts.load_feature_grid(p) for p in args.grids]
    heat = artifacts.load_scalar_map(args.heatmap)
    params = load_params(args.params)

    def anchor(obj) -> tuple[Point2D, float, str | None]:
        x, y, response = json_fields(obj, x=float, y=float, response=float)
        category = obj.get("category")
        if category is not None and type(category) is not str:
            raise InvalidInputError(f"field 'category' must be a string, got {category!r:.80}")
        return Point2D(x, y), response, category

    rows = read_json_lines(args.anchors, anchor)
    category = args.category or next((c for _, _, c in rows if c), "")
    anchor_set = AnchorSet(category=category, anchors=[(p, r) for p, r, _ in rows])
    prior = DensePrior(category=anchor_set.category, heatmap=heat, sigma=0.0)
    prompts = refine_all(scales, prior, anchor_set, params, anchor_set.category)
    artifacts.save_vectors(np.stack([p.embedding for p in prompts]) if prompts
                           else np.zeros((0, 0), dtype=np.float32), args.out_prompts)
    atomic_write_bytes(args.out_sidecar, json_lines(
        {"category": p.source_category, "x": p.anchor.x, "y": p.anchor.y,
         "scale": p.scale_index} for p in prompts))
    print(f"{len(prompts)} prompts")
    return 0


def cmd_pipeline(args) -> int:
    memory = load_bank(args.bank)
    index = _load_any_index(args.index, memory)
    params = load_params(args.params) if args.params else None
    config = _resolve_config(args, memory, index, params)
    scenario = _read_scenario(args.scenario) if args.scenario else None
    provider = _resolve_provider(args, scenario)
    if params is None:
        params = RefinementParams.zero_init(memory.d_val, window=config.window)
    image_id = args.image_id
    scene = args.scene
    if scenario and not args.categories:
        categories = scenario["categories"]
        image_id = image_id or scenario["image_id"]
        scene = scene if scene is not None else scenario["scene"]
    elif args.categories is None:
        raise InvalidInputError("--categories is required without --scenario")
    else:
        categories = _read_categories(args.categories)
    if image_id is None:
        raise InvalidInputError("--image-id is required without --scenario")
    results = run_pipeline(config, memory, index, provider, image_id, categories,
                           params, scene=scene or "",
                           exclude_image=args.exclude_image)
    report = pipeline_report(config, results, image_id)
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        atomic_write_bytes(args.report, payload.encode("utf-8"))
    else:
        print(payload)
    return 0


def cmd_bench(args) -> int:
    memory = load_bank(args.bank)
    index = _load_any_index(args.index, memory)
    config = _resolve_config(args, memory, index)
    report = bench(memory, index, query_count=args.queries, seed=config.seed,
                   k=config.k, nprobe=config.nprobe, recall_size=config.recall_size)
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    epilog = "config defaults: " + ", ".join(
        f"{f.name}={getattr(PipelineConfig(), f.name)}" for f in fields(PipelineConfig))
    parser = _Parser(prog="vismem", description=__doc__, epilog=epilog)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a deterministic synthetic scenario")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=ScenarioSpec.seed)
    p.add_argument("--grid-size", type=int, default=ScenarioSpec.grid_h)
    p.add_argument("--key-dim", type=int, default=ScenarioSpec.d_key)
    p.add_argument("--val-dim", type=int, default=ScenarioSpec.d_val)
    p.add_argument("--categories", type=int, default=3)
    p.add_argument("--regions", type=int, default=3)
    p.add_argument("--noise", type=float, default=ScenarioSpec.noise)
    p.add_argument("--entries-per-category", type=int, default=ScenarioSpec.entries_per_category)
    p.add_argument("--distractors", type=int, default=ScenarioSpec.distractors)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("build-memory", help="build and save a memory bank")
    _add_config_args(p)
    _add_provider_args(p)
    p.add_argument("--records", help="grounding records JSONL")
    p.add_argument("--exclude-images", help="file of image ids to exclude, one per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_memory)

    p = sub.add_parser("build-index", help="train an IVF-PQ index over a bank")
    _add_config_args(p)
    p.add_argument("--bank", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("retrieve", help="retrieve per-category hits and prototypes")
    _add_config_args(p)
    _add_provider_args(p)
    p.add_argument("--bank", required=True)
    p.add_argument("--index", help="IVF-PQ index file; exact flat search if omitted")
    p.add_argument("--categories", required=True, help="file with one category per line")
    p.add_argument("--scene", default="")
    p.add_argument("--image-id", required=True)
    p.add_argument("--exclude-image")
    p.add_argument("--out", help="output JSONL (stdout if omitted)")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("priors", help="dense heatmap prior + sparse anchors")
    _add_config_args(p)
    p.add_argument("--grid", required=True, help="input feature grid (.pgrd)")
    p.add_argument("--prototype", required=True,
                   help="JSON(L) file from retrieve with category and prototype")
    p.add_argument("--out-heatmap", required=True, help="output raster (.pmap)")
    p.add_argument("--out-pgm", help="optional PGM rendering")
    p.add_argument("--out-anchors", required=True, help="output anchors JSONL")
    p.set_defaults(func=cmd_priors)

    p = sub.add_parser("refine", help="memory-guided prompt refinement")
    p.add_argument("--grids", required=True, nargs="+", help="feature scales (.pgrd)")
    p.add_argument("--heatmap", required=True, help="dense prior raster (.pmap)")
    p.add_argument("--anchors", required=True, help="anchors JSONL")
    p.add_argument("--params", required=True, help="refinement parameters (.pprm)")
    p.add_argument("--category")
    p.add_argument("--out-prompts", required=True, help="output vectors (.pvec)")
    p.add_argument("--out-sidecar", required=True, help="output JSONL sidecar")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("pipeline", help="full per-image pipeline with JSON report")
    _add_config_args(p)
    _add_provider_args(p)
    p.add_argument("--bank", required=True)
    p.add_argument("--index", help="IVF-PQ index file; exact flat search if omitted")
    p.add_argument("--categories", help="file with one category per line")
    p.add_argument("--scene")
    p.add_argument("--image-id")
    p.add_argument("--exclude-image")
    p.add_argument("--params", help="refinement parameters (.pprm); zero init if omitted")
    p.add_argument("--report", help="write the JSON report here (stdout if omitted)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("bench", help="queries/second and recall@K vs the flat oracle")
    _add_config_args(p)
    p.add_argument("--bank", required=True)
    p.add_argument("--index", help="IVF-PQ index file; times flat search if omitted")
    p.add_argument("--queries", type=int, default=100)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (VismemError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
