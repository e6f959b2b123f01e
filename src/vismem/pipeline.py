"""End-to-end orchestration: configuration, the per-category pipeline, and
its JSON report.
"""

from __future__ import annotations

import configparser
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .bank import BankBuildConfig, EmbeddingProvider, KeyWeights, MemoryBank, build_key
from .errors import InvalidInputError, VismemError
from .grids import _finite, as_grid
from .index import IvfPqParams, SearchHit, _hits
from .priors import (DEFAULT_MAX_ANCHORS, DEFAULT_PEAK_THRESHOLD, DEFAULT_RADIUS_CELLS,
                     DEFAULT_SIGMA, AnchorSet, DensePrior, _dense_priors, extract_anchors,
                     radius_cells_to_normalized)
from .refine import (DEFAULT_WINDOW, LogitsMatrix, MemoryGuidedPrompt, RefinementParams, _prompts,
                     _refine, _scores, constrain_logits)
from .retrieval import (DEFAULT_NPROBE, DEFAULT_RECALL_SIZE, DEFAULT_TAU, DEFAULT_TOP_K,
                        Prototype, _check_search, _check_vector, _prototype,
                        _retrieve_all)
from .serial import atomic_write_bytes


@dataclass
class PipelineConfig:
    """Every tunable of the pipeline, with the published defaults of the
    modules that use it."""

    w_p: float = KeyWeights.w_p
    w_s: float = KeyWeights.w_s
    w_g: float = KeyWeights.w_g
    k: int = DEFAULT_TOP_K
    tau_p: float = DEFAULT_TAU
    recall_size: int = DEFAULT_RECALL_SIZE
    sigma: float = DEFAULT_SIGMA
    peak_threshold: float = DEFAULT_PEAK_THRESHOLD
    radius_cells: float = DEFAULT_RADIUS_CELLS
    max_anchors: int = DEFAULT_MAX_ANCHORS
    window: int = DEFAULT_WINDOW
    nlist: int = IvfPqParams.nlist
    m: int = IvfPqParams.m
    nbits: int = IvfPqParams.nbits
    nprobe: int = DEFAULT_NPROBE
    min_area: float = BankBuildConfig.min_area
    iou_threshold: float = BankBuildConfig.iou_threshold
    drop_fraction: float = BankBuildConfig.drop_fraction
    seed: int = IvfPqParams.seed
    kmeans_iters: int = IvfPqParams.kmeans_iters

    _SECTIONS = {
        "weights": ("w_p", "w_s", "w_g"),
        "retrieval": ("k", "tau_p", "recall_size"),
        "priors": ("sigma", "peak_threshold", "radius_cells", "max_anchors"),
        "refine": ("window",),
        "index": ("nlist", "m", "nbits", "nprobe"),
        "filters": ("min_area", "iou_threshold", "drop_fraction"),
        "run": ("seed", "kmeans_iters"),
    }

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (float, "float") and not math.isfinite(value):
                raise InvalidInputError(f"config key {f.name!r} must be finite, got {value!r}")
        if self.k < 1 or self.recall_size < 1 or self.max_anchors < 1:
            raise InvalidInputError("k, recall_size and max_anchors must be >= 1")
        if self.tau_p <= 0 or self.sigma < 0:
            raise InvalidInputError("tau_p must be > 0 and sigma >= 0")
        if not (0.0 <= self.peak_threshold <= 1.0):
            raise InvalidInputError("peak_threshold must be in [0, 1]")
        if not (0.0 <= self.drop_fraction < 1.0):
            raise InvalidInputError("drop_fraction must be in [0, 1)")
        if self.min_area < 0 or not 0.0 < self.iou_threshold <= 1.0:
            raise InvalidInputError("min_area must be >= 0 and iou_threshold in (0, 1]")
        if self.window < 1 or self.window % 2 == 0:
            raise InvalidInputError("window must be odd and positive")
        self.index_params()  # IvfPqParams checks its own fields
        if not 1 <= self.nprobe <= self.nlist:
            raise InvalidInputError(f"nprobe must be in [1, nlist={self.nlist}], got {self.nprobe}")

    def weights(self) -> KeyWeights:
        return KeyWeights(self.w_p, self.w_s, self.w_g)

    def index_params(self) -> IvfPqParams:
        return IvfPqParams(nlist=self.nlist, m=self.m, nbits=self.nbits,
                           seed=self.seed, kmeans_iters=self.kmeans_iters)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def parse_value(cls, key: str, raw: str):
        """One config value from text: int fields as int, the rest as float."""
        types = {f.name: f.type for f in fields(cls)}
        if key not in types:
            raise InvalidInputError(f"unknown config key {key!r}")
        try:
            value = int(raw) if types[key] in (int, "int") else float(raw)
        except ValueError:
            raise InvalidInputError(f"bad value {raw!r} for config key {key!r}") from None
        if not math.isfinite(value):
            raise InvalidInputError(f"config key {key!r} must be finite, got {raw!r}")
        return value

    def to_ini(self) -> str:
        parser = configparser.ConfigParser()
        for section, keys in self._SECTIONS.items():
            parser[section] = {k: repr(getattr(self, k)) for k in keys}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    @classmethod
    def from_ini(cls, text: str) -> "PipelineConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise InvalidInputError(f"bad config file: {exc}") from None
        values: dict = {}
        for section in parser.sections():
            if section not in cls._SECTIONS:
                raise InvalidInputError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if key not in cls._SECTIONS[section]:
                    raise InvalidInputError(f"unknown config key {key!r} in [{section}]")
                values[key] = cls.parse_value(key, raw)
        return cls(**values)


def save_config(config: PipelineConfig, path) -> None:
    atomic_write_bytes(path, config.to_ini().encode("utf-8"))


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as f:
        return PipelineConfig.from_ini(f.read())


@contextmanager
def _stage(name: str, category: str | None = None):
    """Tag a VismemError raised inside with the pipeline stage, and the
    category it was working on."""
    try:
        yield
    except VismemError as exc:
        where = name if category is None else f"{name}, category {category!r}"
        raise type(exc)(f"[stage {where}] {exc}") from exc


@dataclass
class CategoryResult:
    """Everything the pipeline produced for one candidate category."""

    category: str
    hits: list[SearchHit]
    prototype: Prototype
    prior: DensePrior | None
    anchors: AnchorSet | None
    prompts: list[MemoryGuidedPrompt]
    logits: LogitsMatrix | None


def run_pipeline(config: PipelineConfig, bank: MemoryBank, index,
                 provider: EmbeddingProvider, image_id: str,
                 categories: list[str], params,
                 scene: str = "", scales=None,
                 exclude_image: str | None = None) -> dict[str, CategoryResult]:
    """Run query -> retrieval -> prototype -> priors -> refinement ->
    label-constrained scoring for each candidate category.

    The input feature grid doubles as the single detector scale unless
    explicit scales are given. Prototypes of non-empty categories serve as
    the stand-in classification embeddings.

    Per-image work is done once: the input grid and every scale are checked
    on entry, a scale that is the provider's grid object by that one check,
    the scene and image embeddings are looked up once, every category's
    query is searched in one retrieval pass, the dense priors of all
    categories share one normalized grid, and all categories
    are refined together, each scale in one pass, into one prompt array per
    category, scored against the prototypes stacked once. The results equal
    those of composing the public functions category by category, bit for bit.
    """
    weights = config.weights()
    if weights != bank.weights:
        raise InvalidInputError(f"the config's key weights {weights} differ from "
                                f"the bank's {bank.weights}")
    for p in [params] if isinstance(params, RefinementParams) else params:
        if p.window != config.window:
            raise InvalidInputError(f"the config's window {config.window} differs from "
                                    f"a parameter set's window {p.window}")
    with _stage("input_grid"):
        raw_grid = provider.feature_grid(image_id)
        input_grid = as_grid(raw_grid)
    with _stage("scales"):
        scales = [input_grid] if scales is None else [
            input_grid if s is raw_grid else as_grid(s) for s in scales]
    if not categories:
        return {}

    queries = []
    context = None  # the scene and image embeddings, looked up after the first phrase
    for category in categories:
        with _stage("build_query", category):
            phrase = provider.text_embedding(category)
            if context is None:
                context = (provider.text_embedding(scene), provider.image_embedding(image_id))
            key = build_key(phrase, *context, weights)
        with _stage("retrieve", category):
            if not queries:  # the index and k, checked in the first category's turn
                _check_search(bank, index, config.k)
            queries.append(_check_vector(bank, index, key, config.nprobe, config.recall_size))
    with _stage("retrieve"):
        ranked = _retrieve_all(bank, index, queries, config.k, exclude_image,
                               config.nprobe, config.recall_size)
    results: dict[str, CategoryResult] = {}
    for category, (ids, scores) in zip(categories, ranked):
        with _stage("aggregate_prototype", category):
            proto = _prototype(bank, ids, scores, category, config.tau_p)
        results[category] = CategoryResult(
            category=category, hits=_hits(ids, scores), prototype=proto,
            prior=None, anchors=None, prompts=[], logits=None)

    found = [r for r in results.values() if not r.prototype.is_empty]
    if not found:
        return results
    with _stage("dense_prior"):
        priors = _dense_priors(input_grid, [r.prototype for r in found], config.sigma)
    for result, prior in zip(found, priors):
        with _stage("extract_anchors", result.category):
            radius = radius_cells_to_normalized(
                config.radius_cells, prior.heatmap.shape[0], prior.heatmap.shape[1])
            result.anchors = extract_anchors(prior, threshold=config.peak_threshold,
                                             radius=radius, max_anchors=config.max_anchors)
        result.prior = prior
    names = [r.category for r in found]
    stacks = _refine(scales, [r.prior.heatmap for r in found], [r.anchors for r in found],
                     params, names, stage=partial(_stage, "refine_all"))

    category_embs = np.stack([r.prototype.vector for r in found])
    for result, stack in zip(found, stacks):
        result.prompts = _prompts(stack, result.anchors, result.category)
        if len(stack):
            with _stage("score_prompts", result.category):
                values = _scores(_finite(stack, (2,), "1-D vector"), category_embs)
                logits = LogitsMatrix(values, names, [result.category] * len(stack))
                result.logits = constrain_logits(logits)
    return results


def pipeline_report(config: PipelineConfig, results: dict[str, CategoryResult],
                    image_id: str) -> dict:
    """JSON-serializable per-image report of the pipeline run."""
    per_category = {}
    for category, res in results.items():
        argmaxes = [] if res.logits is None else [
            res.logits.categories[int(j)] for j in res.logits.values.argmax(axis=1)]
        per_category[category] = {
            "retrieval": [
                {"entry_id": eid, "score": score, "alpha": alpha}
                for eid, score, alpha in res.prototype.neighbors
            ],
            "prototype_norm": float(np.linalg.norm(res.prototype.vector)),
            "anchors": [
                {"x": p.x, "y": p.y, "response": resp}
                for p, resp in (res.anchors.anchors if res.anchors else [])
            ],
            "prompt_count": len(res.prompts),
            "masked_argmax": argmaxes,
        }
    return {
        "image_id": image_id,
        "categories": list(results.keys()),
        "config": config.to_dict(),
        "results": per_category,
    }
