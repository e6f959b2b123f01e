"""The benchmark's workloads, built from a seed and driven through vismem's
public functions.

Each workload makes its inputs (`generate`, untimed), turns them into a saved
bank and index (`setup`), loads those files back (`load`), and then runs ops:
`make_input(i)` builds op i's input from the seed and i alone, `run` is the
timed call into vismem, and `check` verifies the output against the
benchmark's own float64 oracle.

Why these three (see README.md for the layer map):
- recall-50k: index training dominates set-up and two-stage IVF-PQ search
  dominates ops; priors and refinement do no work.
- scene-22k: bank build and training share set-up, retrieval through
  IVF-PQ dominates each run_pipeline call, priors do a little work.
- loo-dense: flat search with self-exclusion on a small bank; dense priors
  and refinement over three scales dominate each op; no index training.
BENCHMARK.json lists recall-50k and loo-dense, which between them run every
layer; scene-22k is run by name (README.md says why).
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import vismem as vm
from vismem import synthetic

from checks import (
    K,
    anchor_found,
    check_hits,
    check_masked,
    check_prototype,
    require,
)

SCENE = "synthetic scene"
# Feature noise on op images, as in the acceptance suite's noisy prior trials.
GRID_NOISE = 0.05
FULL_BOX = vm.Box2D(0.0, 0.0, 1.0, 1.0)


def seeded_rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d)).astype(np.float32)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def plant_grid(directions: dict[str, np.ndarray], regions, h: int, w: int,
               rng: np.random.Generator, noise: float) -> np.ndarray:
    """Feature grid: background orthogonal to every category direction, each
    region's square set to its category's direction, plus Gaussian noise."""
    basis = np.stack(list(directions.values())).astype(np.float64)
    bg = rng.standard_normal((h * w, basis.shape[1]))
    bg -= (bg @ basis.T) @ basis
    bg /= np.linalg.norm(bg, axis=1, keepdims=True)
    grid = bg.reshape(h, w, basis.shape[1]).astype(np.float32)
    for reg in regions:
        half = reg.extent // 2
        grid[reg.center_row - half:reg.center_row + half + 1,
             reg.center_col - half:reg.center_col + half + 1] = directions[reg.category]
    if noise > 0:
        grid += noise * rng.standard_normal(grid.shape).astype(np.float32)
    return grid


def region_box(reg, h: int, w: int) -> vm.Box2D:
    """Normalized box covering exactly the region's cells."""
    half = reg.extent // 2
    return vm.Box2D((reg.center_col - half) / w, (reg.center_row - half) / h,
                    (reg.center_col + half + 1) / w, (reg.center_row + half + 1) / h)


def avg_pool(grid: np.ndarray, factor: int) -> np.ndarray:
    h, w, d = grid.shape
    return grid.reshape(h // factor, factor, w // factor, factor, d).mean(axis=(1, 3))


def bank_arrays(bank) -> tuple[np.ndarray, np.ndarray]:
    """Float64 keys and per-entry image ids: the oracle's view of a bank."""
    return (bank.keys_matrix().astype(np.float64),
            np.asarray([e.image_id for e in bank.entries]))


def resident_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds as attributes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


@dataclass
class OpStats:
    recalls: list[float] = field(default_factory=list)
    planted: int = 0
    found: int = 0
    empty_prototypes: int = 0
    anchors_kept: int = 0
    prompts: int = 0


@dataclass
class PipelineInput:
    image_id: str
    regions: list
    scales: list | None = None
    exclude: str | None = None


class Workload:
    name = ""
    setups = 1           # set-ups per untraced run; the median is reported
    loads = 16           # loads per untraced run; the median is reported
    inputs = 16          # untraced ops cycle over inputs 0..inputs-1
    uses_ivfpq = True    # traced runs then also time the same ops on a flat index

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.bank_path = os.path.join(workdir, "bank.pbnk")
        self.index_path = os.path.join(workdir, "index.pivf")
        self.bank = None
        self.index = None
        self.span = lambda name: nullcontext()

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        self.bank = vm.load_bank(self.bank_path)
        self.index = vm.load_index(self.index_path)

    def after_load(self) -> None:
        """Untimed: the oracle's copy of the loaded bank."""
        self.keys64, self.image_ids = bank_arrays(self.bank)

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, x, index):
        raise NotImplementedError

    def check(self, x, out, exact: bool) -> OpStats:
        raise NotImplementedError

    def release(self, x) -> None:
        pass

    def bytes_per_entry(self) -> tuple[float, float]:
        """(bank file, index file or resident flat index) bytes per entry."""
        n = len(self.bank)
        if self.uses_ivfpq:
            index_bytes = os.path.getsize(self.index_path)
        else:
            index_bytes = resident_bytes(self.index)
        return os.path.getsize(self.bank_path) / n, index_bytes / n


class Recall50k(Workload):
    """The acceptance suite's recall bank; each op is one retrieve() plus
    aggregate_prototype. At seed 12345 the keys and the first 1000 queries
    are the acceptance test's."""

    name = "recall-50k"
    N, D, D_VAL, CENTERS, REL_NOISE, QUERIES = 50_000, 256, 32, 500, 0.8, 1000
    PARAMS = {"nlist": 256, "m": 16, "nbits": 8, "seed": 0, "kmeans_iters": 8}
    NPROBE, RECALL_SIZE = 16, 200
    setups = 1  # a set-up takes about 35 s
    inputs = 100

    def generate(self):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        centers = unit_rows(rng, self.CENTERS, self.D)
        self.assign = rng.integers(0, self.CENTERS, self.N)
        scale = self.REL_NOISE / math.sqrt(self.D)
        keys = centers[self.assign] + scale * rng.standard_normal((self.N, self.D)).astype(np.float32)
        self.keys = (keys / np.linalg.norm(keys, axis=1, keepdims=True)).astype(np.float32)
        q_assign = rng.integers(0, self.CENTERS, self.QUERIES)
        queries = centers[q_assign] + scale * rng.standard_normal((self.QUERIES, self.D)).astype(np.float32)
        self.queries = (queries / np.linalg.norm(queries, axis=1, keepdims=True)).astype(np.float32)
        self.values = unit_rows(seeded_rng(self.seed, 1), self.N, self.D_VAL)

    def setup(self):
        with self.span("bank.build"):
            entries = [vm.MemoryEntry(key=self.keys[i], value=self.values[i],
                                      category=f"c{a}", image_id=f"img-{i}", box=FULL_BOX)
                       for i, a in enumerate(self.assign.tolist())]
            bank = vm.MemoryBank(entries=entries, d_key=self.D, d_val=self.D_VAL)
        vm.save_bank(bank, self.bank_path)
        keys = bank.keys_matrix()
        index = vm.train_ivfpq(keys, vm.IvfPqParams(**self.PARAMS))
        vm.ivfpq_add(index, np.arange(len(bank)), keys)
        vm.save_index(index, self.index_path)

    def after_load(self):
        # The oracle uses the generated keys, not the bank's copy.
        self.keys64 = self.keys.astype(np.float64)

    def make_input(self, i):
        return self.queries[i % self.QUERIES]

    def run(self, q, index):
        query = vm.RetrievalQuery(category="", vector=q)
        hits = vm.retrieve(self.bank, index, query, k=K, nprobe=self.NPROBE,
                           recall_size=self.RECALL_SIZE)
        return hits, vm.aggregate_prototype(self.bank, hits, query)

    def check(self, q, out, exact):
        hits, proto = out
        stats = OpStats()
        stats.recalls.append(check_hits(hits, self.keys64, q, None, exact))
        stats.empty_prototypes += check_prototype(proto, hits)
        return stats


class PipelineWorkload(Workload):
    """Ops are run_pipeline calls on one image over every category."""

    GRID = 0
    config = vm.PipelineConfig()

    def run(self, x, index):
        return vm.run_pipeline(self.config, self.bank, index, self.provider, x.image_id,
                               self.categories, self.params, scene=SCENE,
                               scales=x.scales, exclude_image=x.exclude)

    def check(self, x, results, exact):
        require(list(results) == self.categories, "one result per category, in order")
        excluded = None if x.exclude is None else self.image_ids == x.exclude
        stats = OpStats()
        weights = self.config.weights()
        for category, res in results.items():
            require(res.category == category, "result filed under another category")
            query = vm.build_query(self.provider, category, SCENE, x.image_id, weights)
            stats.recalls.append(check_hits(res.hits, self.keys64, query.vector, excluded, exact))
            stats.empty_prototypes += check_prototype(res.prototype, res.hits)
            check_masked(res)
            stats.anchors_kept += len(res.anchors) if res.anchors is not None else 0
            stats.prompts += len(res.prompts)
        for reg in x.regions:
            stats.planted += 1
            stats.found += anchor_found(results[reg.category].anchors,
                                        reg.center_row, reg.center_col, self.GRID, self.GRID)
        return stats


class Scene22k(PipelineWorkload):
    """The ROADMAP's synthetic scenario: 25k records over 10 categories give a
    22.5k-entry bank under the default IVF-PQ config; each op is run_pipeline
    on a fresh 64x64 image with the categories planted at new positions."""

    name = "scene-22k"
    GRID, CATEGORIES, PER_CATEGORY, DISTRACTORS = 64, 10, 2000, 5000
    setups = 1  # a set-up takes about 18 s

    def generate(self):
        self.categories = [f"cat-{i}" for i in range(self.CATEGORIES)]
        regions = synthetic.random_regions(self.CATEGORIES, self.GRID, self.GRID, extent=3,
                                           min_separation=8.0, rng=seeded_rng(self.seed, 0),
                                           categories=self.categories)
        spec = vm.ScenarioSpec(grid_h=self.GRID, grid_w=self.GRID, regions=regions,
                               entries_per_category=self.PER_CATEGORY,
                               distractors=self.DISTRACTORS, scene=SCENE, seed=self.seed)
        self.scenario = vm.gen_synthetic(spec)
        self.provider = self.scenario.provider
        self.params = vm.RefinementParams.zero_init(spec.d_val, window=self.config.window)

    def setup(self):
        bank = vm.build_bank(self.scenario.records, self.provider,
                             vm.BankBuildConfig(weights=self.config.weights()))
        vm.save_bank(bank, self.bank_path)
        keys = bank.keys_matrix()
        index = vm.train_ivfpq(keys, self.config.index_params())
        vm.ivfpq_add(index, np.arange(len(bank)), keys)
        vm.save_index(index, self.index_path)

    def make_input(self, i):
        rng = seeded_rng(self.seed, 1, i)
        regions = synthetic.random_regions(self.CATEGORIES, self.GRID, self.GRID, extent=3,
                                           min_separation=8.0, rng=rng,
                                           categories=self.categories)
        image_id = f"query-{i}"
        self.provider.feature_table[image_id] = plant_grid(
            self.scenario.directions, regions, self.GRID, self.GRID, rng, GRID_NOISE)
        return PipelineInput(image_id=image_id, regions=regions)

    def release(self, x):
        self.provider.feature_table.pop(x.image_id, None)


class LooDense(PipelineWorkload):
    """Leave-one-out priors: the stream images' own planted regions make the
    bank, searched flat; each op runs one stream image with itself excluded,
    on three scales."""

    name = "loo-dense"
    GRID, D_KEY, D_VAL, CATEGORIES, REGIONS, IMAGES = 128, 64, 32, 20, 30, 48
    setups = 5
    loads = 60
    uses_ivfpq = False

    def generate(self):
        rng = seeded_rng(self.seed, 0)
        self.categories = [f"cat-{i}" for i in range(self.CATEGORIES)]
        q, _ = np.linalg.qr(rng.standard_normal((self.D_VAL, self.CATEGORIES)))
        directions = {c: q[:, i].astype(np.float32) for i, c in enumerate(self.categories)}
        features, self.records, self.planted = {}, [], {}
        for j in range(self.IMAGES):
            image_id = f"stream-{j}"
            regions = synthetic.random_regions(self.REGIONS, self.GRID, self.GRID, extent=3,
                                               min_separation=8.0, rng=rng,
                                               categories=self.categories)
            features[image_id] = plant_grid(directions, regions, self.GRID, self.GRID,
                                            rng, GRID_NOISE)
            self.planted[image_id] = regions
            self.records += [vm.GroundingRecord(image_id=image_id,
                                                box=region_box(reg, self.GRID, self.GRID),
                                                phrase=reg.category, scene=SCENE,
                                                blur_score=float(rng.uniform(0.5, 1.0)))
                             for reg in regions]
        self.provider = vm.HashingProvider(d_key=self.D_KEY, d_val=self.D_VAL, seed=self.seed,
                                           feature_table=features)
        self.params = vm.RefinementParams.seeded_init(self.D_VAL, seed=self.seed,
                                                      window=self.config.window)

    def setup(self):
        bank = vm.build_bank(self.records, self.provider,
                             vm.BankBuildConfig(weights=self.config.weights()))
        vm.save_bank(bank, self.bank_path)

    def load(self):
        # With no index file the CLI builds the flat index from the bank.
        self.bank = vm.load_bank(self.bank_path)
        with self.span("index.load"):
            self.index = vm.FlatIndex.from_bank(self.bank)

    def make_input(self, i):
        image_id = f"stream-{i % self.IMAGES}"
        grid = self.provider.feature_grid(image_id)
        return PipelineInput(image_id=image_id, regions=self.planted[image_id],
                             scales=[grid, avg_pool(grid, 2), avg_pool(grid, 4)],
                             exclude=image_id)


WORKLOADS = {w.name: w for w in (Recall50k, Scene22k, LooDense)}
