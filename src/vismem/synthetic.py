"""Deterministic synthetic scenarios for end-to-end runs and tests.

A scenario plants a few category-specific regions on an input feature grid,
builds a matching memory population (per-category entries whose pooled
values equal the planted directions) plus distractor entries, and exposes a
hashing embedding provider so no ML runtime is needed. Everything derives
from a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bank import GroundingRecord, HashingProvider
from .errors import InvalidInputError
from .grids import Box2D, Point2D, l2_normalize

INPUT_IMAGE_ID = "input"


@dataclass(frozen=True)
class PlantedRegion:
    center_row: int
    center_col: int
    extent: int  # square side length in cells, odd
    category: str


@dataclass
class ScenarioSpec:
    grid_h: int = 32
    grid_w: int = 32
    d_key: int = 64
    d_val: int = 32
    regions: list[PlantedRegion] = field(default_factory=list)
    noise: float = 0.0
    entries_per_category: int = 20
    distractors: int = 50
    scene: str = "synthetic scene"
    seed: int = 0

    def __post_init__(self):
        if min(self.grid_h, self.grid_w, self.d_key, self.d_val) < 1:
            raise InvalidInputError("grid_h, grid_w, d_key and d_val must be >= 1")
        if min(self.entries_per_category, self.distractors) < 0:
            raise InvalidInputError("entries_per_category and distractors must be >= 0")
        if not 0 <= self.noise < np.inf:
            raise InvalidInputError(f"noise must be finite and >= 0, got {self.noise}")
        for reg in self.regions:
            half = reg.extent // 2
            if not (half <= reg.center_row < self.grid_h - half
                    and half <= reg.center_col < self.grid_w - half):
                raise InvalidInputError(
                    f"planted region at ({reg.center_row}, {reg.center_col}) "
                    f"with extent {reg.extent} exceeds the {self.grid_h}x{self.grid_w} grid"
                )


@dataclass
class SyntheticScenario:
    spec: ScenarioSpec
    records: list[GroundingRecord]
    provider: HashingProvider
    input_grid: np.ndarray
    gt_centers: dict[str, list[Point2D]]
    directions: dict[str, np.ndarray]
    categories: list[str]  # the regions' categories, each once, in region order


def _orthonormal_directions(categories: list[str], dim: int,
                            rng: np.random.Generator) -> dict[str, np.ndarray]:
    if len(categories) > dim:
        raise InvalidInputError("more categories than value dimensions")
    raw = rng.standard_normal((len(categories), dim))
    q, _ = np.linalg.qr(raw.T)
    return {c: q[:, i].astype(np.float32) for i, c in enumerate(categories)}


def gen_synthetic(spec: ScenarioSpec) -> SyntheticScenario:
    """Build bank records, provider tables, input grid, and ground truth."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    categories = list(dict.fromkeys(reg.category for reg in spec.regions))
    directions = _orthonormal_directions(categories, spec.d_val, rng)

    feature_table: dict[str, np.ndarray] = {}
    records: list[GroundingRecord] = []
    full_box = Box2D(0.0, 0.0, 1.0, 1.0)

    def add_entry(image_id: str, direction: np.ndarray, phrase: str) -> None:
        """A 4x4 memory image of one direction, grounded as a whole."""
        feature_table[image_id] = np.broadcast_to(
            direction, (4, 4, spec.d_val)
        ).astype(np.float32).copy()
        records.append(GroundingRecord(
            image_id=image_id, box=full_box, phrase=phrase, scene=spec.scene,
            blur_score=float(rng.uniform(0.5, 1.0)),
        ))

    for cat in categories:
        for i in range(spec.entries_per_category):
            add_entry(f"mem-{cat}-{i}", directions[cat], cat)
    for i in range(spec.distractors):
        add_entry(f"dis-{i}", l2_normalize(rng.standard_normal(spec.d_val).astype(np.float32)),
                  f"distractor-{i}")

    # Input grid: background nearly orthogonal to every planted direction.
    h, w = spec.grid_h, spec.grid_w
    bg = rng.standard_normal((h * w, spec.d_val))
    if categories:
        basis = np.stack([directions[c] for c in categories]).astype(np.float64)
        bg -= (bg @ basis.T) @ basis
    norms = np.linalg.norm(bg, axis=1, keepdims=True)
    bg = bg / np.where(norms > 1e-12, norms, 1.0)
    grid = bg.reshape(h, w, spec.d_val).astype(np.float32)

    gt_centers: dict[str, list[Point2D]] = {c: [] for c in categories}
    for reg in spec.regions:
        half = reg.extent // 2
        r0, r1 = reg.center_row - half, reg.center_row + half + 1
        c0, c1 = reg.center_col - half, reg.center_col + half + 1
        grid[r0:r1, c0:c1] = directions[reg.category]
        gt_centers[reg.category].append(
            Point2D((reg.center_col + 0.5) / w, (reg.center_row + 0.5) / h)
        )

    if spec.noise > 0:
        grid = grid + spec.noise * rng.standard_normal(grid.shape).astype(np.float32)

    feature_table[INPUT_IMAGE_ID] = grid
    provider = HashingProvider(d_key=spec.d_key, d_val=spec.d_val, seed=spec.seed,
                               feature_table=feature_table)
    return SyntheticScenario(spec=spec, records=records, provider=provider,
                             input_grid=grid, gt_centers=gt_centers,
                             directions=directions, categories=categories)


def random_regions(count: int, grid_h: int, grid_w: int, extent: int,
                   min_separation: float, rng: np.random.Generator,
                   categories: list[str]) -> list[PlantedRegion]:
    """Sample non-overlapping planted regions with a minimum center distance."""
    half = extent // 2
    if count < 0:
        raise InvalidInputError(f"region count must be >= 0, got {count}")
    if count and not categories:
        raise InvalidInputError(f"no categories to assign {count} regions to")
    if count and min(grid_h, grid_w) <= 2 * half:
        raise InvalidInputError(f"a {grid_h}x{grid_w} grid has no room for extent {extent}")
    placed: list[tuple[int, int]] = []
    regions = []
    attempts = 0
    while len(regions) < count:
        attempts += 1
        if attempts > 10_000:
            raise InvalidInputError("could not place regions with requested separation")
        r = int(rng.integers(half, grid_h - half))
        c = int(rng.integers(half, grid_w - half))
        if all((r - pr) ** 2 + (c - pc) ** 2 >= min_separation ** 2 for pr, pc in placed):
            placed.append((r, c))
            regions.append(PlantedRegion(r, c, extent, categories[len(regions) % len(categories)]))
    return regions
