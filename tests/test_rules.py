"""One rule per tunable: `grids._RULES`, read by `grids._check`, states each
tunable's type and range once. PipelineConfig refuses a value exactly when
the stage that uses it refuses it, and keeps every config it accepts through
INI and JSON."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from vismem.bank import KeyWeights, blur_filter, build_key, filter_small_boxes, merge_duplicates
from vismem.errors import InvalidInputError
from vismem.grids import _RULES, _check, gaussian_smooth
from vismem.index import (FlatIndex, IvfPqParams, SearchHit, ivfpq_add, ivfpq_search, kmeans,
                          load_index, rescore, save_index, train_ivfpq)
from vismem.pipeline import PipelineConfig
from vismem.priors import DensePrior, extract_anchors, radius_cells_to_normalized
from vismem.refine import RefinementParams
from vismem.retrieval import softmax_weights

RNG = np.random.Generator(np.random.PCG64(0))
KEYS = RNG.standard_normal((64, 8)).astype(np.float32)
INDEX = train_ivfpq(KEYS, IvfPqParams(nlist=4, m=2, nbits=2, kmeans_iters=2))
ivfpq_add(INDEX, np.arange(len(KEYS)), KEYS)
PRIOR = DensePrior("cat", heatmap=RNG.uniform(0.0, 1.0, (8, 8)).astype(np.float32), sigma=0.0)
VEC = np.ones(4, dtype=np.float32)


def _weights_edge(name):
    return lambda v: build_key(VEC, VEC, VEC, KeyWeights(**{name: v}))


def _params_edge(name):
    return lambda v: IvfPqParams(**{name: v})


# The public edges of the stages that use each config field, each a call of
# the value alone.
EDGES = {
    "w_p": [_weights_edge("w_p")],
    "w_s": [_weights_edge("w_s")],
    "w_g": [_weights_edge("w_g")],
    "k": [lambda v: FlatIndex(KEYS).search(KEYS[0], k=v),
          lambda v: rescore(KEYS, [SearchHit(0, 0.0)], KEYS[0], k=v)],
    "tau_p": [lambda v: softmax_weights([1.0, 2.0], v)],
    "recall_size": [lambda v: ivfpq_search(INDEX, KEYS[0], nprobe=1, recall_size=v)],
    "sigma": [lambda v: gaussian_smooth(np.ones((3, 3), dtype=np.float32), v)],
    "peak_threshold": [lambda v: extract_anchors(PRIOR, threshold=v)],
    "radius_cells": [lambda v: radius_cells_to_normalized(v, 8, 8)],
    "max_anchors": [lambda v: extract_anchors(PRIOR, max_anchors=v)],
    "window": [lambda v: RefinementParams.zero_init(4, window=v)],
    "nlist": [_params_edge("nlist"), lambda v: kmeans(KEYS, v, iters=1)],
    "m": [_params_edge("m")],
    "nbits": [_params_edge("nbits")],
    "nprobe": [lambda v: ivfpq_search(INDEX, KEYS[0], nprobe=v, recall_size=5)],
    "min_area": [lambda v: filter_small_boxes([], v)],
    "iou_threshold": [lambda v: merge_duplicates([], v)],
    "drop_fraction": [lambda v: blur_filter([], [], v)],
    "seed": [_params_edge("seed")],
    "kmeans_iters": [_params_edge("kmeans_iters"), lambda v: kmeans(KEYS, 2, iters=v)],
}

# The other config fields a value needs to meet its edge: nprobe is tried
# against the 4 lists of INDEX, and nlist with the one probe it allows.
BASE = {"nprobe": {"nlist": 4}, "nlist": {"nprobe": 1}}

COMMON = [2.5, 3.0, 3, np.int64(3), np.float64(0.5), True, np.True_, "3", None,
          math.nan, math.inf, -math.inf]

# Values at and just outside each bound.
NEAR_BOUNDS = {
    "w_p": [-1.0, 0.0], "w_s": [-1.0, 0.0], "w_g": [-1.0, 0.0],
    "k": [-1, 0, 1], "recall_size": [0, 1, 200.0], "max_anchors": [0, 1],
    "nlist": [0, 1], "m": [0, 1], "kmeans_iters": [0, 1], "nprobe": [0, 1, 4, 5, 4.0],
    "seed": [-1, 0], "nbits": [0, 1, 8, 9], "window": [-1, 0, 1, 2, 4, 5, 5.0],
    "tau_p": [-1e-9, 0.0, 1e-9], "radius_cells": [-1.0, 0.0, 1e-9],
    "sigma": [-1e-9, 0.0], "min_area": [-1e-9, 0.0],
    "peak_threshold": [-1e-9, 0.0, 1.0, 1.0 + 1e-9],
    "iou_threshold": [0.0, 1e-9, 1.0, 1.0 + 1e-9],
    "drop_fraction": [-1e-9, 0.0, 1.0 - 1e-9, 1.0],
}


def refused(call) -> bool:
    """Whether call raises InvalidInputError; any other error fails the test."""
    try:
        call()
    except InvalidInputError:
        return True
    return False


def test_every_config_field_has_an_edge():
    assert set(EDGES) == set(NEAR_BOUNDS) == {f.name for f in fields(PipelineConfig)}


@pytest.mark.parametrize("field, value", [(field, value) for field in EDGES
                                          for value in COMMON + NEAR_BOUNDS[field]])
def test_config_refuses_exactly_what_its_stages_refuse(field, value):
    config_refuses = refused(lambda: PipelineConfig(**BASE.get(field, {}), **{field: value}))
    for edge in EDGES[field]:
        assert refused(lambda: edge(value)) == config_refuses
    if not config_refuses:
        stored = getattr(PipelineConfig(**BASE.get(field, {}), **{field: value}), field)
        assert type(stored) is _RULES[field][0] and stored == value


@pytest.mark.parametrize("field, value", [
    ("k", 2.5), ("recall_size", 200.0), ("nprobe", 4.0), ("max_anchors", 2.5),
    ("max_anchors", math.inf), ("window", 5.0), ("radius_cells", 0.0), ("radius_cells", -1.0),
    ("k", "3"), ("tau_p", "0.1"), ("tau_p", None), ("sigma", 10**400),
])
def test_config_refuses_up_front(field, value):
    with pytest.raises(InvalidInputError, match=f"^config key '{field}' must be "):
        PipelineConfig(**{field: value})
    with pytest.raises(InvalidInputError, match=f"^config key '{field}' must be "):
        PipelineConfig.from_dict({field: value})


@pytest.mark.parametrize("name, value, message", [
    ("k", 0, "k must be >= 1, got 0"),
    ("k", 2.5, "k must be an integer, got 2.5"),
    ("recall_size", True, "recall_size must be an integer, got True"),
    ("nbits", 9, "nbits must be in [1, 8], got 9"),
    ("window", 4, "window must be odd and >= 1, got 4"),
    ("tau", 0.0, "tau must be finite and > 0, got 0.0"),
    ("tau", "0.1", "tau must be a number, got '0.1'"),
    ("sigma", -1.0, "sigma must be finite and >= 0, got -1.0"),
    ("w_p", math.nan, "w_p must be finite, got nan"),
    ("iou_threshold", 0.0, "iou_threshold must be finite and in (0, 1], got 0.0"),
    ("drop_fraction", 1.0, "drop_fraction must be finite and in [0, 1), got 1.0"),
    ("eps", 10**400, "eps must be finite and > 0, got inf"),
])
def test_check_messages(name, value, message):
    with pytest.raises(InvalidInputError) as exc:
        _check(name, value)
    assert str(exc.value) == message


def test_check_names_the_value_as_asked_and_returns_python_numbers():
    with pytest.raises(InvalidInputError, match=r"^config key 'k' must be >= 1, got 0$"):
        _check("k", 0, "config key 'k'")
    for name, value, want in (("k", np.int64(3), 3), ("tau", np.float32(0.5), 0.5),
                              ("sigma", 2, 2.0), ("seed", np.uint8(0), 0)):
        got = _check(name, value)
        assert type(got) is _RULES[name][0] and got == want


def test_numpy_integer_index_params_stored_as_ints(tmp_path):
    params = IvfPqParams(nlist=np.int64(4), m=np.int32(2), nbits=np.int64(2),
                         seed=np.uint8(1), kmeans_iters=np.int64(2))
    assert all(type(v) is int for v in params.as_dict().values())
    index = train_ivfpq(KEYS, params)
    ivfpq_add(index, np.arange(len(KEYS)), KEYS)
    save_index(index, tmp_path / "idx.pivf")
    assert load_index(tmp_path / "idx.pivf").params == params


ROUND_TRIPS = [
    {}, {"tau_p": np.float64(0.5)}, {"k": np.int64(3)}, {"nprobe": np.int32(4)},
    {"w_s": np.float32(0.3)}, {"sigma": 2}, {"w_p": -1}, {"tau_p": 1},
    {"k": 1}, {"recall_size": 1}, {"max_anchors": 1}, {"max_anchors": 10**6}, {"window": 1},
    {"nlist": 1, "nprobe": 1}, {"nprobe": 256}, {"m": 1}, {"nbits": 1}, {"nbits": 8},
    {"seed": 0}, {"kmeans_iters": 1}, {"sigma": 0.0}, {"tau_p": 5e-324},
    {"radius_cells": 1e-300}, {"peak_threshold": 0.0}, {"peak_threshold": 1.0},
    {"min_area": 0.0}, {"iou_threshold": 1.0}, {"iou_threshold": 5e-324},
    {"drop_fraction": 0.0}, {"drop_fraction": 1.0 - 2**-53}, {"w_g": 1e308},
]


@pytest.mark.parametrize("given", ROUND_TRIPS)
def test_accepted_configs_round_trip(given):
    config = PipelineConfig(**given)
    assert PipelineConfig.from_ini(config.to_ini()) == config
    assert PipelineConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    assert all(type(v) is _RULES[k][0] for k, v in config.to_dict().items())
