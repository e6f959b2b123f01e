"""In-memory span tracing of vismem, applied from outside the library.

`Tracer.patch()` swaps each public function named in TARGETS for a wrapper
that records a span (name, start, end, parent, op id) and restores the
originals on exit. Every `vismem.*` module namespace that holds a reference
to the function is patched, so calls made between library modules are seen
as well as calls made by the benchmark. A target missing after a refactor is
listed in `Tracer.missing` and its span is omitted; the run does not fail.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name). Span names are "<module>.<layer>".
TARGETS = [
    ("vismem.bank", "build_bank", "bank.build"),
    ("vismem.bank", "save_bank", "bank.save"),
    ("vismem.bank", "load_bank", "bank.load"),
    ("vismem.index", "train_ivfpq", "index.train"),
    ("vismem.index", "kmeans", "index.kmeans"),
    ("vismem.index", "ivfpq_add", "index.add"),
    ("vismem.index", "save_index", "index.save"),
    ("vismem.index", "load_index", "index.load"),
    ("vismem.index", "ivfpq_search", "index.ivfpq_search"),
    ("vismem.index", "rescore", "index.rescore"),
    ("vismem.index", "FlatIndex.search", "index.flat_search"),
    ("vismem.retrieval", "build_query", "retrieval.build_query"),
    ("vismem.retrieval", "retrieve", "retrieval.retrieve"),
    ("vismem.retrieval", "aggregate_prototype", "retrieval.prototype"),
    ("vismem.priors", "dense_prior", "priors.dense_prior"),
    ("vismem.priors", "extract_anchors", "priors.anchors"),
    ("vismem.refine", "refine_all", "refine.refine_all"),
    ("vismem.refine", "score_prompts", "refine.score"),
    ("vismem.refine", "constrain_logits", "refine.mask"),
    ("vismem.pipeline", "run_pipeline", "pipeline.run"),
]

# Spans whose arguments and result are kept for checks made after the op.
CAPTURED = {"index.ivfpq_search"}

# Span record fields.
NAME, START, END, PARENT, OP, CAPTURE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None          # op id stamped on new spans; None during set-up
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields the span's record."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        capture = name in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if capture:
                rec[CAPTURE] = (args, kwargs, out)
            return out

        return traced

    @contextmanager
    def patch(self):
        """Trace every target while the block runs."""
        swaps = []
        self.missing = []
        for module_name, path, name in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                swaps.append((owner, attr, original, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and (mod_name == "vismem" or mod_name.startswith("vismem.")):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            swaps.append((mod, key, original, wrapper))
        for owner, attr, _original, wrapper in swaps:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _wrapper in reversed(swaps):
                setattr(owner, attr, original)

    def take_captures(self, name: str, since: int) -> list:
        """(args, kwargs, result) of spans `name` recorded from index `since`,
        released from the span records afterwards."""
        out = []
        for rec in self.spans[since:]:
            if rec[NAME] == name and rec[CAPTURE] is not None:
                out.append(rec[CAPTURE])
                rec[CAPTURE] = None
        return out


def _resolve(module_name: str, path: str):
    """(owner, attribute, original function) or None when the name is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        original = owner.__dict__.get(parts[-1])
    else:
        original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: total and self seconds, calls, and the ops it ran in.

    Self time is a span's duration minus the time covered by its direct
    children. The k-means calls inside one training are split: the first is
    the coarse quantizer, the rest train the PQ codebooks.
    """
    child_time = [0.0] * len(spans)
    kmeans_seen: set[int] = set()
    names = []
    for rec in spans:
        name = rec[NAME]
        parent = rec[PARENT]
        if parent >= 0:
            child_time[parent] += rec[END] - rec[START]
            if name == "index.kmeans" and spans[parent][NAME] == "index.train":
                name = "index.kmeans_pq" if parent in kmeans_seen else "index.kmeans_coarse"
                kmeans_seen.add(parent)
        names.append(name)
    totals: dict[str, dict] = {}
    for rec, name, child in zip(spans, names, child_time):
        entry = totals.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0, "ops": set()})
        duration = rec[END] - rec[START]
        entry["total_s"] += duration
        entry["self_s"] += duration - child
        entry["calls"] += 1
        if rec[OP] is not None:
            entry["ops"].add(rec[OP])
    return totals


def span_rows(spans: list[list]) -> list[dict]:
    """Spans as JSON rows, times relative to the first span."""
    t0 = spans[0][START] if spans else 0.0
    return [{"name": r[NAME], "start_s": r[START] - t0, "end_s": r[END] - t0,
             "parent": r[PARENT], "op": r[OP]} for r in spans]
