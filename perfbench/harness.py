"""Runs one workload as a single closed-loop caller: each op is sent only after
the previous one has returned and been checked. Only the call into vismem
is timed; input generation and checks are not.

An untraced run gives the end-to-end metrics. Each timed step runs next to
a fixed probe, and its time is reported scaled by the probe's (see Probe).
A traced run gives the per-layer metrics, in raw time: it alternates traced
and untraced ops on the same inputs, so the difference between the two
medians is the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import vismem as vm

from checks import pool_recall
from tracing import Tracer, layer_totals, span_rows
from workloads import WORKLOADS

# Share of a traced run's op time spent on the flat-index comparison.
FLAT_SHARE = 0.25
# Stop an op loop after this multiple of its time budget in wall-clock time,
# so ops that fail at once cannot spin for long.
WALL_FACTOR = 3.0


class Probe:
    """A fixed piece of numpy work, independent of vismem and of the seed,
    run just before and just after every timed step.

    The machine the benchmark was built on, a shared VM, runs the same code
    up to 40% slower for seconds to minutes at a time, as its host's other
    tenants come and go. The probe slows with it: over three minutes of
    recall-50k ops the op time varied by 6-20% between 12-second windows,
    and op time divided by the probe time just before it by 1-2%. So every
    step's time is reported scaled to REF_S of probe time, about the
    probe's time there when the host is quiet; the raw times are recorded
    alongside. The probe copies 4000 separate 256-d rows into one matrix,
    ranks a matrix-vector product and sorts a 4 MB matrix, like the
    stacking, scoring and ranking in vismem's ops, so the same contention
    slows it. It writes only into buffers allocated once, so its own cost
    does not depend on the heap the step before it left behind.
    """

    REF_S = 0.006

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.rows = [rng.standard_normal(256, dtype=np.float32) for _ in range(4000)]
        self.matrix = rng.standard_normal((4000, 256), dtype=np.float32)
        self.stacked = np.empty_like(self.matrix)
        self.sorted = np.empty_like(self.matrix)
        self.scores = np.empty(4000, dtype=np.float32)
        self.samples: list[float] = []

    def time(self) -> float:
        start = perf_counter()
        np.stack(self.rows, out=self.stacked)
        np.matmul(self.stacked, self.matrix[0], out=self.scores)
        self.scores.argsort()
        self.sorted[:] = self.matrix
        self.sorted.sort(axis=1)
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self, elapsed: float, last: int = 2) -> float:
        """elapsed scaled by the median of the last `last` probe times."""
        return elapsed * self.REF_S / statistics.median(self.samples[-last:])


class Tally:
    """Ops attempted and failed, and the checked stats of each op by index."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None
        self.stats = {}

    def quality(self, ops: int) -> tuple[float, float]:
        """(recall@12, anchor recall) over ops 0..ops-1. No centres are
        planted on recall-50k: 0 of 0 missed reads as 1."""
        first = [st for i, st in self.stats.items() if i < ops]
        recalls = [r for st in first for r in st.recalls]
        planted = sum(st.planted for st in first)
        found = sum(st.found for st in first)
        return (float(np.mean(recalls)) if recalls else 0.0,
                found / planted if planted else 1.0)

    def per_op(self, field: str) -> float:
        return sum(getattr(st, field) for st in self.stats.values()) / max(len(self.stats), 1)


def settle() -> None:
    """Collect garbage left by earlier steps so it is not charged to the next."""
    gc.collect()


def freeze() -> None:
    """Move what exists now (the generated inputs; later the loaded bank and
    index the ops use) out of the collector's view, so collections in timed
    code scan only what the library allocates in that step, as they would
    in a fresh process."""
    gc.collect()
    gc.freeze()


def timed(fn, probe: Probe, repeats: int = 1) -> tuple[float, float]:
    """Time fn() with the probe run `repeats` times just before and just
    after it; return the raw time and the time scaled by those probes."""
    settle()
    for _ in range(repeats):
        probe.time()
    start = perf_counter()
    fn()
    elapsed = perf_counter() - start
    for _ in range(repeats):
        probe.time()
    return elapsed, probe.scale(elapsed, 2 * repeats)


def timed_load(w, probe: Probe) -> tuple[float, float]:
    """Time one load; the bank and index loaded before stay in use."""
    kept = w.bank, w.index
    times = timed(w.load, probe, repeats=3)
    if kept[0] is not None:
        w.bank, w.index = kept
    return times


def one_op(w, i: int, index, exact: bool, tally: Tally, tracer: Tracer | None = None,
           probe: Probe | None = None) -> float:
    """Run, time and check op i; return its latency in seconds. An untraced
    op runs between two runs of the probe, if one is given."""
    x = w.make_input(i)
    tally.attempted += 1
    start = perf_counter()
    elapsed = None
    try:
        if tracer is None:
            if probe is not None:
                probe.time()
            start = perf_counter()
            out = w.run(x, index)
            elapsed = perf_counter() - start
            if probe is not None:
                probe.time()
        else:
            tracer.op = i
            with tracer.patch():
                start = perf_counter()
                out = w.run(x, index)
                elapsed = perf_counter() - start
        tally.stats[i] = w.check(x, out, exact)
    except Exception:
        if elapsed is None:
            elapsed = perf_counter() - start
        tally.failed += 1
        if tally.first_error is None:
            tally.first_error = traceback.format_exc()
            print(f"op {i} failed:\n{tally.first_error}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.op = None
        w.release(x)
    return elapsed


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it: the 11th-largest sample, or the largest when there are 10 or
    fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    w = WORKLOADS[name](seed, workdir)
    w.generate()
    probe = Probe()
    freeze()
    for _ in range(5):  # warm-up
        probe.time()
    # Set-ups and loads last longer than ops, and they are fewer, so they are
    # scaled by more probe runs.
    setup_raw, setup_s = zip(*(timed(w.setup, probe, repeats=3) for _ in range(w.setups)))
    loads = [timed_load(w, probe)]
    w.after_load()
    freeze()
    exact = not w.uses_ivfpq
    tally = Tally()
    one_op(w, 0, w.index, exact, tally)  # warm-up: checked, not timed
    settle()
    raw: list[float] = []
    latencies: list[float] = []
    wall_start = perf_counter()
    i = 1
    while sum(raw) < seconds and perf_counter() - wall_start < WALL_FACTOR * seconds:
        raw.append(one_op(w, i % w.inputs, w.index, exact, tally, probe=probe))
        latencies.append(probe.scale(raw[-1]))
        i += 1
        # Further loads are spread over the op phase, so that load_s, like
        # the latencies, samples the whole run rather than one moment of it.
        if len(loads) < min(w.loads, w.loads * sum(raw) / seconds):
            loads.append(timed_load(w, probe))
    while len(loads) < w.loads:
        loads.append(timed_load(w, probe))
    load_raw, load_s = zip(*loads)
    # Quality is judged on the same inputs for a given seed, however many
    # ops the timed loop got through.
    while i < w.inputs:
        one_op(w, i, w.index, exact, tally)
        i += 1
    recall, anchor_recall = tally.quality(w.inputs)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "load_s": (statistics.median(load_s), "s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "recall_at_12": (recall, "frac"),
        "anchor_recall": (anchor_recall, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "probe_ref_ms": 1e3 * Probe.REF_S,
        "probe_median_ms": 1e3 * statistics.median(probe.samples),
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "load_s": statistics.median(load_raw),
            "latency_p50_ms": 1e3 * statistics.median(raw),
            "latency_tail_ms": 1e3 * tail(raw)[0],
            "ops_per_s": len(raw) / sum(raw),
        },
        "setup_s_samples": list(setup_s),
        "load_s_samples": list(load_s),
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_pct,
        "latencies_ms": [1e3 * t for t in latencies],
        "raw_setup_s_samples": list(setup_raw),
        "raw_load_s_samples": list(load_raw),
        "raw_latencies_ms": [1e3 * t for t in raw],
        "probe_ms": [1e3 * t for t in probe.samples],
        "failed_frac": tally.failed / tally.attempted,
        "first_error": tally.first_error,
    }
    return _result([tally], metrics), details


def run_traced(name: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    w = WORKLOADS[name](seed, workdir)
    tracer = Tracer()
    w.span = tracer.span
    w.generate()
    freeze()
    with tracer.patch():
        w.setup()
        settle()
        w.load()
    w.after_load()
    settle()
    main_kind = "ivfpq" if w.uses_ivfpq else "flat"
    phases = [(main_kind, w.index, not w.uses_ivfpq,
               (1.0 - FLAT_SHARE) * seconds if w.uses_ivfpq else seconds)]
    if w.uses_ivfpq:
        phases.append(("flat", vm.FlatIndex.from_bank(w.bank), True, FLAT_SHARE * seconds))
    main, side = Tally(), Tally()
    lat: dict[tuple[str, bool], list[float]] = {}
    pools: list[float] = []
    i = 0
    for kind, index, exact, budget in phases:
        tally = main if kind == main_kind else side
        untraced, traced = lat.setdefault((kind, False), []), lat.setdefault((kind, True), [])
        wall_start = perf_counter()
        while (sum(untraced) + sum(traced) < budget
               and perf_counter() - wall_start < WALL_FACTOR * budget):
            # Alternate which of the pair runs first, so warm caches favour neither.
            for use_tracer in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                mark = len(tracer.spans)
                elapsed = one_op(w, i, index, exact, tally, use_tracer)
                (untraced if use_tracer is None else traced).append(elapsed)
                for args, kwargs, out in tracer.take_captures("index.ivfpq_search", mark):
                    query = kwargs.get("query", args[1] if len(args) > 1 else None)
                    pools.append(pool_recall(out, w.keys64, query))
            i += 1

    totals = layer_totals(tracer.spans)
    bank_bpe, index_bpe = w.bytes_per_entry()
    median_ms = lambda key: 1e3 * statistics.median(lat[key]) if lat.get(key) else 0.0

    def seconds_of(span):
        return totals[span]["total_s"] if span in totals else 0.0

    def ms_per_op(span, field="total_s"):
        entry = totals.get(span)
        return 1e3 * entry[field] / len(entry["ops"]) if entry and entry["ops"] else 0.0

    def calls_per_op(span):
        entry = totals.get(span)
        return entry["calls"] / len(entry["ops"]) if entry and entry["ops"] else 0.0

    m = {
        "bank.build_s": (seconds_of("bank.build"), "s"),
        "bank.save_s": (seconds_of("bank.save"), "s"),
        "bank.load_s": (seconds_of("bank.load"), "s"),
        "index.train_s": (seconds_of("index.train"), "s"),
        "index.kmeans_coarse_s": (seconds_of("index.kmeans_coarse"), "s"),
        "index.kmeans_pq_s": (seconds_of("index.kmeans_pq"), "s"),
        "index.add_s": (seconds_of("index.add"), "s"),
        "index.save_s": (seconds_of("index.save"), "s"),
        "index.load_s": (seconds_of("index.load"), "s"),
        "bank.bytes_per_entry": (bank_bpe, "B"),
        "index.bytes_per_entry": (index_bpe, "B"),
        "index.ivfpq_search_ms": (ms_per_op("index.ivfpq_search"), "ms"),
        "index.rescore_ms": (ms_per_op("index.rescore"), "ms"),
        "index.flat_search_ms": (ms_per_op("index.flat_search"), "ms"),
        "index.pool_recall": (float(np.mean(pools)) if pools else 0.0, "frac"),
        "retrieval.build_query_ms": (ms_per_op("retrieval.build_query"), "ms"),
        "retrieval.retrieve_self_ms": (ms_per_op("retrieval.retrieve", "self_s"), "ms"),
        "retrieval.prototype_ms": (ms_per_op("retrieval.prototype"), "ms"),
        "priors.dense_prior_ms": (ms_per_op("priors.dense_prior"), "ms"),
        "priors.anchors_ms": (ms_per_op("priors.anchors"), "ms"),
        "refine.refine_all_ms": (ms_per_op("refine.refine_all"), "ms"),
        "refine.score_ms": (ms_per_op("refine.score"), "ms"),
        "refine.mask_ms": (ms_per_op("refine.mask"), "ms"),
        "pipeline.self_ms": (ms_per_op("pipeline.run", "self_s"), "ms"),
        "op.ivfpq_ms": (median_ms(("ivfpq", False)), "ms"),
        "op.flat_ms": (median_ms(("flat", False)), "ms"),
        "retrieval.empty_prototypes": (main.per_op("empty_prototypes"), "count/op"),
        "priors.anchors_kept": (main.per_op("anchors_kept"), "count/op"),
        "refine.prompts": (main.per_op("prompts"), "count/op"),
        "trace.overhead_frac": (median_ms((main_kind, True)) / median_ms((main_kind, False)) - 1.0,
                                "frac"),
    }
    kmeans = [totals[s]["calls"] for s in ("index.kmeans_coarse", "index.kmeans_pq") if s in totals]
    trainings = totals["index.train"]["calls"] if "index.train" in totals else 0
    m["index.kmeans.calls"] = (sum(kmeans) / trainings if trainings else 0.0, "count")
    for span in ("index.ivfpq_search", "index.rescore", "index.flat_search",
                 "retrieval.build_query", "retrieval.retrieve", "retrieval.prototype",
                 "priors.dense_prior", "priors.anchors", "refine.refine_all",
                 "refine.score", "refine.mask", "pipeline.run"):
        m[f"{span}.calls"] = (calls_per_op(span), "count/op")
    details = {
        "missing_spans": tracer.missing,
        "op_samples": {f"{k}-{'traced' if t else 'untraced'}": len(v) for (k, t), v in lat.items()},
        "layers": {name: {"total_s": e["total_s"], "self_s": e["self_s"], "calls": e["calls"],
                          "ops": len(e["ops"])} for name, e in totals.items()},
        "spans": span_rows(tracer.spans),
        "first_error": main.first_error or side.first_error,
    }
    return _result([main, side], m), details


def _result(tallies: list[Tally], metrics: dict) -> dict:
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
