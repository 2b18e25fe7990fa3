"""Spans around evalsim's layers, recorded from outside the package.

``instrumented(tracer)`` rebinds the public functions of
``experiments.parallel``, ``rng``, ``experiments.kernels`` and
``distributions`` at the names their callers look them up by, so each call
records a span: name, start, end, parent span and the pass it belongs to.
Spans stay in memory and are written out when the run ends.  Traced passes
run on one process, since spans recorded in pool workers would not come back.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np

from evalsim import distributions
from evalsim.experiments import bias, efficiency, kernels, parallel, theorem

CHUNK = "parallel.chunk"
RUN_POINTS = "parallel.run_points"
DERIVE_STREAM = "rng.derive_stream"
COPULA = "kernels.draw_correlated_values"
NDTR = "kernels.ndtr"
INV_CDF = "distributions.power_law_inv_cdf"
SUBSET_MASK = "kernels.random_subset_mask"
WORKERS = ("kernels.bias_worker", "kernels.efficiency_worker", "kernels.theorem_worker")
DRAWS = ("kernels.draw_bias_batch", "kernels.draw_efficiency_batch", "kernels.draw_theorem_batch")
SCORES = (
    "kernels.bias_scheme_accuracies",
    "kernels.efficiency_accuracies",
    "kernels.theorem_error_pairs",
)


class Tracer:
    """In-memory span recorder; a span's id is its index in ``spans``."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._open = []

    @contextmanager
    def span(self, name: str, rows: int | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "pass": self.pass_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if rows is not None:
            record["rows"] = rows
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, rows=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, None if rows is None else rows(args)):
                return fn(*args, **kwargs)

        return traced


def _batch_rows(args) -> int:
    """Rows asked of ``draw_*(rng, size, ...)``."""
    return int(args[1])


def _uniform_rows(args) -> int:
    """Rows of uniforms handed to ``power_law_inv_cdf(u, delta)``."""
    shape = np.shape(args[0])
    return int(shape[0]) if shape else 1


# (owner, attribute, span name, rows counter).  A function imported by name
# into another module is rebound there, where its caller looks it up.
TARGETS = (
    (bias, "run_points", RUN_POINTS, None),
    (efficiency, "run_points", RUN_POINTS, None),
    (theorem, "run_points", RUN_POINTS, None),
    (parallel, "_run_one", CHUNK, None),
    (parallel, "derive_stream", DERIVE_STREAM, None),
    (bias, "bias_worker", WORKERS[0], None),
    (efficiency, "efficiency_worker", WORKERS[1], None),
    (theorem, "theorem_worker", WORKERS[2], None),
    (kernels, "draw_bias_batch", DRAWS[0], _batch_rows),
    (kernels, "draw_efficiency_batch", DRAWS[1], _batch_rows),
    (kernels, "draw_theorem_batch", DRAWS[2], _batch_rows),
    (kernels, "draw_correlated_values", COPULA, _batch_rows),
    (kernels, "ndtr", NDTR, None),
    (kernels, "power_law_inv_cdf", INV_CDF, _uniform_rows),
    (distributions, "power_law_inv_cdf", INV_CDF, _uniform_rows),
    (distributions.PowerLaw, "inv_cdf", "distributions.PowerLaw.inv_cdf", None),
    (kernels, "random_subset_mask", SUBSET_MASK, None),
    (kernels, "bias_scheme_accuracies", SCORES[0], None),
    (kernels, "efficiency_accuracies", SCORES[1], None),
    (kernels, "theorem_error_pairs", SCORES[2], None),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Record spans for every call into the layers while the block runs."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for owner, attr, name, rows in TARGETS:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), rows))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _duration(span) -> float:
    return span["end"] - span["start"]


def pass_metrics(spans: list, driver: str) -> dict:
    """Per-layer figures of one traced pass, in ms unless named otherwise.

    ``spans`` are the spans of one pass; the pass span is their only root.

    ``worker_s`` is the pass's total chunk time in seconds, from which the
    caller derives the pool figures.  A span's self time is its duration
    minus its children's.  Children of one span never overlap, because a
    traced pass runs on a single thread.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def self_time(span) -> float:
        return _duration(span) - sum(_duration(c) for c in children.get(span["id"], ()))

    def total(names, measure=_duration) -> float:
        return 1e3 * sum(measure(s) for s in spans if s["name"] in names)

    kept = drawn = 0
    for s in spans:
        if s["name"] in DRAWS:
            kept += s["rows"]
            # the batch's first draw plus every tie redraw
            drawn += sum(c["rows"] for c in children.get(s["id"], ()) if c["name"] in (COPULA, INV_CDF))
    (root,) = children[None]
    top_level = children.get(root["id"], ())
    return {
        "kernels.ndtr_ms": total({NDTR}),
        "kernels.copula_self_ms": total({COPULA}, self_time),
        "distributions.inv_cdf_ms": total({INV_CDF}),
        "kernels.subset_mask_ms": total({SUBSET_MASK}),
        "kernels.score_ms": total(SCORES),
        "kernels.draw_ms": total(DRAWS, self_time),
        "kernels.worker_self_ms": total(WORKERS, self_time),
        "kernels.tie_redraw_rows": drawn - kept,
        "kernels.useful_draw_ratio": kept / drawn,
        "parallel.tasks": sum(1 for s in spans if s["name"] == CHUNK),
        "parallel.self_ms": total({RUN_POINTS}, self_time),
        "rng.derive_stream_ms": total({DERIVE_STREAM}),
        "experiments.driver_self_ms": total({driver}, self_time),
        "trace.unaccounted_ms": 1e3 * (_duration(root) - sum(map(_duration, top_level))),
        "worker_s": total({CHUNK}) / 1e3,
    }


def chunk_percentiles(spans: list) -> dict:
    """Median and 90th percentile of chunk times over every traced pass."""
    times = [1e3 * _duration(s) for s in spans if s["name"] == CHUNK]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {
        "parallel.chunk_ms_p50": statistics.median(times),
        "parallel.chunk_ms_p90": p90,
        "parallel.chunk_samples": len(times),
    }
