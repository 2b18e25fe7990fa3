"""The benchmark's hooks into the package still hold.

``perfbench/spans.py`` rebinds package functions by name to trace them.  A
renamed or regrouped function would leave a hook pointing at nothing, or a
traced pass that silently differs from the untraced one; these tests catch
both for every benchmark workload at a tiny size.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, _, _ in spans.TARGETS])
def test_every_traced_name_resolves(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_the_untraced_pass(name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], runs=300)
    inputs = workload.inputs()
    seed = workload.default_seed
    untraced = workload.rows(workload.run(inputs, seed, workload.workers))

    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        with tracer.span("bench.pass"):
            with tracer.span(workload.driver_span):
                traced = workload.rows(workload.run(inputs, seed, 1))
    assert traced == untraced

    figures = spans.pass_metrics(tracer.spans, workload.driver_span)
    assert figures["parallel.tasks"] >= 1
    assert figures["kernels.useful_draw_ratio"] == 1.0
    assert figures["kernels.tie_redraw_rows"] == 0
