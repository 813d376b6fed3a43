"""The trace's counters are exact.

    python3 -m pytest perfbench/test_counters.py

Search counters and metric evaluations count calls, so two traced runs of
one workload on one seed must give identical numbers; only then can a
later change rest a claim on them.
"""

import dataclasses

import pytest

import run
from tracing import layer_metrics

COUNTERS = (
    "sphere.metric_evals_per_point",
    "certify.search.starts",
    "certify.search.grad_evals",
    "certify.search.value_evals",
    "certify.search.trials_per_iter",
    "certify.search.starts_at_cap_ratio",
)


def traced_counters(workload, seed=7):
    bench = run.Bench(workload, seed)
    try:
        proc = bench.launch("traced")
    finally:
        bench.close()
    assert proc.exit_code == workload.exit_code
    metrics = layer_metrics(proc.sidecar["trace"], proc.sidecar["main_s"],
                            workload.points, run.MAX_ITER)
    return {name: metrics[name] for name in COUNTERS}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_counters_repeat_exactly(name):
    workload = dataclasses.replace(run.WORKLOADS[name],
                                   points=min(run.WORKLOADS[name].points, 20))
    first = traced_counters(workload)
    assert traced_counters(workload) == first
    # one metric matrix per stencil node of the Christoffel symbols at each
    # stencil node of the curvature: 2 or 4 nodes per chart direction
    nodes = 1 + 6 * (4 if workload.richardson else 2)
    assert first["sphere.metric_evals_per_point"] == nodes * nodes


def test_refute_starts_all_run_to_the_cap():
    workload = run.WORKLOADS["refute"]
    counts = traced_counters(workload)
    assert counts["certify.search.grad_evals"] == (
        workload.points * workload.multistarts * run.MAX_ITER)
    assert counts["certify.search.starts_at_cap_ratio"] == 1.0


def test_refute_at_the_cli_default_start_count():
    workload = dataclasses.replace(run.WORKLOADS["refute"], points=1,
                                   multistarts=64)
    counts = traced_counters(workload)
    assert counts["certify.search.grad_evals"] == 64 * run.MAX_ITER == 5120
