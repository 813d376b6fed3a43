"""Layer spans recorded from outside the program, and the per-layer
metrics computed from them.

``Tracer.install`` replaces each function in ``WRAPPED`` at the name its
callers look up with a wrapper that records a span: name, start, end and
the index of the enclosing span (-1 at top level).  Spans stay in memory
until ``dump``.  The parent stack is a plain list, so the recording is
only valid for a single-threaded run (``OCCERT_THREADS=1``).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module where the caller looks the name up, attribute, span name)
WRAPPED = (
    ("occert.cli", "run_certify", "cli.run_certify"),
    ("occert.cli", "emit_report", "cli.emit_report"),
    ("occert.cli", "riemann", "sphere.riemann"),
    ("occert.cli", "certify_point", "certify.certify_point"),
    ("occert.certify", "curvature_operator", "curvature.curvature_operator"),
    ("occert.certify", "check_bhl", "certify.check_bhl"),
    ("occert.certify", "certify_P_sufficient", "certify.certify_P_sufficient"),
    ("occert.certify", "refute_P", "certify.refute_P"),
    ("occert.certify", "random_orthogonal_complex_structure",
     "hermitian.random_orthogonal_complex_structure"),
    ("occert.kernels", "refute_value", "kernels.refute_value"),
    ("occert.kernels", "refute_value_and_grad", "kernels.refute_value_and_grad"),
    ("occert.sphere", "MetricField.matrix", "sphere.matrix"),
)


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in WRAPPED]
        # One flat list per field: ints and floats are not tracked by the
        # garbage collector, so a long run does not slow its collections.
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack: list[int] = []

    def install(self) -> None:
        for index, (module, attr, _) in enumerate(WRAPPED):
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrap(index, getattr(owner, leaf)))

    def _wrap(self, name_index: int, fn):
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def dump(self, origin: float) -> dict:
        """Spans in call order, times in seconds since ``origin``."""
        return {"names": self.names,
                "spans": [[n, start - origin, end - origin, parent]
                          for n, start, end, parent
                          in zip(self.name, self.start, self.end, self.parent)]}


def search_counts(trace: dict, max_iter: int) -> dict:
    """Exact search counters.  A start begins at each draw of a random
    complex structure; its gradient calls run until the next draw."""
    names = trace["names"]
    start_id = names.index("hermitian.random_orthogonal_complex_structure")
    grad_id = names.index("kernels.refute_value_and_grad")
    value_id = names.index("kernels.refute_value")
    per_start: list[int] = []
    values = 0
    for name, *_ in trace["spans"]:
        if name == start_id:
            per_start.append(0)
        elif name == grad_id:
            per_start[-1] += 1
        elif name == value_id:
            values += 1
    grads = sum(per_start)
    return {
        "certify.search.starts": len(per_start),
        "certify.search.grad_evals": grads,
        "certify.search.value_evals": values,
        "certify.search.trials_per_iter": values / grads if grads else 0.0,
        "certify.search.starts_at_cap_ratio":
            (sum(n >= max_iter for n in per_start) / len(per_start)
             if per_start else 0.0),
    }


def layer_metrics(trace: dict, main_s: float, points: int,
                  max_iter: int) -> dict:
    """Per-layer metrics of one traced process."""
    names = trace["names"]
    total = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    top_level = 0.0
    for name, start, end, parent in trace["spans"]:
        total[names[name]] += end - start
        calls[names[name]] += 1
        if parent < 0:
            top_level += end - start

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    metrics = {
        "sphere.riemann.ms_per_point": 1e3 * total["sphere.riemann"] / points,
        "sphere.riemann.share": total["sphere.riemann"] / main_s,
        "sphere.metric_evals_per_point": calls["sphere.matrix"] / points,
        "sphere.matrix.us_per_call": per_call_us("sphere.matrix"),
        "curvature.curvature_operator.ms_per_point":
            1e3 * total["curvature.curvature_operator"] / points,
        "certify.certify_point.ms_per_point":
            1e3 * total["certify.certify_point"] / points,
        "certify.check_bhl.us_per_call": per_call_us("certify.check_bhl"),
        "certify.certify_P_sufficient.us_per_call":
            per_call_us("certify.certify_P_sufficient"),
        "certify.refute_P.s_per_point": total["certify.refute_P"] / points,
        "certify.refute_P.share": total["certify.refute_P"] / main_s,
        "kernels.refute_value_and_grad.us_per_call":
            per_call_us("kernels.refute_value_and_grad"),
        "kernels.refute_value.us_per_call": per_call_us("kernels.refute_value"),
        "hermitian.random_orthogonal_complex_structure.us_per_call":
            per_call_us("hermitian.random_orthogonal_complex_structure"),
        "cli.self_ms": 1e3 * (total["cli.run_certify"] - total["sphere.riemann"]
                              - total["certify.certify_point"]),
        "cli.emit_report.ms": 1e3 * total["cli.emit_report"],
        "trace.coverage_ratio": top_level / main_s,
    }
    metrics.update(search_counts(trace, max_iter))
    return metrics


def median_metrics(samples: list[dict]) -> dict:
    """Metric-wise median over several traced processes."""
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}
