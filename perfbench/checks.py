"""Correctness checks on one ``occert certify`` report.

Each point is checked against the workload's expected verdict, its bhl
margin is recomputed from the reported spectrum, and every witness is
re-verified from scratch: J must be an orthogonal complex structure, X a
unit vector, and X . Ric*(R, J) . X, with R recomputed at the reported
chart point under the run's finite-difference config, must equal the
reported value and lie below -tol.
"""

from __future__ import annotations

import json

import numpy as np

from occert.cli import load_report, metric_from_dict
from occert.curvature import ricci_star
from occert.sphere import ChartPoint, FDConfig, riemann

STRUCTURE_TOL = 1e-10     # J^T J = I, J^2 = -I and |X| = 1
RECOMPUTE_TOL = 1e-12     # relative; the recomputation repeats the run's arithmetic


def canonical(report: dict) -> str:
    """The report minus ``meta``, as the bytes that must repeat exactly."""
    return json.dumps({k: v for k, v in report.items() if k != "meta"},
                      indent=2)


def check_report(path: str, exit_code: int, workload) -> tuple[dict | None, list[str]]:
    """Load and validate a report; the report (None when unreadable) and
    one problem string per failed point or per process-level failure."""
    problems = []
    try:
        report = load_report(path)
    except Exception as exc:                # schema, JSON or I/O failure
        return None, ["report rejected: %s: %s" % (type(exc).__name__, exc)]
    if exit_code != workload.exit_code:
        problems.append("exit code %d, expected %d" % (exit_code, workload.exit_code))
    if len(report["points"]) != workload.points:
        problems.append("%d points reported, expected %d"
                        % (len(report["points"]), workload.points))
    config = report["config"]
    metric = metric_from_dict(config["metric"])
    fd = FDConfig(h=config["fd"]["h"], scheme=config["fd"]["scheme"])
    for point in report["points"]:
        fault = _point_fault(point, workload, metric, fd, config["tol"])
        if fault:
            problems.append("point %d: %s" % (point["index"], fault))
    return report, problems


def _point_fault(point: dict, workload, metric, fd: FDConfig,
                 tol: float) -> str | None:
    if point["verdict"] != workload.verdict:
        return "verdict %r, expected %r (%s)" % (point["verdict"], workload.verdict,
                                                point.get("error") or point.get("notes"))
    spectrum = np.asarray(point["spectrum"])
    lmin, lmax = float(spectrum.min()), float(spectrum.max())
    margin = 7.0 * lmin - 5.0 * lmax
    if abs(margin - point["bhl"]["margin"]) > RECOMPUTE_TOL * max(1.0, abs(lmax)):
        return "bhl margin %r, recomputed %r" % (point["bhl"]["margin"], margin)
    pm = point["p_membership"]
    if pm["status"] not in workload.p_status:
        return "P status %r, expected one of %r" % (pm["status"], workload.p_status)
    witness = pm["witness"]
    if (witness is None) != (pm["status"] != "refuted"):
        return "witness %s" % ("missing" if witness is None else "unexpected")
    if witness is not None:
        return _witness_fault(point, witness, metric, fd, tol)
    return None


def _witness_fault(point: dict, witness: dict, metric, fd: FDConfig,
                   tol: float) -> str | None:
    J = np.asarray(witness["J"])
    X = np.asarray(witness["X"])
    eye = np.eye(6)
    if (np.max(np.abs(J.T @ J - eye)) > STRUCTURE_TOL
            or np.max(np.abs(J @ J + eye)) > STRUCTURE_TOL):
        return "witness J is not an orthogonal complex structure"
    if abs(np.linalg.norm(X) - 1.0) > STRUCTURE_TOL:
        return "witness X is not a unit vector"
    R = riemann(metric, ChartPoint(point["chart"], np.asarray(point["x"])), fd)
    value = float(X @ ricci_star(R, J) @ X)
    if abs(value - witness["value"]) > RECOMPUTE_TOL * max(1.0, abs(value)):
        return "witness value %r, recomputed %r" % (witness["value"], value)
    if not value < -tol:
        return "witness value %r is not below -tol" % value
    return None

