"""Batch front-end: sample points on the sphere, certify each, report.

Exit codes: 0 all certified, 2 bad configuration, 3 at least one point
refuted, 4 at least one point unknown or errored (none refuted),
5 report I/O failure.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from collections import Counter, namedtuple

import numpy as np

from . import __version__
from .certify import CertifyOptions, SearchConfig, certify_point
from .errors import ConfigError, OccertError
from .kernels import BACKEND
from .sphere import (FDConfig, MetricField, chart_to_ambient, check_spec, riemann,
                     sample_points)
from .validation import load_schema, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUTED = 3
EXIT_UNKNOWN = 4
EXIT_IO = 5

_BUILTIN_METRICS = ("round", "flat")

POINTS_PER_SLICE = 16               # point records per json.dumps call of emit_report


class RunConfig(namedtuple("RunConfig", "metric points fd options out")):
    """A parsed command line: the metric, the point count, the curvature
    scheme, the checks with the search (whose seed also draws the
    points) and the report path (None: no report)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "metric": self.metric.spec(),
            "points": self.points,
            "seed": self.options.search.seed,
            "fd": {"h": self.fd.h, "scheme": self.fd.scheme},
            "multistarts": self.options.search.multistarts,
            "tol": self.options.search.tol,
            "checks": list(self.options.checks),
        }


def load_metric_spec(path: str) -> MetricField:
    """Read a metric spec file; ``check_spec`` rejects unknown keys and
    non-finite numbers (NaN, Infinity, literals beyond the float range)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read spec file: %s" % exc) from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer over 4300 digits, nesting too deep
        raise ConfigError("malformed JSON in spec file: %s" % exc) from exc
    return metric_from_dict(raw)


def metric_from_dict(raw: dict) -> MetricField:
    check_spec(raw)                 # before the document is taken apart
    params = {k: v for k, v in raw.items() if k not in ("family", "scale")}
    return MetricField(family=raw["family"], params=params,
                       scale=float(raw.get("scale", 1.0)))


def _builtin_metric(name: str) -> MetricField:
    if name == "round":
        return MetricField(family="round")
    if name == "flat":
        return MetricField.flat_toy()
    raise ConfigError("unknown metric family %r (builtins: %s; use --spec for "
                      "parametrized families)" % (name, ", ".join(_BUILTIN_METRICS)))


def parse_config(args: argparse.Namespace) -> RunConfig:
    if args.spec:
        metric = load_metric_spec(args.spec)
    elif args.metric:
        metric = _builtin_metric(args.metric)
    else:
        raise ConfigError("one of --metric or --spec is required")
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    fd = FDConfig(scheme="richardson_4th" if args.richardson else "exact")
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    try:                            # the records state the rules on their fields
        options = CertifyOptions(
            checks=checks,
            search=SearchConfig(multistarts=args.multistarts, tol=args.tol,
                                seed=args.seed))
    except OccertError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(metric=metric, points=args.points, fd=fd,
                     options=options, out=args.out)


def _survey(config: RunConfig) -> tuple[list[dict], dict[str, int]]:
    """One record per sampled point (its position, then the certificate
    of its curvature tensor, or the error that stopped the point) and the
    number of points per verdict."""
    records = []
    for index, point in enumerate(sample_points(config.points, config.options.search.seed)):
        record: dict = {
            "index": index,
            "chart": point.chart_id,
            "x": point.x.tolist(),
            "ambient": chart_to_ambient(point).tolist(),
        }
        try:
            R = riemann(config.metric, point, config.fd)
            record.update(_certify_one(R, config))
        except (OccertError, np.linalg.LinAlgError) as exc:
            # per-point isolation: a bad point must not abort the survey
            record.update({"verdict": "error", "error": str(exc), "notes": ""})
        records.append(record)
    return records, dict(Counter(r["verdict"] for r in records))


def _certify_one(R: np.ndarray, config: RunConfig) -> dict:
    cert = certify_point(R, options=config.options)
    record: dict = {
        "spectrum": cert.spectrum.tolist(),
        "lambda_min": float(cert.spectrum[0]),
        "lambda_max": float(cert.spectrum[-1]),
    }
    statuses = []                   # one per decision check that ran
    if cert.bhl is not None:
        record["bhl"] = {"passed": cert.bhl.passed, "margin": cert.bhl.margin,
                         "boundary": cert.bhl.boundary}
        statuses.append("certified" if cert.bhl.passed else "refuted")
    if cert.p_membership is not None:
        pm = cert.p_membership
        wit = None
        if pm.witness is not None:
            wit = {"J": pm.witness.J.tolist(), "X": pm.witness.X.tolist(),
                   "value": float(pm.witness.value)}
        record["p_membership"] = {"status": pm.status, "sup_lower": pm.sup_lower,
                                  "sup_upper": pm.sup_upper,
                                  "threshold": pm.threshold, "witness": wit}
        statuses.append(pm.status)
    record["verdict"] = ("refuted" if "refuted" in statuses
                         else "certified" if set(statuses) == {"certified"} else "unknown")
    record["notes"] = cert.verdict_notes
    record["error"] = None
    return record


def run_certify(config: RunConfig) -> tuple[dict, int]:
    """Certification survey; the report and the exit code."""
    records, counts = _survey(config)
    margins = [r["bhl"]["margin"] for r in records if r.get("bhl")]
    if counts.get("refuted"):
        verdict = "refuted at %d of %d points" % (counts["refuted"], len(records))
        code = EXIT_REFUTED
    elif counts.get("unknown") or counts.get("error"):
        verdict = "inconclusive: %d unknown, %d errors" % (
            counts.get("unknown", 0), counts.get("error", 0))
        code = EXIT_UNKNOWN
    else:
        verdict = "hypotheses certified at all sampled points"
        code = EXIT_OK
    report = {                      # every part is built from plain JSON types
        "schema": "occert-report-v1",
        "command": "certify",
        "config": config.to_dict(),
        # points run one after another in this thread
        "meta": {"version": __version__, "numpy": np.__version__,
                 "backend": BACKEND, "threads": 1},
        "points": records,
        "aggregate": {"verdict": verdict,
                      "min_margin": min(margins) if margins else None,
                      "counts": counts},
    }
    return report, code


def emit_report(report: dict, path: str | None) -> None:
    """Write the JSON document on one line, keys in report order, floats
    in their round-trip-exact ``repr`` (``python -m json.tool`` pretty-prints
    it); the file is byte for byte ``json.dumps(report) + "\n"``.

    The document is written key by key, and ``points`` in slices of
    ``POINTS_PER_SLICE`` records, so emission holds one slice's text at a
    time: one ``json.dumps`` of the whole report keeps every fragment
    alive until its final join, then copies the text to append the
    newline, and the file encodes it once more, several copies of a text
    that grows ~1 KB per point.  Each piece is still encoded by
    ``json.dumps`` without ``indent``, the one call that runs the C
    encoder; ``json.dump`` and ``iterencode`` stream through the
    pure-Python one."""
    if path is None:
        return
    try:
        with open(path, "w") as fh:
            fh.write("{")
            for n, (key, value) in enumerate(report.items()):
                fh.write("%s%s: " % (", " if n else "", json.dumps(key)))
                if key != "points":
                    fh.write(json.dumps(value))
                    continue
                fh.write("[")
                for start in range(0, len(value), POINTS_PER_SLICE):
                    # each slice's brackets give way to the separator between slices
                    fh.write(", " if start else "")
                    fh.write(json.dumps(value[start:start + POINTS_PER_SLICE])[1:-1])
                fh.write("]")
            fh.write("}\n")
    except OSError as exc:
        print("error: cannot write report: %s" % exc, file=sys.stderr)
        raise SystemExit(EXIT_IO)


def load_report(path: str) -> dict:
    """Read a report back, validating it against the shipped schema;
    a mismatch raises ``SchemaError``."""
    with open(path) as fh:
        report = json.load(fh)
    validate(report, load_schema("report.schema.json"))
    return report


def _print_summary(report: dict) -> None:
    """The summary table, written to stdout in one call: with an
    unbuffered stdout every ``print`` is a system call of its own."""
    lines = ["occert %s | metric=%s | backend=%s" % (
        report["command"], report["config"]["metric"]["family"],
        report["meta"]["backend"])]
    lines.append("%5s %-6s %12s %12s %12s %-6s %-10s %-9s" % (
        "point", "chart", "lambda_min", "lambda_max", "margin", "bhl",
        "P-status", "verdict"))
    for r in report["points"]:
        if r.get("error"):
            lines.append("%5d %-6s %-60s" % (r["index"], r["chart"],
                                             "ERROR: " + r["error"]))
            continue
        bhl = r.get("bhl")
        pm = r.get("p_membership")
        lines.append("%5d %-6s %12.6f %12.6f %12.6f %-6s %-10s %-9s" % (
            r["index"], r["chart"], r.get("lambda_min", float("nan")),
            r.get("lambda_max", float("nan")),
            bhl["margin"] if bhl else float("nan"),
            ("pass" if bhl["passed"] else "fail") if bhl else "-",
            pm["status"] if pm else "-", r["verdict"]))
    lines.append("aggregate: %s" % report["aggregate"]["verdict"])
    sys.stdout.write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occert",
        description="Certify curvature-positivity conditions at sampled "
                    "points of the 6-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the certification survey")
    p.add_argument("--metric", help="builtin metric family (round, flat)")
    p.add_argument("--spec", help="JSON metric spec file")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--richardson", action="store_true",
                   help="fourth-order finite differences of step 1e-3 "
                        "(default: closed-form curvature)")
    p.add_argument("--multistarts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--checks", default="bhl,p_sufficient",
                   help="comma list from bhl,p_sufficient,p_refute")
    p.add_argument("--out", help="path for the JSON report")
    sub.add_parser("selftest", help="run built-in anchor checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    # exit skips the final collections (teardown 22 -> 6 ms); cycles left then go unfinalized
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        from .selftest import run_selftest

        return run_selftest()
    try:
        config = parse_config(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    report, code = run_certify(config)
    emit_report(report, config.out)
    _print_summary(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
