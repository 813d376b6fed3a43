"""Batch front-end: sample points on the sphere, certify each, report.

Exit codes: 0 all certified, 2 bad configuration, 3 at least one point
refuted, 4 at least one point unknown or errored (none refuted),
5 report I/O failure.
"""

from __future__ import annotations

import atexit
import gc
import getopt
import json
import re
import sys
from collections import Counter, namedtuple
from types import SimpleNamespace
from typing import NoReturn

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


def parse_config(args: SimpleNamespace) -> RunConfig:
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
    number of points per verdict.  A floating-point overflow, division by
    zero or invalid operation (a metric beyond the float range) stops its
    point as an error too, never the run."""
    records = []
    for index, point in enumerate(sample_points(config.points, config.options.search.seed)):
        record: dict = {
            "index": index,
            "chart": point.chart_id,
            "x": point.x.tolist(),
            "ambient": chart_to_ambient(point).tolist(),
        }
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                R = riemann(config.metric, point, config.fd)
                record.update(_certify_one(R, config))
        except (OccertError, np.linalg.LinAlgError) as exc:
            # per-point isolation: a bad point must not abort the survey
            record.update({"verdict": "error", "error": str(exc), "notes": ""})
        except FloatingPointError as exc:
            record.update({"verdict": "error", "error": "floating-point error: %s" % exc,
                           "notes": ""})
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


# The certify options: name, type (None: a flag), default, help.
CERTIFY_OPTIONS = (
    ("metric", str, None, "builtin metric family (round, flat)"),
    ("spec", str, None, "JSON metric spec file"),
    ("points", int, 20, "number of sampled points"),
    ("seed", int, 0, "seed of the points and of the search starts"),
    ("richardson", None, False, "fourth-order finite differences of step 1e-3 "
                                "(default: closed-form curvature)"),
    ("multistarts", int, 64, "refutation search starts per point"),
    ("tol", float, 1e-9, "a search value below -tol is a witness"),
    ("checks", str, "bhl,p_sufficient", "comma list from bhl,p_sufficient,p_refute"),
    ("out", str, None, "path for the JSON report"),
)
_COMMANDS = {"certify": ("run the certification survey", CERTIFY_OPTIONS),
             "selftest": ("run built-in anchor checks", ())}


def _wrap(head: str, words: list[str]) -> str:
    """``head`` and the words after it, wrapped at 79 columns; each further
    line is indented by the length of ``head``."""
    lines = [head]
    for n, word in enumerate(words):
        if n and len(lines[-1]) + 1 + len(word) > 79:
            lines.append(" " * len(head))
        lines[-1] += " " + word
    return "\n".join(lines)


def _usage(command: str | None) -> str:
    if command is None:
        return _wrap("usage: occert", ["[-h]", "{%s}" % ",".join(_COMMANDS), "..."])
    return _wrap("usage: occert " + command, ["[-h]"] + [
        "[--%s%s]" % (name, "" if kind is None else " " + name.upper())
        for name, kind, _, _ in _COMMANDS[command][1]])


def _help(command: str | None) -> NoReturn:
    """Print the usage block of ``occert`` or of one command; exit 0."""
    if command is None:
        text = "Certify curvature-positivity conditions at sampled points of the 6-sphere."
        table = ()
        sections = [("commands", [(name, about) for name, (about, _) in _COMMANDS.items()])]
    else:
        text, table = _COMMANDS[command]
        sections = []
    options = [("-h, --help", "show this help message and exit")]
    for name, kind, default, about in table:
        if kind is None:
            options.append(("--" + name, about))
        else:
            options.append(("--%s %s" % (name, name.upper()),
                            about if default is None else "%s (default: %s)" % (about, default)))
    sections.append(("options", options))
    width = max(len(left) for _, rows in sections for left, _ in rows)
    lines = [_usage(command), "", text]
    for title, rows in sections:
        lines += ["", title + ":"] + [_wrap("  %-*s " % (width, left), right.split())
                                      for left, right in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(EXIT_OK)


def _fail(command: str | None, message: str) -> NoReturn:
    sys.stderr.write("%s\noccert: error: %s\n" % (_usage(command), message))
    raise SystemExit(EXIT_CONFIG)


def _option_like(token: str) -> bool:
    """Whether a word in a value's place reads as an option rather than
    as the value: negative numbers, ``-`` and texts with a space do not."""
    return (token[:1] == "-" and token != "-" and " " not in token
            and not re.match(r"^-\d+$|^-\d*\.\d+$", token))


def _getopt(command: str | None, args: list[str]) -> tuple[list, list]:
    """``getopt`` over one level of the command line: the top level stops
    at the command, a command's level collects stray words."""
    table = _COMMANDS[command][1] if command else ()
    parse = getopt.gnu_getopt if command else getopt.getopt
    try:
        return parse(args, "h", ["help"] + [name if kind is None else name + "="
                                            for name, kind, _, _ in table])
    except getopt.GetoptError as exc:
        at = next((i for i, token in enumerate(args)
                   if token.partition("=")[0] == "--" + exc.opt), None)
        if at is None or any(name.startswith(exc.opt) for name in
                             ["help"] + [row[0] for row in table]):
            _fail(command, exc.msg)
        # an unknown long option: name it with the stray words after it
        words = [args[at]]
        for token in args[at + 1:]:
            if _option_like(token):
                break
            words.append(token)
        _fail(command, "unrecognized arguments: " + " ".join(words))


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """The command line (default ``sys.argv[1:]``) as a namespace:
    ``command`` and, for ``certify``, one attribute per entry of
    ``CERTIFY_OPTIONS``.  Options take ``--opt value`` or ``--opt=value``
    and unique prefixes; the last of a repeated option wins.  ``-h`` or
    ``--help`` prints the usage block and exits 0; a usage error prints
    the usage line and ``occert: error: ...`` to stderr and exits
    EXIT_CONFIG."""
    args = sys.argv[1:] if argv is None else list(argv)
    found, rest = _getopt(None, args)
    if found:
        _help(None)
    if not rest:
        _fail(None, "the following arguments are required: command")
    command, args = rest[0], rest[1:]
    if command not in _COMMANDS:
        _fail(None, "argument command: invalid choice: %r (choose from %s)"
              % (command, ", ".join(map(repr, _COMMANDS))))
    found, strays = _getopt(command, args)
    if any(opt in ("-h", "--help") for opt, _ in found):
        _help(command)
    table = _COMMANDS[command][1]
    values = {name: default for name, _, default, _ in table}
    kinds = {"--" + name: kind for name, kind, _, _ in table}
    tokens = iter(args)
    for opt, value in found:
        # getopt takes the word after --opt as its value whatever it is;
        # an option-like word there is a missing value
        token = next(t for t in tokens if t[:1] == "-" and t != "-")
        kind = kinds[opt]
        if kind is None:
            values[opt[2:]] = True
            continue
        if "=" not in token:
            next(tokens)
            if _option_like(value):
                _fail(command, "option %s requires argument" % opt)
        try:
            values[opt[2:]] = kind(value)
        except ValueError:
            _fail(command, "option %s: invalid %s value: %r" % (opt, kind.__name__, value))
    # gnu_getopt drops the "--" that ends the options; no command takes words
    if strays or "--" in args:
        _fail(command, "unrecognized arguments: " + " ".join(strays or ["--"]))
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    # exit skips the final collections (teardown 22 -> 6 ms); cycles left then go unfinalized
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = parse_args(argv)
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
