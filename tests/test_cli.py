"""CLI contract: config parsing, exit codes, report format, determinism."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import saddle_metric
from oracles import build_parser
from occert import cli, validation
from occert.certify import CertifyOptions, SearchConfig
from occert.errors import ConditioningError, ConfigError, InputError, SchemaError
from occert.curvature import ricci_star
from occert.sphere import ChartPoint, FDConfig, MetricField, riemann, sample_points


def _write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# options the CLI rejects, and the record built directly from the same value
_REJECTED_OPTIONS = [
    (["--tol", "-1"], lambda: SearchConfig(tol=-1.0)),
    (["--tol", "nan"], lambda: SearchConfig(tol=float("nan"))),
    (["--tol", "inf"], lambda: SearchConfig(tol=float("inf"))),
    (["--multistarts", "-1"], lambda: SearchConfig(multistarts=-1)),
    (["--seed", "-3"], lambda: SearchConfig(seed=-3)),
    (["--checks", " "], lambda: CertifyOptions(checks=())),
    (["--checks", "bhl,nope"], lambda: CertifyOptions(checks=("bhl", "nope"))),
    (["--checks", "lemma_ll_demo"], lambda: CertifyOptions(checks=("lemma_ll_demo",))),
    (["--checks", "p_sufficient,p_refute,lemma_ll_demo"],
     lambda: CertifyOptions(checks=("p_sufficient", "p_refute", "lemma_ll_demo"))),
]


class TestConfigParsing:
    def test_builtin_round_flags(self):
        args = cli.parse_args(
            ["certify", "--metric", "round", "--points", "20", "--seed", "7"])
        config = cli.parse_config(args)
        assert config.metric.family == "round"
        assert config.points == 20
        assert config.options.search.seed == 7
        assert config.fd.h == 1e-3
        assert config.fd.scheme == "exact"
        assert config.options.checks == ("bhl", "p_sufficient")

    @pytest.mark.parametrize("flags, h, scheme", [
        ([], 1e-3, "exact"),
        (["--richardson"], 1e-3, "richardson_4th"),
    ])
    def test_curvature_scheme_selection(self, flags, h, scheme):
        args = cli.parse_args(["certify", "--metric", "round"] + flags)
        config = cli.parse_config(args)
        assert (config.fd.h, config.fd.scheme) == (h, scheme)
        assert config.to_dict()["fd"] == {"h": h, "scheme": scheme}

    def test_spec_file_conformal(self, tmp_path):
        spec = {"family": "conformal",
                "f": {"type": "ambient_linear",
                      "coeffs": [0.01, 0, 0, 0, 0, 0, 0]}}
        args = cli.parse_args(
            ["certify", "--spec", _write_spec(tmp_path, spec)])
        config = cli.parse_config(args)
        assert config.metric.family == "conformal"
        assert config.metric.params["f"]["coeffs"][0] == 0.01

    def test_unknown_family_exit_2_names_field(self, tmp_path, capsys):
        path = _write_spec(tmp_path, {"family": "nope"})
        code = cli.main(["certify", "--spec", path])
        assert code == cli.EXIT_CONFIG
        assert "family" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_spec(tmp_path, {"family": "round", "bogus": 1})
        with pytest.raises(ConfigError):
            cli.load_metric_spec(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.load_metric_spec(str(path))

    @pytest.mark.parametrize("token, text", [
        # the schema alone lets each of these through
        ("NaN", '{"family": "ellipsoid", "axes": [NaN, 1, 1, 1, 1, 1, 1]}'),
        ("Infinity", '{"family": "round", "scale": Infinity}'),
        ("-Infinity", '{"family": "conformal", "f": {"type": "ambient_linear", '
                      '"coeffs": [-Infinity, 0, 0, 0, 0, 0, 0]}}'),
        ("1e999", '{"family": "round", "scale": 1e999}'),
        ("1" + "0" * 400, '{"family": "round", "scale": 1%s}' % ("0" * 400)),
    ])
    def test_non_finite_spec_numbers_exit_2(self, tmp_path, capsys, token, text):
        """check_spec names the field that holds the number."""
        at = {"NaN": "'axes/0': nan", "Infinity": "'scale': inf",
              "-Infinity": "'f/coeffs/0': -inf", "1e999": "'scale': inf",
              "1" + "0" * 400: "'scale': an integer of 1329 bits"}[token]
        path = tmp_path / "spec.json"
        path.write_text(text)
        code = cli.main(["certify", "--spec", str(path), "--points", "1"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: invalid metric spec at %s is not a finite number\n" % at)

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"family": "round"}',
        b'{"family": "round", "scale": 1' + b"0" * 4999 + b"}",
        b"[" * 100_000,                 # json raises RecursionError
    ], ids=["not-utf8", "5000-digit-integer", "deep-nesting"])
    def test_unparsable_spec_file_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        out = tmp_path / "report.json"
        code = cli.main(["certify", "--spec", str(path), "--points", "1", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_long_spec_value_cut_in_the_error(self, tmp_path, capsys):
        """The error echoes no more than a fixed length of the value."""
        spec = _write_spec(tmp_path, {"family": "custom", "terms": [[0] * 100_000]})
        code = cli.main(["certify", "--spec", spec, "--points", "1"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: invalid metric spec at 'terms/0': ")
        assert err.count("\n") == 1 and len(err.encode()) < 1024

    def test_integral_floats_index_custom_terms(self):
        # the schema's "integer" admits 1.0, so table indices may be floats
        spec = {"family": "custom", "terms": [
            [float(i), float(i), [[1.0, [0.0] * 6]]] for i in range(6)]}
        xs = np.array([[0.1, 0.2, 0.0, 0.0, 0.3, 0.0]])
        assert np.array_equal(cli.metric_from_dict(spec).matrices("north", xs),
                              MetricField.flat_toy().matrices("north", xs))

    def test_out_of_range_values(self):
        with pytest.raises(ConfigError):
            cli.parse_config(cli.parse_args(
                ["certify", "--metric", "round", "--points", "0"]))
        with pytest.raises(ConfigError):
            cli.parse_config(cli.parse_args(
                ["certify", "--metric", "round", "--tol", "-1"]))
        for tol in ("nan", "inf"):
            with pytest.raises(ConfigError):
                cli.parse_config(cli.parse_args(
                    ["certify", "--metric", "round", "--tol", tol]))
        with pytest.raises(ConfigError):
            cli.parse_config(cli.parse_args(
                ["certify", "--metric", "round", "--multistarts", "-1"]))
        with pytest.raises(ConfigError):
            cli.parse_config(cli.parse_args(
                ["certify", "--metric", "round", "--seed", "-3"]))
        with pytest.raises(ConfigError):
            cli.parse_config(cli.parse_args(
                ["certify", "--metric", "round", "--checks", " "]))
        with pytest.raises(ConfigError):
            cli.parse_config(cli.parse_args(
                ["certify", "--metric", "round", "--checks", "bhl,nope"]))

    @pytest.mark.parametrize("checks", ["lemma_ll_demo", "p_sufficient,p_refute,lemma_ll_demo"])
    def test_retired_lemma_demo_exit_2(self, tmp_path, capsys, checks):
        """Pinching implies the lemma's hypotheses for every J, so the demo
        check is gone; the lemma stays a library function."""
        out = tmp_path / "report.json"
        code = cli.main(["certify", "--metric", "round", "--points", "3",
                         "--checks", checks, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: unknown checks: lemma_ll_demo\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, build", _REJECTED_OPTIONS,
                             ids=[" ".join(flags) for flags, _ in _REJECTED_OPTIONS])
    def test_cli_gives_the_record_text(self, tmp_path, capsys, flags, build):
        """A rejected option prints the text of the record that states its
        rule.  --points has no record: only parse_config checks it."""
        with pytest.raises(InputError) as direct:
            build()
        out = tmp_path / "report.json"
        code = cli.main(["certify", "--metric", "round", "--points", "1",
                         "--out", str(out)] + flags)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: %s\n" % direct.value
        assert not out.exists()

    def test_metric_or_spec_required(self):
        args = cli.parse_args(["certify"])
        with pytest.raises(ConfigError):
            cli.parse_config(args)


def _parsed(parse, argv):
    """The parse's namespace as the repr of each value (NaN equals NaN), or
    its exit code; what it prints is swallowed.  (argparse reads
    ``--opt=--`` as an empty list, so no value drawn here is ``--``.)"""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return {key: repr(value) for key, value in vars(parse(argv)).items()}
        except SystemExit as exc:
            return exc.code


_OPTION_NAMES = ["help"] + [name for name, *_ in cli.CERTIFY_OPTIONS]
_TEXTS = st.sampled_from(["round", "flat", "bhl,p_refute", "report.json", "x=y", "",
                          "-", "a b", "-3", "-0.5", "-a", "--points"]) | st.text(
    alphabet="abc019.,/_", max_size=8)
_VALUES = {int: st.integers(-10**6, 10**6).map(str) | st.sampled_from(
               ["+3", " 7 ", "1_000", "0x10", "1.5", "x", "-1e3"]),
           float: st.floats().map(repr) | st.sampled_from(
               ["1e-9", ".5", "-.5", "1e", "x", "-inf", "1_0.5"]),
           str: _TEXTS}


@st.composite
def _certify_argv(draw):
    """``certify`` and options of CERTIFY_OPTIONS in any order, repeated or
    not, each spelt in full or as a unique prefix, its value after ``=``
    or as the next word."""
    argv = ["certify"]
    for name, kind, _, _ in draw(st.lists(st.sampled_from(cli.CERTIFY_OPTIONS), max_size=8)):
        prefixes = [name[:k] for k in range(1, len(name) + 1)
                    if not any(other.startswith(name[:k])
                               for other in _OPTION_NAMES if other != name)]
        option = "--" + draw(st.sampled_from(prefixes))
        if kind is None:
            argv.append(option)
        elif draw(st.booleans()):
            argv.append("%s=%s" % (option, draw(_VALUES[kind])))
        else:
            argv += [option, draw(_VALUES[kind])]
    return argv


class TestParseArgs:
    """``cli.parse_args`` against the argparse parser it replaced
    (``oracles.build_parser``): the same values, or the same exit code."""

    @settings(max_examples=300, deadline=None)
    @given(_certify_argv())
    def test_agrees_with_argparse(self, argv):
        assert _parsed(cli.parse_args, argv) == _parsed(build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", [
        ["certify", "--mult", "8", "--seed", "-3", "--tol=-1e-3", "--r"],
        ["certify", "--metric", "round", "--metric=flat", "--out", "-"],
        ["certify", "--spec", "a b", "--checks", "-3", "--points=-2"],
        ["selftest"],
    ])
    def test_valid_rows(self, argv):
        parsed = _parsed(cli.parse_args, argv)
        assert isinstance(parsed, dict) and parsed == _parsed(build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", [
        [], ["spectrum", "--metric", "round"], ["--bogus", "certify"], ["-x", "certify"],
        ["certify", "--points", "x"], ["certify", "--tol", "1e"], ["certify", "--m", "round"],
        ["certify", "--spec", "--points", "3"], ["certify", "--points"],
        ["certify", "--richardson=1"], ["certify", "--fd-step", "1e-3"],
        ["certify", "--metric", "round", "stray"], ["certify", "--metric", "round", "--"],
        ["certify", "--spec", "--"], ["certify", "--", "x"], ["certify", "-x"],
        ["certify", "--seed", "-1e3"], ["certify", "--tol", "-inf"],
        ["selftest", "--points", "3"], ["selftest", "extra"],
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_usage_errors_exit_2(self, capsys, argv):
        assert _parsed(build_parser().parse_args, argv) == cli.EXIT_CONFIG
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: occert") and lines[-1].startswith("occert: error: ")

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--he"], ["certify", "-h"], ["certify", "--metric", "round", "--help"],
        ["certify", "--h"], ["selftest", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        assert _parsed(build_parser().parse_args, argv) == 0
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: occert")
        if argv[0] == "certify":
            assert all("--%s " % name in captured.out or "--%s\n" % name in captured.out
                       for name, *_ in cli.CERTIFY_OPTIONS)

    def test_unknown_option_named_with_its_value(self, capsys):
        with pytest.raises(SystemExit):
            cli.parse_args(["certify", "--fd-step", "1e-3", "--points", "2"])
        assert capsys.readouterr().err.endswith(
            "occert: error: unrecognized arguments: --fd-step 1e-3\n")


_ELLIPSOID = {"family": "ellipsoid", "axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]}
# (spec, verdict of every point) of metrics at the ends of the float range
_FLOAT_RANGE_SPECS = {
    "round-1e308": ({"family": "round", "scale": 1e308}, "error"),
    "ellipsoid-1e-308": (dict(_ELLIPSOID, scale=1e-308), "error"),
    "ellipsoid-5e-324": (dict(_ELLIPSOID, scale=5e-324), "error"),
    "constant-400": ({"family": "conformal", "f": {"type": "constant", "value": 400}},
                     "error"),
    "axis-1e200": ({"family": "ellipsoid", "axes": [1, 1, 1, 1, 1, 1, 1e200]}, "error"),
    "custom-1e308": ({"family": "custom", "terms": [
        [i, i, [[1e308 if i == 0 else 1.0, [0] * 6]]] for i in range(6)]}, "error"),
    # finite curvature: decided as at scale 1
    "conformal-1e300": ({"family": "conformal", "scale": 1e300, "f": {
        "type": "ambient_linear", "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}}, "unknown"),
}
# the texts of a floating-point fault, an ill-conditioned and a non-finite result
_FLOAT_RANGE_FAULT = ("^floating-point error: (overflow|divide by zero|invalid value) "
                      "encountered|condition number|^curvature tensor is not finite$")


class TestExitCodes:
    def test_round_all_certified(self, tmp_path):
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--metric", "round", "--points", "4",
                         "--seed", "7", "--out", out])
        assert code == cli.EXIT_OK
        report = cli.load_report(out)
        assert all(r["verdict"] == "certified" for r in report["points"])
        assert report["aggregate"]["verdict"].startswith("hypotheses certified")

    def test_large_conformal_perturbation(self, tmp_path):
        spec = {"family": "conformal",
                "f": {"type": "ambient_linear", "coeffs": [0.5, 0, 0, 0, 0, 0, 0]}}
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--spec", _write_spec(tmp_path, spec),
                         "--points", "4", "--seed", "7", "--out", out])
        assert code in (cli.EXIT_REFUTED, cli.EXIT_UNKNOWN)
        report = cli.load_report(out)
        bad = [r for r in report["points"]
               if r["verdict"] in ("refuted", "unknown")]
        assert bad, "the report must say which points failed"

    def test_flat_toy_fails_pinching(self, tmp_path):
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--metric", "flat", "--points", "2",
                         "--seed", "1", "--out", out])
        assert code == cli.EXIT_REFUTED
        report = cli.load_report(out)
        # pinching fails without a star-Ricci witness
        assert all(r["p_membership"]["witness"] is None
                   for r in report["points"])
        assert report["aggregate"]["verdict"] == "refuted at 2 of 2 points"

    def test_retired_spectrum_command_exit_2(self, capsys):
        # certify --checks bhl reports the same spectra
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--metric", "round"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "invalid choice: 'spectrum'" in capsys.readouterr().err

    def test_retired_fd_step_flag_exit_2(self, capsys):
        # --richardson is the one finite-difference option left
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--metric", "round", "--fd-step", "1e-3"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --fd-step 1e-3" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [
        "/nonexistent/dir/report.json",
        # the open succeeds and the write fails
        pytest.param("/dev/full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full")),
    ])
    def test_io_failure_exit_5(self, capsys, out):
        with pytest.raises(SystemExit) as err:
            cli.main(["certify", "--metric", "round", "--points", "1",
                      "--seed", "1", "--out", out])
        assert err.value.code == cli.EXIT_IO
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: cannot write report: ") and stderr.count("\n") == 1

    def test_point_errors_recorded_exit_4(self, tmp_path):
        # a non-SPD chart metric errors at every point but must not crash
        spec = {"family": "custom",
                "terms": [[i, i, [[-1.0, [0] * 6]]] for i in range(6)]}
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--spec", _write_spec(tmp_path, spec),
                         "--points", "3", "--seed", "2", "--out", out])
        assert code == cli.EXIT_UNKNOWN
        report = cli.load_report(out)
        assert all(r["verdict"] == "error" for r in report["points"])
        assert all(r["error"] for r in report["points"])

    def test_rescaled_round_passes_pinching(self, tmp_path):
        # curvature ~1e-13: pinching must not read the spectrum as a tie
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--spec",
                         _write_spec(tmp_path, {"family": "round", "scale": 1e13}),
                         "--points", "3", "--seed", "7", "--out", out])
        assert code == cli.EXIT_UNKNOWN
        points = cli.load_report(out)["points"]
        assert all(r["bhl"]["passed"] and not r["bhl"]["boundary"] for r in points)

    @pytest.mark.parametrize("scale", [1e-10, 1e-12])
    def test_shrunk_conformal_metric_certified(self, tmp_path, scale):
        # curvature ~1/scale: both identity checks are relative to
        # max(1, max |R|), so, as for pinching, the scale decides nothing
        spec = {"family": "conformal", "scale": scale,
                "f": {"type": "ambient_linear", "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}}
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--spec", _write_spec(tmp_path, spec), "--checks", "bhl",
                         "--points", "50", "--seed", "7", "--out", out])
        assert code == cli.EXIT_OK
        assert cli.load_report(out)["aggregate"]["counts"] == {"certified": 50}

    @pytest.mark.parametrize("checks", ["bhl,p_refute", "bhl,p_sufficient,p_refute"])
    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_huge_finite_curvature_decided_as_at_scale_one(self, tmp_path, scale, checks):
        """Curvature ~1/scale: the sufficient bound's Frobenius norm and the
        search's gradient norm would overflow (a RuntimeWarning fails the
        test).  Verdicts and P statuses are those at scale 1, and the report
        holds finite numbers only."""
        axes = [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]
        outcomes = []
        for s in (1.0, scale):
            spec = _write_spec(tmp_path, {"family": "ellipsoid", "axes": axes, "scale": s})
            out = tmp_path / "report.json"
            code = cli.main(["certify", "--spec", spec, "--points", "2", "--seed", "7",
                             "--multistarts", "4", "--checks", checks, "--out", str(out)])
            text = out.read_text()
            assert "Infinity" not in text and "NaN" not in text
            outcomes.append((code, [(r["verdict"], r["p_membership"]["status"])
                                    for r in json.loads(text)["points"]]))
        assert outcomes[0] == outcomes[1] == (cli.EXIT_REFUTED, [("refuted", "refuted")] * 2)

    @pytest.mark.parametrize("scale", [1e308, 1e-320])
    def test_overflowing_scale_errors_by_name(self, tmp_path, scale):
        # the metric or g^-1 overflows: an error at each point, and no warning
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--spec",
                         _write_spec(tmp_path, {"family": "round", "scale": scale}),
                         "--points", "3", "--seed", "7", "--out", out])
        assert code == cli.EXIT_UNKNOWN
        points = cli.load_report(out)["points"]
        assert all(r["verdict"] == "error" for r in points)
        assert not any("did not converge" in r["error"] for r in points)

    @pytest.mark.parametrize("scheme", [[], ["--richardson"]], ids=["exact", "richardson"])
    @pytest.mark.parametrize("spec, verdict", list(_FLOAT_RANGE_SPECS.values()),
                             ids=list(_FLOAT_RANGE_SPECS))
    def test_float_range_faults_are_point_errors(self, tmp_path, spec, verdict, scheme):
        """A metric beyond the float range ends each point in an error
        record that names the fault, also when warnings are errors."""
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "occert", "certify", "--spec",
             _write_spec(tmp_path, spec), "--points", "2", "--seed", "7",
             "--out", str(out)] + scheme,
            capture_output=True, text=True)
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert proc.returncode == cli.EXIT_UNKNOWN, proc.stderr
        points = cli.load_report(str(out))["points"]
        assert [r["verdict"] for r in points] == [verdict] * 2
        if verdict == "error":
            assert all(re.search(_FLOAT_RANGE_FAULT, r["error"]) for r in points)

    def test_degenerate_metric_rejected(self, tmp_path):
        # diag(1, 1, 1, 1, 1, 1e-9) is SPD with condition number 1e9
        spec = {"family": "custom",
                "terms": [[i, i, [[1e-9 if i == 5 else 1.0, [0] * 6]]]
                          for i in range(6)]}
        metric = cli.metric_from_dict(spec)
        with pytest.raises(ConditioningError):
            riemann(metric, sample_points(1, 2)[0], FDConfig())
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--spec", _write_spec(tmp_path, spec),
                         "--points", "3", "--seed", "2", "--out", out])
        assert code == cli.EXIT_UNKNOWN
        points = cli.load_report(out)["points"]
        assert all(r["verdict"] == "error" for r in points)
        assert all("condition number" in r["error"] for r in points)


class TestReports:
    def test_round_trip_bit_exact(self, tmp_path):
        out = str(tmp_path / "report.json")
        cli.main(["certify", "--metric", "round", "--points", "2",
                  "--seed", "3", "--out", out])
        report = cli.load_report(out)
        again = json.loads(json.dumps(report))
        flat0 = json.dumps(report, sort_keys=True)
        flat1 = json.dumps(again, sort_keys=True)
        assert flat0 == flat1
        spec0 = np.asarray(report["points"][0]["spectrum"])
        assert spec0.dtype == np.float64

    def test_exact_and_finite_difference_reports_load(self, tmp_path):
        # exact curvature by default, Richardson differences on request
        for flags, scheme in (([], "exact"), (["--richardson"], "richardson_4th")):
            out = str(tmp_path / ("report-%s.json" % scheme))
            code = cli.main(["certify", "--metric", "round", "--points", "2",
                             "--seed", "3", "--out", out] + flags)
            assert code == cli.EXIT_OK
            report = cli.load_report(out)
            assert report["config"]["fd"] == {"h": 1e-3, "scheme": scheme}
        # a central-difference report, as every report was before the
        # exact scheme, still loads though the CLI no longer writes one;
        # so does the record of the retired lemma_ll_demo check
        report = cli.load_report(str(tmp_path / "report-exact.json"))
        report["config"]["fd"]["scheme"] = "central_2nd"
        report["config"]["checks"].append("lemma_ll_demo")
        report["points"][0]["lemma_ll"] = {"hypotheses_met": True, "nondegenerate": True,
                                           "det_value": 1.0, "deviation": 0.0}
        old = tmp_path / "report-central_2nd.json"
        old.write_text(json.dumps(report) + "\n")
        assert cli.load_report(str(old)) == report

    def test_determinism_byte_identical(self, tmp_path, monkeypatch):
        out0 = str(tmp_path / "a.json")
        out1 = str(tmp_path / "b.json")
        argv = ["certify", "--metric", "round", "--points", "3", "--seed", "11"]
        cli.main(argv + ["--out", out0])
        # OCCERT_THREADS is not read any more: it must not reach the report
        monkeypatch.setenv("OCCERT_THREADS", "3")
        cli.main(argv + ["--out", out1])
        assert Path(out0).read_bytes() == Path(out1).read_bytes()
        assert cli.load_report(out1)["meta"]["threads"] == 1

    def test_witness_serialized_in_report(self, tmp_path):
        # a chart metric with negative star-Ricci regions: refutation
        # search produces a witness that must appear as J (6x6) and X (6)
        spec = {"family": "custom", "terms": saddle_metric().params["terms"]}
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--spec", _write_spec(tmp_path, spec),
                         "--points", "2", "--seed", "7",
                         "--checks", "bhl,p_sufficient,p_refute",
                         "--multistarts", "4", "--out", out])
        assert code == cli.EXIT_REFUTED
        report = cli.load_report(out)
        points = [r for r in report["points"]
                  if r.get("p_membership", {}) and r["p_membership"]["witness"]]
        assert points
        for point in points:
            w = point["p_membership"]["witness"]
            J = np.asarray(w["J"])
            X = np.asarray(w["X"])
            assert J.shape == (6, 6)
            assert X.shape == (6,)
            assert w["value"] < -1e-9
            assert abs(np.linalg.norm(X) - 1.0) < 1e-9
            assert np.max(np.abs(J @ J + np.eye(6))) < 1e-9
            # the value a reader recomputes from the report, bit for bit
            config = report["config"]
            R = riemann(cli.metric_from_dict(config["metric"]),
                        ChartPoint(point["chart"], np.asarray(point["x"])),
                        FDConfig(h=config["fd"]["h"], scheme=config["fd"]["scheme"]))
            assert float(X @ ricci_star(R, J) @ X) == w["value"]

    def test_reports_hold_plain_json_types(self, tmp_path):
        """Records are built from plain types and only the envelope is
        converted, so no numpy scalar or array may reach the document."""
        plain = (dict, list, str, int, float, bool, type(None))

        def walk(value, where):
            assert type(value) in plain, (where, type(value))
            items = (value.items() if isinstance(value, dict)
                     else enumerate(value) if isinstance(value, list) else ())
            for key, item in items:
                walk(item, "%s/%s" % (where, key))

        saddle = _write_spec(tmp_path, {"family": "custom",
                                        "terms": saddle_metric().params["terms"]})
        broken = _write_spec(tmp_path, {"family": "custom", "terms": [
            [i, i, [[-1.0, [0] * 6]]] for i in range(6)]}, "broken.json")
        runs = [
            ["certify", "--spec", saddle, "--points", "2", "--seed", "7",
             "--multistarts", "4", "--checks", "bhl,p_sufficient,p_refute"],
            ["certify", "--metric", "flat", "--points", "2"],
            ["certify", "--spec", broken, "--points", "2"],
        ]
        reports = []
        for index, argv in enumerate(runs):
            report, _ = cli.run_certify(cli.parse_config(cli.parse_args(argv)))
            walk(report, "run%d" % index)
            reports.append(report)
        assert any(r["p_membership"]["witness"] for r in reports[0]["points"])
        assert all(r["verdict"] == "error" for r in reports[2]["points"])

    @pytest.mark.parametrize("points", [
        pytest.param(None, id="saddle"), 1, cli.POINTS_PER_SLICE - 1, cli.POINTS_PER_SLICE,
        cli.POINTS_PER_SLICE + 1, 3 * cli.POINTS_PER_SLICE + 5])
    def test_report_is_one_line_of_json_dumps(self, tmp_path, points):
        """The file is ``json.dumps`` of the report and a newline, and it
        reads back equal to the report, every float bit for bit: for a
        saddle run with witnesses, and for round runs whose
        points end at the edges of ``emit_report``'s slices."""
        if points is None:
            spec = _write_spec(tmp_path, {"family": "custom",
                                          "terms": saddle_metric().params["terms"]})
            argv = ["certify", "--spec", spec, "--points", "2", "--seed", "7",
                    "--multistarts", "4", "--checks", "bhl,p_sufficient,p_refute"]
        else:
            argv = ["certify", "--metric", "round", "--points", str(points), "--seed", "7"]
        report, _ = cli.run_certify(cli.parse_config(cli.parse_args(argv)))
        if points is None:
            assert any(r["p_membership"]["witness"] for r in report["points"])
        out = tmp_path / "report.json"
        cli.emit_report(report, str(out))
        text = out.read_text()
        assert text == json.dumps(report) + "\n"
        assert text.count("\n") == 1
        loaded = cli.load_report(str(out))
        assert loaded == report

        def floats(value):
            if isinstance(value, float):
                yield value.hex()
            items = (value.values() if isinstance(value, dict)
                     else value if isinstance(value, list) else ())
            for item in items:
                yield from floats(item)

        assert list(floats(loaded)) == list(floats(report))

    def test_report_text_written_in_slices(self, tmp_path, monkeypatch):
        """No ``json.dumps`` call of the writer returns a quarter of the file."""
        config = cli.parse_config(cli.parse_args(
            ["certify", "--metric", "round", "--points", "200", "--seed", "7"]))
        report, _ = cli.run_certify(config)
        dumps, lengths = json.dumps, []

        def recording(*args, **kwargs):
            text = dumps(*args, **kwargs)
            lengths.append(len(text))
            return text

        monkeypatch.setattr(json, "dumps", recording)
        out = tmp_path / "report.json"
        cli.emit_report(report, str(out))
        assert lengths and 4 * max(lengths) < out.stat().st_size

    def test_packaged_schemas_are_valid(self):
        jsonschema = pytest.importorskip("jsonschema")
        for name in SCHEMAS:
            schema = validation.load_schema(name)
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_schema_validation_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "occert-report-v1",
                                    "command": "certify"}))
        with pytest.raises(SchemaError) as err:
            cli.load_report(str(path))
        assert err.value.message == "'config' is a required property"
        assert err.value.absolute_path == ()


class TestSubprocessEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "occert", "certify", "--metric", "round",
             "--points", "1", "--seed", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "hypotheses certified" in proc.stdout

    def test_selftest(self):
        proc = subprocess.run([sys.executable, "-m", "occert", "selftest"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        names = ["operator of constant curvature is Id",
                 "spectral pinching on the round anchor",
                 "Ric* of constant curvature is the metric",
                 "round-sphere curvature anchor",
                 "exact round-sphere curvature anchor"]
        assert lines == ["selftest %-38s PASS" % name for name in names] + [
            "selftest result: PASS"]

    def test_run_path_imports_no_third_party_but_numpy(self, tmp_path):
        """Importing the CLI and one ``certify --spec`` run load no
        third-party package but numpy (the schemas are checked in-package)."""
        spec = _write_spec(tmp_path, {"family": "conformal", "f": {
            "type": "ambient_linear", "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}})
        script = textwrap.dedent("""
            import json, sys
            bare = set(sys.modules)         # site may load packages already
            def third_party():
                # modules without a spec are made by extension modules
                # (numpy's Cython runtime), not imported from a package
                new = {name.split(".")[0] for name in set(sys.modules) - bare
                       if sys.modules[name].__spec__ is not None}
                return sorted(new - set(sys.stdlib_module_names))
            import occert.cli
            imported = third_party()
            code = occert.cli.main(["certify", "--spec", sys.argv[1],
                                    "--points", "2", "--out", sys.argv[2]])
            print(json.dumps([code, imported, third_party()]))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, spec, str(tmp_path / "report.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, imported, ran = json.loads(proc.stdout.splitlines()[-1])
        assert code == cli.EXIT_UNKNOWN
        assert imported == ran == ["numpy", "occert"]

    def test_exit_freezes_the_heap_once(self):
        """Two in-process runs leave one ``gc.freeze`` at exit, and it runs
        before the probe registered ahead of them (atexit is last in, first
        out), so the final collections skip every object alive at exit.
        The calls are counted: ``atexit._ncallbacks()`` also counts the
        slots ``atexit.unregister`` empties (CPython 3.11)."""
        script = textwrap.dedent("""
            import atexit, gc
            import occert.cli
            freeze, calls = gc.freeze, []
            gc.freeze = lambda: calls.append(1) or freeze()
            atexit.register(lambda: print("freezes", len(calls),
                                          "frozen", gc.get_freeze_count() > 0))
            for _ in range(2):
                occert.cli.main(["certify", "--metric", "round", "--points", "1"])
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "freezes 1 frozen True"


SCHEMAS = ("metric_spec.schema.json", "report.schema.json")

# single-fault specs and their error texts, as the CLI has always printed them
_SPEC_FAULTS = [
    ({"family": "nope"},
     "invalid metric spec at 'family': 'nope' is not one of "
     "['round', 'conformal', 'ellipsoid', 'custom']"),
    ({}, "invalid metric spec at 'family': 'family' is a required property"),
    ([], "invalid metric spec at 'family': [] is not of type 'object'"),
    ({"family": "round", "bogus": 1},
     "invalid metric spec at 'family': Additional properties are not allowed "
     "('bogus' was unexpected)"),
    ({"family": "round", "scale": 1, "b": 2, "a": 1},
     "invalid metric spec at 'family': Additional properties are not allowed "
     "('a', 'b' were unexpected)"),
    ({"family": "round", "scale": 0},
     "invalid metric spec at 'scale': 0 is less than or equal to the minimum of 0"),
    ({"family": "round", "scale": -float("inf")},
     "invalid metric spec at 'scale': -inf is less than or equal to the minimum of 0"),
    ({"family": "round", "scale": True},
     "invalid metric spec at 'scale': True is not of type 'number'"),
    ({"family": "round", "scale": "1"},
     "invalid metric spec at 'scale': '1' is not of type 'number'"),
    ({"family": "ellipsoid", "axes": [1] * 6},
     "invalid metric spec at 'axes': [1, 1, 1, 1, 1, 1] is too short"),
    ({"family": "ellipsoid", "axes": [1] * 8},
     "invalid metric spec at 'axes': [1, 1, 1, 1, 1, 1, 1, 1] is too long"),
    ({"family": "ellipsoid", "axes": [1, 1, 1, -1, 1, 1, 1]},
     "invalid metric spec at 'axes/3': -1 is less than or equal to the minimum of 0"),
    ({"family": "ellipsoid", "axes": [1, 1, 1, False, 1, 1, 1]},
     "invalid metric spec at 'axes/3': False is not of type 'number'"),
    ({"family": "conformal", "f": {"coeffs": [0] * 7}},
     "invalid metric spec at 'f': 'type' is a required property"),
    ({"family": "conformal", "f": {"type": "quadratic"}},
     "invalid metric spec at 'f/type': 'quadratic' is not one of "
     "['ambient_linear', 'constant']"),
    ({"family": "conformal", "f": {"type": "constant", "value": None}},
     "invalid metric spec at 'f/value': None is not of type 'number'"),
    ({"family": "conformal", "f": {"type": "constant", "extra": 1}},
     "invalid metric spec at 'f': Additional properties are not allowed "
     "('extra' was unexpected)"),
    ({"family": "conformal", "f": []},
     "invalid metric spec at 'f': [] is not of type 'object'"),
    ({"family": "custom", "terms": [[0, 6, [[1.0, [0] * 6]]]]},
     "invalid metric spec at 'terms/0/1': 6 is greater than the maximum of 5"),
    ({"family": "custom", "terms": [[0, 1.5, [[1.0, [0] * 6]]]]},
     "invalid metric spec at 'terms/0/1': 1.5 is not of type 'integer'"),
    ({"family": "custom", "terms": [[0, True, [[1.0, [0] * 6]]]]},
     "invalid metric spec at 'terms/0/1': True is not of type 'integer'"),
    ({"family": "custom", "terms": [[0, 0, [[1.0, [0] * 6]], 7]]},
     "invalid metric spec at 'terms/0': [0, 0, [[1.0, [0, 0, 0, 0, 0, 0]]], 7] "
     "is too long"),
    ({"family": "custom", "terms": [[0, 0]]},
     "invalid metric spec at 'terms/0': [0, 0] is too short"),
    ({"family": "custom", "terms": [[0, 0, [[1.0, [0] * 5]]]]},
     "invalid metric spec at 'terms/0/2/0/1': [0, 0, 0, 0, 0] is too short"),
    ({"family": "custom", "terms": [[0, 0, [[1.0, [-1, 0, 0, 0, 0, 0]]]]]},
     "invalid metric spec at 'terms/0/2/0/1/0': -1 is less than the minimum of 0"),
    ({"family": "custom", "terms": [[0, 0, [["1", [0] * 6]]]]},
     "invalid metric spec at 'terms/0/2/0/0': '1' is not of type 'number'"),
    ({"family": "custom", "terms": {}},
     "invalid metric spec at 'terms': {} is not of type 'array'"),
    # a long value: the message keeps its first and last 100 characters
    ({"family": "custom", "terms": [[0] * 100_000]},
     "invalid metric spec at 'terms/0': [" + "0, " * 33 + "...[299812 characters cut]..."
     + ", 0" * 29 + "] is too long"),
    ({"family": "ellipsoid", "axes": [1.0] * 50_000},
     "invalid metric spec at 'axes': [" + "1.0, " * 19 + "1.0,...[249812 characters cut]..."
     + ".0" + ", 1.0" * 17 + "] is too long"),
]

_finite = st.floats(-1e3, 1e3) | st.integers(-5, 5)
_positive = st.floats(1e-3, 1e3) | st.integers(1, 5)
_METRIC_SPECS = st.fixed_dictionaries(
    {"family": st.sampled_from(["round", "conformal", "ellipsoid", "custom"])},
    optional={
        "scale": _positive,
        "f": st.fixed_dictionaries(
            {"type": st.sampled_from(["ambient_linear", "constant"])},
            optional={"coeffs": st.lists(_finite, min_size=7, max_size=7),
                      "value": _finite}),
        "axes": st.lists(_positive, min_size=7, max_size=7),
        "terms": st.lists(st.tuples(
            st.integers(0, 5) | st.sampled_from([0.0, 5.0]), st.integers(0, 5),
            st.lists(st.tuples(_finite, st.lists(st.integers(0, 3), min_size=6,
                                                 max_size=6)).map(list),
                     max_size=2)).map(list), max_size=3),
    })
# values that break some keyword of the schemas somewhere
_ODD_VALUES = [True, False, None, 0, -1, 6, 1.0, 2.5, float("nan"), float("inf"),
               -float("inf"), "x", [], {}, [0] * 6, [0, 0, []]]


def _nodes(doc, path=()):
    yield path, doc
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(doc, data):
    """A copy of doc with one node replaced, deleted or grown, or with an
    extra key or array item."""
    doc = copy.deepcopy(doc)
    path, node = data.draw(st.sampled_from(list(_nodes(doc))))
    edits = ["replace"] + (["delete"] if path else []) + (
        ["add_key"] if isinstance(node, dict) else
        ["append"] if isinstance(node, list) else [])
    edit = data.draw(st.sampled_from(edits))
    if edit == "add_key":
        node[data.draw(st.sampled_from(["bogus", "type", "value", "J"]))] = 1
    elif edit == "append":
        node.append(data.draw(st.sampled_from(_ODD_VALUES)))
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if edit == "delete":
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_ODD_VALUES)))
        else:
            doc = copy.deepcopy(data.draw(st.sampled_from(_ODD_VALUES)))
    return doc


@pytest.fixture(scope="module")
def real_reports(tmp_path_factory):
    """Reports of small runs that cover every record shape: witnesses
    and per-point errors."""
    tmp = tmp_path_factory.mktemp("reports")
    saddle = _write_spec(tmp, {"family": "custom",
                               "terms": saddle_metric().params["terms"]}, "saddle.json")
    conformal = _write_spec(tmp, {"family": "conformal", "f": {
        "type": "ambient_linear", "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}}, "conformal.json")
    broken = _write_spec(tmp, {"family": "custom", "terms": [
        [i, i, [[-1.0, [0] * 6]]] for i in range(6)]}, "broken.json")
    runs = [
        ["certify", "--spec", saddle, "--points", "2", "--seed", "7",
         "--multistarts", "4", "--checks", "bhl,p_sufficient,p_refute"],
        ["certify", "--spec", conformal, "--points", "2", "--seed", "7"],
        ["certify", "--spec", broken, "--points", "1"],
    ]
    reports = []
    for argv in runs:
        config = cli.parse_config(cli.parse_args(argv))
        reports.append(json.loads(json.dumps(cli.run_certify(config)[0])))
    return reports


def _outcome(validate, doc, schema):
    try:
        validate(doc, schema)
    except SchemaError as exc:
        return exc.message, exc.absolute_path
    return None


def _oracle(doc, schema):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    return None if error is None else (error.message, tuple(error.absolute_path))


class TestSchemaValidator:
    """The in-package validator against the reference Python library
    (test-only): same accept/reject, same message and path."""

    def test_schemas_use_only_supported_keywords(self):
        def walk(schema, where):
            assert set(schema) <= validation.KEYWORDS, (where, set(schema))
            assert schema.get("additionalProperties", False) is False, where
            assert all(isinstance(v, str)
                       for v in schema.get("enum", []) + [schema.get("const", "")]), where
            subs = list(schema.get("properties", {}).items())
            subs += [("items", schema["items"])] if "items" in schema else []
            subs += list(enumerate(schema.get("prefixItems", [])))
            for key, sub in subs:
                walk(sub, "%s/%s" % (where, key))

        for name in SCHEMAS:
            walk(validation.load_schema(name), name)

    def test_unsupported_keyword_raises(self):
        with pytest.raises(NotImplementedError):
            validation.validate("x", {"pattern": "y"})

    @pytest.mark.parametrize("doc", [
        ["a", 1, 2], ["a", "b"], [1, 1], [], ["a", 1.0], ["a", True],
        [float("nan")], [-0.0], [0], [True], [None], ["a", 1, None, "c"],
    ])
    def test_semantics_agree_with_reference(self, doc):
        # items applies past prefixItems only; bool is not a number; 1.0
        # is an integer; comparisons with nan never fail
        schema = {"type": "array", "maxItems": 3,
                  "prefixItems": [{"type": ["string", "number"],
                                   "exclusiveMinimum": 0}],
                  "items": {"type": ["integer", "null"], "minimum": 1}}
        assert (_outcome(validation.validate, doc, schema)
                == _oracle(doc, schema))

    @pytest.mark.parametrize("spec, text", _SPEC_FAULTS)
    def test_single_fault_texts(self, spec, text):
        with pytest.raises(ConfigError) as err:
            cli.metric_from_dict(spec)
        assert str(err.value) == text

    @settings(max_examples=400, deadline=None)
    @given(spec=_METRIC_SPECS, data=st.data())
    def test_specs_agree_with_reference(self, spec, data):
        schema = validation.load_schema(SCHEMAS[0])
        assert _outcome(validation.validate, spec, schema) is None
        assert _oracle(spec, schema) is None
        mutated = _mutate(spec, data)
        assert (_outcome(validation.validate, mutated, schema)
                == _oracle(mutated, schema))

    def test_real_reports_accepted(self, real_reports):
        schema = validation.load_schema(SCHEMAS[1])
        for report in real_reports:
            assert _outcome(validation.validate, report, schema) is None
            assert _oracle(report, schema) is None
        assert any(r["p_membership"]["witness"] for r in real_reports[0]["points"])
        assert real_reports[2]["points"][0]["verdict"] == "error"

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_reports_agree_with_reference(self, real_reports, data):
        schema = validation.load_schema(SCHEMAS[1])
        mutated = _mutate(data.draw(st.sampled_from(real_reports)), data)
        assert (_outcome(validation.validate, mutated, schema)
                == _oracle(mutated, schema))


def _built(build):
    """The metric that build returns, or the text of its ConfigError."""
    try:
        return build()
    except ConfigError as exc:
        return str(exc)


class TestEntryPointsAgree:
    """A spec document and a metric built in Python from the same parts
    pass the same check."""

    @settings(max_examples=300, deadline=None)
    @given(spec=_METRIC_SPECS, data=st.data())
    def test_spec_and_direct_construction_agree(self, spec, data):
        doc = _mutate(spec, data) if data.draw(st.booleans()) else spec
        via_spec = _built(lambda: cli.metric_from_dict(doc))
        if not isinstance(doc, dict):
            assert isinstance(via_spec, str)
            return
        params = {k: v for k, v in doc.items() if k not in ("family", "scale")}
        direct = _built(lambda: MetricField(doc.get("family"), params,
                                            doc.get("scale", 1.0)))
        if isinstance(direct, str) or isinstance(via_spec, str):
            assert isinstance(direct, str) and isinstance(via_spec, str)
            if "family" in doc:
                assert direct == via_spec
            return
        assert direct == via_spec
        config = cli.RunConfig(metric=direct, points=1, fd=FDConfig(),
                               options=CertifyOptions(), out=None)
        reported = json.loads(json.dumps(config.to_dict()["metric"]))
        assert cli.metric_from_dict(reported) == direct
