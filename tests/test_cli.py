"""CLI contract: config parsing, exit codes, report format, determinism."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import saddle_metric
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
        args = cli.build_parser().parse_args(
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
        args = cli.build_parser().parse_args(["certify", "--metric", "round"] + flags)
        config = cli.parse_config(args)
        assert (config.fd.h, config.fd.scheme) == (h, scheme)
        assert config.to_dict()["fd"] == {"h": h, "scheme": scheme}

    def test_spec_file_conformal(self, tmp_path):
        spec = {"family": "conformal",
                "f": {"type": "ambient_linear",
                      "coeffs": [0.01, 0, 0, 0, 0, 0, 0]}}
        args = cli.build_parser().parse_args(
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
    ], ids=["not-utf8", "5000-digit-integer"])
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

    def test_integral_floats_index_custom_terms(self):
        # the schema's "integer" admits 1.0, so table indices may be floats
        spec = {"family": "custom", "terms": [
            [float(i), float(i), [[1.0, [0.0] * 6]]] for i in range(6)]}
        xs = np.array([[0.1, 0.2, 0.0, 0.0, 0.3, 0.0]])
        assert np.array_equal(cli.metric_from_dict(spec).matrices("north", xs),
                              MetricField.flat_toy().matrices("north", xs))

    def test_out_of_range_values(self):
        parser = cli.build_parser()
        with pytest.raises(ConfigError):
            cli.parse_config(parser.parse_args(
                ["certify", "--metric", "round", "--points", "0"]))
        with pytest.raises(ConfigError):
            cli.parse_config(parser.parse_args(
                ["certify", "--metric", "round", "--tol", "-1"]))
        for tol in ("nan", "inf"):
            with pytest.raises(ConfigError):
                cli.parse_config(parser.parse_args(
                    ["certify", "--metric", "round", "--tol", tol]))
        with pytest.raises(ConfigError):
            cli.parse_config(parser.parse_args(
                ["certify", "--metric", "round", "--multistarts", "-1"]))
        with pytest.raises(ConfigError):
            cli.parse_config(parser.parse_args(
                ["certify", "--metric", "round", "--seed", "-3"]))
        with pytest.raises(ConfigError):
            cli.parse_config(parser.parse_args(
                ["certify", "--metric", "round", "--checks", " "]))
        with pytest.raises(ConfigError):
            cli.parse_config(parser.parse_args(
                ["certify", "--metric", "round", "--checks", "bhl,nope"]))

    @pytest.mark.parametrize("checks", ["lemma_ll_demo", "p_sufficient,p_refute,lemma_ll_demo"])
    def test_lemma_demo_without_bhl_exit_2(self, tmp_path, capsys, checks):
        """The demo reads bhl's result; without bhl no decision check would
        run and every point would read as certified."""
        out = tmp_path / "report.json"
        code = cli.main(["certify", "--metric", "round", "--points", "3",
                         "--checks", checks, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: checks lemma_ll_demo needs bhl, whose result it reads\n")
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
        args = cli.build_parser().parse_args(["certify"])
        with pytest.raises(ConfigError):
            cli.parse_config(args)


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

    def test_io_failure_exit_5(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["certify", "--metric", "round", "--points", "1",
                      "--seed", "1", "--out", "/nonexistent/dir/report.json"])
        assert err.value.code == cli.EXIT_IO

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e308, 1e-320])
    def test_overflowing_scale_errors_by_name(self, tmp_path, scale):
        # the finite differences or g^-1 overflow to inf and nan
        out = str(tmp_path / "report.json")
        code = cli.main(["certify", "--spec",
                         _write_spec(tmp_path, {"family": "round", "scale": scale}),
                         "--points", "3", "--seed", "7", "--out", out])
        assert code == cli.EXIT_UNKNOWN
        points = cli.load_report(out)["points"]
        assert all(r["verdict"] == "error" for r in points)
        assert not any("did not converge" in r["error"] for r in points)

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
        # exact scheme, still loads though the CLI no longer writes one
        report = cli.load_report(str(tmp_path / "report-exact.json"))
        report["config"]["fd"]["scheme"] = "central_2nd"
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
             "--multistarts", "4", "--checks", "bhl,p_sufficient,p_refute,lemma_ll_demo"],
            ["certify", "--metric", "flat", "--points", "2"],
            ["certify", "--spec", broken, "--points", "2"],
        ]
        reports = []
        for index, argv in enumerate(runs):
            report, _ = cli.run_certify(cli.parse_config(cli.build_parser().parse_args(argv)))
            walk(report, "run%d" % index)
            reports.append(report)
        assert any(r["p_membership"]["witness"] for r in reports[0]["points"])
        assert all(r["verdict"] == "error" for r in reports[2]["points"])

    def test_report_is_one_line_of_json_dumps(self, tmp_path):
        """The file is ``json.dumps`` of the report and a newline, and it
        reads back equal to the report, every float bit for bit."""
        spec = _write_spec(tmp_path, {"family": "custom",
                                      "terms": saddle_metric().params["terms"]})
        config = cli.parse_config(cli.build_parser().parse_args(
            ["certify", "--spec", spec, "--points", "2", "--seed", "7",
             "--multistarts", "4", "--checks", "bhl,p_sufficient,p_refute"]))
        report, _ = cli.run_certify(config)
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
        for name in ("round-sphere curvature anchor",
                     "exact round-sphere curvature anchor"):
            assert any(line.startswith("selftest %s " % name) and line.endswith("PASS")
                       for line in lines), name
        assert lines[-1] == "selftest result: PASS"

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
    """Reports of small runs that cover every record shape: witnesses,
    the lemma demo and per-point errors."""
    tmp = tmp_path_factory.mktemp("reports")
    saddle = _write_spec(tmp, {"family": "custom",
                               "terms": saddle_metric().params["terms"]}, "saddle.json")
    conformal = _write_spec(tmp, {"family": "conformal", "f": {
        "type": "ambient_linear", "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}}, "conformal.json")
    broken = _write_spec(tmp, {"family": "custom", "terms": [
        [i, i, [[-1.0, [0] * 6]]] for i in range(6)]}, "broken.json")
    runs = [
        ["certify", "--spec", saddle, "--points", "2", "--seed", "7",
         "--multistarts", "4", "--checks", "bhl,p_sufficient,p_refute,lemma_ll_demo"],
        ["certify", "--spec", conformal, "--points", "2", "--seed", "7"],
        ["certify", "--spec", broken, "--points", "1"],
    ]
    reports = []
    for argv in runs:
        config = cli.parse_config(cli.build_parser().parse_args(argv))
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
