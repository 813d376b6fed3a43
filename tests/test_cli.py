"""CLI contract: config parsing, exit codes, report format, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import saddle_metric
from occert import cli
from occert.errors import ConditioningError, ConfigError
from occert.sphere import FDConfig, riemann, sample_points


def _write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigParsing:
    def test_builtin_round_flags(self):
        args = cli.build_parser().parse_args(
            ["certify", "--metric", "round", "--points", "20", "--seed", "7"])
        config = cli.parse_config(args)
        assert config.metric.family == "round"
        assert config.points == 20
        assert config.seed == 7
        assert config.fd.h == 1e-3
        assert config.fd.scheme == "central_2nd"
        assert config.options.checks == ("bhl", "p_sufficient")

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

    def test_determinism_byte_identical(self, tmp_path, monkeypatch):
        out0 = str(tmp_path / "a.json")
        out1 = str(tmp_path / "b.json")
        argv = ["certify", "--metric", "round", "--points", "3", "--seed", "11"]
        cli.main(argv + ["--out", out0])
        # OCCERT_THREADS is not read any more: it must not reach the report
        monkeypatch.setenv("OCCERT_THREADS", "3")
        cli.main(argv + ["--out", out1])
        assert open(out0, "rb").read() == open(out1, "rb").read()
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
        witnesses = [r["p_membership"]["witness"] for r in report["points"]
                     if r.get("p_membership", {}) and r["p_membership"]["witness"]]
        assert witnesses
        w = witnesses[0]
        J = np.asarray(w["J"])
        X = np.asarray(w["X"])
        assert J.shape == (6, 6)
        assert X.shape == (6,)
        assert w["value"] < -1e-9
        assert abs(np.linalg.norm(X) - 1.0) < 1e-9
        assert np.max(np.abs(J @ J + np.eye(6))) < 1e-9

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
            (cli.run_certify, ["certify", "--spec", saddle, "--points", "2",
                               "--seed", "7", "--multistarts", "4", "--checks",
                               "bhl,p_sufficient,p_refute,lemma_ll_demo"]),
            (cli.run_certify, ["certify", "--metric", "flat", "--points", "2"]),
            (cli.run_certify, ["certify", "--spec", broken, "--points", "2"]),
            (cli.run_spectrum, ["spectrum", "--metric", "round", "--points", "2"]),
        ]
        reports = []
        for runner, argv in runs:
            report, _ = runner(cli.parse_config(cli.build_parser().parse_args(argv)))
            walk(report, argv[0])
            reports.append(report)
        assert any(r["p_membership"]["witness"] for r in reports[0]["points"])
        assert all(r["verdict"] == "error" for r in reports[2]["points"])

    def test_spectrum_subcommand(self, tmp_path):
        out = str(tmp_path / "spec.json")
        code = cli.main(["spectrum", "--metric", "round", "--points", "2",
                         "--seed", "5", "--out", out])
        assert code == cli.EXIT_OK
        report = cli.load_report(out)
        assert report["command"] == "spectrum"
        assert len(report["points"][0]["spectrum"]) == 15

    def test_packaged_schemas_are_valid(self):
        jsonschema = pytest.importorskip("jsonschema")
        for name in ("metric_spec.schema.json", "report.schema.json"):
            schema = cli._load_schema(name)
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_schema_validation_rejects_garbage(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "occert-report-v1",
                                    "command": "certify"}))
        with pytest.raises(jsonschema.ValidationError):
            cli.load_report(str(path))


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
        assert "PASS" in proc.stdout
