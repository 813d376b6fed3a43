"""The package namespace: every exported name resolves, and so does every
name the benchmark in ``perfbench/`` looks up in the package."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import occert

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in occert.__all__ if not hasattr(occert, name)]
    assert not missing


def test_benchmark_names_resolve():
    """In a fresh interpreter that has imported ``occert.cli``: every
    function ``perfbench/tracing.py`` wraps, ``occert.BACKEND`` (read by
    ``perfbench/child.py``) and every name ``perfbench/checks.py`` imports
    from occert.  A rename breaks the traced benchmark run otherwise."""
    script = textwrap.dedent("""
        import ast, importlib, importlib.util, json, sys
        import occert.cli
        bench = sys.argv[1]
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", bench + "/tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        names = [(module, attr) for module, attr, _ in tracing.WRAPPED]
        names.append(("occert", "BACKEND"))
        with open(bench + "/checks.py") as fh:
            tree = ast.parse(fh.read())
        names += [(node.module, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module.split(".")[0] == "occert"
                  for alias in node.names]
        missing = []
        for module, attr in names:
            try:
                owner = importlib.import_module(module)
                for part in attr.split("."):
                    owner = getattr(owner, part)
            except (ImportError, AttributeError) as exc:
                missing.append("%s.%s: %s" % (module, attr, exc))
        print(json.dumps([len(tracing.WRAPPED), len(names), missing]))
    """)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    wrapped, checked, missing = json.loads(proc.stdout.splitlines()[-1])
    assert not missing
    assert checked > wrapped + 1          # checks.py's imports were found


# the package's export list
EXPORTS = [
    "ACSField", "BACKEND", "BhlResult", "Certificate", "CertifyOptions", "ChartPoint",
    "ComplexStructure", "CurvatureOperator", "FDConfig", "MetricField",
    "PerturbationBudget", "SearchConfig", "Witness", "__version__",
    "canonical_projection_scalar", "certify_P_sufficient", "certify_point", "check_bhl",
    "check_lemma_LL", "christoffel", "curvature_operator", "fundamental_two_form",
    "g2_structure", "hat", "is_positive_form", "kulkarni_nomizu_square",
    "make_complex_structure", "nabla_J", "perturbation_budget_check",
    "random_orthogonal_complex_structure", "refute_P", "ricci", "ricci_star", "riemann",
    "sample_points", "sharp", "validate_symmetries",
]


def _fresh(script: str, *args: str) -> list:
    """Run ``script`` in a new interpreter that imports occert from this
    checkout; its last stdout line, parsed as JSON."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestNamespace:
    def test_exports_unchanged(self):
        assert occert.__all__ == EXPORTS
        assert occert.__version__ == "0.1.0"

    def test_exports_resolve_lazily(self):
        """``import occert`` loads no submodule; ``dir`` lists every export
        before it is loaded, and each one then resolves to the object its
        submodule defines."""
        loaded, listed, resolved = _fresh("""
            import json, sys
            import occert
            loaded = sorted(m for m in sys.modules if m.startswith("occert."))
            listed = sorted(set(occert.__all__) - set(dir(occert)))
            resolved = [name for name in occert.__all__
                        if getattr(occert, name) is not None]
            print(json.dumps([loaded, listed, resolved]))
        """)
        assert loaded == []
        assert listed == []
        assert resolved == EXPORTS
        from occert import budget, curvature, kernels, sphere, structures
        assert occert.MetricField is sphere.MetricField
        assert occert.CurvatureOperator is curvature.CurvatureOperator
        assert occert.ACSField is structures.ACSField
        assert occert.perturbation_budget_check is budget.perturbation_budget_check
        assert occert.BACKEND is kernels.BACKEND

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from occert import *", namespace)
        assert [name for name in EXPORTS if name not in namespace] == []

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            occert.nope
        assert not hasattr(occert, "nope")
        assert "nope" not in dir(occert)


def test_cli_run_path_import_closure(tmp_path):
    """``import occert.cli`` loads neither ``dataclasses`` nor the modules
    the command line does not run, and a certify run with every check
    then loads no further occert module: everything it needs was
    imported before ``cli.main``."""
    spec = tmp_path / "ellipsoid.json"
    spec.write_text(json.dumps({"family": "ellipsoid",
                                "axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]}))
    imported, dataclasses, added, codes = _fresh("""
        import json, sys
        import occert.cli
        ours = lambda: {m for m in sys.modules if m.split(".")[0] == "occert"}
        imported = sorted(ours())
        dataclasses = "dataclasses" in sys.modules
        codes = [occert.cli.main(["certify", "--spec", sys.argv[1], "--points", "2",
                                  "--multistarts", "2", "--checks",
                                  "bhl,p_sufficient,p_refute,lemma_ll_demo",
                                  "--out", sys.argv[2]])]
        print(json.dumps([imported, dataclasses, sorted(ours() - set(imported)), codes]))
    """, str(spec), str(tmp_path / "report.json"))
    assert not dataclasses
    assert not {"occert.structures", "occert.budget", "occert.selftest"} & set(imported)
    assert "occert.hermitian" in imported          # refute and the lemma need it
    assert added == []
    assert codes == [3]
