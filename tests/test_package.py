"""The package namespace: every exported name resolves, and so does every
name the benchmark in ``perfbench/`` looks up in the package."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
