"""The ``occert selftest`` command: quick built-in value anchors, kept
apart from :mod:`occert.cli` so that certify runs do not compile them.
Comparisons with second routes (the coframe oracle of the projection
scalar, say) run in the test suite, not here."""

from __future__ import annotations

import numpy as np

from . import curvature as cv
from . import hermitian as hm
from . import sphere as sp
from . import structures as sr
from .certify import check_bhl
from .cli import EXIT_OK


def run_selftest() -> int:
    """Quick built-in anchors; prints one line per check."""
    ok = True

    def check(name: str, passed: bool):
        nonlocal ok
        ok = ok and passed
        print("selftest %-38s %s" % (name, "PASS" if passed else "FAIL"))

    G = cv.kulkarni_nomizu_square()
    op = cv.curvature_operator(G)
    check("operator of constant curvature is Id", np.allclose(op.spectrum, 1.0, atol=1e-12))
    check("spectral pinching on the round anchor", check_bhl(op.spectrum).passed)
    J0 = hm.standard_complex_structure()
    check("Ric* of constant curvature is the metric",
          np.allclose(cv.ricci_star(G, J0), np.eye(6), atol=1e-12))
    check("projection scalar of the standard J is 3i",
          abs(sr.canonical_projection_scalar(J0, J0) - 3j) < 1e-12)
    e = np.eye(7)
    check("octonion table anchor e1 x e2 = e3",
          np.allclose(sr.cross7(e[0], e[1]), e[2]))
    pt = sp.sample_points(1, 0)[0]
    round_metric = sp.MetricField(family="round")
    R = sp.riemann(round_metric, pt, sp.FDConfig(scheme="richardson_4th"))
    check("round-sphere curvature anchor", float(np.max(np.abs(R - G))) < 1e-6)
    R = sp.riemann(round_metric, pt, sp.FDConfig(scheme="exact"))
    check("exact round-sphere curvature anchor",
          float(np.max(np.abs(R - G))) <= 1e-12)
    nd = sr.nabla_J(round_metric, sr.ACSField(), pt)
    # nearly Kaehler, (nabla_X J) X = 0, and nabla_X J anticommutes with J
    worst = max(np.max(np.abs(nd.nabla + nd.nabla.transpose(2, 1, 0))),
                np.max(np.abs(nd.nabla @ nd.J + nd.J @ nd.nabla)))
    check("exact nabla J of the octonionic anchor", worst <= 1e-12)
    print("selftest result: %s" % ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else 1
