"""Acceptance suite: the exit criteria of the artifact.

Each test enforces one criterion at its stated tolerance and prints a
single PASS/FAIL line (run pytest with -s to see them inline).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import random_form_above_omega, random_one_one_form, random_skew
from oracles import canonical_projection_scalar_oracle, random_nabla_j
from occert import budget as bd
from occert import certify as ct
from occert import cli
from occert import curvature as cv
from occert import hermitian as hm
from occert import sphere as sp
from occert import structures as sr
from occert.rng import make_rng


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    print("ACCEPTANCE %2d %-34s %s %s"
          % (number, name, "PASS" if passed else "FAIL", detail))
    assert passed, "criterion %d (%s) failed: %s" % (number, name, detail)


def test_01_round_metric_anchor(G):
    t0 = time.monotonic()
    field = sp.MetricField("round")
    points = sp.sample_points(20, 42)
    worst4 = 0.0
    for pt in points:
        spec4 = cv.curvature_operator(
            sp.riemann(field, pt, sp.FDConfig(h=1e-3, scheme="richardson_4th"))
        ).spectrum
        worst4 = max(worst4, float(np.max(np.abs(spec4 - 1.0))))
    elapsed = time.monotonic() - t0
    ok = worst4 < 1e-6 and elapsed < 10.0
    _report(1, "round-metric operator anchor", ok,
            "dev4=%.2e t=%.1fs" % (worst4, elapsed))


def test_02_constant_curvature_identities():
    rng = make_rng(2)
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        R = cv.kulkarni_nomizu_square(k=k)
        worst = max(worst, float(np.max(np.abs(cv.ricci(R) - 5.0 * k * np.eye(6)))))
        for _ in range(10):
            J = hm.random_orthogonal_complex_structure(rng).J
            worst = max(worst, float(np.max(np.abs(
                cv.ricci_star(R, J) - k * np.eye(6)))))
    _report(2, "constant-curvature contractions", worst < 1e-12,
            "max dev=%.2e" % worst)


def test_03_projection_lemma_oracle():
    rng = make_rng(3)
    worst = 0.0
    for _ in range(1000):
        A = random_skew(rng)
        J = hm.random_orthogonal_complex_structure(rng).J
        lemma = sr.canonical_projection_scalar(A, J)
        oracle = canonical_projection_scalar_oracle(A, J)
        worst = max(worst, abs(lemma - oracle))
    _report(3, "projection lemma vs coframe oracle", worst < 1e-10,
            "max gap=%.2e" % worst)


def test_04_psi_identity(J0, omega0):
    worst_val = 0.0
    for k in (0.5, 1.0, 2.0):
        R = cv.kulkarni_nomizu_square(k=k)
        worst_val = max(worst_val, float(np.max(np.abs(
            sr.psi(R, J0) - 2.0 * k * omega0))))
    rng = make_rng(4)
    worst_gap = 0.0
    for _ in range(1000):
        R = cv.random_curvature(rng)
        J = hm.random_orthogonal_complex_structure(rng).J
        direct = sr.psi(R, J)
        via_star = -2.0 * (cv.ricci_star(R, J) @ J)
        worst_gap = max(worst_gap, float(np.max(np.abs(direct - via_star))))
    ok = worst_val < 1e-12 and worst_gap < 1e-9
    _report(4, "psi value and display agreement", ok,
            "value=%.2e displays=%.2e" % (worst_val, worst_gap))


def test_05_phi_identity():
    rng = make_rng(5)
    worst = 0.0
    for _ in range(1000):
        J = hm.random_orthogonal_complex_structure(rng).J
        N = random_nabla_j(rng, J)
        phi = sr.phi(J, N)
        x = rng.normal(size=6)
        lhs = x @ phi @ (J @ x)
        nx = np.einsum("i,iab->ab", x, N)
        rhs = float(np.sum(nx * nx))
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    field = sp.MetricField("round")
    acs = sr.ACSField()
    for pt in sp.sample_points(20, 55):
        nd = sr.nabla_J(field, acs, pt)
        phi = sr.phi(nd.J, nd.nabla)
        for _ in range(10):
            x = rng.normal(size=6)
            lhs = x @ phi @ (nd.J @ x)
            nx = np.einsum("i,iab->ab", x, nd.nabla)
            rhs = float(np.sum(nx * nx))
            worst = max(worst, abs(lhs - rhs) / rhs)
    _report(5, "phi norm identity", worst < 1e-6, "max rel=%.2e" % worst)


def test_06_lemma_ll_fuzz(J0, omega0):
    rng = make_rng(6)
    degenerate = 0
    for _ in range(10_000):
        zeta0 = random_form_above_omega(rng, J0, omega0)
        eta = random_one_one_form(rng, J0)
        eta *= rng.uniform(0.0, 1.0) / (2.0 * np.sqrt(3.0)) / hm.norm_lambda2(eta)
        r = ct.check_lemma_LL(zeta0, zeta0 + eta, J0)
        assert r.hypotheses_met
        if not r.nondegenerate:
            degenerate += 1
    _report(6, "nondegeneracy lemma fuzz", degenerate == 0,
            "%d degenerate of 10000" % degenerate)


def test_07_sufficient_bound_soundness(G):
    rng = make_rng(7)
    worst = np.inf
    for i in range(10):
        R = G + cv.random_curvature(rng, scale=0.002)
        assert ct.certify_P_sufficient(R).status == "certified", \
            "fixture must be certified"
        res = ct.refute_P(R, ct.SearchConfig(multistarts=64, seed=700 + i))
        worst = min(worst, res.best_value)
        assert res.witness is None
    _report(7, "sufficient bound soundness", worst > -1e-6,
            "min over searches=%.3e" % worst)


def test_08_refutation_correctness(G):
    res = ct.refute_P(-G, ct.SearchConfig(multistarts=64, seed=8))
    wit = res.witness
    ok_value = wit is not None and abs(wit.value + 1.0) < 1e-6
    replay = wit.X @ cv.ricci_star(-G, wit.J) @ wit.X
    ok_replay = abs(replay - wit.value) < 1e-10
    _report(8, "refutation of negative curvature", ok_value and ok_replay,
            "value=%.9f replay gap=%.2e" % (wit.value, abs(replay - wit.value)))


def test_09_perturbation_budget():
    grid = np.linspace(0.0, 0.2, 100)
    for e1 in grid:
        for e2 in grid:
            r = bd.perturbation_budget_check(bd.PerturbationBudget(e1, e2))
            assert not r.linear_ok or r.quadratic_ok, \
                "linear bound must imply the quadratic one at (%g, %g)" % (e1, e2)
    rng = make_rng(9)
    worst_excess = -np.inf
    for _ in range(100):
        h = rng.normal(size=(6, 6))
        h = rng.uniform(0.01, 0.08) * (h + h.T) / np.max(np.abs(h + h.T))
        g = np.eye(6) + h
        eps2 = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        bound = 2.0 * eps2 * (2.0 + eps2)
        diff = cv.kulkarni_nomizu_square(g) - cv.kulkarni_nomizu_square()
        vs = rng.normal(size=(10_000, 4, 6))
        vs /= np.linalg.norm(vs, axis=2, keepdims=True)
        # diff(v1, v2, v3, v4) = (v1 (x) v2) . diff as a 36 x 36 matrix . (v3 (x) v4)
        v12 = (vs[:, 0, :, None] * vs[:, 1, None, :]).reshape(-1, 36)
        v34 = (vs[:, 2, :, None] * vs[:, 3, None, :]).reshape(-1, 36)
        vals = np.sum((v12 @ diff.reshape(36, 36)) * v34, axis=1)
        worst_excess = max(worst_excess, float(np.max(np.abs(vals))) - bound)
    _report(9, "perturbation budget chain", worst_excess <= 1e-12,
            "max excess=%.2e" % worst_excess)


def test_10_end_to_end_neighborhood(tmp_path):
    t0 = time.monotonic()
    small = tmp_path / "small.json"
    small.write_text(json.dumps({
        "family": "conformal",
        "f": {"type": "ambient_linear", "coeffs": [0.01, 0, 0, 0, 0, 0, 0]}}))
    code_small = cli.main(["certify", "--spec", str(small), "--points", "20",
                           "--seed", "10",
                           "--out", str(tmp_path / "small_report.json")])
    t_small = time.monotonic() - t0
    report = cli.load_report(str(tmp_path / "small_report.json"))
    all_good = all(r["verdict"] == "certified" for r in report["points"])

    t1 = time.monotonic()
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "family": "conformal",
        "f": {"type": "ambient_linear", "coeffs": [0.5, 0, 0, 0, 0, 0, 0]}}))
    code_big = cli.main(["certify", "--spec", str(big), "--points", "20",
                         "--seed", "10",
                         "--out", str(tmp_path / "big_report.json")])
    t_big = time.monotonic() - t1
    big_report = cli.load_report(str(tmp_path / "big_report.json"))
    diagnostics = [r for r in big_report["points"]
                   if r["verdict"] in ("refuted", "unknown")]

    ok = (code_small == cli.EXIT_OK and all_good
          and code_big in (cli.EXIT_REFUTED, cli.EXIT_UNKNOWN)
          and len(diagnostics) > 0
          and t_small < 60.0 and t_big < 60.0)
    _report(10, "end-to-end neighborhood demo", ok,
            "exit %d/%d, t=%.1fs/%.1fs, %d flagged points"
            % (code_small, code_big, t_small, t_big, len(diagnostics)))
