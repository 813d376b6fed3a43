"""Decision layer: pinching check, membership certification/refutation,
the nondegeneracy lemma, perturbation budgets, per-point certificates."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_form_above_omega, random_one_one_form
from oracles import ellipsoid_principal_curvatures, gauss_two_angle_minimum
from occert import budget as bd
from occert import certify as ct
from occert import curvature as cv
from occert import hermitian as hm
from occert import kernels
from occert import structures as sr
from occert.errors import InputError
from occert.rng import make_rng
from occert.sphere import FDConfig, MetricField, chart_to_ambient, riemann, sample_points


class TestBhl:
    def test_round_spectrum_passes_with_margin_two(self):
        r = ct.check_bhl(np.ones(15))
        assert r.passed and not r.boundary
        assert r.margin == pytest.approx(2.0)
        assert r.lambda_min == 1.0 and r.lambda_max == 1.0

    def test_wide_spectrum_fails(self):
        r = ct.check_bhl([1.0] * 14 + [1.5])
        assert not r.passed
        assert r.margin == pytest.approx(-0.5)

    def test_pinched_window_passes(self):
        spec = np.linspace(5.0 / 6.0 + 0.01, 7.0 / 6.0 - 0.01, 15)
        assert ct.check_bhl(spec).passed

    def test_boundary_tie_fails_with_flag(self):
        spec = np.array([1.0] * 14 + [1.4])   # 5*1.4 == 7*1.0 exactly
        r = ct.check_bhl(spec)
        assert not r.passed
        assert r.boundary

    def test_scale_invariance(self):
        rng = make_rng(3)
        for _ in range(50):
            spec = np.sort(rng.uniform(0.1, 2.0, size=15))
            base = ct.check_bhl(spec)
            for c in (1e-13, 0.25, 3.0, 17.0, 1e13):
                scaled = ct.check_bhl(c * spec)
                assert scaled.passed == base.passed
                assert scaled.boundary == base.boundary

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError):
            ct.check_bhl(np.ones(14))


class TestSufficientBound:
    def test_round_certified(self, G):
        r = ct.certify_P_sufficient(G)
        assert r.status == "certified"
        assert r.sup_lower == 0.0 and r.sup_upper == 0.0

    def test_scaled_unknown_under_frobenius(self, G):
        r = ct.certify_P_sufficient(1.1 * G)
        assert r.status == "unknown"
        assert r.sup_upper == pytest.approx(0.1 * np.sqrt(60.0))

    def test_bounds_enclose_sampled_values(self, G):
        rng = make_rng(23)
        vs = rng.normal(size=(10_000, 4, 6))
        vs /= np.linalg.norm(vs, axis=2, keepdims=True)
        # D(v1, v2, v3, v4) = (v1 (x) v2) . D as a 36 x 36 matrix . (v3 (x) v4)
        v12 = (vs[:, 0, :, None] * vs[:, 1, None, :]).reshape(-1, 36)
        v34 = (vs[:, 2, :, None] * vs[:, 3, None, :]).reshape(-1, 36)
        for scale in np.geomspace(1e-3, 1.0, 200):
            R = G + cv.random_curvature(rng, scale=scale)
            r = ct.certify_P_sufficient(R)
            assert r.sup_lower <= r.sup_upper
            vals = np.sum((v12 @ (R - G).reshape(36, 36)) * v34, axis=1)
            assert np.max(np.abs(vals)) <= r.sup_upper


class TestRefutation:
    def test_negative_constant_curvature(self, G):
        res = ct.refute_P(-G, ct.SearchConfig(multistarts=8, seed=1))
        assert res.witness is not None
        assert res.witness.value == pytest.approx(-1.0, abs=1e-6)
        assert abs(np.linalg.norm(res.witness.X) - 1.0) < 1e-12
        # witness J invariants
        sr.check_complex_structure(res.witness.J)

    def test_round_finds_nothing(self, G):
        res = ct.refute_P(G, ct.SearchConfig(multistarts=8, seed=1))
        assert res.witness is None
        assert res.best_value == pytest.approx(1.0, abs=1e-9)

    def test_rank_one_perturbation_found(self, G, J0):
        w = np.zeros((6, 6))
        w[0, 1], w[1, 0] = 1.0, -1.0
        T = np.einsum("ij,kl->ijkl", w, w)
        assert max(cv.validate_symmetries(T).values()) < 1e-15
        R = G - 3.0 * T
        direct = np.linalg.eigvalsh(
            0.5 * (cv.ricci_star(R, J0) + cv.ricci_star(R, J0).T))[0]
        assert direct < 0
        res = ct.refute_P(R, ct.SearchConfig(multistarts=8, seed=2))
        assert res.witness is not None
        assert res.witness.value <= direct + 1e-8

    def test_witness_value_reproducible(self, G):
        res = ct.refute_P(-0.7 * G, ct.SearchConfig(multistarts=4, seed=5))
        wit = res.witness
        again = wit.X @ cv.ricci_star(-0.7 * G, wit.J) @ wit.X
        assert abs(again - wit.value) < 1e-10

    def test_witness_value_survives_a_json_round_trip(self, G):
        """The reported value is X . Ric*(R, J) . X as a reader of the
        report recomputes it from J and X, bit for bit."""
        rng = make_rng(4242)
        for seed in range(20):
            R = G + 0.8 * cv.random_curvature(rng)
            wit = ct.refute_P(R, ct.SearchConfig(multistarts=4, seed=seed)).witness
            assert wit is not None
            J, X = (np.array(json.loads(json.dumps(a.tolist()))) for a in (wit.J, wit.X))
            assert float(X @ cv.ricci_star(R, J) @ X) == wit.value

    def test_soundness_on_certified_tensors(self, G):
        rng = make_rng(11)
        for _ in range(3):
            R = G + cv.random_curvature(rng, scale=0.002)
            assert ct.certify_P_sufficient(R).status == "certified"
            res = ct.refute_P(R, ct.SearchConfig(multistarts=16, seed=7))
            assert res.best_value > -1e-6


class TestStackedSearch:
    @pytest.fixture(scope="class")
    def tensor(self, G):
        return G + 0.3 * cv.random_curvature(make_rng(0))

    def test_no_starts(self, G):
        res = ct.refute_P(G, ct.SearchConfig(multistarts=0))
        assert res.witness is None
        assert res.best_value == np.inf

    def test_starts_do_not_depend_on_the_stack(self, tensor):
        """Byte-identical across batch size: a start descended alone ends
        where it ends inside stacks of 7 and 64."""
        starts = np.array([hm.random_orthogonal_complex_structure(
            make_rng(5, 211, s)).J for s in range(64)])
        vals64, vecs64, Js64 = ct._descend(tensor, starts)
        vals7, vecs7, Js7 = ct._descend(tensor, starts[:7])
        assert np.array_equal(vals7, vals64[:7]) and np.array_equal(Js7, Js64[:7])
        assert np.array_equal(vecs7, vecs64[:7])
        for s in [*range(7), *range(7, 64, 4)]:
            val, vec, J = ct._descend(tensor, starts[s:s + 1])
            assert val[0] == vals64[s] and np.array_equal(J[0], Js64[s])
            assert np.array_equal(vec[0], vecs64[s])

    def test_one_draw_per_start_through_certify(self, tensor, monkeypatch):
        draws = []
        draw = ct.random_orthogonal_complex_structure

        def counted(rng):
            draws.append(rng)
            return draw(rng)

        monkeypatch.setattr(ct, "random_orthogonal_complex_structure", counted)
        ct.refute_P(tensor, ct.SearchConfig(multistarts=5, seed=3))
        assert len(draws) == 5

    def test_winner_is_the_first_strict_minimum(self, G, monkeypatch):
        starts = []

        def fake_descend(R, Js):
            starts.append(len(Js))
            vals = np.array([np.nan, 2.0, -1.0, -1.0, np.nan])
            vecs = -np.eye(6)[:len(Js), :, None]
            return vals, vecs, -np.asarray(Js)   # -J: a complex structure, same planes

        monkeypatch.setattr(ct, "_descend", fake_descend)
        res = ct.refute_P(G, ct.SearchConfig(multistarts=5, seed=1))
        assert starts == [5]
        assert res.best_value == -1.0
        J = -hm.random_orthogonal_complex_structure(make_rng(1, 211, 2)).J
        assert np.array_equal(res.witness.J, J)
        # from the winner's vector -e_2: e_2 is in its plane span(x, Jx)
        assert np.max(np.abs(res.witness.X - np.eye(6)[2])) < 1e-15
        assert res.witness.value == float(res.witness.X @ cv.ricci_star(G, J) @ res.witness.X)

    def test_all_nan_finds_nothing(self, G, monkeypatch):
        monkeypatch.setattr(ct, "_descend",
                            lambda R, Js: (np.full(len(Js), np.nan),
                                           np.zeros((len(Js), 6, 1)), Js))
        res = ct.refute_P(G, ct.SearchConfig(multistarts=3, seed=1))
        assert res.witness is None and res.best_value == np.inf


class TestKeptEigenpairs:
    """Each gradient takes the eigenpair its start's J was last valued
    with (the starts' own valuation, then each accepted trial's),
    instead of running eigh again."""

    @pytest.fixture(scope="class")
    def case(self, G):
        R = G + 0.3 * cv.random_curvature(make_rng(0))
        starts = np.array([hm.random_orthogonal_complex_structure(
            make_rng(5, 211, s)).J for s in range(16)])
        return R, starts

    def test_kept_pairs_are_a_fresh_eigh(self, case, monkeypatch):
        R, starts = case
        grad_calls = []
        value_and_grad = kernels.refute_value_and_grad

        def checked(Rp, Js, low):
            grad_calls.append(len(Js))
            for s in range(len(Js)):
                w, vecs = np.linalg.eigh(kernels._symmetrized(Rp, Js[s:s + 1]))
                assert low[0][s] == w[0, 0]
                assert np.array_equal(low[1][s], vecs[0, :, :1])
            return value_and_grad(Rp, Js, low)

        monkeypatch.setattr(kernels, "refute_value_and_grad", checked)
        ct._descend(R, starts)
        assert grad_calls[0] == len(starts)
        assert len(grad_calls) == ct.MAX_ITER

    def test_descent_is_the_one_without_kept_pairs(self, case, monkeypatch):
        R, starts = case
        vals, vecs, Js = ct._descend(R, starts)
        value_and_grad = kernels.refute_value_and_grad
        monkeypatch.setattr(kernels, "refute_value_and_grad",
                            lambda Rp, Js, low: value_and_grad(
                                Rp, Js, kernels.refute_value(Rp, Js)))
        fresh_vals, fresh_vecs, fresh_Js = ct._descend(R, starts)
        assert np.array_equal(vals, fresh_vals) and np.array_equal(Js, fresh_Js)
        assert np.array_equal(vecs, fresh_vecs)


class TestGeodesic:
    """The line search's step exp(t D) on unit tangents D of the twistor
    fibre, small steps to steps far beyond any the search takes."""

    @pytest.fixture(scope="class")
    def tangents(self):
        """Random D = (K + J K J) / 2, the part of a skew K that anticommutes
        with J, scaled as the search scales -G: |D|_F^2 = 2."""
        rng = make_rng(17)
        out = []
        for _ in range(64):
            J = hm.random_orthogonal_complex_structure(rng).J
            K = rng.normal(size=(6, 6))
            K -= K.T
            D = 0.5 * (K + J @ K @ J)
            out.append(D / np.sqrt(0.5 * np.sum(D * D)))
        D = np.array(out)
        return D, D @ D

    @pytest.mark.parametrize("t", [1e-6, 1e-2, 0.3, 1.0, 10.0, 100.0])
    def test_rotation(self, tangents, t):
        E = ct._geodesic(*tangents, np.full(64, t))
        assert np.max(np.abs(E @ E.transpose(0, 2, 1) - np.eye(6))) <= 1e-14
        assert np.max(np.abs(np.linalg.det(E) - 1.0)) <= 1e-14

    def test_matches_expm(self, tangents):
        """expm's own error grows with |t D|: against a 40-digit exp it is
        up to 5e-14 at t = 100, where the closed form is within 2e-14."""
        D, D2 = tangents
        for t in (1e-6, 1e-2, 0.3, 1.0, 10.0, 100.0):
            E = ct._geodesic(D, D2, np.full(64, t))
            tol = 1e-14 if t <= 1.0 else 1e-13
            for s in range(64):
                assert np.max(np.abs(E[s] - expm(t * D[s]))) <= tol

    def test_slices_do_not_depend_on_the_stack(self, tangents):
        D, D2 = tangents
        t = np.geomspace(1e-6, 100.0, 64)
        E64 = ct._geodesic(D, D2, t)
        assert np.array_equal(ct._geodesic(D[:7], D2[:7], t[:7]), E64[:7])
        for s in range(64):
            assert np.array_equal(ct._geodesic(D[s:s + 1], D2[s:s + 1], t[s:s + 1])[0],
                                  E64[s])

    def test_search_stays_on_the_complex_structures(self, monkeypatch):
        """Unpolished, every J the search values on the refute ellipsoid is
        an orthogonal complex structure to rounding.  Moving J by E^2 J
        instead of E J E^T lets its error grow into the next gradients."""
        metric = MetricField("ellipsoid", {"axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]})
        fd = FDConfig(h=1e-3, scheme="richardson_4th")
        starts = np.array([hm.random_orthogonal_complex_structure(
            make_rng(7, 211, s)).J for s in range(8)])
        worst = []
        value = kernels.refute_value

        def checked(Rp, Js):
            worst.append(max(np.max(np.abs(Js @ Js + np.eye(6))),
                             np.max(np.abs(Js @ Js.transpose(0, 2, 1) - np.eye(6)))))
            return value(Rp, Js)

        monkeypatch.setattr(ct, "_polish_complex_structure", lambda Js: Js)
        monkeypatch.setattr(kernels, "refute_value", checked)
        for point in sample_points(2, 7):
            ct._descend(riemann(metric, point, fd), starts)
        assert len(worst) > 2 * ct.MAX_ITER and max(worst) <= 1e-12


class TestGaussOracle:
    """The ellipsoid's curvature is the Gauss tensor h (.) h of its second
    fundamental form h, so its operator spectrum is {k_i k_j} over the
    principal curvatures, and its star-Ricci minimum is observed, not
    proven, to be the two-angle minimum of ``gauss_two_angle_minimum``."""

    axes = [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]

    def test_search_reaches_the_two_angle_minimum(self):
        # at these 80 points the search ends -3.6e-15 to +1.85e-5 above
        # the oracle, and the spectrum is within 3.9e-14 of the products
        metric = MetricField("ellipsoid", {"axes": self.axes})
        for seed in range(1, 41):
            for point in sample_points(2, seed):
                R = riemann(metric, point)
                kappa = ellipsoid_principal_curvatures(self.axes, chart_to_ambient(point))
                products = np.sort([kappa[i] * kappa[j]
                                    for i, j in itertools.combinations(range(6), 2)])
                assert np.max(np.abs(cv.curvature_operator(R).spectrum - products)) <= 1e-12
                oracle = gauss_two_angle_minimum(kappa)
                best = ct.refute_P(R, ct.SearchConfig(multistarts=8, seed=seed)).best_value
                assert oracle - 1e-12 <= best <= oracle + 1e-4


class TestWitnessDirection:
    def test_depends_on_the_plane_only(self):
        rng = make_rng(31)
        for _ in range(50):
            J = hm.random_orthogonal_complex_structure(rng).J
            x = rng.normal(size=6)
            x /= np.linalg.norm(x)
            X = ct._witness_direction(J, x)
            assert abs(np.linalg.norm(X) - 1.0) < 1e-14
            for phi in np.linspace(0.1, 2 * np.pi, 13):
                turned = np.cos(phi) * x + np.sin(phi) * (J @ x)
                assert np.max(np.abs(ct._witness_direction(J, turned) - X)) <= 1e-14


class TestLemmaLL:
    def test_omega_itself(self, J0, omega0):
        r = ct.check_lemma_LL(omega0, omega0, J0)
        assert r.hypotheses_met and r.nondegenerate
        assert r.det_value == pytest.approx(1.0)

    def test_perturbation_at_stated_radius(self, J0, omega0):
        rng = make_rng(13)
        eta = random_one_one_form(rng, J0)
        eta *= 0.999 / (2.0 * np.sqrt(3.0)) / hm.norm_lambda2(eta)
        r = ct.check_lemma_LL(omega0, omega0 + eta, J0)
        assert r.hypotheses_met
        assert r.nondegenerate

    def test_zeta0_below_omega_fails_hypotheses(self, J0, omega0):
        r = ct.check_lemma_LL(0.5 * omega0, omega0, J0)
        assert not r.hypotheses_met

    def test_radius_violation_fails_hypotheses(self, J0, omega0):
        rng = make_rng(17)
        eta = random_one_one_form(rng, J0)
        eta *= 1.5 / hm.norm_lambda2(eta)
        r = ct.check_lemma_LL(omega0, omega0 + eta, J0)
        assert not r.hypotheses_met

    def test_fuzz_no_degenerate_forms(self, J0, omega0):
        rng = make_rng(19)
        for _ in range(2000):
            zeta0 = random_form_above_omega(rng, J0, omega0)
            eta = random_one_one_form(rng, J0)
            eta *= rng.uniform(0.0, 1.0) / (2.0 * np.sqrt(3.0)) / hm.norm_lambda2(eta)
            r = ct.check_lemma_LL(zeta0, zeta0 + eta, J0)
            assert r.hypotheses_met
            assert r.nondegenerate


class TestPerturbationBudget:
    def test_boundary_quadratic(self):
        r = bd.perturbation_budget_check(bd.PerturbationBudget(1.0 / 6.0, 0.0))
        assert r.quadratic_ok

    def test_zero(self):
        r = bd.perturbation_budget_check(bd.PerturbationBudget(0.0, 0.0))
        assert r.quadratic_ok and r.linear_ok and r.implied_bound == 0.0

    def test_arithmetic_violation(self):
        r = bd.perturbation_budget_check(bd.PerturbationBudget(0.1, 0.05))
        assert not r.quadratic_ok

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            bd.PerturbationBudget(-0.1, 0.0)

    def test_linear_implies_quadratic_small_grid(self):
        for e1 in np.linspace(0.0, 0.2, 25):
            for e2 in np.linspace(0.0, 0.2, 25):
                r = bd.perturbation_budget_check(bd.PerturbationBudget(e1, e2))
                assert not r.linear_ok or r.quadratic_ok

    def test_kn_difference_chain_bound(self):
        # sampled |g(.)g - g0(.)g0| <= 2 eps2 (2 + eps2) on unit quadruples
        rng = make_rng(23)
        for _ in range(10):
            h = rng.normal(size=(6, 6))
            h = 0.05 * (h + h.T) / 2.0
            g = np.eye(6) + h
            eps2 = float(np.max(np.abs(np.linalg.eigvalsh(h))))
            bound = 2.0 * eps2 * (2.0 + eps2)
            diff = (cv.kulkarni_nomizu_square(g)
                    - cv.kulkarni_nomizu_square())
            vs = rng.normal(size=(200, 4, 6))
            vs /= np.linalg.norm(vs, axis=2, keepdims=True)
            vals = np.einsum("ijkl,ni,nj,nk,nl->n", diff,
                             vs[:, 0], vs[:, 1], vs[:, 2], vs[:, 3])
            assert np.max(np.abs(vals)) <= bound + 1e-12


class TestCertifyPoint:
    def test_round_point(self, G):
        cert = ct.certify_point(G)
        assert cert.bhl.passed
        assert cert.p_membership.status == "certified"
        assert np.allclose(cert.spectrum, 1.0)

    def test_negative_curvature_refuted(self, G):
        opts = ct.CertifyOptions(checks=("bhl", "p_sufficient", "p_refute"),
                                 search=ct.SearchConfig(multistarts=4, seed=1))
        cert = ct.certify_point(-G, options=opts)
        assert not cert.bhl.passed
        assert cert.p_membership.status == "refuted"
        assert cert.p_membership.witness.value == pytest.approx(-1.0, abs=1e-6)

    def test_scaled_round_records_both(self, G):
        cert = ct.certify_point(1.3 * G)
        assert cert.bhl.passed                      # uniform spectrum
        assert cert.p_membership.status == "unknown"
        assert cert.p_membership.sup_upper == pytest.approx(0.3 * np.sqrt(60.0))

    def test_failed_search_never_certifies(self, G):
        opts = ct.CertifyOptions(checks=("p_refute",),
                                 search=ct.SearchConfig(multistarts=2, seed=1))
        cert = ct.certify_point(1.3 * G, options=opts)
        assert cert.p_membership.status == "unknown"

    def test_lemma_demo_on_round(self, G):
        cert = ct.certify_point(G, options=ct.CertifyOptions(
            checks=("bhl", "lemma_ll_demo")))
        assert cert.lemma_ll.hypotheses_met
        assert cert.lemma_ll.nondegenerate

    def test_invalid_checks_rejected(self, G):
        with pytest.raises(InputError):
            ct.certify_point(G, options=ct.CertifyOptions(checks=("nope",)))

    def test_lemma_demo_needs_bhl(self):
        """The demo reads bhl's result, so options without bhl are rejected
        when they are built, before any point runs."""
        for checks in (("lemma_ll_demo",), ("p_sufficient", "lemma_ll_demo")):
            with pytest.raises(InputError) as err:
                ct.CertifyOptions(checks=checks)
            assert str(err.value) == "checks lemma_ll_demo needs bhl, whose result it reads"
