"""Orthogonal complex structures, forms, positivity, index operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_skew
from oracles import (adapted_frame, canonical_projection_scalar_oracle, check_complex_structure,
                     g2_structure, make_complex_structure, phi)
from occert import hermitian as hm
from occert.certify import check_lemma_LL
from occert.errors import CompatibilityError, InputError
from occert.kernels import PAIRS
from occert.rng import make_rng


class TestComplexStructureConstruction:
    def test_standard_frame_pairs_basis_vectors(self, J0):
        e = np.eye(6)
        cs = make_complex_structure(e)
        assert np.allclose(cs.J, J0)
        assert np.allclose(cs.J @ e[:, 0], e[:, 1])   # J e1 = e2
        assert np.allclose(cs.J @ e[:, 1], -e[:, 0])  # J e2 = -e1
        assert np.allclose(cs.J @ e[:, 2], e[:, 3])
        assert np.allclose(cs.J @ e[:, 4], e[:, 5])
        assert cs.compatible_orientation

    @pytest.mark.parametrize("seed", range(8))
    def test_j_squared_and_orthogonality(self, seed):
        from occert.rng import haar_orthogonal

        F = haar_orthogonal(make_rng(seed))
        cs = make_complex_structure(F)
        assert np.max(np.abs(cs.J @ cs.J + np.eye(6))) < 1e-12
        assert np.max(np.abs(cs.J.T @ cs.J - np.eye(6))) < 1e-12

    def test_swapped_frame_conjugates_and_flips_orientation(self, J0):
        swap = np.eye(6)[:, [1, 0, 2, 3, 4, 5]]
        cs = make_complex_structure(swap)
        expected = swap @ J0 @ swap.T
        assert np.allclose(cs.J, expected)
        assert np.max(np.abs(cs.J.T @ cs.J - np.eye(6))) < 1e-12
        assert not cs.compatible_orientation

    def test_non_orthonormal_frame_rejected(self):
        bad = np.eye(6)
        bad[0, 0] = 1.5
        with pytest.raises(AssertionError, match="^frame is not orthonormal"):
            make_complex_structure(bad)

    def test_orientation_detection_matches_construction(self):
        # -J has the other orientation in dimension 6
        for seed in range(6):
            cs = hm.random_orthogonal_complex_structure(make_rng(seed))
            assert cs.compatible_orientation
            assert np.linalg.det(adapted_frame(cs.J)) > 0
            assert np.linalg.det(adapted_frame(-cs.J)) < 0


class TestFundamentalForm:
    def test_standard_form_components(self, J0, omega0):
        # oracle: evaluate g(J e_i, e_j) entry by entry
        e = np.eye(6)
        direct = np.array([[(J0 @ e[:, i]) @ e[:, j] for j in range(6)]
                           for i in range(6)])
        assert np.allclose(omega0, direct)
        expected = np.zeros((6, 6))
        for a in range(0, 6, 2):
            expected[a, a + 1] = 1.0
            expected[a + 1, a] = -1.0
        assert np.allclose(omega0, expected)

    def test_omega_recovers_norms(self, J0, omega0):
        rng = make_rng(11)
        for _ in range(1000):
            x = rng.normal(size=6)
            assert abs(x @ omega0 @ (J0 @ x) - x @ x) < 1e-12 * max(1.0, x @ x)

    def test_omega_j_invariance(self, J0, omega0):
        assert np.max(np.abs(J0.T @ omega0 @ J0 - omega0)) < 1e-14

    def test_incompatible_j_rejected(self, J0):
        # S J0 S^-1 squares to -Id but is not orthogonal
        S = np.diag([2.0, 1, 1, 1, 1, 1])
        J = S @ J0 @ np.linalg.inv(S)
        assert np.array_equal(J @ J, -np.eye(6))
        with pytest.raises(CompatibilityError):
            hm.fundamental_two_form(J)


class TestPairing:
    def test_pairing_identity(self):
        # (A* a, b) = (A, a ^ b) for the 2-form inner product: in the
        # orthonormal basis a skew A and the 2-form <., A .> share a matrix
        rng = make_rng(17)
        for _ in range(1000):
            A = random_skew(rng)
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            lhs = (a @ A) @ b
            rhs = hm.lambda2_inner(A, np.outer(a, b) - np.outer(b, a))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestPositiveFormClassification:
    def test_omega_positive(self, J0, omega0):
        assert hm.is_positive_form(omega0, J0) == "positive"

    def test_minus_omega_indefinite(self, J0, omega0):
        assert hm.is_positive_form(-omega0, J0) == "indefinite"

    def test_non_11_detected(self, J0):
        zeta = np.zeros((6, 6))
        zeta[0, 2] = 1.0
        zeta[2, 0] = -1.0
        # zeta(J e1, J e3) = zeta(e2, e4) = 0 != zeta(e1, e3) = 1
        assert hm.is_positive_form(zeta, J0) == "not_11"

    def test_degenerate_is_nonnegative(self, J0):
        zeta = np.zeros((6, 6))
        zeta[0, 1] = 1.0
        zeta[1, 0] = -1.0
        assert hm.is_positive_form(zeta, J0) == "nonnegative"


class TestCanonicalProjection:
    """The scalar by which a skew A acts on the canonical line,
    -i (A, omega), against the coframe oracle."""

    def test_standard_value_both_routes(self, J0):
        lemma = -1j * hm.lambda2_inner(J0, hm.fundamental_two_form(J0))
        oracle = canonical_projection_scalar_oracle(J0, J0)
        assert abs(lemma - 3j) < 1e-12
        assert abs(oracle - 3j) < 1e-10

    def test_hat_orthogonal_to_omega_gives_zero(self, J0):
        A = np.zeros((6, 6))
        A[0, 1], A[1, 0] = 1.0, -1.0
        A[2, 3], A[3, 2] = -1.0, 1.0   # cancels the omega pairing
        assert abs(hm.lambda2_inner(A, hm.fundamental_two_form(J0))) < 1e-14

    def test_oracle_agreement_random(self):
        rng = make_rng(23)
        for _ in range(200):
            A = random_skew(rng)
            J = hm.random_orthogonal_complex_structure(rng).J
            lemma = -1j * hm.lambda2_inner(A, hm.fundamental_two_form(J))
            oracle = canonical_projection_scalar_oracle(A, J)
            assert abs(lemma - oracle) < 1e-10


class TestNorms:
    def test_omega_norm(self, omega0):
        assert abs(hm.norm_lambda2(omega0) - np.sqrt(3.0)) < 1e-14

    def test_single_component(self):
        zeta = np.zeros((6, 6))
        zeta[0, 1], zeta[1, 0] = 1.0, -1.0
        assert abs(hm.norm_lambda2(zeta) - 1.0) < 1e-15

    @given(arrays(np.float64, (6, 6),
                  elements=st.floats(-1e8, 1e8, allow_nan=False)))
    def test_scaling_identity_exact(self, raw):
        zeta = raw - raw.T
        # the Frobenius (endomorphism) norm counts each pair twice
        assert np.linalg.norm(zeta) ** 2 == pytest.approx(
            2.0 * hm.norm_lambda2(zeta) ** 2, rel=1e-14, abs=0.0)

    def test_pack_unpack_round_trip(self):
        rng = make_rng(31)
        zeta = random_skew(rng)
        v = hm.two_form_to_vector(zeta)
        assert np.array_equal(v, [zeta[i, j] for i, j in PAIRS])
        assert np.array_equal(hm.vector_to_two_form(v), zeta)
        assert abs(v @ v - hm.norm_lambda2(zeta) ** 2) < 1e-12


class TestRandomStructures:
    def test_invariants_and_determinism(self):
        a = hm.random_orthogonal_complex_structure(42)
        b = hm.random_orthogonal_complex_structure(42)
        assert np.array_equal(a.J, b.J)
        assert np.max(np.abs(a.J @ a.J + np.eye(6))) < 1e-12
        assert np.max(np.abs(a.J.T @ a.J - np.eye(6))) < 1e-12

    def test_component_means_vanish(self):
        # Haar average of the fundamental form is zero; 3 sigma bound.
        n = 10_000
        rng = make_rng(101)
        total = np.zeros((6, 6))
        total_sq = np.zeros((6, 6))
        for _ in range(n):
            om = -hm.random_orthogonal_complex_structure(rng).J  # omega = J^T
            total += om
            total_sq += om * om
        mean = total / n
        var = total_sq / n - mean ** 2
        sem = np.sqrt(np.maximum(var, 0.0) / n)
        assert np.all(np.abs(mean) <= 3.0 * sem + 1e-12)


NAN6 = np.full((6, 6), np.nan)
NAN_CASES = [
    ("check-complex-structure", lambda J0: check_complex_structure(NAN6),
     AssertionError, "^J\\^2 differs from -Id beyond tolerance$"),
    ("phi-nabla-j", lambda J0: phi(J0, np.full((6, 6, 6), np.nan)), AssertionError,
     "^nabla J incompatible with J: anticommutation nan, skewness nan$"),
    ("make-complex-structure", lambda J0: make_complex_structure(NAN6),
     AssertionError, "^frame is not orthonormal: Gram defect nan$"),
    ("g2-nan-point", lambda J0: g2_structure(np.full(7, np.nan)),
     AssertionError, "^base point must be a unit 7-vector$"),
    ("g2-six-vector", lambda J0: g2_structure(np.eye(6)[0]),
     AssertionError, "^base point must be a unit 7-vector$"),
    ("two-form-nan-j", lambda J0: hm.fundamental_two_form(NAN6),
     CompatibilityError, "^J is not orthogonal$"),
    ("positive-form-nan-zeta", lambda J0: hm.is_positive_form(NAN6, J0),
     InputError, "^2-form and J must be finite$"),
    ("positive-form-nan-j", lambda J0: hm.is_positive_form(J0.T, NAN6),
     InputError, "^2-form and J must be finite$"),
    ("lemma-ll-nan-zeta", lambda J0: check_lemma_LL(J0.T, NAN6, J0),
     InputError, "^2-form and J must be finite$"),
]


@pytest.mark.parametrize("call, error, text", [case[1:] for case in NAN_CASES],
                         ids=[case[0] for case in NAN_CASES])
def test_invariant_checks_reject_nan(J0, call, error, text):
    with pytest.raises(error, match=text):
        call(J0)

