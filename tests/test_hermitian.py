"""Orthogonal complex structures, forms, positivity, index operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_skew
from oracles import canonical_projection_scalar_oracle
from occert import hermitian as hm
from occert import structures as sr
from occert.certify import check_lemma_LL
from occert.errors import (CompatibilityError, FormTypeError, FrameError, InputError,
                           StructureError)
from occert.kernels import PAIRS
from occert.rng import make_rng


class TestComplexStructureConstruction:
    def test_standard_frame_pairs_basis_vectors(self, J0):
        e = np.eye(6)
        cs = sr.make_complex_structure(e)
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
        cs = sr.make_complex_structure(F)
        assert np.max(np.abs(cs.J @ cs.J + np.eye(6))) < 1e-12
        assert np.max(np.abs(cs.J.T @ cs.J - np.eye(6))) < 1e-12

    def test_swapped_frame_conjugates_and_flips_orientation(self, J0):
        swap = np.eye(6)[:, [1, 0, 2, 3, 4, 5]]
        cs = sr.make_complex_structure(swap)
        expected = swap @ J0 @ swap.T
        assert np.allclose(cs.J, expected)
        assert np.max(np.abs(cs.J.T @ cs.J - np.eye(6))) < 1e-12
        assert not cs.compatible_orientation

    def test_non_orthonormal_frame_rejected(self):
        bad = np.eye(6)
        bad[0, 0] = 1.5
        with pytest.raises(FrameError):
            sr.make_complex_structure(bad)

    def test_orientation_detection_matches_construction(self):
        # -J has the other orientation in dimension 6
        for seed in range(6):
            cs = hm.random_orthogonal_complex_structure(make_rng(seed))
            assert cs.compatible_orientation
            assert sr.orientation_compatible(cs.J)
            assert not sr.orientation_compatible(-cs.J)


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


class TestHatSharp:
    def test_hat_of_standard_j_is_minus_omega(self, J0, omega0):
        assert np.allclose(sr.hat(J0), -omega0)

    def test_hat_zero(self):
        assert np.allclose(sr.hat(np.zeros((6, 6))), 0.0)

    def test_round_trip(self):
        rng = make_rng(5)
        for _ in range(20):
            A = random_skew(rng)
            z = sr.hat(A)
            assert np.max(np.abs(sr.hat(sr.sharp(z)) - z)) < 1e-12

    def test_non_skew_rejected(self):
        with pytest.raises(StructureError):
            sr.hat(np.eye(6))

    def test_pairing_identity(self):
        # (A* a, b) = (hat A, a ^ b) for the 2-form inner product
        rng = make_rng(17)
        for _ in range(1000):
            A = random_skew(rng)
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            lhs = (a @ A) @ b
            rhs = hm.lambda2_inner(sr.hat(A), np.outer(a, b) - np.outer(b, a))
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
    def test_standard_value_both_routes(self, J0):
        lemma = sr.canonical_projection_scalar(J0, J0)
        oracle = canonical_projection_scalar_oracle(J0, J0)
        assert abs(lemma - 3j) < 1e-12
        assert abs(oracle - 3j) < 1e-10

    def test_hat_orthogonal_to_omega_gives_zero(self, J0):
        A = np.zeros((6, 6))
        A[0, 1], A[1, 0] = 1.0, -1.0
        A[2, 3], A[3, 2] = -1.0, 1.0   # cancels the omega pairing
        assert abs(sr.canonical_projection_scalar(A, J0)) < 1e-14

    def test_oracle_agreement_random(self):
        rng = make_rng(23)
        for _ in range(200):
            A = random_skew(rng)
            J = hm.random_orthogonal_complex_structure(rng).J
            lemma = sr.canonical_projection_scalar(A, J)
            oracle = canonical_projection_scalar_oracle(A, J)
            assert abs(lemma - oracle) < 1e-10

    def test_degenerate_structure_rejected(self):
        with pytest.raises(StructureError):
            sr.canonical_projection_scalar(np.zeros((6, 6)), np.eye(6))


class TestPhiWedge:
    def test_zero_form(self, J0):
        phi = np.zeros((6, 1, 1), dtype=complex)
        zeta = sr.phi_wedge_form(phi, J0)
        assert np.allclose(zeta, 0.0)
        assert hm.is_positive_form(zeta, J0) == "nonnegative"

    def test_rank_one_has_one_complex_positive_direction(self, J0):
        # (1,0)-coframe element e^1 + i e^2 tensor a nonzero map
        phi = np.zeros((6, 1, 1), dtype=complex)
        phi[0, 0, 0] = 1.0
        phi[1, 0, 0] = 1.0j
        zeta = sr.phi_wedge_form(phi, J0)
        assert hm.is_positive_form(zeta, J0) == "nonnegative"
        b = zeta @ J0
        eigs = np.linalg.eigvalsh(0.5 * (b + b.T))
        assert np.sum(eigs > 1e-9) == 2       # one complex line
        assert eigs[0] > -1e-12

    def test_wrong_type_rejected(self, J0):
        phi = np.zeros((6, 1, 1), dtype=complex)
        phi[0, 0, 0] = 1.0
        phi[1, 0, 0] = -1.0j                  # (0,1) component
        with pytest.raises(FormTypeError):
            sr.phi_wedge_form(phi, J0)

    @pytest.mark.parametrize("w", [np.zeros(2), np.array([np.nan, 1.0]),
                                   np.array([np.inf, 1.0]), np.ones(3)],
                             ids=["zero", "nan", "inf", "wrong-length"])
    def test_bad_source_vector_rejected(self, J0, w):
        phi = np.zeros((6, 1, 2), dtype=complex)
        phi[0, 0, 0] = 1.0
        phi[1, 0, 0] = 1.0j
        with pytest.raises(InputError, match="^w must be a nonzero finite vector of length 2$"):
            sr.phi_wedge_form(phi, J0, w)

    def test_fuzz_never_indefinite(self):
        rng = make_rng(29)
        for _ in range(1000):
            J = hm.random_orthogonal_complex_structure(rng).J
            k1, k0 = rng.integers(1, 4), rng.integers(1, 4)
            psi = rng.normal(size=(6, k1, k0)) + 1j * rng.normal(size=(6, k1, k0))
            phi = sr.project_one_zero(psi, J)
            w = rng.normal(size=k0) + 1j * rng.normal(size=k0)
            zeta = sr.phi_wedge_form(phi, J, w)
            assert hm.is_positive_form(zeta, J) in ("positive", "nonnegative")


class TestNorms:
    def test_omega_norm(self, omega0):
        assert abs(hm.norm_lambda2(omega0) - np.sqrt(3.0)) < 1e-14

    def test_single_component(self):
        zeta = np.zeros((6, 6))
        zeta[0, 1], zeta[1, 0] = 1.0, -1.0
        assert abs(hm.norm_lambda2(zeta) - 1.0) < 1e-15
        assert abs(sr.norm_E(zeta) - np.sqrt(2.0)) < 1e-15

    @given(arrays(np.float64, (6, 6),
                  elements=st.floats(-1e8, 1e8, allow_nan=False)))
    def test_scaling_identity_exact(self, raw):
        zeta = raw - raw.T
        assert sr.norm_E(zeta) ** 2 == pytest.approx(
            2.0 * hm.norm_lambda2(zeta) ** 2, rel=1e-14, abs=0.0)

    def test_pack_unpack_round_trip(self):
        rng = make_rng(31)
        zeta = random_skew(rng)
        v = hm.two_form_to_vector(zeta)
        assert np.array_equal(v, [zeta[i, j] for i, j in PAIRS])
        assert np.array_equal(hm.vector_to_two_form(v), zeta)
        assert abs(v @ v - hm.norm_lambda2(zeta) ** 2) < 1e-12


class TestGeneralMetric:
    def test_factory_validates(self, J0):
        cs = sr.complex_structure(J0)
        assert cs.compatible_orientation
        with pytest.raises(StructureError):
            sr.complex_structure(np.eye(6))


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
    ("check-complex-structure", lambda J0: sr.check_complex_structure(NAN6),
     StructureError, "^J\\^2 differs from -Id beyond tolerance$"),
    ("projection-scalar-j", lambda J0: sr.canonical_projection_scalar(J0, NAN6),
     StructureError, "^J\\^2 differs from -Id beyond tolerance$"),
    ("hat", lambda J0: sr.hat(NAN6), StructureError, "^endomorphism is not skew: defect nan$"),
    ("sharp", lambda J0: sr.sharp(NAN6),
     InputError, "^2-form coefficient matrix is not antisymmetric$"),
    ("phi-nabla-j", lambda J0: sr.phi(J0, np.full((6, 6, 6), np.nan)), StructureError,
     "^nabla J incompatible with J: anticommutation nan, skewness nan$"),
    ("make-complex-structure", lambda J0: sr.make_complex_structure(NAN6),
     FrameError, "^frame is not orthonormal: Gram defect nan$"),
    ("check-one-zero", lambda J0: sr.check_one_zero(np.full((6, 1, 1), np.nan, complex), J0),
     FormTypeError, "^1-form is not of type \\(1,0\\): defect nan$"),
    ("g2-nan-point", lambda J0: sr.g2_structure(np.full(7, np.nan)),
     InputError, "^base point must be a unit 7-vector$"),
    ("g2-six-vector", lambda J0: sr.g2_structure(np.eye(6)[0]),
     InputError, "^base point must be a unit 7-vector$"),
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

