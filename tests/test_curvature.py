"""Algebraic curvature tensors, the operator on 2-forms, contractions."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import random_nabla_j, ricci_star_alt, sharp_index, star_matrix, star_symmetry_defect
from occert import curvature as cv
from occert import hermitian as hm
from occert import structures as sr
from occert.errors import CurvatureError, FrameError, StructureError
from occert.kernels import PAIRS
from occert.rng import haar_orthogonal, make_rng


class TestKulkarniNomizu:
    def test_components(self, G):
        assert G[0, 1, 0, 1] == 1.0
        assert G[0, 1, 1, 0] == -1.0
        assert G[0, 1, 2, 3] == 0.0

    def test_identities_exact(self, G):
        assert max(cv.validate_symmetries(G).values()) == 0.0

    def test_sectional_curvature_is_k(self):
        k = 2.5
        R = cv.kulkarni_nomizu_square(k=k)
        rng = make_rng(3)
        for _ in range(100):
            x, y = rng.normal(size=6), rng.normal(size=6)
            sec = np.einsum("ijkl,i,j,k,l->", R, x, y, x, y)
            area = (x @ x) * (y @ y) - (x @ y) ** 2
            assert abs(sec / area - k) < 1e-12


class TestSymmetryValidation:
    def test_constructed_defect_reported(self, G):
        R = G.copy()
        R[0, 1, 0, 2] += 1e-3
        report = cv.validate_symmetries(R)
        assert report["pair_exchange"] == pytest.approx(1e-3, rel=1e-9)
        assert report["antisym_last_pair"] == pytest.approx(1e-3, rel=1e-9)

    def test_random_curvature_is_clean(self):
        for seed in range(10):
            R = cv.random_curvature(seed)
            assert max(cv.validate_symmetries(R).values()) < 1e-13

    def test_invalid_curvature_rejected(self):
        rng = make_rng(9)
        with pytest.raises(CurvatureError):
            cv.curvature_operator(rng.normal(size=(6, 6, 6, 6)))

    def test_nan_curvature_rejected(self, G):
        R = G.copy()
        R[2, 3, 4, 5] = np.nan
        with pytest.raises(CurvatureError):
            cv.curvature_operator(R)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_curvature_rejected(self, G):
        # the tolerance scales with max |R|, which must not make it inf
        R = G.copy()
        R[2, 3, 4, 5] = np.inf
        with pytest.raises(CurvatureError):
            cv.curvature_operator(R)


class TestProjection:
    def test_idempotent_and_fixes_constant_curvature(self, G):
        assert np.array_equal(cv.project_curvature(G), G)
        rng = make_rng(21)
        for _ in range(20):
            P = cv.project_curvature(rng.normal(size=(6, 6, 6, 6)))
            assert max(cv.validate_symmetries(P).values()) < 1e-14
            assert np.max(np.abs(cv.project_curvature(P) - P)) < 1e-15

    def test_non_expansive(self):
        rng = make_rng(22)
        for seed in range(200):
            C = cv.random_curvature(seed)
            E = rng.normal(size=(6, 6, 6, 6)) * rng.uniform(1e-6, 1.0)
            assert (np.linalg.norm(cv.project_curvature(C + E) - C)
                    <= np.linalg.norm(E))

    def test_random_curvature_matches_inline_reference(self):
        for seed in range(5):
            T = make_rng(seed).normal(size=(6, 6, 6, 6)) * 2.5
            T = 0.25 * (T - T.transpose(1, 0, 2, 3) - T.transpose(0, 1, 3, 2)
                        + T.transpose(1, 0, 3, 2))
            T = 0.5 * (T + T.transpose(2, 3, 0, 1))
            T = T - (T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)) / 3.0
            assert np.array_equal(cv.random_curvature(seed, scale=2.5), T)


class TestCurvatureOperator:
    @pytest.mark.parametrize("k", [-1.0, 0.0, 0.5, 1.0, 2.0])
    def test_constant_curvature_is_scalar(self, k):
        op = cv.curvature_operator(cv.kulkarni_nomizu_square(k=k))
        assert np.max(np.abs(op.matrix - k * np.eye(15))) < 1e-12
        assert np.max(np.abs(op.spectrum - k)) < 1e-12

    def test_pair_symmetry_implies_operator_symmetry(self):
        # built directly from the raw components, without symmetrization
        for seed in range(5):
            R = cv.random_curvature(seed)
            raw = np.array([[R[i, j, k, l] for (k, l) in PAIRS]
                            for (i, j) in PAIRS])
            assert np.max(np.abs(raw - raw.T)) < 1e-12

    def test_fill_is_the_pair_loop_bit_for_bit(self):
        rng = make_rng(17)
        for _ in range(60):
            R = cv.random_curvature(rng)
            M = np.empty((15, 15))
            for P, (i, j) in enumerate(PAIRS):
                for Q, (k, l) in enumerate(PAIRS):
                    M[P, Q] = R[i, j, k, l]
            assert np.array_equal(cv.curvature_operator(R).matrix, 0.5 * (M + M.T))

    def test_apply_matches_contraction(self, G, omega0):
        op = cv.curvature_operator(G)
        assert np.allclose(cv.operator_apply(op, omega0), omega0)


class TestRicciContractions:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_constant_curvature_identities(self, k):
        R = cv.kulkarni_nomizu_square(k=k)
        assert np.max(np.abs(cv.ricci(R) - 5.0 * k * np.eye(6))) < 1e-12
        rng = make_rng(7)
        for _ in range(10):
            J = hm.random_orthogonal_complex_structure(rng).J
            assert np.max(np.abs(cv.ricci_star(R, J) - k * np.eye(6))) < 1e-12

    def test_two_displays_agree(self):
        rng = make_rng(13)
        for _ in range(200):
            R = cv.random_curvature(rng)
            J = hm.random_orthogonal_complex_structure(rng).J
            gap = np.max(np.abs(cv.ricci_star(R, J) - ricci_star_alt(R, J)))
            assert gap < 1e-9

    def test_frame_independence(self):
        rng = make_rng(19)
        R = cv.random_curvature(rng)
        J = hm.random_orthogonal_complex_structure(rng).J
        ric = cv.ricci(R)
        ric_star = cv.ricci_star(R, J)
        psi = sr.psi(R, J)
        for _ in range(10):
            F = haar_orthogonal(rng)
            # oracle: contract over the frame columns explicitly
            ric_o = sum(np.einsum("ijkl,j,l->ik", R, F[:, a], F[:, a])
                        for a in range(6))
            star_o = sum(np.einsum("ijkl,j,km,l->im", R, F[:, a], J, J @ F[:, a])
                         for a in range(6))
            psi_o = sum(np.einsum("ijkl,k,l->ij", R, F[:, a], J @ F[:, a])
                        for a in range(6))
            assert np.max(np.abs(ric_o - ric)) < 1e-12
            assert np.max(np.abs(star_o - ric_star)) < 1e-12
            assert np.max(np.abs(psi_o - psi)) < 1e-12


class TestPsi:
    def test_constant_curvature_value(self, J0, omega0):
        for k in (0.5, 1.0, 2.0):
            R = cv.kulkarni_nomizu_square(k=k)
            assert np.max(np.abs(sr.psi(R, J0) - 2.0 * k * omega0)) < 1e-12

    def test_antisymmetry(self):
        rng = make_rng(21)
        for _ in range(50):
            R = cv.random_curvature(rng)
            J = hm.random_orthogonal_complex_structure(rng).J
            p = sr.psi(R, J)
            assert np.max(np.abs(p + p.T)) < 1e-12

    def test_half_psi_of_round_is_positive(self, G, J0):
        assert hm.is_positive_form(sr.psi(G, J0) / 2.0, J0) == "positive"

    def test_non_curvature_tensor_rejected(self, J0):
        # a pair-symmetric tensor with a Bianchi component is no curvature
        # tensor, and psi = -2 Ric*(., J .) fails for it
        rng = make_rng(23)
        T = rng.normal(size=(6, 6, 6, 6))
        T = 0.25 * (T - T.transpose(1, 0, 2, 3) - T.transpose(0, 1, 3, 2)
                    + T.transpose(1, 0, 3, 2))
        T = 0.5 * (T + T.transpose(2, 3, 0, 1))   # Bianchi part retained
        with pytest.raises(CurvatureError):
            sr.psi(T, J0)

    def test_nan_tensor_rejected(self, G, J0):
        R = G.copy()
        R[0, 1, 0, 1] = np.nan
        with pytest.raises(CurvatureError):
            sr.psi(R, J0)


class TestPhi:
    def test_zero_derivative(self, J0):
        assert np.allclose(sr.phi(J0, np.zeros((6, 6, 6))), 0.0)

    def test_identity_on_random_valid_input(self):
        rng = make_rng(27)
        for _ in range(100):
            J = hm.random_orthogonal_complex_structure(rng).J
            N = random_nabla_j(rng, J)
            p = sr.phi(J, N)
            for _ in range(10):
                x = rng.normal(size=6)
                lhs = x @ p @ (J @ x)
                nx = np.einsum("i,iab->ab", x, N)
                assert abs(lhs - np.sum(nx * nx)) < 1e-9 * max(1.0, np.sum(nx * nx))

    def test_incompatible_input_rejected(self, J0):
        rng = make_rng(29)
        with pytest.raises(StructureError):
            sr.phi(J0, rng.normal(size=(6, 6, 6)))


class TestChernForm:
    def test_round_kahler_value(self, G, J0, omega0):
        gamma = sr.chern_form(G, J0, np.zeros((6, 6, 6)))
        assert np.max(np.abs(gamma - omega0 / (2.0 * np.pi))) < 1e-14

    def test_zero_case(self, J0):
        gamma = sr.chern_form(np.zeros((6,) * 4), J0, np.zeros((6, 6, 6)))
        assert np.allclose(gamma, 0.0)

    def test_bundled_contractions(self, G, J0, omega0):
        data = sr.star_ricci_data(G, J0, np.zeros((6, 6, 6)))
        assert np.allclose(data.ric, 5.0 * np.eye(6))
        assert np.allclose(data.ric_star, np.eye(6))
        assert np.allclose(data.psi, 2.0 * omega0)
        assert np.allclose(data.phi, 0.0)
        assert np.max(np.abs(data.psi + data.psi.T)) < 1e-14


class TestStarMatrix:
    def test_round_reference_is_identity(self, G):
        rng = make_rng(31)
        for _ in range(20):
            F = haar_orthogonal(rng)
            fm = star_matrix(G, F)
            assert np.max(np.abs(fm.M - np.eye(6))) < 1e-12
            assert np.linalg.eigvalsh(fm.M)[0] >= -1e-10

    def test_frame_matrix_structure(self):
        rng = make_rng(33)
        for _ in range(10):
            R = cv.random_curvature(rng)
            F = haar_orthogonal(rng)
            fm = star_matrix(R, F)
            assert np.max(np.abs(fm.a - fm.a.T)) == 0.0
            assert np.max(np.abs(fm.a - 0.5 * (fm.alpha + fm.alpha.T))) < 1e-14
            # index symmetry with the parity signs holds for the signed alpha
            assert star_symmetry_defect(fm.alpha) < 1e-9
            # the sign-free double sum obeys it without the parity factor
            n = 6
            plain = max(abs(fm.alpha_plain[i, j]
                            - fm.alpha_plain[sharp_index(j), sharp_index(i)])
                        for i in range(n) for j in range(n))
            assert plain < 1e-12
            # recorded relation: a equals the independently computed M
            assert fm.gap < 1e-12

    def test_non_orthonormal_frame_rejected(self, G):
        with pytest.raises(FrameError):
            star_matrix(G, 2.0 * np.eye(6))

