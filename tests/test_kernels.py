"""The search kernels: the analytic lambda_min gradient against central
differences over the 15 Givens generators, the pair order, and stacks of
complex structures."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from occert import curvature as cv
from occert import hermitian as hm
from occert import kernels
from occert.rng import make_rng


def givens_conj(J, p, q, angle):
    """E J E^T for the rotation E = exp(angle * (E_qp - E_pq))."""
    c, s = np.cos(angle), np.sin(angle)
    out = J.copy()
    rp, rq = out[p].copy(), out[q].copy()
    out[p] = c * rp - s * rq
    out[q] = s * rp + c * rq
    cp, cq = out[:, p].copy(), out[:, q].copy()
    out[:, p] = c * cp - s * cq
    out[:, q] = s * cp + c * cq
    return out


def value(R, Js):
    """lambda_min of each slice of the stack."""
    return kernels.refute_value(kernels._by_pair(R), Js)[0]


def value_and_grad(R, Js):
    """Objective and gradient from the pair ``refute_value`` returns."""
    Rp = kernels._by_pair(R)
    return kernels.refute_value_and_grad(Rp, Js, kernels.refute_value(Rp, Js))


def eigvalsh_lowest(R, Js):
    """lambda_min of each slice by eigvalsh: a reference apart from the kernels."""
    M = kernels.ricci_star_matrix(R, Js)
    return np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]


def central_difference_grad(R, J, eps=1e-5):
    return np.array([
        (value(R, givens_conj(J, p, q, eps)[None])[0]
         - value(R, givens_conj(J, p, q, -eps)[None])[0]) / (2.0 * eps)
        for p, q in kernels.PAIRS])


@pytest.fixture(scope="module")
def samples():
    rng = make_rng(99)
    out = []
    for _ in range(25):
        R = np.ascontiguousarray(cv.random_curvature(rng))
        J = np.ascontiguousarray(hm.random_orthogonal_complex_structure(rng).J)
        # unused, but drawn so that R and J stay the samples on which the
        # 1e-8 central-difference tolerances below hold
        vs = [rng.normal(size=6) for _ in range(4)]
        out.append((R, J, vs))
    return out


class TestRefuteKernel:
    def test_value_matches_refute_value(self, samples):
        Js = np.array([J for _, J, _ in samples])
        for R, _, _ in samples:
            val, grad = value_and_grad(R, Js)
            assert val.shape == (25,) and grad.shape == (25, 15)
            assert np.max(np.abs(val - eigvalsh_lowest(R, Js))) < 1e-12

    def test_gradient_matches_central_differences(self, samples):
        for R, J, _ in samples:
            _, grad = value_and_grad(R, J[None])
            # central differences amplify eigensolver noise by 1/(2 eps)
            assert np.max(np.abs(grad[0] - central_difference_grad(R, J))) < 1e-8

    def test_stacked_gradient_matches_central_differences(self, samples):
        Js = np.array([J for _, J, _ in samples])
        for R, _, _ in samples:
            _, grads = value_and_grad(R, Js)
            for grad, J in zip(grads, Js):
                assert np.max(np.abs(grad - central_difference_grad(R, J))) < 1e-8

    def test_slices_do_not_depend_on_the_stack(self, samples):
        Js = np.array([J for _, J, _ in samples])
        for R, _, _ in samples[:5]:
            M = kernels.ricci_star_matrix(R, Js)
            val, grad = value_and_grad(R, Js)
            _, x = kernels.refute_value(kernels._by_pair(R), Js)
            for s in (0, 7, 24):
                one = Js[s:s + 1]
                assert np.array_equal(kernels.ricci_star_matrix(R, one)[0], M[s])
                v1, g1 = value_and_grad(R, one)
                assert v1[0] == val[s] and np.array_equal(g1[0], grad[s])
                assert np.array_equal(kernels.refute_value(kernels._by_pair(R), one)[1][0],
                                      x[s])
            assert grad.flags.c_contiguous

    def test_ricci_star_is_a_stack_of_one(self, samples):
        for R, J, _ in samples:
            M = cv.ricci_star(R, J)
            assert np.array_equal(M, kernels.ricci_star_matrix(R, J[None])[0])
            # M[i, j] = sum_k R(e_i, e_k, J e_j, J e_k)
            direct = np.einsum("ikab,aj,bk->ij", R, J, J)
            assert np.max(np.abs(M - direct)) < 1e-12

    def test_pair_order(self, samples):
        assert kernels.PAIRS == tuple(
            (i, j) for i in range(6) for j in range(i + 1, 6))
        # a step assembled from PAIRS as the search does has slope c . grad
        rng = make_rng(7)
        R, J, _ = samples[0]
        c = rng.normal(size=len(kernels.PAIRS))
        S = np.zeros((6, 6))
        for idx, (p, q) in enumerate(kernels.PAIRS):
            S[q, p] += c[idx]
            S[p, q] -= c[idx]
        eps = 1e-5

        def along(t):
            E = expm(t * S)
            return value(R, (E @ J @ E.T)[None])[0]

        slope = (along(eps) - along(-eps)) / (2.0 * eps)
        _, grad = value_and_grad(R, J[None])
        assert abs(slope - c @ grad[0]) < 1e-7



class TestDoubleSpectrum:
    """rho*(JX, JY) = rho*(Y, X) for every algebraic curvature tensor and
    orthogonal J, so J^T S J = S for the symmetrized form S: every
    eigenvalue of S is double, its eigenspaces spanned by pairs (x, Jx)."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = make_rng(101)
        return [(cv.random_curvature(rng), hm.random_orthogonal_complex_structure(rng).J)
                for _ in range(50)]

    def test_every_eigenvalue_is_double(self, pairs):
        for R, J in pairs:
            M = kernels.ricci_star_matrix(R, J[None])[0]
            S = 0.5 * (M + M.T)
            scale = max(1.0, np.max(np.abs(S)))
            assert np.max(np.abs(J.T @ M @ J - M.T)) < 1e-12 * scale
            assert np.max(np.abs(J.T @ S @ J - S)) < 1e-12 * scale
            w = np.linalg.eigvalsh(S)
            assert np.max(np.abs(w[0::2] - w[1::2])) < 1e-12 * scale

    def test_gradient_from_either_vector_of_the_pair(self, pairs):
        """x^T (dS) x is the same for x and Jx where lambda_min is a simple
        pair, so the gradient does not depend on which one eigh returns."""
        for R, J in pairs:
            Rp = kernels._by_pair(R)
            w, vecs = np.linalg.eigh(kernels._symmetrized(Rp, J[None]))
            assert w[0, 2] - w[0, 1] > 1e-3            # the lambda_min pair is simple
            x = vecs[:, :, :1]
            _, grad = kernels.refute_value_and_grad(Rp, J[None], (w[:, 0], x))
            _, grad_J = kernels.refute_value_and_grad(Rp, J[None], (w[:, 0], J @ x))
            assert np.max(np.abs(grad - grad_J)) < 1e-10 * max(1.0, np.max(np.abs(grad)))


class TestKeptEigenpairs:
    """What the search reuses: ``refute_value`` returns eigh's lowest pair,
    and the gradient taken from that pair is the gradient taken from a
    fresh eigh of the same stack, bit for bit."""

    def test_vectors_are_eighs(self, samples):
        Js = np.array([J for _, J, _ in samples])
        for R, _, _ in samples[:5]:
            val, x = kernels.refute_value(kernels._by_pair(R), Js)
            w, vecs = np.linalg.eigh(kernels._symmetrized(kernels._by_pair(R), Js))
            assert np.array_equal(val, w[:, 0]) and np.array_equal(x, vecs[:, :, :1])
            assert x.flags.c_contiguous
            assert np.max(np.abs(val - eigvalsh_lowest(R, Js))) < 1e-12

    def test_gradient_from_kept_pair_is_identical(self, samples):
        Js = np.array([J for _, J, _ in samples])
        for R, _, _ in samples[:5]:
            Rp = kernels._by_pair(R)
            w, vecs = np.linalg.eigh(kernels._symmetrized(Rp, Js))
            val, grad = kernels.refute_value_and_grad(
                Rp, Js, (w[:, 0], np.ascontiguousarray(vecs[:, :, :1])))
            kept_val, kept_grad = kernels.refute_value_and_grad(
                Rp, Js, kernels.refute_value(Rp, Js))
            assert np.array_equal(kept_val, val) and np.array_equal(kept_grad, grad)
