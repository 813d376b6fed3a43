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


def central_difference_grad(R, J, eps=1e-5):
    return np.array([
        (kernels.refute_value(R, givens_conj(J, p, q, eps)[None])[0]
         - kernels.refute_value(R, givens_conj(J, p, q, -eps)[None])[0]) / (2.0 * eps)
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
            val, grad = kernels.refute_value_and_grad(R, Js)
            assert val.shape == (25,) and grad.shape == (25, 15)
            assert np.max(np.abs(val - kernels.refute_value(R, Js))) < 1e-12

    def test_gradient_matches_central_differences(self, samples):
        for R, J, _ in samples:
            _, grad = kernels.refute_value_and_grad(R, J[None])
            # central differences amplify eigensolver noise by 1/(2 eps)
            assert np.max(np.abs(grad[0] - central_difference_grad(R, J))) < 1e-8

    def test_stacked_gradient_matches_central_differences(self, samples):
        Js = np.array([J for _, J, _ in samples])
        for R, _, _ in samples:
            _, grads = kernels.refute_value_and_grad(R, Js)
            for grad, J in zip(grads, Js):
                assert np.max(np.abs(grad - central_difference_grad(R, J))) < 1e-8

    def test_slices_do_not_depend_on_the_stack(self, samples):
        Js = np.array([J for _, J, _ in samples])
        for R, _, _ in samples[:5]:
            M = kernels.ricci_star_matrix(R, Js)
            val, grad = kernels.refute_value_and_grad(R, Js)
            low = kernels.refute_value(R, Js)
            for s in (0, 7, 24):
                one = Js[s:s + 1]
                assert np.array_equal(kernels.ricci_star_matrix(R, one)[0], M[s])
                v1, g1 = kernels.refute_value_and_grad(R, one)
                assert v1[0] == val[s] and np.array_equal(g1[0], grad[s])
                assert kernels.refute_value(R, one)[0] == low[s]
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

        def value(t):
            E = expm(t * S)
            return kernels.refute_value(R, (E @ J @ E.T)[None])[0]

        slope = (value(eps) - value(-eps)) / (2.0 * eps)
        _, grad = kernels.refute_value_and_grad(R, J[None])
        assert abs(slope - c @ grad[0]) < 1e-7

