"""Hot kernels: the star-Ricci contraction, the refutation objective and
its gradient, and 4-linear form evaluation for the sup-norm ascent.

Everything here works on plain float64 arrays in a g-orthonormal working
basis.
"""

from __future__ import annotations

import numpy as np

# Value of the report's ``meta.backend`` field.
BACKEND = "python"

# Lexicographic basis of 2-forms: index P <-> pair (i, j), i < j.
PAIRS = tuple((i, j) for i in range(6) for j in range(i + 1, 6))
_P, _Q = (np.array(ix) for ix in zip(*PAIRS))


def ricci_star_matrix(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """M[i, j] = sum_k R(e_i, e_k, J e_j, J e_k)."""
    T = np.tensordot(R, J, axes=([2], [0]))        # (i,k,b,j)
    return np.einsum("ikbj,bk->ij", T, J)


def refute_value(R: np.ndarray, J: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized star-Ricci form of (R, J)."""
    M = ricci_star_matrix(R, J)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def refute_value_and_grad(R: np.ndarray, J: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective and its gradient over the 15 rotation generators.

    Generator (p, q) moves J along E J E^T with E = exp(t (E_qp - E_pq)).
    For a simple lambda_min with unit eigenvector x the derivative is
    x^T (dM) x (Magnus 1985); M is bilinear in J, so all 15 partials come
    from contracting R once with x.  At a repeated lambda_min this is one
    subgradient (Overton 1992).
    """
    M = ricci_star_matrix(R, J)
    w, vecs = np.linalg.eigh(0.5 * (M + M.T))
    x = vecs[:, 0]
    A = np.tensordot(x, R, axes=([0], [0]))        # A[k,a,b] = R(x, e_k, e_a, e_b)
    U = np.einsum("kab,bk->a", A, J)
    V = np.einsum("kab,a->bk", A, J @ x)
    # x^T M x = sum A[k,a,b] (Jx)_a J[b,k], so d(x^T M x) = <dJ, W>
    W = np.outer(U, x) + V
    # dJ = K J - J K for skew K, so <dJ, W> = <K, W J^T - J^T W>
    Z = W @ J.T - J.T @ W
    return float(w[0]), Z[_Q, _P] - Z[_P, _Q]


def quad_value(R: np.ndarray, v1, v2, v3, v4) -> float:
    """R(v1, v2, v3, v4)."""
    return float(np.einsum("ijkl,i,j,k,l->", R, v1, v2, v3, v4))


def quad_value_and_grads(R: np.ndarray, v1, v2, v3, v4) -> tuple[float, np.ndarray]:
    """Value and the four partial contractions (gradient per argument)."""
    T3 = np.tensordot(R, v4, axes=([3], [0]))      # (i,j,k)
    T2 = np.tensordot(T3, v3, axes=([2], [0]))     # (i,j)
    g1 = T2 @ v2
    g2 = T2.T @ v1
    g3 = np.einsum("ijk,i,j->k", T3, v1, v2)
    g4 = np.einsum("ijkl,i,j,k->l", R, v1, v2, v3)
    val = float(v1 @ g1)
    return val, np.stack([g1, g2, g3, g4])
