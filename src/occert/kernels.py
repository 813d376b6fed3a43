"""Hot kernels: the star-Ricci contraction, the refutation objective and
its gradient.

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


def _by_pair(R: np.ndarray) -> np.ndarray:
    """R as a (6, 6, 36) array: Rp[i, a, 6 k + b] = R(e_i, e_k, e_a, e_b)."""
    return R.transpose(0, 2, 1, 3).reshape(6, 6, 36)


def _columns(Js: np.ndarray) -> np.ndarray:
    """Each J of the stack as an (S, 36, 1) column: entry 6 k + b is J[b, k]."""
    return Js.transpose(0, 2, 1).reshape(-1, 36, 1)


# Every contraction below is a stacked matmul, eigh or elementwise step,
# so each slice of a stack is computed the same way whatever the stack
# size; a start's descent does not depend on the starts around it.
# ``Rp`` is ``_by_pair(R)``, built once by a caller that contracts one R many times.

def _star(Rp: np.ndarray, Js: np.ndarray) -> np.ndarray:
    Y = (Rp.reshape(36, 36) @ _columns(Js)).reshape(-1, 6, 6)
    return Y @ Js                                  # Y[s, i, a] J_s[a, j]


def ricci_star_matrix(R: np.ndarray, Js: np.ndarray) -> np.ndarray:
    """M[s, i, j] = sum_k R(e_i, e_k, J_s e_j, J_s e_k) for an (S, 6, 6) stack."""
    return _star(_by_pair(R), Js)


def _symmetrized(Rp: np.ndarray, Js: np.ndarray) -> np.ndarray:
    M = _star(Rp, Js)
    return 0.5 * (M + M.transpose(0, 2, 1))


def refute_value(Rp: np.ndarray, Js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of the symmetrized star-Ricci form of (R, J_s)
    and its unit eigenvector (S, 6, 1), per slice of the (S, 6, 6) stack,
    from one stacked ``eigh``: the ``low`` pair of the gradient below."""
    w, vecs = np.linalg.eigh(_symmetrized(Rp, Js))
    return w[:, 0], np.ascontiguousarray(vecs[:, :, :1])


def refute_value_and_grad(Rp: np.ndarray, Js: np.ndarray,
                          low: tuple[np.ndarray, np.ndarray]
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Objective (S,) and its gradient (S, 15) over the 15 rotation generators.

    Generator (p, q) moves J along E J E^T with E = exp(t (E_qp - E_pq)).
    ``low`` is (lambda_min, x) of each slice, as :func:`refute_value` returns it.

    Every eigenvalue of the symmetrized form S is double: rho*(JX, JY) =
    rho*(Y, X) gives J^T S J = S, so each eigenspace is J-invariant, and
    x and Jx span the lambda_min one.  Along the search J^T S J = S keeps
    holding, so where that pair is simple (lambda_min of multiplicity
    exactly two) lambda_min is smooth and its derivative is x^T (dS) x
    for either unit vector of the pair (Magnus 1985).  M is bilinear in
    J, so all 15 partials come from contracting R once with x.
    """
    val, x = low                                   # x: (S, 6, 1)
    xt = x.transpose(0, 2, 1)                      # (S, 1, 6)
    # A[s, a, 6 k + b] = R(x_s, e_k, e_a, e_b)
    A = (xt @ Rp.reshape(6, 216)).reshape(-1, 6, 36)
    U = A @ _columns(Js)                           # (S, 6, 1): sum A[k,a,b] J[b,k]
    V = (((Js @ x).transpose(0, 2, 1) @ A)         # (S, 1, 36): sum A[k,a,b] (Jx)_a
         .reshape(-1, 6, 6).transpose(0, 2, 1))    # V[s, b, k]
    # x^T M x = sum A[k,a,b] (Jx)_a J[b,k], so d(x^T M x) = <dJ, W>
    W = U * xt + V
    # dJ = K J - J K for skew K, so <dJ, W> = <K, W J^T - J^T W>
    Jt = Js.transpose(0, 2, 1)
    Z = W @ Jt - Jt @ W
    # C order at every stack size: advanced indexing lays a stack of one
    # out differently, and reductions over the rows follow the layout
    return val, np.ascontiguousarray(Z[:, _Q, _P] - Z[:, _P, _Q])
