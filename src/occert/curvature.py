"""Algebraic curvature tensors and their derived objects.

(4,0) curvature tensors in a g-orthonormal working basis, the
Kulkarni-Nomizu square of the metric, the induced symmetric operator on
2-forms and its spectrum, and the Ricci / star-Ricci contractions.

Sign conventions are anchored so that the unit round sphere has
R = g (.) g (Kulkarni-Nomizu square) and operator = identity.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import kernels
from .errors import CurvatureError, InputError
from .kernels import _P, _Q
from .rng import make_rng

CURVATURE_TOL = 1e-6             # identity tolerance, relative to max(1, max |R|)


# Symmetric operator on 2-forms in the pair basis: the (15, 15) matrix and
# its spectrum, sorted ascending
CurvatureOperator = namedtuple("CurvatureOperator", "matrix spectrum")


def kulkarni_nomizu_square(g: np.ndarray | None = None, k: float = 1.0) -> np.ndarray:
    """k * (g (.) g) with components g_ik g_jl - g_il g_jk."""
    g = np.eye(6) if g is None else np.asarray(g, dtype=float)
    G = np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)
    return k * G


def validate_symmetries(R: np.ndarray) -> dict[str, float]:
    """Max absolute violation of each algebraic curvature identity."""
    R = np.asarray(R, dtype=float)
    return {
        "antisym_first_pair": float(np.abs(R + R.transpose(1, 0, 2, 3)).max()),
        "antisym_last_pair": float(np.abs(R + R.transpose(0, 1, 3, 2)).max()),
        "pair_exchange": float(np.abs(R - R.transpose(2, 3, 0, 1)).max()),
        "bianchi": float(np.abs(_bianchi_sum(R)).max()),
    }


def _bianchi_sum(R: np.ndarray) -> np.ndarray:
    return R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)


def project_curvature(R: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the algebraic curvature tensors.

    Antisymmetrizes both pairs, symmetrizes pair exchange, then removes
    the fully antisymmetric (Bianchi) component, which for pair-symmetric
    tensors equals one third of the cyclic sum.  Each step is an
    orthogonal projection commuting with the earlier ones, so the result
    is the nearest algebraic curvature tensor in the Frobenius norm.
    """
    T = np.asarray(R, dtype=float)
    T = 0.25 * (T - T.transpose(1, 0, 2, 3) - T.transpose(0, 1, 3, 2)
                + T.transpose(1, 0, 3, 2))
    T = 0.5 * (T + T.transpose(2, 3, 0, 1))
    return T - _bianchi_sum(T) / 3.0


def as_curvature_tensor(R) -> np.ndarray:
    """R as a float array; InputError unless its shape is (6, 6, 6, 6)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (6, 6, 6, 6):
        raise InputError("curvature tensor must have shape (6, 6, 6, 6)")
    return R


def check_curvature(R: np.ndarray) -> None:
    """Raise CurvatureError unless R satisfies every curvature identity to
    CURVATURE_TOL relative to max(1, max |R|), so that rescaling the
    metric does not decide it (NaN and inf fail); InputError unless R
    has shape (6, 6, 6, 6)."""
    R = as_curvature_tensor(R)
    report = validate_symmetries(R)
    # max() may drop a nan of R, but then every report entry is nan
    bound = CURVATURE_TOL * max(1.0, float(np.abs(R).max()))
    if not np.max(list(report.values())) <= bound < np.inf:
        raise CurvatureError("curvature identities violated beyond %.1e max(1, max |R|): %s"
                             % (CURVATURE_TOL, report))


def curvature_operator(R: np.ndarray) -> CurvatureOperator:
    """Operator on 2-forms in the orthonormal pair basis.

    With the round-sphere anchor, R = g (.) g maps to the identity.
    """
    R = np.asarray(R, dtype=float)
    check_curvature(R)
    M = R[_P[:, None], _Q[:, None], _P, _Q]      # M[P, Q] = R(pair P, pair Q)
    M = 0.5 * (M + M.T)
    return CurvatureOperator(matrix=M, spectrum=np.linalg.eigvalsh(M))


def ricci(R: np.ndarray) -> np.ndarray:
    """Ric(X, Y) = sum_i R(X, e_i, Y, e_i)."""
    return np.einsum("ikjk->ij", np.asarray(R, dtype=float))


def ricci_star(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Ric*(X, Y) = sum_i R(X, e_i, JY, J e_i)."""
    J = np.asarray(J, dtype=float)
    return kernels.ricci_star_matrix(np.asarray(R, dtype=float), J[None])[0]


def express_in_frame(R: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Components of R in the given frame (columns)."""
    F = np.asarray(frame, dtype=float)
    out = np.asarray(R, dtype=float)
    for _ in range(4):
        # contract the leading index; the new frame index goes last.  This
        # is np.tensordot(out, F, axes=([0], [0])) without its overhead:
        # the same matrix product of the same operands.
        shape = out.shape[1:] + F.shape[1:]
        out = np.dot(out.transpose(1, 2, 3, 0).reshape(-1, len(F)), F).reshape(shape)
    return out


def frobenius_norm(R: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(R, dtype=float).ravel()))


def random_curvature(rng: int | np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian 4-tensor projected onto the algebraic curvature tensors."""
    rng = rng if isinstance(rng, np.random.Generator) else make_rng(rng)
    return project_curvature(rng.normal(size=(6, 6, 6, 6)) * scale)


