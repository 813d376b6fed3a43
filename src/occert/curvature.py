"""Algebraic curvature tensors and their derived objects.

(4,0) curvature tensors in a g-orthonormal working basis, the
Kulkarni-Nomizu square of the metric, the induced symmetric operator on
2-forms and its spectrum, the Ricci / star-Ricci contractions and the
2-forms built from them, and frame matrices of the star-Ricci form.

Sign conventions are anchored so that the unit round sphere has
R = g (.) g (Kulkarni-Nomizu square) and operator = identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConventionMismatchError, CurvatureError, StructureError
from .hermitian import (
    make_complex_structure,
    sharp_index,
    standard_complex_structure,
    two_form_to_vector,
    vector_to_two_form,
)
from .kernels import _P, _Q
from .rng import haar_orthogonal, make_rng


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric operator on 2-forms in the pair basis, with spectrum."""

    matrix: np.ndarray          # (15, 15)
    spectrum: np.ndarray        # sorted ascending, length 15


@dataclass(frozen=True)
class FrameMatrix:
    """Star-Ricci data of (R, frame).

    ``alpha`` includes the signs of J e_i = (-1)^(i-1) e_{i#} and equals
    the star-Ricci form in frame coordinates; ``alpha_plain`` is the
    sign-free double sum, kept for reference (it obeys the symmetry
    alpha_ij = alpha_{j# i#} without the (-1)^(i+j) factor).  ``M`` is
    the symmetrized star-Ricci reference matrix computed along an
    independent route; ``gap`` records max |a - M|.
    """

    alpha: np.ndarray
    a: np.ndarray
    alpha_plain: np.ndarray
    M: np.ndarray
    frame: np.ndarray
    gap: float


@dataclass(frozen=True)
class StarRicciData:
    """The contractions of (R, J, nabla J) feeding the Chern-type form."""

    ric: np.ndarray
    ric_star: np.ndarray
    psi: np.ndarray
    phi: np.ndarray


def kulkarni_nomizu_square(g: np.ndarray | None = None, k: float = 1.0) -> np.ndarray:
    """k * (g (.) g) with components g_ik g_jl - g_il g_jk."""
    g = np.eye(6) if g is None else np.asarray(g, dtype=float)
    G = np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)
    return k * G


def validate_symmetries(R: np.ndarray) -> dict[str, float]:
    """Max absolute violation of each algebraic curvature identity."""
    R = np.asarray(R, dtype=float)
    return {
        "antisym_first_pair": float(np.max(np.abs(R + R.transpose(1, 0, 2, 3)))),
        "antisym_last_pair": float(np.max(np.abs(R + R.transpose(0, 1, 3, 2)))),
        "pair_exchange": float(np.max(np.abs(R - R.transpose(2, 3, 0, 1)))),
        "bianchi": float(np.max(np.abs(_bianchi_sum(R)))),
    }


def _bianchi_sum(R: np.ndarray) -> np.ndarray:
    return R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)


def check_curvature(R: np.ndarray, tol: float = 1e-6) -> None:
    report = validate_symmetries(R)
    worst = max(report.values())
    if worst > tol:
        raise CurvatureError(
            "curvature identities violated beyond %.1e: %s" % (tol, report))


def curvature_operator(R: np.ndarray, sym_tol: float = 1e-6) -> CurvatureOperator:
    """Operator on 2-forms in the orthonormal pair basis.

    With the round-sphere anchor, R = g (.) g maps to the identity.
    """
    R = np.asarray(R, dtype=float)
    check_curvature(R, sym_tol)
    M = R[_P[:, None], _Q[:, None], _P, _Q]      # M[P, Q] = R(pair P, pair Q)
    M = 0.5 * (M + M.T)
    return CurvatureOperator(matrix=M, spectrum=np.linalg.eigvalsh(M))


def operator_apply(op: CurvatureOperator, zeta: np.ndarray) -> np.ndarray:
    """Image of a 2-form under the curvature operator."""
    return vector_to_two_form(op.matrix @ two_form_to_vector(zeta))


def ricci(R: np.ndarray) -> np.ndarray:
    """Ric(X, Y) = sum_i R(X, e_i, Y, e_i)."""
    return np.einsum("ikjk->ij", np.asarray(R, dtype=float))


def ricci_star(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Ric*(X, Y) = sum_i R(X, e_i, JY, J e_i)."""
    J = np.asarray(J, dtype=float)
    return kernels.ricci_star_matrix(np.asarray(R, dtype=float), J[None])[0]


def ricci_star_alt(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Cross-check route: Ric*(X, Y) = (1/2) sum_i R(X, JY, e_i, J e_i)."""
    R = np.asarray(R, dtype=float)
    J = np.asarray(J, dtype=float)
    return 0.5 * np.einsum("iakm,aj,mk->ij", R, J, J)


def psi(R: np.ndarray, J: np.ndarray, check_tol: float | None = 1e-9) -> np.ndarray:
    """psi(X, Y) = sum_i R(X, Y, e_i, J e_i).

    Also evaluates the equivalent display -2 Ric*(X, JY) and raises
    ConventionMismatchError if the two disagree beyond ``check_tol``
    (pass None to skip, e.g. for finite-difference input).
    """
    R = np.asarray(R, dtype=float)
    J = np.asarray(J, dtype=float)
    direct = np.einsum("xyim,mi->xy", R, J)
    if check_tol is not None:
        via_star = -2.0 * (ricci_star(R, J) @ J)
        gap = float(np.max(np.abs(direct - via_star)))
        if gap > check_tol * max(1.0, float(np.max(np.abs(direct)))):
            raise ConventionMismatchError(
                "psi expressions disagree by %.3e; sign conventions broken" % gap)
    return direct


def check_nabla_j(nabla_j: np.ndarray, J: np.ndarray, tol: float = 1e-6) -> None:
    """Anticommutation with J and skewness of each directional slice."""
    N = np.asarray(nabla_j, dtype=float)
    J = np.asarray(J, dtype=float)
    scale = max(1.0, float(np.max(np.abs(N))))
    anti = np.max(np.abs(np.einsum("iab,bc->iac", N, J)
                         + np.einsum("ab,ibc->iac", J, N)))
    skew = np.max(np.abs(N + N.transpose(0, 2, 1)))
    if anti > tol * scale or skew > tol * scale:
        raise StructureError(
            "nabla J incompatible with J: anticommutation %.3e, skewness %.3e"
            % (anti, skew))


def phi(J: np.ndarray, nabla_j: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """phi(X, Y) = trace((nabla_X J)(nabla_{JY} J)).

    The sign is pinned by the identity phi(X, JX) = |nabla_X J|^2
    (Frobenius), which this evaluation satisfies identically for any
    input obeying the skewness invariant.
    """
    N = np.asarray(nabla_j, dtype=float)
    J = np.asarray(J, dtype=float)
    check_nabla_j(N, J, tol)
    NJ = np.einsum("kj,kab->jab", J, N)        # slice in direction J e_j
    return np.einsum("iab,jba->ij", N, NJ)


def star_ricci_data(R: np.ndarray, J: np.ndarray, nabla_j: np.ndarray,
                    psi_check_tol: float | None = 1e-9,
                    nabla_tol: float = 1e-6) -> StarRicciData:
    """Bundle the four contractions of one pointwise dataset."""
    return StarRicciData(ric=ricci(R), ric_star=ricci_star(R, J),
                         psi=psi(R, J, psi_check_tol),
                         phi=phi(J, nabla_j, nabla_tol))


def chern_form(R: np.ndarray, J: np.ndarray, nabla_j: np.ndarray,
               psi_check_tol: float | None = 1e-9,
               nabla_tol: float = 1e-6) -> np.ndarray:
    """First-Chern-type 2-form (2 psi + phi) / (8 pi), pointwise."""
    return (2.0 * psi(R, J, psi_check_tol) + phi(J, nabla_j, nabla_tol)) / (8.0 * np.pi)


def express_in_frame(R: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Components of R in the given frame (columns)."""
    F = np.asarray(frame, dtype=float)
    out = np.asarray(R, dtype=float)
    for _ in range(4):
        # contract the leading index; the new frame index goes last
        out = np.tensordot(out, F, axes=([0], [0]))
    return out


def star_matrix(R: np.ndarray, frame: np.ndarray) -> FrameMatrix:
    """Frame matrices alpha, a = sym(alpha) and the star-Ricci reference M.

    alpha_ij = sum_k R(e_i, e_k, J e_j, J e_k) in frame coordinates,
    where J is the complex structure generated by the frame.  M is
    computed independently by contracting in the working basis and
    restricting to the frame; a == M up to roundoff is recorded in
    ``gap``.  The working basis must be orthonormal.
    """
    F = np.asarray(frame, dtype=float)
    cs = make_complex_structure(F)   # raises FrameError when not orthonormal
    Rf = express_in_frame(R, F)
    alpha = ricci_star(Rf, standard_complex_structure(F.shape[0]))
    a = 0.5 * (alpha + alpha.T)
    # Sign-free double sum from the index display, kept for reference.
    n = F.shape[0]
    alpha_plain = np.array(
        [[sum(Rf[i, k, sharp_index(j), sharp_index(k)] for k in range(n))
          for j in range(n)] for i in range(n)])
    ric = ricci_star(np.asarray(R, dtype=float), cs.J)
    M = F.T @ (0.5 * (ric + ric.T)) @ F
    gap = float(np.max(np.abs(a - M)))
    return FrameMatrix(alpha=alpha, a=a, alpha_plain=alpha_plain,
                       M=M, frame=F, gap=gap)


def star_symmetry_defect(alpha: np.ndarray) -> float:
    """Max violation of alpha_ij = (-1)^(i+j) alpha_{j# i#} (1-based signs)."""
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            sign = (-1.0) ** ((i + 1) + (j + 1))
            worst = max(worst, abs(alpha[i, j] - sign * alpha[sharp_index(j), sharp_index(i)]))
    return worst


def frobenius_norm(R: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(R, dtype=float).ravel()))


def random_curvature(rng: int | np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian 4-tensor averaged onto the curvature-symmetric subspace.

    Antisymmetrizes both pairs, symmetrizes pair exchange, then removes
    the fully antisymmetric (Bianchi) component, which for pair-symmetric
    tensors equals one third of the cyclic sum.
    """
    rng = rng if isinstance(rng, np.random.Generator) else make_rng(rng)
    T = rng.normal(size=(6, 6, 6, 6)) * scale
    T = 0.25 * (T - T.transpose(1, 0, 2, 3) - T.transpose(0, 1, 3, 2)
                + T.transpose(1, 0, 3, 2))
    T = 0.5 * (T + T.transpose(2, 3, 0, 1))
    return T - _bianchi_sum(T) / 3.0


def random_orthonormal_frame(rng: int | np.random.Generator) -> np.ndarray:
    rng = rng if isinstance(rng, np.random.Generator) else make_rng(rng)
    return haar_orthogonal(rng)


def random_nabla_j(rng: int | np.random.Generator, J: np.ndarray,
                   scale: float = 1.0) -> np.ndarray:
    """Random 3-tensor satisfying the nabla-J invariants exactly:
    each slice skew and anticommuting with J."""
    rng = rng if isinstance(rng, np.random.Generator) else make_rng(rng)
    J = np.asarray(J, dtype=float)
    N = rng.normal(size=(6, 6, 6)) * scale
    N = 0.5 * (N - N.transpose(0, 2, 1))
    return 0.5 * (N + np.einsum("ab,ibc,cd->iad", J, N, J))
