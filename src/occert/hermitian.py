"""Linear algebra of (R^6, g) with orthogonal complex structures.

Forms, type decomposition, positivity classification, the hat/sharp
index operators, and the projection/positivity facts used by the
certifier.  Unless a metric is passed explicitly, the working basis is
assumed g-orthonormal (the sphere pipeline re-expresses everything in
such a basis before it reaches this layer), and the inner product on
2-forms is the one making {e^i ^ e^j}_{i<j} orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CompatibilityError,
    FormTypeError,
    FrameError,
    InputError,
    StructureError,
)
from .kernels import _P, _Q
from .rng import haar_orthogonal, make_rng

TOL_CONSTRUCT = 1e-12   # invariants of constructed objects
TOL_CLASSIFY = 1e-9     # classification decisions


def _as_metric(g: np.ndarray | None, dim: int = 6) -> np.ndarray:
    if g is None:
        return np.eye(dim)
    g = np.asarray(g, dtype=float)
    if g.shape != (dim, dim) or not np.allclose(g, g.T, atol=1e-12):
        raise InputError("metric must be a symmetric {0}x{0} matrix".format(dim))
    if np.linalg.eigvalsh(g)[0] <= 0:
        raise InputError("metric must be positive definite")
    return g


@dataclass(frozen=True)
class EuclideanSpace:
    """Even-dimensional Euclidean space with a reference orientation."""

    dim: int = 6
    g: np.ndarray = field(default_factory=lambda: np.eye(6))
    orientation: int = 1

    def __post_init__(self):
        if self.dim % 2 != 0:
            raise InputError("dimension must be even")
        _as_metric(self.g, self.dim)
        if self.orientation not in (1, -1):
            raise InputError("orientation must be +1 or -1")


@dataclass(frozen=True)
class ComplexStructure:
    """Orthogonal almost complex structure with its orientation class."""

    J: np.ndarray
    compatible_orientation: bool


def sharp_index(i: int) -> int:
    """The pairing involution on 0-based indices: 0<->1, 2<->3, 4<->5."""
    return i + 1 if i % 2 == 0 else i - 1


def standard_complex_structure(dim: int = 6) -> np.ndarray:
    """J0 with J0 e_1 = e_2, J0 e_2 = -e_1, ... in the standard basis."""
    J = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        J[i + 1, i] = 1.0
        J[i, i + 1] = -1.0
    return J


def check_complex_structure(J: np.ndarray, g: np.ndarray | None = None,
                            tol: float = TOL_CONSTRUCT) -> None:
    """Raise unless J^2 = -Id and J is g-orthogonal (both within tol)."""
    J = np.asarray(J, dtype=float)
    g = _as_metric(g, J.shape[0])
    if np.max(np.abs(J @ J + np.eye(J.shape[0]))) > tol:
        raise StructureError("J^2 differs from -Id beyond tolerance")
    if np.max(np.abs(J.T @ g @ J - g)) > tol:
        raise CompatibilityError("J is not orthogonal for the given metric")


def orientation_compatible(J: np.ndarray, g: np.ndarray | None = None) -> bool:
    """True iff a J-adapted orthonormal frame is positively oriented."""
    F = adapted_frame(J, g)
    return bool(np.linalg.det(F) > 0)


def complex_structure(J: np.ndarray, g: np.ndarray | None = None,
                      tol: float = TOL_CONSTRUCT) -> ComplexStructure:
    """Validate J and package it with its orientation class."""
    J = np.asarray(J, dtype=float)
    check_complex_structure(J, g, tol)
    return ComplexStructure(J=J, compatible_orientation=orientation_compatible(J, g))


def make_complex_structure(frame: np.ndarray, g: np.ndarray | None = None,
                           tol: float = TOL_CLASSIFY) -> ComplexStructure:
    """Complex structure of an ordered orthonormal frame (columns).

    J maps frame vector e_i to (-1)^(i-1) e_{i#} (1-based), i.e. the
    frame pairs (e_1, e_2), (e_3, e_4), (e_5, e_6) become complex lines.
    """
    F = np.asarray(frame, dtype=float)
    g = _as_metric(g, F.shape[0])
    gram = F.T @ g @ F
    if np.max(np.abs(gram - np.eye(F.shape[0]))) > tol:
        raise FrameError("frame is not orthonormal: Gram defect %.3e"
                         % np.max(np.abs(gram - np.eye(F.shape[0]))))
    J0 = standard_complex_structure(F.shape[0])
    J = F @ J0 @ F.T @ g
    # F is g-orthonormal, so det F has the sign of the frame orientation.
    return ComplexStructure(J=J, compatible_orientation=bool(np.linalg.det(F) > 0))


def adapted_frame(J: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Deterministic g-orthonormal frame (f1, Jf1, f2, Jf2, f3, Jf3)."""
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    g = _as_metric(g, n)
    cols = []

    def proj_out(v):
        for w in cols:
            v = v - (w @ g @ v) * w
        return v

    seed_idx = 0
    while len(cols) < n:
        v = None
        while seed_idx < n:
            cand = proj_out(np.eye(n)[:, seed_idx])
            seed_idx += 1
            norm = np.sqrt(cand @ g @ cand)
            if norm > 1e-8:
                v = cand / norm
                break
        if v is None:
            raise StructureError("failed to build a J-adapted frame")
        cols.append(v)
        w = J @ v
        w = proj_out(w)
        nw = np.sqrt(w @ g @ w)
        if nw < 1e-8:
            raise StructureError("J does not map the complement to itself")
        cols.append(w / nw)
    return np.stack(cols, axis=1)


def fundamental_two_form(g: np.ndarray | None, J: np.ndarray,
                         tol: float = TOL_CLASSIFY) -> np.ndarray:
    """omega(X, Y) = g(JX, Y) as an antisymmetric matrix."""
    J = np.asarray(J, dtype=float)
    g = _as_metric(g, J.shape[0])
    if np.max(np.abs(J.T @ g @ J - g)) > tol:
        raise CompatibilityError("J is not g-orthogonal")
    return J.T @ g


def check_two_form(zeta: np.ndarray, tol: float = TOL_CONSTRUCT) -> None:
    zeta = np.asarray(zeta, dtype=float)
    if np.max(np.abs(zeta + zeta.T)) > tol * max(1.0, np.max(np.abs(zeta))):
        raise InputError("2-form coefficient matrix is not antisymmetric")


def hat(A: np.ndarray, g: np.ndarray | None = None,
        tol: float = TOL_CONSTRUCT) -> np.ndarray:
    """Index lowering of a skew endomorphism: hat(A)(v, w) = g(v, A w)."""
    A = np.asarray(A, dtype=float)
    g = _as_metric(g, A.shape[0])
    skew_defect = np.max(np.abs(A.T @ g + g @ A))
    if skew_defect > tol * max(1.0, np.max(np.abs(A))):
        raise StructureError("endomorphism is not g-skew: defect %.3e" % skew_defect)
    return g @ A


def sharp(zeta: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`hat`."""
    check_two_form(zeta)
    g = _as_metric(g, np.asarray(zeta).shape[0])
    return np.linalg.solve(g, np.asarray(zeta, dtype=float))


def lambda2_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product on 2-forms: sum over i<j of a_ij b_ij."""
    return 0.5 * float(np.sum(np.asarray(a) * np.asarray(b)))


def norm_lambda2(zeta: np.ndarray) -> float:
    return float(np.sqrt(lambda2_inner(zeta, zeta)))


def norm_E(zeta: np.ndarray) -> float:
    """Endomorphism (Frobenius) norm; satisfies norm_E^2 = 2 norm_lambda2^2."""
    return float(np.linalg.norm(np.asarray(zeta, dtype=float)))


def two_form_to_vector(zeta: np.ndarray) -> np.ndarray:
    """Coordinates in the orthonormal pair basis {e^i ^ e^j}_{i<j}."""
    return np.asarray(zeta, dtype=float)[_P, _Q]


def vector_to_two_form(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    zeta = np.zeros((6, 6))
    zeta[_P, _Q] = v
    zeta[_Q, _P] = -v
    return zeta


def is_positive_form(zeta: np.ndarray, J: np.ndarray,
                     tol: float = TOL_CLASSIFY) -> str:
    """Classify a 2-form: 'positive' | 'nonnegative' | 'indefinite' | 'not_11'.

    A form of type (1,1) (J-invariant) is classified by the spectrum of
    the symmetric bilinear form b(X, Y) = zeta(X, JY).
    """
    zeta = np.asarray(zeta, dtype=float)
    J = np.asarray(J, dtype=float)
    scale = max(1.0, np.max(np.abs(zeta)))
    if np.max(np.abs(J.T @ zeta @ J - zeta)) > tol * scale:
        return "not_11"
    b = zeta @ J
    eigs = np.linalg.eigvalsh(0.5 * (b + b.T))
    if eigs[0] > tol:
        return "positive"
    if eigs[0] >= -tol:
        return "nonnegative"
    return "indefinite"


def canonical_projection_scalar(A: np.ndarray, J: np.ndarray) -> complex:
    """Scalar by which A acts on the canonical line: -i (hat(A), omega).

    Works in an orthonormal basis.  The independent route through an
    explicit (1,0)-coframe is :func:`canonical_projection_scalar_oracle`.
    """
    A = np.asarray(A, dtype=float)
    check_complex_structure(J)
    omega = fundamental_two_form(None, J)
    return -1j * lambda2_inner(hat(A), omega)


def _wedge3(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """Dense components of c1 ^ c2 ^ c3 (determinant convention)."""
    t = np.einsum("i,j,k->ijk", c1, c2, c3)
    out = (t + np.einsum("ijk->jki", t) + np.einsum("ijk->kij", t)
           - np.einsum("ijk->jik", t) - np.einsum("ijk->ikj", t)
           - np.einsum("ijk->kji", t))
    return out


def canonical_projection_scalar_oracle(A: np.ndarray, J: np.ndarray) -> complex:
    """<A* Omega, Omega> for the unit holomorphic volume form Omega.

    Builds a unitary (1,0)-coframe e^a = (f^a + i (J f_a)^flat)/sqrt(2)
    over a J-adapted frame, extends the pull-back of A to 3-forms as a
    derivation, and reads off the induced scalar on Lambda^{3,0}.
    """
    A = np.asarray(A, dtype=float)
    check_complex_structure(J)
    F = adapted_frame(J)
    cof = [(F[:, 2 * a] + 1j * F[:, 2 * a + 1]) / np.sqrt(2.0) for a in range(3)]
    omega3 = _wedge3(*cof)
    pulled = [c @ A for c in cof]            # (A* alpha)(v) = alpha(A v)
    deriv = (_wedge3(pulled[0], cof[1], cof[2])
             + _wedge3(cof[0], pulled[1], cof[2])
             + _wedge3(cof[0], cof[1], pulled[2]))
    norm2 = np.sum(omega3 * np.conj(omega3)) / 6.0
    return complex(np.sum(deriv * np.conj(omega3)) / 6.0 / norm2)


def project_one_zero(psi: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(1,0)-part of a Hom-valued 1-form, psi of shape (dim, n1, n0)."""
    psi = np.asarray(psi, dtype=complex)
    J = np.asarray(J, dtype=float)
    psi_J = np.einsum("iab,ij->jab", psi, J)   # precomposition with J
    return 0.5 * (psi - 1j * psi_J)


def check_one_zero(phi: np.ndarray, J: np.ndarray, tol: float = TOL_CLASSIFY) -> None:
    phi = np.asarray(phi, dtype=complex)
    phi_J = np.einsum("iab,ij->jab", phi, J)
    scale = max(1.0, float(np.max(np.abs(phi))))
    if np.max(np.abs(phi_J - 1j * phi)) > tol * scale:
        raise FormTypeError("1-form is not of type (1,0): defect %.3e"
                            % float(np.max(np.abs(phi_J - 1j * phi))))


def phi_wedge_form(phi: np.ndarray, J: np.ndarray, w: np.ndarray | None = None,
                   tol: float = TOL_CLASSIFY) -> np.ndarray:
    """Scalar 2-form <(-i Phi* ^ Phi) w, w> for a unit source vector w.

    Phi has shape (6, n1, n0) over the complexified source/target spaces;
    the wedge uses (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).  Type (1,0) is
    a hypothesis and is enforced.
    """
    phi = np.asarray(phi, dtype=complex)
    check_one_zero(phi, J, tol)
    n0 = phi.shape[2]
    if w is None:
        w = np.zeros(n0, dtype=complex)
        w[0] = 1.0
    w = np.asarray(w, dtype=complex)
    w = w / np.linalg.norm(w)
    # M_ij = -i (Phi_i^H Phi_j - Phi_j^H Phi_i); zeta_ij = w^H M_ij w.
    H = np.einsum("ica,jcb->ijab", np.conj(phi), phi)  # Phi_i^H Phi_j
    M = -1j * (H - np.transpose(H, (1, 0, 2, 3)))
    zeta = np.einsum("a,ijab,b->ij", np.conj(w), M, w)
    if np.max(np.abs(zeta.imag)) > 1e-10 * max(1.0, np.max(np.abs(zeta.real))):
        raise FormTypeError("wedge form has a non-real part beyond tolerance")
    return np.real(zeta)


def random_orthogonal_complex_structure(seed: int | np.random.Generator,
                                        compatible_orientation: bool = True,
                                        ) -> ComplexStructure:
    """Conjugate of J0 by a Haar-uniform orthogonal matrix.

    The orientation class of Q J0 Q^T is that of det Q; a column swap
    flips it when the draw lands in the wrong component.
    """
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    Q = haar_orthogonal(rng)
    want = 1.0 if compatible_orientation else -1.0
    if np.sign(np.linalg.det(Q)) != want:
        Q = Q[:, [1, 0, 2, 3, 4, 5]]
    J = Q @ standard_complex_structure() @ Q.T
    return ComplexStructure(J=J, compatible_orientation=compatible_orientation)
