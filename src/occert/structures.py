"""Almost complex structures beyond what the certifier runs (library only):
complex structures from frames, hat/sharp, the canonical-line projection
scalar, (1,0)-forms, psi / phi / Chern-type forms, and the octonionic
structure on S^6 with its covariant derivative and canonical-connection
residuals, all in closed form, on the Levi-Civita symbols of the exact
curvature route of :mod:`occert.sphere`.  Every invariant check rejects NaN.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .curvature import check_curvature, ricci, ricci_star
from .errors import (CompatibilityError, ConfigError, FormTypeError, FrameError, InputError,
                     StructureError)
from .hermitian import (TOL_CLASSIFY, ComplexStructure, fundamental_two_form, lambda2_inner,
                        standard_complex_structure)
from .sphere import (ChartPoint, CheckedRecord, MetricField, _exact_levi_civita,
                     _stereographic_jets, chart_to_ambient, orthonormal_frame)

TOL_CONSTRUCT = 1e-12   # invariants of constructed objects


def check_complex_structure(J: np.ndarray) -> None:
    """Raise unless J^2 = -Id and J is orthogonal (both within TOL_CONSTRUCT)."""
    J = np.asarray(J, dtype=float)
    eye = np.eye(J.shape[0])
    if not np.max(np.abs(J @ J + eye)) <= TOL_CONSTRUCT:     # also rejects nan
        raise StructureError("J^2 differs from -Id beyond tolerance")
    if not np.max(np.abs(J.T @ J - eye)) <= TOL_CONSTRUCT:
        raise CompatibilityError("J is not orthogonal")


def orientation_compatible(J: np.ndarray) -> bool:
    """True iff a J-adapted orthonormal frame is positively oriented."""
    return bool(np.linalg.det(adapted_frame(J)) > 0)


def complex_structure(J: np.ndarray) -> ComplexStructure:
    """Validate J and package it with its orientation class."""
    J = np.asarray(J, dtype=float)
    check_complex_structure(J)
    return ComplexStructure(J=J, compatible_orientation=orientation_compatible(J))


def make_complex_structure(frame: np.ndarray) -> ComplexStructure:
    """Complex structure of an ordered orthonormal frame (columns).

    J maps frame vector e_i to (-1)^(i-1) e_{i#} (1-based), i.e. the
    frame pairs (e_1, e_2), (e_3, e_4), (e_5, e_6) become complex lines.
    """
    F = np.asarray(frame, dtype=float)
    defect = np.max(np.abs(F.T @ F - np.eye(F.shape[0])))
    if not defect <= TOL_CLASSIFY:
        raise FrameError("frame is not orthonormal: Gram defect %.3e" % defect)
    J = F @ standard_complex_structure(F.shape[0]) @ F.T
    # F is orthonormal, so det F has the sign of the frame orientation.
    return ComplexStructure(J=J, compatible_orientation=bool(np.linalg.det(F) > 0))


def adapted_frame(J: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal frame (f1, Jf1, f2, Jf2, f3, Jf3)."""
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    cols = []

    def proj_out(v):
        for w in cols:
            v = v - (w @ v) * w
        return v

    seed_idx = 0
    while len(cols) < n:
        v = None
        while seed_idx < n:
            cand = proj_out(np.eye(n)[:, seed_idx])
            seed_idx += 1
            norm = np.sqrt(cand @ cand)
            if norm > 1e-8:
                v = cand / norm
                break
        if v is None:
            raise StructureError("failed to build a J-adapted frame")
        cols.append(v)
        w = J @ v
        w = proj_out(w)
        nw = np.sqrt(w @ w)
        if nw < 1e-8:
            raise StructureError("J does not map the complement to itself")
        cols.append(w / nw)
    return np.stack(cols, axis=1)


def check_two_form(zeta: np.ndarray) -> None:
    zeta = np.asarray(zeta, dtype=float)
    if not np.max(np.abs(zeta + zeta.T)) <= TOL_CONSTRUCT * max(1.0, np.max(np.abs(zeta))):
        raise InputError("2-form coefficient matrix is not antisymmetric")


def hat(A: np.ndarray) -> np.ndarray:
    """Index lowering of a skew endomorphism: hat(A)(v, w) = <v, A w>,
    so in the orthonormal working basis hat(A) has A's matrix."""
    A = np.array(A, dtype=float)
    skew_defect = np.max(np.abs(A.T + A))
    if not skew_defect <= TOL_CONSTRUCT * max(1.0, np.max(np.abs(A))):
        raise StructureError("endomorphism is not skew: defect %.3e" % skew_defect)
    return A


def sharp(zeta: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`."""
    check_two_form(zeta)
    return np.array(zeta, dtype=float)


def norm_E(zeta: np.ndarray) -> float:
    """Endomorphism (Frobenius) norm; satisfies norm_E^2 = 2 norm_lambda2^2."""
    return float(np.linalg.norm(np.asarray(zeta, dtype=float)))


def canonical_projection_scalar(A: np.ndarray, J: np.ndarray) -> complex:
    """Scalar by which A acts on the canonical line: -i (hat(A), omega).

    Works in an orthonormal basis.
    """
    A = np.asarray(A, dtype=float)
    check_complex_structure(J)
    omega = fundamental_two_form(J)
    return -1j * lambda2_inner(hat(A), omega)


def project_one_zero(psi: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(1,0)-part of a Hom-valued 1-form, psi of shape (dim, n1, n0)."""
    psi = np.asarray(psi, dtype=complex)
    J = np.asarray(J, dtype=float)
    psi_J = np.einsum("iab,ij->jab", psi, J)   # precomposition with J
    return 0.5 * (psi - 1j * psi_J)


def check_one_zero(phi: np.ndarray, J: np.ndarray) -> None:
    phi = np.asarray(phi, dtype=complex)
    phi_J = np.einsum("iab,ij->jab", phi, J)
    scale = max(1.0, float(np.max(np.abs(phi))))
    defect = float(np.max(np.abs(phi_J - 1j * phi)))
    if not defect <= TOL_CLASSIFY * scale:
        raise FormTypeError("1-form is not of type (1,0): defect %.3e" % defect)


def phi_wedge_form(phi: np.ndarray, J: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Scalar 2-form <(-i Phi* ^ Phi) w, w> for the source vector w
    (nonzero, finite, of length n0; the first basis vector by default),
    scaled to unit length.

    Phi has shape (6, n1, n0) over the complexified source/target spaces;
    the wedge uses (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).  Type (1,0) is
    a hypothesis and is enforced.
    """
    phi = np.asarray(phi, dtype=complex)
    check_one_zero(phi, J)
    n0 = phi.shape[2]
    if w is None:
        w = np.zeros(n0, dtype=complex)
        w[0] = 1.0
    w = np.asarray(w, dtype=complex)
    norm = np.linalg.norm(w)
    if w.shape != (n0,) or not 0.0 < norm < np.inf:     # also rejects nan
        raise InputError("w must be a nonzero finite vector of length %d" % n0)
    w = w / norm
    # M_ij = -i (Phi_i^H Phi_j - Phi_j^H Phi_i); zeta_ij = w^H M_ij w.
    H = np.einsum("ica,jcb->ijab", np.conj(phi), phi)  # Phi_i^H Phi_j
    M = -1j * (H - np.transpose(H, (1, 0, 2, 3)))
    zeta = (M @ w) @ np.conj(w)
    if not np.max(np.abs(zeta.imag)) <= 1e-10 * max(1.0, np.max(np.abs(zeta.real))):
        raise FormTypeError("wedge form has a non-real part beyond tolerance")
    return np.real(zeta)


# the contractions of (R, J, nabla J) feeding the Chern-type form
StarRicciData = namedtuple("StarRicciData", "ric ric_star psi phi")


def psi(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """psi(X, Y) = sum_i R(X, Y, e_i, J e_i), which equals -2 Ric*(X, JY)
    for a curvature tensor R; anything else raises CurvatureError."""
    R = np.asarray(R, dtype=float)
    check_curvature(R)
    return np.einsum("xyim,mi->xy", R, np.asarray(J, dtype=float))


def check_nabla_j(nabla_j: np.ndarray, J: np.ndarray) -> None:
    """Anticommutation with J and skewness of each directional slice,
    within TOL_CONSTRUCT relative to max(1, max |nabla J|)."""
    N = np.asarray(nabla_j, dtype=float)
    J = np.asarray(J, dtype=float)
    scale = max(1.0, float(np.max(np.abs(N))))
    anti = np.max(np.abs(np.einsum("iab,bc->iac", N, J)
                         + np.einsum("ab,ibc->iac", J, N)))
    skew = np.max(np.abs(N + N.transpose(0, 2, 1)))
    if not (anti <= TOL_CONSTRUCT * scale and skew <= TOL_CONSTRUCT * scale):
        raise StructureError(
            "nabla J incompatible with J: anticommutation %.3e, skewness %.3e"
            % (anti, skew))


def phi(J: np.ndarray, nabla_j: np.ndarray) -> np.ndarray:
    """phi(X, Y) = trace((nabla_X J)(nabla_{JY} J)).

    The sign is pinned by the identity phi(X, JX) = |nabla_X J|^2
    (Frobenius), which this evaluation satisfies identically for any
    input obeying the skewness invariant.
    """
    N = np.asarray(nabla_j, dtype=float)
    J = np.asarray(J, dtype=float)
    check_nabla_j(N, J)
    NJ = np.einsum("kj,kab->jab", J, N)        # slice in direction J e_j
    return np.einsum("iab,jba->ij", N, NJ)


def star_ricci_data(R: np.ndarray, J: np.ndarray, nabla_j: np.ndarray) -> StarRicciData:
    """Bundle the four contractions of one pointwise dataset."""
    return StarRicciData(ric=ricci(R), ric_star=ricci_star(R, J),
                         psi=psi(R, J), phi=phi(J, nabla_j))


def chern_form(R: np.ndarray, J: np.ndarray, nabla_j: np.ndarray) -> np.ndarray:
    """First-Chern-type 2-form (2 psi + phi) / (8 pi), pointwise."""
    return (2.0 * psi(R, J) + phi(J, nabla_j)) / (8.0 * np.pi)


# Octonion structure constants: eps[i,j,k] = +1 on these ordered triples
# (0-based), totally antisymmetric.  Any consistent table works; this one
# satisfies u x (u x v) = <u,v> u - |u|^2 v, which is what downstream needs.
_OCT_TRIPLES = ((0, 1, 2), (0, 3, 4), (0, 6, 5), (1, 3, 5), (1, 4, 6),
                (2, 3, 6), (2, 5, 4))


def _octonion_eps() -> np.ndarray:
    eps = np.zeros((7, 7, 7))
    for (i, j, k) in _OCT_TRIPLES:
        for (a, b, c), s in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                             ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)):
            eps[a, b, c] = s
    return eps


OCTONION_EPS = _octonion_eps()


def cross7(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Seven-dimensional cross product from the octonion table."""
    return np.einsum("ijk,i,j->k", OCTONION_EPS, u, v)


def g2_structure(p: np.ndarray) -> np.ndarray:
    """Ambient matrix of v -> p x v at a unit 7-vector p.

    Restricts to an orthogonal complex structure on the tangent space.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (7,) or not abs(np.linalg.norm(p) - 1.0) <= 1e-9:
        raise InputError("base point must be a unit 7-vector")
    return np.einsum("ijk,i->kj", OCTONION_EPS, p)


class ACSField(CheckedRecord, namedtuple("ACSField", "kind matrix",
                                         defaults=("g2_octonionic", None))):
    """Almost-complex-structure field.

    'g2_octonionic' is the octonionic cross product at sphere points;
    'chart_constant' holds a fixed chart-coordinate matrix, finite and
    6x6 (the flat Kaehler toy for tests).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("g2_octonionic", "chart_constant"):
            raise ConfigError("unknown ACS field kind %r" % (self.kind,))
        if self.kind == "chart_constant":
            try:
                matrix = np.asarray(self.matrix, dtype=float)   # None reads as nan
            except (TypeError, ValueError):                  # entries that are not numbers
                raise ConfigError("chart_constant ACS field needs a matrix") from None
            if matrix.shape != (6, 6) or not np.isfinite(matrix).all():
                raise ConfigError("chart_constant ACS field needs a matrix")
        return self

    def chart_jet(self, point: ChartPoint) -> tuple[np.ndarray, np.ndarray]:
        """J in chart coordinates and its chart derivative dJ[l] = d_l J.

        The octonionic J is M^-1 P^T Jp P, with P the chart Jacobian,
        M = P^T P and Jp = p x . (the image of the cross product is
        tangent).  Jp is linear in p, so d_l Jp = (d_l p) x . and the
        product rule on M J = P^T Jp P gives dJ in closed form."""
        if self.kind == "chart_constant":
            return np.asarray(self.matrix, dtype=float), np.zeros((6, 6, 6))
        P, D2p, _ = _stereographic_jets(point.chart_id, np.asarray(point.x, dtype=float))
        Jp = g2_structure(chart_to_ambient(point))
        M = P.T @ P
        J = np.linalg.solve(M, P.T @ (Jp @ P))
        dP = D2p.transpose(2, 0, 1)                     # dP[l] = d_l P
        dPt = dP.transpose(0, 2, 1)
        dJp = np.einsum("ijk,il->lkj", OCTONION_EPS, P)  # dJp[l] = P[:, l] x .
        # M d_l J = d_l (P^T Jp P) - (d_l M) J
        rhs = dPt @ Jp @ P + P.T @ dJp @ P + P.T @ Jp @ dP - (dPt @ P + P.T @ dP) @ J
        return J, np.linalg.solve(M, rhs)


# Christoffel symbols gamma[k, i, j] = Gamma^k_ij, the metric and its
# inverse at a point
ConnectionCoefficients = namedtuple("ConnectionCoefficients", "gamma g g_inv")


def christoffel(field: MetricField, point: ChartPoint) -> ConnectionCoefficients:
    """Levi-Civita symbols from the metric's closed-form jets."""
    gamma, g_inv, g, _ = _exact_levi_civita(field, point)
    return ConnectionCoefficients(gamma=gamma, g=g, g_inv=g_inv)


# J (6, 6) and its covariant derivative nabla[i] = nabla_{e_i} J (6, 6, 6)
# in the g-orthonormal frame
NablaJData = namedtuple("NablaJData", "J nabla")


def _chart_nabla_J(field: MetricField, acs: ACSField, point: ChartPoint):
    """Levi-Civita symbols gamma[k, i, j], the metric g, its derivative
    dg[i, a, c], J, its coordinate derivative dJ[i, k, j] and its covariant
    derivative nab[i, k, j], all in chart coordinates and in closed form."""
    gamma, _, g, dg = _exact_levi_civita(field, point)
    J, dJ = acs.chart_jet(point)
    nab = (dJ
           + np.einsum("kim,mj->ikj", gamma, J)
           - np.einsum("mij,km->ikj", gamma, J))
    return gamma, g, dg, J, dJ, nab


def nabla_J(field: MetricField, acs: ACSField, point: ChartPoint) -> NablaJData:
    """Covariant derivative of the J field, re-expressed orthonormally."""
    _, g, _, J, _, nab = _chart_nabla_J(field, acs, point)
    B = orthonormal_frame(g)
    B_inv = np.linalg.inv(B)
    J_onf = B_inv @ J @ B
    nab_onf = np.einsum("ikj,ia,kc,jb->acb", nab, B, B_inv.T, B)
    return NablaJData(J=J_onf, nabla=nab_onf)


# metricity max |Delta g|, complex_compat max |Delta J|, torsion_formula
# the two-route torsion disagreement
CanonicalConnectionReport = namedtuple(
    "CanonicalConnectionReport", "metricity complex_compat torsion_formula torsion_norm")


def canonical_connection_check(field: MetricField, acs: ACSField,
                               point: ChartPoint) -> CanonicalConnectionReport:
    """Residuals of the metric-and-complex connection built from the
    Levi-Civita symbols and the J-derivative, in chart coordinates."""
    gamma, g, dg, J, dJ, nab = _chart_nabla_J(field, acs, point)
    # Delta = Levi-Civita - (1/2) J (nabla J)
    delta = gamma - 0.5 * np.einsum("km,imj->kij", J, nab)
    # (Delta g)_ijk = d_i g_jk - Delta^m_ij g_mk - Delta^m_ik g_jm
    metricity = (dg
                 - np.einsum("mij,mk->ijk", delta, g)
                 - np.einsum("mik,jm->ijk", delta, g))
    delta_J = (dJ
               + np.einsum("kim,mj->ikj", delta, J)
               - np.einsum("mij,km->ikj", delta, J))
    torsion = delta - delta.transpose(0, 2, 1)
    nabJ_J = np.einsum("ikm,mj->ikj", nab, J)
    formula = 0.5 * (np.einsum("ikj->kij", nabJ_J) - np.einsum("jki->kij", nabJ_J))
    return CanonicalConnectionReport(
        metricity=float(np.max(np.abs(metricity))),
        complex_compat=float(np.max(np.abs(delta_J))),
        torsion_formula=float(np.max(np.abs(torsion - formula))),
        torsion_norm=float(np.max(np.abs(torsion))),
    )
