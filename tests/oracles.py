"""Second routes to quantities that ``occert`` computes once, the random
generators the tests feed them, and the structures they are compared
on: the star-Ricci form by another contraction, through psi and in frame
coordinates, the canonical-line projection scalar through an explicit
(1,0)-coframe, the sup norm of a curvature deviation by sampling, the
ellipsoid's principal curvatures with the star-Ricci minimum of its
Gauss tensor, the curvature of a conformally flat metric by the
conformal-change formula, complex structures from frames, phi, and the octonionic
structure on S^6 with its covariant derivative on the Levi-Civita
symbols of :mod:`occert.sphere`, and the command line as argparse
parses it.  The input checks written here fail with an AssertionError
and reject NaN; psi runs the library's curvature check."""

from __future__ import annotations

import argparse
from collections import namedtuple

import numpy as np

from occert import sphere as sp
from occert.curvature import check_curvature, express_in_frame, ricci_star
from occert.hermitian import TOL_CLASSIFY, ComplexStructure, standard_complex_structure

TOL_CONSTRUCT = 1e-12   # invariants of constructed objects


def check_complex_structure(J: np.ndarray) -> None:
    """Assert J^2 = -Id and J orthogonal, both within TOL_CONSTRUCT."""
    J = np.asarray(J, dtype=float)
    eye = np.eye(J.shape[0])
    assert np.max(np.abs(J @ J + eye)) <= TOL_CONSTRUCT, "J^2 differs from -Id beyond tolerance"
    assert np.max(np.abs(J.T @ J - eye)) <= TOL_CONSTRUCT, "J is not orthogonal"


def make_complex_structure(frame: np.ndarray) -> ComplexStructure:
    """Complex structure of an ordered orthonormal frame (columns).

    J maps frame vector e_i to (-1)^(i-1) e_{i#} (1-based), i.e. the
    frame pairs (e_1, e_2), (e_3, e_4), (e_5, e_6) become complex lines.
    """
    F = np.asarray(frame, dtype=float)
    defect = np.max(np.abs(F.T @ F - np.eye(F.shape[0])))
    assert defect <= TOL_CLASSIFY, "frame is not orthonormal: Gram defect %.3e" % defect
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
        assert v is not None, "failed to build a J-adapted frame"
        cols.append(v)
        w = proj_out(J @ v)
        nw = np.sqrt(w @ w)
        assert nw >= 1e-8, "J does not map the complement to itself"
        cols.append(w / nw)
    return np.stack(cols, axis=1)


def sharp_index(i: int) -> int:
    """The pairing involution on 0-based indices: 0<->1, 2<->3, 4<->5."""
    return i + 1 if i % 2 == 0 else i - 1


def ricci_star_alt(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Ric*(X, Y) = (1/2) sum_i R(X, JY, e_i, J e_i)."""
    return 0.5 * np.einsum("iakm,aj,mk->ij", R, J, J)


def psi(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """psi(X, Y) = sum_i R(X, Y, e_i, J e_i), which equals -2 Ric*(X, JY)
    for a curvature tensor R; anything else raises CurvatureError."""
    check_curvature(R)
    return np.einsum("xyim,mi->xy", R, J)


# ``alpha`` includes the signs of J e_i = (-1)^(i-1) e_{i#} and equals the
# star-Ricci form in frame coordinates; ``alpha_plain`` is the sign-free
# double sum (it obeys alpha_ij = alpha_{j# i#} without the (-1)^(i+j)
# factor); ``M`` is the symmetrized star-Ricci form contracted in the
# working basis and restricted to the frame; ``gap`` is max |a - M|.
FrameMatrix = namedtuple("FrameMatrix", "alpha a alpha_plain M frame gap")


def star_matrix(R: np.ndarray, frame: np.ndarray) -> FrameMatrix:
    """Frame matrices alpha, a = sym(alpha) and the star-Ricci reference M,
    where alpha_ij = sum_k R(e_i, e_k, J e_j, J e_k) in frame coordinates
    and J is the complex structure generated by the frame."""
    F = np.asarray(frame, dtype=float)
    cs = make_complex_structure(F)   # fails when F is not orthonormal
    Rf = express_in_frame(R, F)
    alpha = ricci_star(Rf, standard_complex_structure(F.shape[0]))
    a = 0.5 * (alpha + alpha.T)
    n = F.shape[0]
    alpha_plain = np.array(
        [[sum(Rf[i, k, sharp_index(j), sharp_index(k)] for k in range(n))
          for j in range(n)] for i in range(n)])
    ric = ricci_star(R, cs.J)
    M = F.T @ (0.5 * (ric + ric.T)) @ F
    return FrameMatrix(alpha=alpha, a=a, alpha_plain=alpha_plain, M=M, frame=F,
                       gap=float(np.max(np.abs(a - M))))


def star_symmetry_defect(alpha: np.ndarray) -> float:
    """Max violation of alpha_ij = (-1)^(i+j) alpha_{j# i#} (1-based signs)."""
    n = alpha.shape[0]
    return max(abs(alpha[i, j] - (-1.0) ** (i + j) * alpha[sharp_index(j), sharp_index(i)])
               for i in range(n) for j in range(n))


def _wedge3(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """Dense components of c1 ^ c2 ^ c3 (determinant convention)."""
    t = np.einsum("i,j,k->ijk", c1, c2, c3)
    return (t + np.einsum("ijk->jki", t) + np.einsum("ijk->kij", t)
            - np.einsum("ijk->jik", t) - np.einsum("ijk->ikj", t)
            - np.einsum("ijk->kji", t))


def canonical_projection_scalar_oracle(A: np.ndarray, J: np.ndarray) -> complex:
    """<A* Omega, Omega> for the unit holomorphic volume form Omega.

    Builds a unitary (1,0)-coframe e^a = (f^a + i (J f_a)^flat)/sqrt(2)
    over a J-adapted frame, extends the pull-back of A to 3-forms as a
    derivation, and reads off the induced scalar on Lambda^{3,0}.
    """
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


def random_nabla_j(rng: np.random.Generator, J: np.ndarray) -> np.ndarray:
    """Random 3-tensor satisfying the nabla-J invariants exactly:
    each slice skew and anticommuting with J."""
    N = rng.normal(size=(6, 6, 6))
    N = 0.5 * (N - N.transpose(0, 2, 1))
    return 0.5 * (N + np.einsum("ab,ibc,cd->iad", J, N, J))


def phi(J: np.ndarray, nabla_j: np.ndarray) -> np.ndarray:
    """phi(X, Y) = trace((nabla_X J)(nabla_{JY} J)).

    The sign is pinned by the identity phi(X, JX) = |nabla_X J|^2
    (Frobenius), which holds for any nabla_j whose slices are skew and
    anticommute with J; both are asserted within TOL_CONSTRUCT relative
    to max(1, max |nabla J|).
    """
    scale = max(1.0, float(np.max(np.abs(nabla_j))))
    anti = np.max(np.abs(nabla_j @ J + J @ nabla_j))
    skew = np.max(np.abs(nabla_j + nabla_j.transpose(0, 2, 1)))
    assert anti <= TOL_CONSTRUCT * scale and skew <= TOL_CONSTRUCT * scale, (
        "nabla J incompatible with J: anticommutation %.3e, skewness %.3e" % (anti, skew))
    NJ = np.einsum("kj,kab->jab", J, nabla_j)        # slice in direction J e_j
    return np.einsum("iab,jba->ij", nabla_j, NJ)


def sampled_sup_norm(D: np.ndarray, rng: np.random.Generator, samples: int) -> float:
    """max |D(v1, v2, v3, v4)| over sampled unit vectors: a lower estimate
    of sup |D| over unit vectors."""
    vs = rng.normal(size=(samples, 4, 6))
    vs /= np.linalg.norm(vs, axis=2)[:, :, None]
    # D(v1, v2, v3, v4) = (v1 (x) v2) . D as a 36 x 36 matrix . (v3 (x) v4)
    v12 = (vs[:, 0, :, None] * vs[:, 1, None, :]).reshape(-1, 36)
    v34 = (vs[:, 2, :, None] * vs[:, 3, None, :]).reshape(-1, 36)
    return float(np.max(np.abs(np.sum((v12 @ D.reshape(36, 36)) * v34, axis=1))))


def ellipsoid_principal_curvatures(axes, p: np.ndarray) -> np.ndarray:
    """Principal curvatures, ascending, of the ellipsoid {A q : |q| = 1},
    A = diag(axes), at A p for a unit 7-vector p.

    The ellipsoid is the level set |A^-1 y| = 1, whose normal at y = A p
    is A^-2 y = A^-1 p; its shape operator is the compression of
    A^-2 / s onto the tangent space (A^-1 p)^perp, with s = |A^-1 p|.
    """
    a = np.asarray(axes, dtype=float)
    normal = p / a
    s = np.linalg.norm(normal)
    Q, _ = np.linalg.qr((normal / s)[:, None], mode="complete")
    T = Q[:, 1:]                                   # a tangent orthonormal basis
    return np.linalg.eigvalsh(T.T @ (T / (a * a)[:, None]) / s)


def conformally_flat_curvature(field: sp.MetricField, point: sp.ChartPoint) -> np.ndarray:
    """(4,0) curvature, in the g-orthonormal frame, of a metric g = w Id
    in the chart (the round and conformal families), by the conformal
    change of the flat metric instead of Christoffel symbols.

    With u = log w from the metric's closed-form jets (du = d w / w,
    d^2 u = d^2 w / w - du du^T) and h = 1/2 d^2 u - 1/4 du du^T
    + 1/8 |du|^2 Id, the coordinate tensor is -w (h (.) Id), (.) the
    Kulkarni-Nomizu product; the frame w^-1/2 Id divides it by w^2."""
    xs = np.asarray(point.x, dtype=float)[None]
    g, dg, ddg = (a[0] for a in field.jets(point.chart_id, xs))
    w = g[0, 0]
    eye = np.eye(6)
    assert np.array_equal(g, w * eye), "the metric must be a multiple of Id in the chart"
    du = dg[:, 0, 0] / w
    ddu = ddg[:, :, 0, 0] / w - np.outer(du, du)
    h = 0.5 * ddu - 0.25 * np.outer(du, du) + 0.125 * (du @ du) * eye
    # (h (.) Id)_ijkl = h_ik d_jl + h_jl d_ik - h_il d_jk - h_jk d_il
    kn = np.einsum("ik,jl->ijkl", h, eye) - np.einsum("il,jk->ijkl", h, eye)
    return -(kn + kn.transpose(1, 0, 3, 2)) / w


def gauss_two_angle_minimum(kappa: np.ndarray) -> float:
    """The minimum over theta, phi in [0, pi] of
    m1 m2 - m1 d2 cos(phi) - m2 d1 cos(theta) + d1 d2 cos(theta + phi),
    the star-Ricci minimum of R = h (.) h on the span of the principal
    directions of k1, k2, k5, k6 (sorted, positive), taken over both
    pairings: (m1, d1) from (k1, k6) and (m2, d2) from (k2, k5), or k5
    and k6 swapped; m is the mean and d the half-difference of a pair.

    For fixed theta the phi-terms are A cos(phi) + B sin(phi) with B <= 0,
    whose minimum -sqrt(A^2 + B^2) is attained in [0, pi].  With
    c = cos(theta) that leaves
    g(c) = m1 m2 - m2 d1 c - d2 sqrt(m1^2 + d1^2 - 2 m1 d1 c),
    convex on [-1, 1], so its minimum is at the clipped root of g'.
    """
    k = np.sort(np.asarray(kappa, dtype=float))
    best = np.inf
    for (i, j), (l, m) in (((0, 5), (1, 4)), ((0, 4), (1, 5))):
        m1, d1 = (k[i] + k[j]) / 2, (k[j] - k[i]) / 2
        m2, d2 = (k[l] + k[m]) / 2, (k[m] - k[l]) / 2
        cs = [-1.0, 1.0]
        if d1 > 0:
            root = (m1 * m1 + d1 * d1 - (d2 * m1 / m2) ** 2) / (2 * m1 * d1)
            cs.append(min(1.0, max(-1.0, root)))
        for c in cs:
            g = m1 * m2 - m2 * d1 * c - d2 * np.sqrt(max(0.0, m1 * m1 + d1 * d1 - 2 * m1 * d1 * c))
            best = min(best, g)
    return float(best)


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
    assert p.shape == (7,) and abs(np.linalg.norm(p) - 1.0) <= 1e-9, (
        "base point must be a unit 7-vector")
    return np.einsum("ijk,i->kj", OCTONION_EPS, p)


def octonionic_chart_jet(point: sp.ChartPoint) -> tuple[np.ndarray, np.ndarray]:
    """The octonionic J in chart coordinates and its chart derivative
    dJ[l] = d_l J.

    J is M^-1 P^T Jp P, with P the chart Jacobian, M = P^T P and
    Jp = p x . (the image of the cross product is tangent).  Jp is linear
    in p, so d_l Jp = (d_l p) x . and the product rule on M J = P^T Jp P
    gives dJ in closed form."""
    xs = np.asarray(point.x, dtype=float)[None]
    P, D2p, _ = (a[0] for a in sp._stereographic_jets(point.chart_id, xs))
    Jp = g2_structure(sp.chart_to_ambient(point))
    M = P.T @ P
    J = np.linalg.solve(M, P.T @ (Jp @ P))
    dP = D2p.transpose(2, 0, 1)                     # dP[l] = d_l P
    dPt = dP.transpose(0, 2, 1)
    dJp = np.einsum("ijk,il->lkj", OCTONION_EPS, P)  # dJp[l] = P[:, l] x .
    # M d_l J = d_l (P^T Jp P) - (d_l M) J
    rhs = dPt @ Jp @ P + P.T @ dJp @ P + P.T @ Jp @ dP - (dPt @ P + P.T @ dP) @ J
    return J, np.linalg.solve(M, rhs)


def nabla_J(field: sp.MetricField, point: sp.ChartPoint,
            jet=octonionic_chart_jet) -> tuple[np.ndarray, np.ndarray]:
    """J and its covariant derivative nabla[i] = nabla_{e_i} J in the
    g-orthonormal frame of ``sphere.orthonormal_frame``, from the
    Levi-Civita symbols of the metric's closed-form jets and
    jet(point) = (J, dJ) in chart coordinates."""
    xs = np.asarray(point.x, dtype=float)[None]
    g, dg, _ = field.jets(point.chart_id, xs)
    gamma, g = sp._christoffel(g, dg, xs)[0][0], g[0]
    J, dJ = jet(point)
    nab = (dJ
           + np.einsum("kim,mj->ikj", gamma, J)
           - np.einsum("mij,km->ikj", gamma, J))
    B = sp.orthonormal_frame(g)
    B_inv = np.linalg.inv(B)
    return B_inv @ J @ B, np.einsum("ikj,ia,kc,jb->acb", nab, B, B_inv.T, B)


def build_parser() -> argparse.ArgumentParser:
    """The ``occert`` command line in argparse, the reference that
    ``cli.parse_args`` is compared with: the same commands, and for
    ``certify`` the options, types and defaults of ``cli.CERTIFY_OPTIONS``."""
    parser = argparse.ArgumentParser(
        prog="occert",
        description="Certify curvature-positivity conditions at sampled "
                    "points of the 6-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the certification survey")
    p.add_argument("--metric", help="builtin metric family (round, flat)")
    p.add_argument("--spec", help="JSON metric spec file")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--richardson", action="store_true",
                   help="fourth-order finite differences of step 1e-3 "
                        "(default: closed-form curvature)")
    p.add_argument("--multistarts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--checks", default="bhl,p_sufficient",
                   help="comma list from bhl,p_sufficient,p_refute")
    p.add_argument("--out", help="path for the JSON report")
    sub.add_parser("selftest", help="run built-in anchor checks")
    return parser
