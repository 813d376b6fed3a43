"""Second routes to quantities that ``occert`` computes once, and the
random generators the tests feed them: the star-Ricci form by another
contraction and in frame coordinates, the canonical-line projection
scalar through an explicit (1,0)-coframe, the sup norm of a curvature
deviation by sampling, and the ellipsoid's principal curvatures with
the star-Ricci minimum of its Gauss tensor."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from occert.curvature import express_in_frame, ricci_star
from occert.hermitian import standard_complex_structure
from occert.structures import adapted_frame, check_complex_structure, make_complex_structure


def sharp_index(i: int) -> int:
    """The pairing involution on 0-based indices: 0<->1, 2<->3, 4<->5."""
    return i + 1 if i % 2 == 0 else i - 1


def ricci_star_alt(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Ric*(X, Y) = (1/2) sum_i R(X, JY, e_i, J e_i)."""
    return 0.5 * np.einsum("iakm,aj,mk->ij", R, J, J)


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
    cs = make_complex_structure(F)   # raises FrameError when not orthonormal
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
