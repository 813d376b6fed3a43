"""Linear algebra of Euclidean R^6 with orthogonal complex structures.

Random and standard complex structures, the fundamental 2-form, 2-form
coordinates and norms, and the positivity classification the certifier
uses.  The working basis is
orthonormal (the sphere pipeline re-expresses everything in such a
basis before it reaches this layer), so no function here takes a metric
or a tolerance, and the inner product on 2-forms is the one making
{e^i ^ e^j}_{i<j} orthonormal.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import CompatibilityError, InputError
from .kernels import _P, _Q
from .rng import haar_orthogonal, make_rng

TOL_CLASSIFY = 1e-9     # classification decisions


# orthogonal almost complex structure with its orientation class
ComplexStructure = namedtuple("ComplexStructure", "J compatible_orientation")


def standard_complex_structure(dim: int = 6) -> np.ndarray:
    """J0 with J0 e_1 = e_2, J0 e_2 = -e_1, ... in the standard basis."""
    J = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        J[i + 1, i] = 1.0
        J[i, i + 1] = -1.0
    return J


def fundamental_two_form(J: np.ndarray) -> np.ndarray:
    """omega(X, Y) = <JX, Y> as an antisymmetric matrix."""
    J = np.asarray(J, dtype=float)
    if not np.max(np.abs(J.T @ J - np.eye(J.shape[0]))) <= TOL_CLASSIFY:  # also rejects nan
        raise CompatibilityError("J is not orthogonal")
    return J.T.copy()


def lambda2_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product on 2-forms: sum over i<j of a_ij b_ij."""
    return 0.5 * float(np.sum(np.asarray(a) * np.asarray(b)))


def norm_lambda2(zeta: np.ndarray) -> float:
    return float(np.sqrt(lambda2_inner(zeta, zeta)))


def two_form_to_vector(zeta: np.ndarray) -> np.ndarray:
    """Coordinates in the orthonormal pair basis {e^i ^ e^j}_{i<j}."""
    return np.asarray(zeta, dtype=float)[_P, _Q]


def vector_to_two_form(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    zeta = np.zeros((6, 6))
    zeta[_P, _Q] = v
    zeta[_Q, _P] = -v
    return zeta


def is_positive_form(zeta: np.ndarray, J: np.ndarray) -> str:
    """Classify a 2-form: 'positive' | 'nonnegative' | 'indefinite' | 'not_11'.

    A form of type (1,1) (J-invariant) is classified by the spectrum of
    the symmetric bilinear form b(X, Y) = zeta(X, JY).
    """
    zeta = np.asarray(zeta, dtype=float)
    J = np.asarray(J, dtype=float)
    if not (np.isfinite(zeta).all() and np.isfinite(J).all()):
        raise InputError("2-form and J must be finite")
    scale = max(1.0, np.max(np.abs(zeta)))
    if np.max(np.abs(J.T @ zeta @ J - zeta)) > TOL_CLASSIFY * scale:
        return "not_11"
    b = zeta @ J
    eigs = np.linalg.eigvalsh(0.5 * (b + b.T))
    if eigs[0] > TOL_CLASSIFY:
        return "positive"
    if eigs[0] >= -TOL_CLASSIFY:
        return "nonnegative"
    return "indefinite"


def random_orthogonal_complex_structure(seed: int | np.random.Generator) -> ComplexStructure:
    """Conjugate of J0 by a Haar-uniform orthogonal matrix, orientation-compatible.

    The orientation class of Q J0 Q^T is that of det Q; a column swap
    flips it when the draw lands in the wrong component.  In dimension 6,
    -J has the other orientation.
    """
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    Q = haar_orthogonal(rng)
    if np.linalg.det(Q) < 0:
        Q = Q[:, [1, 0, 2, 3, 4, 5]]
    J = Q @ standard_complex_structure() @ Q.T
    return ComplexStructure(J=J, compatible_orientation=True)
