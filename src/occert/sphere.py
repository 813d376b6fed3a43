"""Concrete metrics on the 6-sphere in stereographic charts.

Finite-difference Christoffel symbols and Riemann curvature, the
octonionic almost complex structure as a fixture with nonvanishing
J-derivative, and residual checks for the canonical metric-and-complex
connection.  All curvature leaving this module is re-expressed in a
g-orthonormal frame, so the algebra layers always see g = Id.

Charts: inverse stereographic projection from the two poles; the south
chart flips its last coordinate so both charts induce the same
orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .curvature import express_in_frame, validate_symmetries
from .errors import (
    ConditioningError,
    ConfigError,
    FDQualityError,
    InputError,
    MetricError,
)
from .rng import make_rng

CHART_RADIUS = 1.5

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
    if abs(np.linalg.norm(p) - 1.0) > 1e-9:
        raise InputError("base point must be a unit 7-vector")
    return np.einsum("ijk,i->kj", OCTONION_EPS, p)


@dataclass(frozen=True)
class ChartPoint:
    chart_id: str                # 'north' | 'south'
    x: np.ndarray                # 6 chart coordinates, |x| <= 1.5

    def __post_init__(self):
        if self.chart_id not in ("north", "south"):
            raise InputError("chart_id must be 'north' or 'south'")
        if np.linalg.norm(self.x) > CHART_RADIUS + 1e-12:
            raise InputError("chart coordinates exceed the chart radius")


# The south chart flips its last coordinate.
_SOUTH_FLIP = np.array([1, 1, 1, 1, 1, -1.0])


def _squared_norms(xs: np.ndarray) -> np.ndarray:
    """x @ x for each row.  A stacked matmul, so that a row's value does
    not depend on the other rows."""
    return (xs[:, None, :] @ xs[:, :, None])[:, 0, 0]


def _ambient_stack(chart_id: str, xs: np.ndarray) -> np.ndarray:
    """Unit 7-vectors of the rows of xs, shape (M, 7)."""
    x = xs * _SOUTH_FLIP if chart_id == "south" else xs
    xx = _squared_norms(x)
    s = 1.0 + xx
    p = np.empty((len(xs), 7))
    p[:, :6] = 2.0 * x / s[:, None]
    p[:, 6] = (xx - 1.0) / s
    if chart_id == "south":
        p[:, 6] = -p[:, 6]
    return p


def chart_to_ambient(point: ChartPoint) -> np.ndarray:
    """Unit 7-vector of a chart point."""
    return _ambient_stack(point.chart_id,
                          np.asarray(point.x, dtype=float)[None])[0]


def ambient_to_chart(p: np.ndarray) -> ChartPoint:
    """Chart point of a unit 7-vector, assigned to the chart where |x| <= 1."""
    p = np.asarray(p, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-9:
        raise InputError("ambient point must lie on the unit sphere")
    if p[6] <= 0:
        x = p[:6] / (1.0 - p[6])
        return ChartPoint("north", x)
    x = p[:6] / (1.0 + p[6])
    x = x * _SOUTH_FLIP
    return ChartPoint("south", x)


def _jacobian_stack(chart_id: str, xs: np.ndarray) -> np.ndarray:
    """d(ambient)/d(chart) at the rows of xs, shape (M, 7, 6)."""
    flip = chart_id == "south"
    x = xs * _SOUTH_FLIP if flip else xs
    s = 1.0 + _squared_norms(x)
    Dp = np.zeros((len(xs), 7, 6))
    Dp[:, :6, :] = (2.0 * np.eye(6) / s[:, None, None]
                    - 4.0 * (x[:, :, None] * x[:, None, :]) / s[:, None, None] ** 2)
    Dp[:, 6, :] = 4.0 * x / s[:, None] ** 2
    if flip:
        Dp[:, 6, :] = -Dp[:, 6, :]
        Dp[:, :, 5] = -Dp[:, :, 5]
    return Dp


def chart_jacobian(point: ChartPoint) -> np.ndarray:
    """d(ambient)/d(chart): 7 x 6 Jacobian of :func:`chart_to_ambient`."""
    return _jacobian_stack(point.chart_id,
                           np.asarray(point.x, dtype=float)[None])[0]


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference step and scheme."""

    h: float = 1e-3
    scheme: str = "central_2nd"  # or 'richardson_4th'

    def __post_init__(self):
        if not (1e-6 <= self.h <= 1e-1):
            raise InputError("step size must lie in [1e-6, 1e-1]")
        if self.scheme not in ("central_2nd", "richardson_4th"):
            raise InputError("unknown finite-difference scheme %r" % self.scheme)


def _poly_eval(terms, xs) -> np.ndarray:
    """A polynomial table at each row of xs."""
    total = np.zeros(len(xs))
    for coeff, powers in terms:
        total += coeff * np.prod(xs ** np.asarray(powers), axis=1)
    return total


@dataclass(frozen=True)
class MetricField:
    """Metric evaluator on the sphere, one of the built-in families.

    round:     scale * 4/(1+|x|^2)^2 * Id (unit round sphere)
    conformal: exp(2 f) * round, f an ambient-linear (or constant) function
    ellipsoid: pullback of the flat 7-space metric under axis scaling
    custom:    per-entry polynomial tables in the chart coordinates
               (a debug family; need not glue to a sphere metric)
    """

    family: str
    params: dict = field(default_factory=dict)
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in ("round", "conformal", "ellipsoid", "custom"):
            raise ConfigError("unknown metric family %r" % self.family)
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if self.family == "conformal":
            f = self.params.get("f", {"type": "constant", "value": 0.0})
            if f.get("type") not in ("ambient_linear", "constant"):
                raise ConfigError("conformal factor type must be "
                                  "'ambient_linear' or 'constant'")
            if f["type"] == "ambient_linear" and len(f.get("coeffs", [])) != 7:
                raise ConfigError("ambient_linear conformal factor needs 7 coeffs")
        if self.family == "ellipsoid":
            axes = np.asarray(self.params.get("axes", np.ones(7)), dtype=float)
            if axes.shape != (7,) or np.any(axes <= 0):
                raise ConfigError("ellipsoid needs 7 positive semi-axes")
        if self.family == "custom" and "terms" not in self.params:
            raise ConfigError("custom metric needs a 'terms' table")

    def _conformal_factor(self, chart_id: str, xs: np.ndarray) -> np.ndarray:
        f = self.params.get("f", {"type": "constant", "value": 0.0})
        if f["type"] == "constant":
            return np.full(len(xs), float(f.get("value", 0.0)))
        coeffs = np.asarray(f["coeffs"], dtype=float)
        return (_ambient_stack(chart_id, xs)[:, None, :] @ coeffs[:, None])[:, 0, 0]

    def matrices(self, chart_id: str, xs) -> np.ndarray:
        """Metric matrices at the rows of xs (chart coordinates), shape
        (M, 6, 6), each validated symmetric and SPD.

        A failure names the first failing row, checked in row order:
        inside the chart, then symmetric, then SPD.
        """
        if chart_id not in ("north", "south"):
            raise InputError("chart_id must be 'north' or 'south'")
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 6:
            raise InputError("chart coordinates must have shape (M, 6)")
        xx = _squared_norms(xs)
        outside = np.flatnonzero(np.sqrt(xx) > CHART_RADIUS + 1e-12)
        # Rows from the first one outside the chart on are never evaluated.
        inside = xs[:outside[0]] if len(outside) else xs
        g = self._unchecked(chart_id, inside, xx[:len(inside)])
        asym = (np.max(np.abs(g - g.transpose(0, 2, 1)), axis=(1, 2))
                > 1e-12 * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2))))
        not_spd = np.linalg.eigvalsh(g)[:, 0] <= 0
        bad = np.flatnonzero(asym | not_spd)
        if len(bad):
            k = bad[0]
            if asym[k]:
                raise MetricError("metric evaluator returned a non-symmetric matrix")
            raise MetricError("metric evaluator returned a non-SPD matrix at %s"
                              % xs[k])
        if len(outside):
            raise InputError("chart coordinates exceed the chart radius")
        return self.scale * g

    def _unchecked(self, chart_id: str, xs: np.ndarray,
                   xx: np.ndarray) -> np.ndarray:
        """Unscaled family formula at the rows of xs, with xx = |x|^2."""
        if self.family in ("round", "conformal"):
            weight = (np.exp(2.0 * self._conformal_factor(chart_id, xs))
                      if self.family == "conformal" else 1.0)
            return (weight * 4.0 / (1.0 + xx) ** 2)[:, None, None] * np.eye(6)
        if self.family == "ellipsoid":
            axes = np.asarray(self.params.get("axes", np.ones(7)), dtype=float)
            Dy = axes[:, None] * _jacobian_stack(chart_id, xs)
            return Dy.transpose(0, 2, 1) @ Dy
        g = np.zeros((len(xs), 6, 6))
        for i, j, terms in self.params["terms"]:
            val = _poly_eval(terms, xs)
            g[:, i, j] += val
            if i != j:
                g[:, j, i] += val
        return g

    def matrix(self, point: ChartPoint) -> np.ndarray:
        """Metric matrix at one chart point; see :meth:`matrices`."""
        return self.matrices(point.chart_id,
                             np.asarray(point.x, dtype=float)[None])[0]

    @staticmethod
    def flat_toy() -> "MetricField":
        """Constant-identity chart metric (debug family, not a sphere metric)."""
        terms = [[i, i, [[1.0, [0, 0, 0, 0, 0, 0]]]] for i in range(6)]
        return MetricField(family="custom", params={"terms": terms})


@dataclass(frozen=True)
class ACSField:
    """Almost-complex-structure field.

    'g2_octonionic' and 'custom' evaluate an ambient operator at sphere
    points; 'chart_constant' holds a fixed chart-coordinate matrix (the
    flat Kaehler toy for tests).
    """

    kind: str = "g2_octonionic"
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    matrix: np.ndarray | None = None

    def ambient_operator(self, p: np.ndarray) -> np.ndarray:
        if self.kind == "g2_octonionic":
            return g2_structure(p)
        if self.kind == "custom" and self.evaluator is not None:
            return np.asarray(self.evaluator(p), dtype=float)
        raise ConfigError("ACS field %r has no ambient evaluator" % self.kind)

    def chart_operator(self, point: ChartPoint) -> np.ndarray:
        """J in chart coordinates: pseudo-inverse conjugation by the
        chart Jacobian (the image of the cross product is tangent)."""
        if self.kind == "chart_constant":
            if self.matrix is None:
                raise ConfigError("chart_constant ACS field needs a matrix")
            return np.asarray(self.matrix, dtype=float)
        p = chart_to_ambient(point)
        P = chart_jacobian(point)
        Jp = self.ambient_operator(p)
        return np.linalg.solve(P.T @ P, P.T @ (Jp @ P))


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Christoffel symbols gamma[k, i, j] = Gamma^k_ij at a point."""

    gamma: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray


def _stencil(xs: np.ndarray, h: float, scheme: str) -> np.ndarray:
    """Each row of xs followed by its finite-difference stencil, shape
    (B, 1 + 12, 6) or (B, 1 + 24, 6): for each direction i, x + h e_i and
    x - h e_i, then (richardson_4th) x + 2h e_i and x - 2h e_i."""
    eye = np.eye(6)
    base = xs[:, None, :]
    offsets = [base + h * eye, base - h * eye]
    if scheme == "richardson_4th":
        offsets += [base + 2.0 * h * eye, base - 2.0 * h * eye]
    stencil = np.stack(offsets, axis=2).reshape(len(xs), -1, 6)
    return np.concatenate([base, stencil], axis=1)


def _fd_derivative(samples: np.ndarray, h: float, scheme: str,
                   axis: int = 0) -> np.ndarray:
    """Partial derivatives from stencil samples (the stencil of
    :func:`_stencil` without its base, along ``axis``); the direction
    index replaces the stencil index."""
    s = np.moveaxis(samples, axis, 0)
    s = s.reshape((6, -1) + s.shape[1:])         # direction, offset, ...
    if scheme == "central_2nd":
        d = (s[:, 0] - s[:, 1]) / (2.0 * h)
    else:
        d = (8.0 * (s[:, 0] - s[:, 1]) - (s[:, 2] - s[:, 3])) / (12.0 * h)
    return np.moveaxis(d, 0, axis)


def _levi_civita(field: MetricField, chart_id: str, bases: np.ndarray,
                 fd: FDConfig):
    """Christoffel symbols gamma[b, k, i, j], metric g[b], its inverse
    g_inv[b] and metric derivative dg[b, i, a, c] = d_i g_ac at each row
    of bases, from one metric evaluation over every base's stencil."""
    samples = _stencil(bases, fd.h, fd.scheme)
    B, S = samples.shape[:2]
    g_all = field.matrices(chart_id, samples.reshape(-1, 6)).reshape(B, S, 6, 6)
    g = g_all[:, 0]
    cond = np.linalg.cond(g)
    bad = np.flatnonzero(cond > 1e8)
    if len(bad):
        k = bad[0]
        raise ConditioningError("metric condition number %.3e at %s"
                                % (cond[k], bases[k]))
    g_inv = np.linalg.inv(g)
    dg = _fd_derivative(g_all[:, 1:], fd.h, fd.scheme, axis=1)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    sym = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    gamma = 0.5 * (g_inv @ sym.reshape(B, 36, 6).transpose(0, 2, 1))
    return gamma.reshape(B, 6, 6, 6), g, g_inv, dg


def christoffel(field: MetricField, point: ChartPoint,
                fd: FDConfig | None = None) -> ConnectionCoefficients:
    """Levi-Civita symbols by central differences of the metric."""
    gamma, g, g_inv, _ = _levi_civita(field, point.chart_id,
                                      np.asarray(point.x, dtype=float)[None],
                                      fd or FDConfig())
    return ConnectionCoefficients(gamma=gamma[0], g=g[0], g_inv=g_inv[0])


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Columns of a g-orthonormal frame (Cholesky Gram-Schmidt)."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).T


def _coordinate_riemann(field: MetricField, point: ChartPoint,
                        fd: FDConfig) -> tuple[np.ndarray, np.ndarray]:
    """(4,0) curvature in chart coordinates and the metric at the point."""
    bases = _stencil(np.asarray(point.x, dtype=float)[None], fd.h, fd.scheme)[0]
    gamma_all, g, _, _ = _levi_civita(field, point.chart_id, bases, fd)
    gamma = gamma_all[0]
    dgamma = _fd_derivative(gamma_all[1:], fd.h, fd.scheme)   # dgamma[i, l, j, k]
    # Bracket-convention curvature, then a global sign for the round anchor.
    r_up = (np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
            + np.einsum("lim,mjk->lijk", gamma, gamma)
            - np.einsum("ljm,mik->lijk", gamma, gamma))
    return -np.einsum("lijk,lm->ijkm", r_up, g[0]), g[0]


def riemann(field: MetricField, point: ChartPoint,
            fd: FDConfig | None = None,
            sym_check: bool = True) -> np.ndarray:
    """(4,0) curvature in a g-orthonormal frame at the point.

    The sign is fixed so that the unit round sphere yields the
    Kulkarni-Nomizu square of the metric (operator = identity).
    Raises FDQualityError when the algebraic identities are violated
    beyond 100 h^2.
    """
    fd = fd or FDConfig()
    R, g = _coordinate_riemann(field, point, fd)
    R_onf = express_in_frame(R, orthonormal_frame(g))
    if sym_check:
        worst = max(validate_symmetries(R_onf).values())
        if worst > 100.0 * fd.h ** 2:
            raise FDQualityError(
                "curvature identities violated at %.3e (> 100 h^2 = %.3e)"
                % (worst, 100.0 * fd.h ** 2))
    return R_onf


@dataclass(frozen=True)
class NablaJData:
    """J and its covariant derivative in the g-orthonormal frame."""

    J: np.ndarray                # (6, 6)
    nabla: np.ndarray            # (6, 6, 6): nabla[i] = (nabla_{e_i} J)


def _chart_nabla_J(field: MetricField, acs: ACSField, point: ChartPoint,
                   fd: FDConfig):
    """Levi-Civita symbols, the metric derivative dg[i, a, c], J, its
    coordinate derivative dJ[i, k, j] and its covariant derivative
    nab[i, k, j], all in chart coordinates."""
    x = np.asarray(point.x, dtype=float)
    gamma, g, g_inv, dg = _levi_civita(field, point.chart_id, x[None], fd)
    conn = ConnectionCoefficients(gamma=gamma[0], g=g[0], g_inv=g_inv[0])
    Js = np.stack([acs.chart_operator(ChartPoint(point.chart_id, y))
                   for y in _stencil(x[None], fd.h, fd.scheme)[0]])
    J = Js[0]
    dJ = _fd_derivative(Js[1:], fd.h, fd.scheme)
    nab = (dJ
           + np.einsum("kim,mj->ikj", conn.gamma, J)
           - np.einsum("mij,km->ikj", conn.gamma, J))
    return conn, dg[0], J, dJ, nab


def nabla_J(field: MetricField, acs: ACSField, point: ChartPoint,
            fd: FDConfig | None = None) -> NablaJData:
    """Covariant derivative of the J field, re-expressed orthonormally."""
    conn, _, J, _, nab = _chart_nabla_J(field, acs, point, fd or FDConfig())
    B = orthonormal_frame(conn.g)
    B_inv = np.linalg.inv(B)
    J_onf = B_inv @ J @ B
    nab_onf = np.einsum("ikj,ia,kc,jb->acb", nab, B, B_inv.T, B)
    return NablaJData(J=J_onf, nabla=nab_onf)


@dataclass(frozen=True)
class CanonicalConnectionReport:
    metricity: float             # max |Delta g|
    complex_compat: float        # max |Delta J|
    torsion_formula: float       # two-route torsion disagreement
    torsion_norm: float


def canonical_connection_check(field: MetricField, acs: ACSField,
                               point: ChartPoint,
                               fd: FDConfig | None = None) -> CanonicalConnectionReport:
    """Residuals of the metric-and-complex connection built from the
    Levi-Civita symbols and the J-derivative, in chart coordinates."""
    conn, dg, J, dJ, nab = _chart_nabla_J(field, acs, point, fd or FDConfig())
    # Delta = Levi-Civita - (1/2) J (nabla J)
    delta = conn.gamma - 0.5 * np.einsum("km,imj->kij", J, nab)
    # (Delta g)_ijk = d_i g_jk - Delta^m_ij g_mk - Delta^m_ik g_jm
    metricity = (dg
                 - np.einsum("mij,mk->ijk", delta, conn.g)
                 - np.einsum("mik,jm->ijk", delta, conn.g))
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


def sample_points(n: int, seed: int) -> list[ChartPoint]:
    """n ambient-uniform points, each in the chart where |x| <= 1."""
    if n < 1:
        raise InputError("need at least one sample point")
    rng = make_rng(seed, 7)
    pts = []
    for _ in range(n):
        p = rng.normal(size=7)
        p = p / np.linalg.norm(p)
        pts.append(ambient_to_chart(p))
    return pts


def estimate_perturbation(field: MetricField, points: list[ChartPoint],
                          fd: FDConfig | None = None,
                          quad_samples: int = 256, seed: int = 0):
    """Sampled sup-norm deviations (metric, curvature) from the round
    metric over the given points.  Estimates, not certified suprema.
    """
    from .certify import PerturbationBudget

    fd = fd or FDConfig()
    base = MetricField(family="round")
    eps1 = 0.0
    eps2 = 0.0
    rng = make_rng(seed, 13)
    per_point = max(1, quad_samples // max(1, len(points)))
    for pt in points:
        g0 = base.matrix(pt)
        g1 = field.matrix(pt)
        B0 = orthonormal_frame(g0)
        h = B0.T @ (g1 - g0) @ B0
        eps2 = max(eps2, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        # Deviation sampled in the round orthonormal frame of the point.
        # The round curvature is taken by FD, not in closed form, so that
        # the shared O(h^2) FD error cancels in the difference.
        dev = express_in_frame(_coordinate_riemann(field, pt, fd)[0]
                               - _coordinate_riemann(base, pt, fd)[0], B0)
        eps1 = max(eps1, float(np.max(np.abs(dev))))
        # the same numbers as one (4, 6) draw per sample
        vs = rng.normal(size=(per_point, 4, 6))
        vs /= np.linalg.norm(vs, axis=2)[:, :, None]
        # dev(v1, v2, v3, v4) = (v1 (x) v2) . dev as a 36 x 36 matrix . (v3 (x) v4)
        v12 = (vs[:, 0, :, None] * vs[:, 1, None, :]).reshape(-1, 36)
        v34 = (vs[:, 2, :, None] * vs[:, 3, None, :]).reshape(-1, 36)
        vals = np.sum((v12 @ dev.reshape(36, 36)) * v34, axis=1)
        eps1 = max(eps1, float(np.max(np.abs(vals))))
    return PerturbationBudget(eps1=eps1, eps2=eps2)

