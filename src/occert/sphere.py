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


def chart_to_ambient(point: ChartPoint) -> np.ndarray:
    """Unit 7-vector of a chart point."""
    x = np.asarray(point.x, dtype=float)
    if point.chart_id == "south":
        x = x * np.array([1, 1, 1, 1, 1, -1.0])
    s = 1.0 + x @ x
    p = np.empty(7)
    p[:6] = 2.0 * x / s
    p[6] = (x @ x - 1.0) / s
    if point.chart_id == "south":
        p[6] = -p[6]
    return p


def ambient_to_chart(p: np.ndarray) -> ChartPoint:
    """Chart point of a unit 7-vector, assigned to the chart where |x| <= 1."""
    p = np.asarray(p, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-9:
        raise InputError("ambient point must lie on the unit sphere")
    if p[6] <= 0:
        x = p[:6] / (1.0 - p[6])
        return ChartPoint("north", x)
    x = p[:6] / (1.0 + p[6])
    x = x * np.array([1, 1, 1, 1, 1, -1.0])
    return ChartPoint("south", x)


def chart_jacobian(point: ChartPoint) -> np.ndarray:
    """d(ambient)/d(chart): 7 x 6 Jacobian of :func:`chart_to_ambient`."""
    x = np.asarray(point.x, dtype=float)
    flip = point.chart_id == "south"
    if flip:
        x = x * np.array([1, 1, 1, 1, 1, -1.0])
    s = 1.0 + x @ x
    Dp = np.zeros((7, 6))
    Dp[:6, :] = 2.0 * np.eye(6) / s - 4.0 * np.outer(x, x) / s ** 2
    Dp[6, :] = 4.0 * x / s ** 2
    if flip:
        Dp[6, :] = -Dp[6, :]
        Dp[:, 5] = -Dp[:, 5]
    return Dp


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


def _poly_eval(terms, x) -> float:
    total = 0.0
    for coeff, powers in terms:
        total += coeff * float(np.prod(np.asarray(x) ** np.asarray(powers)))
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

    def _conformal_factor(self, p: np.ndarray) -> float:
        f = self.params.get("f", {"type": "constant", "value": 0.0})
        if f["type"] == "constant":
            return float(f.get("value", 0.0))
        return float(np.asarray(f["coeffs"], dtype=float) @ p)

    def matrix(self, point: ChartPoint) -> np.ndarray:
        x = np.asarray(point.x, dtype=float)
        if self.family == "round":
            g = 4.0 / (1.0 + x @ x) ** 2 * np.eye(6)
        elif self.family == "conformal":
            p = chart_to_ambient(point)
            g = (np.exp(2.0 * self._conformal_factor(p))
                 * 4.0 / (1.0 + x @ x) ** 2 * np.eye(6))
        elif self.family == "ellipsoid":
            axes = np.asarray(self.params.get("axes", np.ones(7)), dtype=float)
            Dy = axes[:, None] * chart_jacobian(point)
            g = Dy.T @ Dy
        else:
            g = np.zeros((6, 6))
            for i, j, terms in self.params["terms"]:
                val = _poly_eval(terms, x)
                g[i, j] += val
                if i != j:
                    g[j, i] += val
        if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
            raise MetricError("metric evaluator returned a non-symmetric matrix")
        if np.linalg.eigvalsh(g)[0] <= 0:
            raise MetricError("metric evaluator returned a non-SPD matrix at %s"
                              % point.x)
        return self.scale * g

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


def _directional_samples(fun, x, i, h, scheme):
    e = np.zeros(6)
    e[i] = 1.0
    if scheme == "central_2nd":
        return (fun(x + h * e) - fun(x - h * e)) / (2.0 * h)
    f1 = fun(x + h * e) - fun(x - h * e)
    f2 = fun(x + 2.0 * h * e) - fun(x - 2.0 * h * e)
    return (8.0 * f1 - f2) / (12.0 * h)


def chart_metric(field: MetricField, point: ChartPoint) -> np.ndarray:
    """Metric matrix at a chart point (validated SPD)."""
    return field.matrix(point)


def christoffel(field: MetricField, point: ChartPoint,
                fd: FDConfig | None = None) -> ConnectionCoefficients:
    """Levi-Civita symbols by central differences of the metric."""
    fd = fd or FDConfig()
    x = np.asarray(point.x, dtype=float)
    chart = point.chart_id

    def g_at(y):
        return field.matrix(ChartPoint(chart, y))

    g = g_at(x)
    cond = np.linalg.cond(g)
    if cond > 1e8:
        raise ConditioningError("metric condition number %.3e at %s" % (cond, x))
    g_inv = np.linalg.inv(g)
    dg = np.stack([_directional_samples(g_at, x, i, fd.h, fd.scheme)
                   for i in range(6)])                     # dg[i, a, b]
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    sym = (np.einsum("ijl->ijl", dg) + np.einsum("jil->ijl", dg)
           - np.einsum("lij->ijl", dg))
    gamma = 0.5 * np.einsum("kl,ijl->kij", g_inv, sym)
    return ConnectionCoefficients(gamma=gamma, g=g, g_inv=g_inv)


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Columns of a g-orthonormal frame (Cholesky Gram-Schmidt)."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).T


def _coordinate_riemann(field: MetricField, point: ChartPoint,
                        fd: FDConfig) -> tuple[np.ndarray, np.ndarray]:
    """(4,0) curvature in chart coordinates and the metric at the point."""
    x = np.asarray(point.x, dtype=float)
    chart = point.chart_id

    def gamma_at(y):
        return christoffel(field, ChartPoint(chart, y), fd).gamma

    conn = christoffel(field, point, fd)
    gamma = conn.gamma
    dgamma = np.stack([_directional_samples(gamma_at, x, i, fd.h, fd.scheme)
                       for i in range(6)])                 # dgamma[i, l, j, k]
    # Bracket-convention curvature, then a global sign for the round anchor.
    r_up = (np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
            + np.einsum("lim,mjk->lijk", gamma, gamma)
            - np.einsum("ljm,mik->lijk", gamma, gamma))
    return -np.einsum("lijk,lm->ijkm", r_up, conn.g), conn.g


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
    """Levi-Civita symbols, J, its coordinate derivative dJ[i, k, j] and
    its covariant derivative nab[i, k, j], all in chart coordinates."""
    x = np.asarray(point.x, dtype=float)
    chart = point.chart_id

    def J_at(y):
        return acs.chart_operator(ChartPoint(chart, y))

    conn = christoffel(field, point, fd)
    J = J_at(x)
    dJ = np.stack([_directional_samples(J_at, x, i, fd.h, fd.scheme)
                   for i in range(6)])
    nab = (dJ
           + np.einsum("kim,mj->ikj", conn.gamma, J)
           - np.einsum("mij,km->ikj", conn.gamma, J))
    return conn, J, dJ, nab


def nabla_J(field: MetricField, acs: ACSField, point: ChartPoint,
            fd: FDConfig | None = None) -> NablaJData:
    """Covariant derivative of the J field, re-expressed orthonormally."""
    conn, J, _, nab = _chart_nabla_J(field, acs, point, fd or FDConfig())
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
    fd = fd or FDConfig()
    x = np.asarray(point.x, dtype=float)
    chart = point.chart_id

    def g_at(y):
        return field.matrix(ChartPoint(chart, y))

    conn, J, dJ, nab = _chart_nabla_J(field, acs, point, fd)
    # Delta = Levi-Civita - (1/2) J (nabla J)
    delta = conn.gamma - 0.5 * np.einsum("km,imj->kij", J, nab)

    dg = np.stack([_directional_samples(g_at, x, i, fd.h, fd.scheme)
                   for i in range(6)])
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
        dev = express_in_frame(_coordinate_riemann(field, pt, fd)[0]
                               - _coordinate_riemann(base, pt, fd)[0], B0)
        eps1 = max(eps1, float(np.max(np.abs(dev))))
        for _ in range(per_point):
            vs = rng.normal(size=(4, 6))
            vs /= np.linalg.norm(vs, axis=1)[:, None]
            eps1 = max(eps1, abs(float(np.einsum("ijkl,i,j,k,l->", dev, *vs))))
    return PerturbationBudget(eps1=eps1, eps2=eps2)

