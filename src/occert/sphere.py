"""Concrete metrics on the 6-sphere in stereographic charts.

Riemann curvature from closed-form 2-jets of the metric or, under the
'richardson_4th' scheme, from fourth-order finite differences of it
(the package's only ones), and point sampling.  All curvature leaving this
module is re-expressed in a g-orthonormal frame and projected onto the
algebraic curvature tensors, so the algebra layers always see g = Id and
exact curvature identities.  The octonionic almost complex structure
and the covariant derivative of J are in :mod:`occert.structures`.

Charts: inverse stereographic projection from the two poles; the south
chart flips its last coordinate so both charts induce the same
orientation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping

import numpy as np

from .curvature import express_in_frame, project_curvature, validate_symmetries
from .errors import (ConditioningError, ConfigError, FDQualityError, InputError, MetricError,
                     SchemaError)
from .rng import make_rng
from .validation import load_schema, validate

CHART_RADIUS = 1.5


class CheckedRecord:
    """Base of a record that checks its fields, listed before its namedtuple.

    The record's ``__new__`` checks the built tuple, and ``_make``, and so
    ``_replace``, build through it too.  The record sets ``__slots__ = ()``
    to keep its attributes read-only."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ChartPoint(CheckedRecord, namedtuple("ChartPoint", "chart_id x")):
    """chart_id 'north' or 'south' and x, 6 finite chart coordinates, |x| <= 1.5."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.chart_id not in ("north", "south"):
            raise InputError("chart_id must be 'north' or 'south'")
        try:
            x = np.asarray(self.x, dtype=float)
        except (TypeError, ValueError):             # entries that are not numbers
            raise InputError("chart coordinates must be 6 finite numbers") from None
        if x.shape != (6,) or not np.isfinite(x).all():
            raise InputError("chart coordinates must be 6 finite numbers")
        if np.linalg.norm(x) > CHART_RADIUS + 1e-12:
            raise InputError("chart coordinates exceed the chart radius")
        return self


# The south chart flips its last coordinate, and its map to the sphere
# the last ambient one.
_SOUTH_FLIP = np.array([1, 1, 1, 1, 1, -1.0])
_AMBIENT_FLIP = np.array([1, 1, 1, 1, 1, 1, -1.0])
_EYE = np.eye(6)


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
    if p.shape != (7,) or not abs(np.linalg.norm(p) - 1.0) <= 1e-9:   # also rejects nan
        raise InputError("ambient point must be a unit 7-vector")
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


def _stereographic_jets(chart_id: str, x: np.ndarray):
    """Derivatives of the chart map at one point x: Dp[a, i], D2p[a, i, j]
    and D3p[a, i, j, k], with a the ambient index.

    In the north chart p = (2 x q, 1 - 2 q) with q = 1/(1 + |x|^2); the
    south chart is the north one at the flipped point y, with its last
    ambient coordinate negated.
    """
    Dp = _jacobian_stack(chart_id, x[None])[0]
    flip = chart_id == "south"
    y = x * _SOUTH_FLIP if flip else x
    q = 1.0 / (1.0 + float(y @ y))
    eye = _EYE
    # the derivatives of q
    q1 = -2.0 * q * q * y
    q2 = 8.0 * q ** 3 * np.outer(y, y) - 2.0 * q * q * eye
    ey = np.einsum("ij,k->ijk", eye, y)             # delta_ij y_k
    q3 = (8.0 * q ** 3 * (ey + ey.transpose(0, 2, 1) + ey.transpose(2, 0, 1))
          - 48.0 * q ** 4 * np.einsum("i,j,k->ijk", y, y, y))
    # derivatives of p_a = 2 y_a q by the product rule, and of 1 - 2 q
    D2p = np.empty((7, 6, 6))
    D2p[:6] = 2.0 * (y[:, None, None] * q2 + eye[:, :, None] * q1
                     + eye[:, None, :] * q1[:, None])
    D2p[6] = -2.0 * q2
    D3p = np.empty((7, 6, 6, 6))
    D3p[:6] = 2.0 * (y[:, None, None, None] * q3
                     + eye[:, :, None, None] * q2
                     + eye[:, None, :, None] * q2[:, None, :]
                     + eye[:, None, None, :] * q2[:, :, None])
    D3p[6] = -2.0 * q3
    if flip:
        # d/dx_i = f_i d/dy_i in each slot, and p_6 changes sign
        D2p *= np.einsum("a,i,j->aij", _AMBIENT_FLIP, _SOUTH_FLIP, _SOUTH_FLIP)
        D3p *= np.einsum("a,i,j,k->aijk", _AMBIENT_FLIP, _SOUTH_FLIP,
                         _SOUTH_FLIP, _SOUTH_FLIP)
    return Dp, D2p, D3p


class FDConfig(CheckedRecord,
               namedtuple("FDConfig", "h scheme", defaults=(1e-3, "exact"))):
    """How :func:`riemann` differentiates the metric: the scheme and the step h.

    'exact', the default here and in the CLI, takes the closed-form
    2-jets of :meth:`MetricField.jets`; h then only sets the 100 h^2
    identity gate of :func:`riemann`.  'richardson_4th' (the CLI's
    --richardson) takes fourth-order differences on a stencil of step h.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        try:
            in_range = 1e-6 <= self.h <= 1e-1
        except TypeError:                           # h is not a number
            in_range = False
        if not in_range:
            raise InputError("finite-difference step h must lie in [1e-6, 1e-1]")
        if self.scheme not in ("richardson_4th", "exact"):
            raise InputError("unknown curvature scheme %r" % self.scheme)
        return self


def _poly_eval(terms, xs) -> np.ndarray:
    """A polynomial table at each row of xs."""
    total = np.zeros(len(xs))
    for coeff, powers in terms:
        total += coeff * np.prod(xs ** np.asarray(powers), axis=1)
    return total


def _factors(g: np.ndarray) -> bool:
    """True when every matrix of the stack has a Cholesky factor, which
    proves it SPD: one stacked factorization instead of a spectrum."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def check_spec(doc) -> None:
    """Check a metric spec document against the packaged schema and for
    NaN, inf and integers beyond the float range (which only Python
    callers can pass); ConfigError names the field."""
    try:
        validate(doc, load_schema("metric_spec.schema.json"))
    except SchemaError as exc:
        path, message = exc.absolute_path, exc.message
    else:
        path, message = next(_non_finite(doc, ()), (None, None))
    if path is not None:                # a document-level error is put at 'family'
        raise ConfigError("invalid metric spec at '%s': %s"
                          % ("/".join(map(str, path)) or "family", message))


def _non_finite(value, path: tuple):
    """(path, message) for each number of a JSON document that is not a
    finite float: NaN, inf, or an integer that float() cannot hold."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(child, path + (key,))
    elif isinstance(value, float) and not math.isfinite(value):
        yield path, "%r is not a finite number" % value
    elif isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            yield path, ("an integer of %d bits is not a finite number"
                         % value.bit_length())


class MetricField(CheckedRecord,
                  namedtuple("MetricField", "family params scale", defaults=(None, 1.0))):
    """Metric evaluator on the sphere, one of the built-in families.

    round:     scale * 4/(1+|x|^2)^2 * Id (unit round sphere)
    conformal: exp(2 f) * round, f an ambient-linear (or constant) function
    ellipsoid: pullback of the flat 7-space metric under axis scaling
    custom:    per-entry polynomial tables in the chart coordinates
               (a debug family; need not glue to a sphere metric)

    Its :meth:`spec` document passes :func:`check_spec`, as every spec file must.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.params is None:                      # a fresh dict per metric
            self = super().__new__(cls, self.family, {}, self.scale)
        if not isinstance(self.params, Mapping):
            raise ConfigError("metric params must be a mapping")
        if "family" in self.params or "scale" in self.params:
            raise ConfigError("metric params must not hold 'family' or 'scale'")
        check_spec(self.spec())
        # what the schema cannot say: the params each family needs
        if self.family == "custom" and "terms" not in self.params:
            raise ConfigError("custom metric needs a 'terms' table of "
                              "[i, j, [[coeff, 6 powers], ...]] entries, i and j in 0..5")
        f = self.params.get("f", {})
        if self.family == "conformal" and f.get("type") == "ambient_linear" and "coeffs" not in f:
            raise ConfigError("conformal factor 'f' needs 7 finite 'coeffs'")
        return self

    def spec(self) -> dict:
        """The metric as a spec document: family, scale, then the params."""
        return {"family": self.family, "scale": self.scale, **self.params}

    def _conformal_factor(self, chart_id: str, xs: np.ndarray) -> np.ndarray:
        f = self.params.get("f", {"type": "constant", "value": 0.0})
        if f["type"] == "constant":
            return np.full(len(xs), float(f.get("value", 0.0)))
        coeffs = np.asarray(f["coeffs"], dtype=float)
        return (_ambient_stack(chart_id, xs)[:, None, :] @ coeffs[:, None])[:, 0, 0]

    def matrices(self, chart_id: str, xs) -> np.ndarray:
        """Metric matrices at the rows of xs (chart coordinates), shape
        (M, 6, 6), each validated finite, symmetric and SPD.

        A failure names the first failing row, checked in row order:
        inside the chart, then finite, then symmetric, then SPD.
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
        g = self.scale * self._unchecked(chart_id, inside, xx[:len(inside)])
        finite = np.isfinite(g).all(axis=(1, 2))
        if not finite.all():                    # eigvalsh must not see inf or nan
            g = np.where(finite[:, None, None], g, np.eye(6))
        asym = (np.max(np.abs(g - g.transpose(0, 2, 1)), axis=(1, 2))
                > 1e-12 * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2))))
        bad = np.flatnonzero(~finite | asym)
        if len(bad) or not _factors(g):         # a row scan names the first failure
            bad = np.flatnonzero(~finite | asym | (np.linalg.eigvalsh(g)[:, 0] <= 0))
        if len(bad):
            k = bad[0]
            if not finite[k]:
                raise MetricError("metric evaluator returned a non-finite matrix "
                                  "at %s" % xs[k])
            if asym[k]:
                raise MetricError("metric evaluator returned a non-symmetric matrix")
            raise MetricError("metric evaluator returned a non-SPD matrix at %s"
                              % xs[k])
        if len(outside):
            raise InputError("chart coordinates exceed the chart radius")
        return g

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
            g[:, int(i), int(j)] += val         # the schema allows 1.0 for 1
            if i != j:
                g[:, int(j), int(i)] += val
        return g

    def jets(self, chart_id: str, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The metric and its first two derivatives at one chart point, in
        closed form: g[a, c], dg[i, a, c] = d_i g_ac and
        ddg[i, j, a, c] = d_i d_j g_ac.

        g is :meth:`matrices` of the point, with its checks and messages;
        a non-finite derivative raises MetricError.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (6,):
            raise InputError("chart coordinates must have shape (6,)")
        g = self.matrices(chart_id, x[None])[0]
        if self.family in ("round", "conformal"):
            dg, ddg = self._conformal_derivatives(chart_id, x, g[0, 0])
        elif self.family == "ellipsoid":
            axes = np.asarray(self.params.get("axes", np.ones(7)), dtype=float)
            Dp, D2p, D3p = _stereographic_jets(chart_id, x)
            Dy = axes[:, None] * Dp
            D2y = axes[:, None, None] * D2p
            D3y = axes[:, None, None, None] * D3p
            # g_ac = Dy_ma Dy_mc, differentiated by the product rule
            dg = np.einsum("mia,mc->iac", D2y, Dy)
            ddg = (np.einsum("mija,mc->ijac", D3y, Dy)
                   + np.einsum("mia,mjc->ijac", D2y, D2y))
            dg = self.scale * (dg + dg.transpose(0, 2, 1))
            ddg = self.scale * (ddg + ddg.transpose(0, 1, 3, 2))
        else:
            dg, ddg = self._custom_derivatives(x)
        if not (np.isfinite(dg).all() and np.isfinite(ddg).all()):
            raise MetricError("metric evaluator returned non-finite derivatives "
                              "at %s" % x)
        return g, dg, ddg

    def _conformal_derivatives(self, chart_id: str, x: np.ndarray, w: float):
        """dg and ddg of g = w Id through u = log w: dw = w du and
        ddw = w (ddu + du du).

        w = scale 4 exp(2 f) q^2 with q = 1/(1 + |x|^2) and f = c . p
        (c = 0 unless f is ambient-linear).  At the point y of the north
        chart (the flipped point for the south chart, where c_6 changes
        sign), f = 2 q beta + c_6 with beta = c[:6] . y - c_6, so
        u = 4 q beta + 2 log q + const; d/dx_i = f_i d/dy_i maps back.
        """
        flip = chart_id == "south"
        y = x * _SOUTH_FLIP if flip else x
        f = self.params.get("f", {"type": "constant"})
        if self.family == "conformal" and f["type"] == "ambient_linear":
            c = np.asarray(f["coeffs"], dtype=float)
            c = c * _AMBIENT_FLIP if flip else c
        else:
            c = np.zeros(7)
        q = 1.0 / (1.0 + float(y @ y))
        beta = float(c[:6] @ y - c[6])
        k = 4.0 * q + 8.0 * q * q * beta
        du = 4.0 * q * c[:6] - k * y
        cy = c[:6, None] * y
        ddu = ((8.0 * q * q + 32.0 * q ** 3 * beta) * (y[:, None] * y)
               - 8.0 * q * q * (cy + cy.T) - k * _EYE)
        if flip:
            du *= _SOUTH_FLIP
            ddu *= _SOUTH_FLIP[:, None] * _SOUTH_FLIP
        return ((w * du)[:, None, None] * _EYE,
                (w * (ddu + du[:, None] * du))[:, :, None, None] * _EYE)

    def _custom_derivatives(self, x: np.ndarray):
        """dg and ddg of the polynomial tables, one monomial at a time:
        d_l of prod_k x_k^p_k replaces the factor k = l by its derivative
        p x^(p-1), taken as 0 at p = 0 (never 0 * inf at x = 0)."""
        eye = np.eye(6, dtype=bool)
        both = eye[:, None, :] & eye[None, :, :]        # [l, m, k]: k = l = m
        either = eye[:, None, :] | eye[None, :, :]
        dg = np.zeros((6, 6, 6))
        ddg = np.zeros((6, 6, 6, 6))
        for i, j, terms in self.params["terms"]:
            d1 = np.zeros(6)
            d2 = np.zeros((6, 6))
            for coeff, powers in terms:
                p = np.asarray(powers, dtype=float)
                v = x ** p
                v1 = p * x ** np.maximum(p - 1.0, 0.0)
                v2 = p * (p - 1.0) * x ** np.maximum(p - 2.0, 0.0)
                d1 += coeff * np.where(eye, v1, v).prod(axis=1)
                d2 += coeff * np.where(both, v2,
                                       np.where(either, v1, v)).prod(axis=2)
            for a, c in {(int(i), int(j)), (int(j), int(i))}:
                dg[:, a, c] += d1
                ddg[:, :, a, c] += d2
        return self.scale * dg, self.scale * ddg

    def matrix(self, point: ChartPoint) -> np.ndarray:
        """Metric matrix at one chart point; see :meth:`matrices`."""
        return self.matrices(point.chart_id,
                             np.asarray(point.x, dtype=float)[None])[0]

    @staticmethod
    def flat_toy() -> "MetricField":
        """Constant-identity chart metric (debug family, not a sphere metric)."""
        terms = [[i, i, [[1.0, [0, 0, 0, 0, 0, 0]]]] for i in range(6)]
        return MetricField(family="custom", params={"terms": terms})


def _stencil(xs: np.ndarray, h: float) -> np.ndarray:
    """Each row of xs followed by its finite-difference stencil, shape
    (B, 1 + 24, 6): for each direction i, x + h e_i, x - h e_i,
    x + 2h e_i and x - 2h e_i."""
    eye = np.eye(6)
    base = xs[:, None, :]
    offsets = [base + h * eye, base - h * eye,
               base + 2.0 * h * eye, base - 2.0 * h * eye]
    stencil = np.stack(offsets, axis=2).reshape(len(xs), -1, 6)
    return np.concatenate([base, stencil], axis=1)


def _fd_derivative(samples: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Fourth-order partial derivatives from stencil samples (the stencil
    of :func:`_stencil` without its base, along ``axis``); the direction
    index replaces the stencil index."""
    s = np.moveaxis(samples, axis, 0)
    s = s.reshape((6, -1) + s.shape[1:])         # direction, offset, ...
    d = (8.0 * (s[:, 0] - s[:, 1]) - (s[:, 2] - s[:, 3])) / (12.0 * h)
    return np.moveaxis(d, 0, axis)


def _christoffel_sum(dg: np.ndarray) -> np.ndarray:
    """d_i g_jl + d_j g_il - d_l g_ij at [b, i, j, l], from
    dg[b, i, a, c] = d_i g_ac."""
    return dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)


def _christoffel(g: np.ndarray, dg: np.ndarray, bases: np.ndarray):
    """Christoffel symbols gamma[b, k, i, j] and g_inv[b] from the metric
    g[b] and its derivative dg[b] at each row of bases; ConditioningError
    names the first base whose metric has condition number above 1e8.
    Each g[b] is SPD (checked by :meth:`MetricField.matrices`), so its
    condition number is lambda_max / lambda_min."""
    lam = np.linalg.eigvalsh(g)
    bad = np.flatnonzero(lam[:, -1] > 1e8 * lam[:, 0])
    if len(bad):
        k = bad[0]
        raise ConditioningError("metric condition number %.3e at %s"
                                % (lam[k, -1] / lam[k, 0], bases[k]))
    g_inv = np.linalg.inv(g)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    B = len(g)
    sym = _christoffel_sum(dg).reshape(B, 36, 6).transpose(0, 2, 1)
    return (0.5 * (g_inv @ sym)).reshape(B, 6, 6, 6), g_inv


def _exact_levi_civita(field: MetricField, point: ChartPoint):
    """The derivative dgamma[m, k, i, j] = d_m Gamma^k_ij of the
    Christoffel symbols, the symbols gamma[k, i, j], the metric g and its
    inverse at the point, from the closed-form 2-jet of the metric."""
    x = np.asarray(point.x, dtype=float)
    g, dg, ddg = field.jets(point.chart_id, x)
    gamma, g_inv = _christoffel(g[None], dg[None], x[None])
    gamma, g_inv = gamma[0], g_inv[0]
    # d_m Gamma^k_ij = g^kl (1/2 d_m S_ijl - d_m g_ln Gamma^n_ij), where
    # Gamma = 1/2 g^-1 S and d g^-1 = -g^-1 (d g) g^-1
    inner = (0.5 * _christoffel_sum(ddg).transpose(0, 3, 1, 2).reshape(6, 6, 36)
             - dg @ gamma.reshape(6, 36))                  # inner[m, l, ij]
    return (g_inv @ inner).reshape(6, 6, 6, 6), gamma, g, g_inv


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Columns of a g-orthonormal frame (Cholesky Gram-Schmidt)."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).T


def _coordinate_riemann(field: MetricField, point: ChartPoint,
                        fd: FDConfig) -> tuple[np.ndarray, np.ndarray]:
    """(4,0) curvature in chart coordinates and the metric at the point."""
    if fd.scheme == "exact":
        dgamma, gamma, g, _ = _exact_levi_civita(field, point)
    else:
        # Christoffel symbols at the point and at its stencil, from one
        # metric evaluation over the stencil of every one of these bases
        bases = _stencil(np.asarray(point.x, dtype=float)[None], fd.h)[0]
        samples = _stencil(bases, fd.h)
        B, S = samples.shape[:2]
        g_all = field.matrices(point.chart_id, samples.reshape(-1, 6)).reshape(B, S, 6, 6)
        dg = _fd_derivative(g_all[:, 1:], fd.h, axis=1)
        gamma_all, _ = _christoffel(g_all[:, 0], dg, bases)
        gamma, g = gamma_all[0], g_all[0, 0]
        dgamma = _fd_derivative(gamma_all[1:], fd.h)
    # dgamma[i, l, j, k] = d_i Gamma^l_jk.  Bracket-convention curvature,
    # then a global sign for the round anchor.
    r_up = (np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
            + np.einsum("lim,mjk->lijk", gamma, gamma)
            - np.einsum("ljm,mik->lijk", gamma, gamma))
    return -np.einsum("lijk,lm->ijkm", r_up, g), g


def riemann(field: MetricField, point: ChartPoint,
            fd: FDConfig | None = None) -> np.ndarray:
    """(4,0) curvature in a g-orthonormal frame at the point, as an exact
    algebraic curvature tensor.

    The sign is fixed so that the unit round sphere yields the
    Kulkarni-Nomizu square of the metric (operator = identity).  The
    scheme of ``fd`` chooses how the metric is differentiated: 'exact',
    the default, uses its closed-form 2-jets, 'richardson_4th' finite
    differences of step h.
    Raises FDQualityError when the tensor violates the algebraic
    identities beyond 100 h^2 (or is not finite), whatever the scheme;
    otherwise returns its orthogonal projection onto the curvature
    tensors, which is no farther from the true curvature (Frobenius
    norm) than the raw tensor.  An exact tensor violates the identities
    only by rounding, so its projection moves it by rounding only.
    """
    fd = fd or FDConfig()
    R, g = _coordinate_riemann(field, point, fd)
    R_onf = express_in_frame(R, orthonormal_frame(g))
    worst = np.max(list(validate_symmetries(R_onf).values()))
    if not worst <= 100.0 * fd.h ** 2:           # also rejects nan
        raise FDQualityError(
            "curvature identities violated at %.3e (> 100 h^2 = %.3e)"
            % (worst, 100.0 * fd.h ** 2))
    return project_curvature(R_onf)


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
