"""Concrete metrics on the 6-sphere in stereographic charts.

Riemann curvature from the metric's 2-jets, in closed form or, under the
'richardson_4th' scheme, by fourth-order finite differences (the
package's only ones), through the Christoffel symbols of both kinds and
the classical first-kind formula, and point sampling.  All curvature leaving this
module is re-expressed in a g-orthonormal frame and projected onto the
algebraic curvature tensors, so the algebra layers always see g = Id and
exact curvature identities.

Charts: inverse stereographic projection from the north pole, and the
south chart, which is the north chart followed by the rotation
T = diag(1, 1, 1, 1, 1, -1, -1) of R^7 (by pi in the plane of the last two
ambient axes; it takes the north pole to the south pole).  So every chart
map is written once, for the north chart at the given x, and the south
chart scales its ambient index by ``_SOUTH``, the diagonal of T.  T has
determinant +1, so it preserves the orientation of the sphere, and both
charts induce the same orientation.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Mapping

import numpy as np

from .curvature import express_in_frame, identity_violations, project_curvature
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


# The south chart map is the north one times _SOUTH on the ambient index.
_SOUTH = np.array([1, 1, 1, 1, 1, -1, -1.0])
_EYE = np.eye(6)


def _squared_norms(xs: np.ndarray) -> np.ndarray:
    """x @ x for each row.  A stacked matmul, so that a row's value does
    not depend on the other rows."""
    return (xs[:, None, :] @ xs[:, :, None])[:, 0, 0]


def _ambient_stack(chart_id: str, xs: np.ndarray) -> np.ndarray:
    """Unit 7-vectors of the rows of xs, shape (M, 7)."""
    xx = _squared_norms(xs)
    s = 1.0 + xx
    p = np.empty((len(xs), 7))
    p[:, :6] = 2.0 * xs / s[:, None]
    p[:, 6] = (xx - 1.0) / s
    if chart_id == "south":
        p *= _SOUTH
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
    chart_id = "north" if p[6] <= 0 else "south"
    if chart_id == "south":                 # T is its own inverse
        p = p * _SOUTH
    return ChartPoint(chart_id, p[:6] / (1.0 - p[6]))


def _jacobian_stack(chart_id: str, xs: np.ndarray) -> np.ndarray:
    """d(ambient)/d(chart) at the rows of xs, shape (M, 7, 6)."""
    s = 1.0 + _squared_norms(xs)
    Dp = np.zeros((len(xs), 7, 6))
    Dp[:, :6, :] = (2.0 * np.eye(6) / s[:, None, None]
                    - 4.0 * (xs[:, :, None] * xs[:, None, :]) / s[:, None, None] ** 2)
    Dp[:, 6, :] = 4.0 * xs / s[:, None] ** 2
    if chart_id == "south":                 # in place: only the two rows T turns
        Dp[:, 5:] *= -1.0
    return Dp


def _stereographic_jets(chart_id: str, xs: np.ndarray):
    """Derivatives of the chart map at the rows of xs: Dp[m, a, i],
    D2p[m, a, i, j] and D3p[m, a, i, j, k], with a the ambient index.

    In the north chart p = (2 x q, 1 - 2 q) with q = 1/(1 + |x|^2); the
    south chart's map is _SOUTH times the north one, so its derivatives
    are the north ones at x with ambient rows 5 and 6 negated.
    """
    Dp = _jacobian_stack(chart_id, xs)
    q = (1.0 / (1.0 + _squared_norms(xs)))[:, None, None, None]
    eye = _EYE
    x, xj, xk = xs[:, :, None, None], xs[:, None, :, None], xs[:, None, None, :]
    # the derivatives of q, q1[m, 0, 0, i], q2[m, 0, i, j] and q3[m, i, j, k]
    # (float_power is libm's pow on each entry, as for a Python float; an
    # array's ** may take a vectorized pow that differs in the last bit)
    q1 = -2.0 * q * q * xk
    q2 = 8.0 * np.float_power(q, 3) * (xj * xk) - 2.0 * q * q * eye
    ex = eye[:, :, None] * xk                       # delta_ij x_k
    q3 = (8.0 * np.float_power(q, 3) * (ex + ex.swapaxes(-1, -2) + np.moveaxis(ex, -1, -3))
          - 48.0 * np.float_power(q, 4) * (x * xj * xk))
    # derivatives of p_a = 2 x_a q by the product rule, and of 1 - 2 q
    D2p = np.empty((len(xs), 7, 6, 6))
    D2p[:, :6] = 2.0 * (x * q2 + eye[:, :, None] * q1 + eye[:, None, :] * q1.swapaxes(-1, -2))
    D2p[:, 6] = -2.0 * q2[:, 0]
    D3p = np.empty((len(xs), 7, 6, 6, 6))
    D3p[:, :6] = 2.0 * (x[..., None] * q3[:, None]
                        + eye[:, :, None, None] * q2[..., None, :, :]
                        + eye[:, None, :, None] * q2[..., None, :]
                        + eye[:, None, None, :] * q2[..., None])
    D3p[:, 6] = -2.0 * q3
    if chart_id == "south":
        D2p[:, 5:] *= -1.0
        D3p[:, 5:] *= -1.0
    return Dp, D2p, D3p


class FDConfig(CheckedRecord,
               namedtuple("FDConfig", "h scheme", defaults=(1e-3, "exact"))):
    """How :func:`riemann` differentiates the metric: the scheme and the step h.

    'exact', the default here and in the CLI, takes the closed-form
    2-jets of :meth:`MetricField.jets`; h then only sets the 100 h^2
    identity gate of :func:`riemann`.  'richardson_4th' (the CLI's
    --richardson) takes the 2-jet from fourth-order differences of step h
    in [1e-4, 1e-1] (:func:`_fd_jets`): below 1e-4 rounding escapes the gate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        try:
            in_range = 1e-4 <= self.h <= 1e-1
        except TypeError:                           # h is not a number
            in_range = False
        if not in_range:
            raise InputError("finite-difference step h must lie in [1e-4, 1e-1]")
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


_SPEC_ECHO = 200                    # longest spec error message given whole


def check_spec(doc) -> None:
    """Check a metric spec document against the packaged schema and for
    NaN, inf and integers beyond the float range (which only Python
    callers can pass); ConfigError names the field.  A message that
    echoes a long value is cut in the middle, with a marker that counts
    the characters cut, so the error text stays short."""
    try:
        validate(doc, load_schema("metric_spec.schema.json"))
    except SchemaError as exc:
        path, message = exc.absolute_path, exc.message
    else:
        path, message = next(_non_finite(doc, ()), (None, None))
    if path is None:
        return
    if len(message) > _SPEC_ECHO:
        keep = _SPEC_ECHO // 2
        message = "%s...[%d characters cut]...%s" % (
            message[:keep], len(message) - 2 * keep, message[-keep:])
    # a document-level error is put at 'family'
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


# The params that each family reads, and the key that each type of 'f' reads.
_FAMILY_PARAMS = {"round": (), "conformal": ("f",), "ellipsoid": ("axes",),
                  "custom": ("terms",)}
_F_PARAM = {"constant": "value", "ambient_linear": "coeffs"}


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
        # what the schema cannot say: the params each family reads and needs
        for key in self.params:
            if key not in _FAMILY_PARAMS[self.family]:
                raise ConfigError("invalid metric spec at '%s': the %s family takes no '%s'"
                                  % (key, self.family, key))
        f = self.params.get("f", {})
        for key in f:
            if key not in ("type", _F_PARAM[f["type"]]):
                raise ConfigError("invalid metric spec at 'f/%s': 'f' of type '%s' takes "
                                  "no '%s'" % (key, f["type"], key))
        if self.family == "custom" and "terms" not in self.params:
            raise ConfigError("custom metric needs a 'terms' table of "
                              "[i, j, [[coeff, 6 powers], ...]] entries, i and j in 0..5")
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

    def jets(self, chart_id: str, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The metric and its first two derivatives at the rows of xs (chart
        coordinates, shape (M, 6)), in closed form: g[m, a, c],
        dg[m, i, a, c] = d_i g_ac and ddg[m, i, j, a, c] = d_i d_j g_ac.

        g is :meth:`matrices` of the rows, with its checks and messages;
        a non-finite derivative raises MetricError at the first such row.
        """
        g = self.matrices(chart_id, xs)
        xs = np.asarray(xs, dtype=float)
        if self.family in ("round", "conformal"):
            dg, ddg = self._conformal_derivatives(chart_id, xs, g[:, 0, 0])
        elif self.family == "ellipsoid":
            axes = np.asarray(self.params.get("axes", np.ones(7)), dtype=float)
            # the ambient index m last, where the sums over it run
            Dy, D2y, D3y = (np.moveaxis(axes.reshape((7,) + (1,) * (D.ndim - 2)) * D, 1, -1)
                            for D in _stereographic_jets(chart_id, xs))
            # g_ac = Dy_am Dy_cm, differentiated by the product rule
            dg = (D2y[:, :, :, None] * Dy[:, None, None]).sum(axis=-1)
            ddg = ((D3y[:, :, :, :, None] * Dy[:, None, None, None]).sum(axis=-1)
                   + (D2y[:, :, None, :, None] * D2y[:, None, :, None]).sum(axis=-1))
            dg = self.scale * (dg + dg.swapaxes(-1, -2))
            ddg = self.scale * (ddg + ddg.swapaxes(-1, -2))
        else:
            dg, ddg = self._custom_derivatives(xs)
        finite = np.isfinite(dg).all(axis=(1, 2, 3)) & np.isfinite(ddg).all(axis=(1, 2, 3, 4))
        if not finite.all():
            raise MetricError("metric evaluator returned non-finite derivatives "
                              "at %s" % xs[np.argmin(finite)])
        return g, dg, ddg

    def _conformal_derivatives(self, chart_id: str, xs: np.ndarray, w: np.ndarray):
        """dg and ddg of g = w Id through u = log w: dw = w du and
        ddw = w (ddu + du du).

        w = scale 4 exp(2 f) q^2 with q = 1/(1 + |x|^2) and f = c . p
        (c = 0 unless f is ambient-linear).  In the north chart
        f = 2 q beta + c_6 with beta = c[:6] . x - c_6, so
        u = 4 q beta + 2 log q + const.  In the south chart
        f = c . (_SOUTH p_north) = (_SOUTH c) . p_north, so the north
        formula holds at x with c turned.
        """
        f = self.params.get("f", {"type": "constant"})
        if self.family == "conformal" and f["type"] == "ambient_linear":
            c = np.asarray(f["coeffs"], dtype=float)
        else:
            c = np.zeros(7)
        if chart_id == "south":
            c = c * _SOUTH
        q = 1.0 / (1.0 + _squared_norms(xs))
        beta = (xs[:, None, :] @ c[:6, None])[:, 0, 0] - c[6]
        k = 4.0 * q + 8.0 * q * q * beta
        du = 4.0 * q[:, None] * c[:6] - k[:, None] * xs
        cx = c[:6, None] * xs[:, None, :]
        ddu = (((8.0 * q * q + 32.0 * np.float_power(q, 3) * beta)[:, None, None]
                * (xs[:, :, None] * xs[:, None, :]))
               - (8.0 * q * q)[:, None, None] * (cx + cx.swapaxes(1, 2))
               - k[:, None, None] * _EYE)
        ddw = w[:, None, None] * (ddu + du[:, :, None] * du[:, None, :])
        return (w[:, None] * du)[:, :, None, None] * _EYE, ddw[..., None, None] * _EYE

    def _custom_derivatives(self, xs: np.ndarray):
        """dg and ddg of the polynomial tables, one monomial at a time:
        d_l of prod_k x_k^p_k replaces the factor k = l by its derivative
        p x^(p-1), taken as 0 at p = 0 (never 0 * inf at x = 0)."""
        eye = np.eye(6, dtype=bool)
        both = eye[:, None, :] & eye[None, :, :]        # [l, m, k]: k = l = m
        either = eye[:, None, :] | eye[None, :, :]
        dg = np.zeros((len(xs), 6, 6, 6))
        ddg = np.zeros((len(xs), 6, 6, 6, 6))
        for i, j, terms in self.params["terms"]:
            d1 = np.zeros((len(xs), 6))
            d2 = np.zeros((len(xs), 6, 6))
            for coeff, powers in terms:
                p = np.asarray(powers, dtype=float)
                v = (xs ** p)[:, None, :]
                v1 = (p * xs ** np.maximum(p - 1.0, 0.0))[:, None, :]
                v2 = (p * (p - 1.0) * xs ** np.maximum(p - 2.0, 0.0))[:, None, None, :]
                d1 += coeff * np.where(eye, v1, v).prod(axis=-1)
                d2 += coeff * np.where(both, v2,
                                       np.where(either, v1[:, None], v[:, None])).prod(axis=-1)
            for a, c in {(int(i), int(j)), (int(j), int(i))}:
                dg[:, :, a, c] += d1
                ddg[:, :, :, a, c] += d2
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


def _fd_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order partial derivatives from stencil samples (the stencil
    of :func:`_stencil` without its base, along the first axis); the
    direction index replaces the stencil index."""
    s = samples.reshape((6, -1) + samples.shape[1:])     # direction, offset, ...
    return (8.0 * (s[:, 0] - s[:, 1]) - (s[:, 2] - s[:, 3])) / (12.0 * h)


def _fd_jets(field: MetricField, chart_id: str, xs: np.ndarray, h: float):
    """g, dg[m, i, a, c] = d_i g_ac and ddg[m, n, i, a, c] = d_n d_i g_ac at the
    rows of xs by fourth-order differences of step h: dg at each row and its
    stencil from one metric evaluation, then ddg by differencing those."""
    bases = _stencil(xs, h).reshape(-1, 6)                  # each row first
    g = field.matrices(chart_id, _stencil(bases, h).reshape(-1, 6))
    # the stencil axis first: g[node, m, base, a, c]
    g = g.reshape(len(xs), 25, 25, 6, 6).transpose(2, 0, 1, 3, 4)
    dg = _fd_derivative(g[1:], h)                           # dg[i, m, base, a, c]
    ddg = _fd_derivative(np.moveaxis(dg[:, :, 1:], 2, 0), h)   # ddg[n, i, m, a, c]
    return g[0, :, 0], dg[:, :, 0].swapaxes(0, 1), np.moveaxis(ddg, 2, 0)


def _christoffel_sum(dg: np.ndarray) -> np.ndarray:
    """d_i g_jl + d_j g_il - d_l g_ij at [..., i, j, l], from
    dg[..., i, a, c] = d_i g_ac."""
    return dg + dg.swapaxes(-3, -2) - dg.swapaxes(-3, -2).swapaxes(-2, -1)


def _christoffel(g: np.ndarray, dg: np.ndarray, xs: np.ndarray):
    """Christoffel symbols of both kinds, gamma[m, k, i, j] = Gamma^k_ij and
    first[m, l, i, j] = Gamma_l,ij = 1/2 (d_i g_jl + d_j g_il - d_l g_ij), from
    g[m] and dg[m, i, a, c] = d_i g_ac at the chart rows xs[m].  ConditioningError
    when the condition number of a g[m] (SPD, checked by :meth:`MetricField.matrices`)
    is above 1e8, tested without forming it, which could overflow; MetricError
    when a g[m]^-1 is not finite, which numpy.linalg computes without a signal."""
    lam = np.linalg.eigvalsh(g)
    ill = lam[:, 0] < 1e-8 * lam[:, -1]
    if ill.any():
        k = np.argmax(ill)
        raise ConditioningError("metric condition number above 1e8 at %s "
                                "(eigenvalues %.3e to %.3e)" % (xs[k], lam[k, 0], lam[k, -1]))
    g_inv = np.linalg.inv(g)
    finite = np.isfinite(g_inv).all(axis=(1, 2))
    if not finite.all():
        raise MetricError("inverse metric is not finite at %s" % xs[np.argmin(finite)])
    sym = _christoffel_sum(dg).reshape(-1, 36, 6).swapaxes(1, 2)
    return ((0.5 * (g_inv @ sym)).reshape(-1, 6, 6, 6),
            (0.5 * sym).reshape(-1, 6, 6, 6))


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Columns of a g-orthonormal frame (Cholesky Gram-Schmidt), of one
    metric or of each metric of a stack (..., 6, 6)."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).swapaxes(-1, -2)


def _coordinate_riemann(field: MetricField, chart_id: str, xs: np.ndarray,
                        fd: FDConfig) -> tuple[np.ndarray, np.ndarray]:
    """(4,0) curvature in chart coordinates and the metric at the rows of
    xs, shapes (M, 6, 6, 6, 6) and (M, 6, 6), from the metric's 2-jets:
    closed form (:meth:`MetricField.jets`) under 'exact', :func:`_fd_jets`
    under 'richardson_4th', then one route for both: the Christoffel
    symbols of both kinds and the first-kind formula."""
    if fd.scheme == "exact":
        g, dg, ddg = field.jets(chart_id, xs)
    else:
        g, dg, ddg = _fd_jets(field, chart_id, xs, fd.h)
    gamma, first = _christoffel(g, dg, xs)
    # R_ijkm = T[j, m, i, k] - T[i, m, j, k] with T[i, m, j, k] =
    # 1/2 d_i S_jkm - Gamma_n,im Gamma^n_jk, S_jkm = 2 Gamma_m,jk (signed
    # so that the round sphere is positive); one (36, 6) x (6, 36) product per row
    T = (0.5 * _christoffel_sum(ddg).transpose(0, 1, 4, 2, 3).reshape(-1, 36, 36)
         - first.reshape(-1, 6, 36).swapaxes(1, 2) @ gamma.reshape(-1, 6, 36))
    T = T.reshape(-1, 6, 6, 6, 6)
    return T.transpose(0, 3, 1, 4, 2) - T.transpose(0, 1, 3, 4, 2), g


def _chart_groups(points):
    """(chart_id, indices, coordinates (M, 6)) of the points of each chart, north first."""
    for chart_id in ("north", "south"):
        rows = [k for k, pt in enumerate(points) if pt.chart_id == chart_id]
        if rows:
            yield chart_id, rows, np.array([points[k].x for k in rows], dtype=float)


def riemann_stack(field: MetricField, points, fd: FDConfig | None = None) -> np.ndarray:
    """(4,0) curvature in a g-orthonormal frame at each chart point, as
    exact algebraic curvature tensors, shape (N, 6, 6, 6, 6) in point order.

    The sign is fixed so that the unit round sphere yields the
    Kulkarni-Nomizu square of the metric (operator = identity).  The
    scheme of ``fd`` chooses how the metric is differentiated: 'exact',
    the default, uses its closed-form 2-jets, 'richardson_4th' finite
    differences of step h.
    Raises FDQualityError when a tensor violates the algebraic
    identities beyond 100 h^2 max(1, max |R|), relative so that rescaling
    the metric does not decide it, or is not finite, whatever the scheme;
    otherwise returns their orthogonal projections onto the curvature
    tensors, each no farther from the true curvature (Frobenius norm)
    than the raw tensor.  An exact tensor violates the identities only by
    rounding, so its projection moves it by rounding only.
    InputError unless fd is None (the default FDConfig) or an FDConfig.

    Each chart's points run as one stack of per-row operations, so a tensor
    does not depend on the other points; a check raises for its first failing row.
    """
    fd = FDConfig() if fd is None else fd
    if not isinstance(fd, FDConfig):
        raise InputError("fd must be an FDConfig")
    out = np.empty((len(points), 6, 6, 6, 6))
    for chart_id, rows, xs in _chart_groups(points):
        R, g = _coordinate_riemann(field, chart_id, xs, fd)
        R_onf = express_in_frame(R, orthonormal_frame(g))
        if not np.isfinite(R_onf).all():
            raise FDQualityError("curvature tensor is not finite")
        worst = identity_violations(R_onf).max(axis=-1)
        gate = 100.0 * fd.h ** 2 * np.maximum(1.0, np.abs(R_onf).max(axis=(1, 2, 3, 4)))
        passed = worst <= gate                  # also rejects a nan or inf worst
        if not passed.all():
            k = np.argmin(passed)
            raise FDQualityError(
                "curvature identities violated at %.3e (> 100 h^2 max(1, max |R|) = %.3e)"
                % (worst[k], gate[k]))
        out[rows] = project_curvature(R_onf)
    return out


def riemann(field: MetricField, point: ChartPoint,
            fd: FDConfig | None = None) -> np.ndarray:
    """:func:`riemann_stack` at one chart point: its (6, 6, 6, 6) tensor."""
    return riemann_stack(field, [point], fd)[0]


def sample_points(n: int, seed: int) -> list[ChartPoint]:
    """n ambient-uniform points, each in the chart where |x| <= 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise InputError("number of sample points must be an integer")
    if n < 1:
        raise InputError("need at least one sample point")
    rng = make_rng(seed, 7)
    pts = []
    for _ in range(n):
        p = rng.normal(size=7)
        p = p / np.linalg.norm(p)
        pts.append(ambient_to_chart(p))
    return pts
