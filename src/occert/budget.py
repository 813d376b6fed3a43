"""The perturbation budget around the round metric and a sampled estimate
of a metric's deviation, from exact curvature; library only, the command
line never loads it."""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .certify import P_THRESHOLD
from .curvature import express_in_frame
from .errors import InputError
from .rng import make_rng
from .sphere import (ChartPoint, CheckedRecord, FDConfig, MetricField, _coordinate_riemann,
                     orthonormal_frame)


class PerturbationBudget(CheckedRecord, namedtuple("PerturbationBudget", "eps1 eps2")):
    """Sup-norm deviations from the round metric: eps1 of the curvature,
    eps2 of the metric."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.eps1 >= 0 and self.eps2 >= 0):     # also rejects nan
            raise InputError("perturbation budget entries must be nonnegative")
        return self


BudgetCheck = namedtuple("BudgetCheck", "quadratic_ok linear_ok implied_bound")


_LINEAR_SLOPE = 2.0 + math.sqrt(13.0 / 3.0)


def perturbation_budget_check(budget: PerturbationBudget) -> BudgetCheck:
    """Budget inequalities for staying inside the certified neighborhood.

    quadratic: eps1 + 4 eps2 + 2 eps2^2 <= 1/6;  linear (which implies
    it): eps1 + (2 + sqrt(13/3)) eps2 <= 1/6.  ``implied_bound`` is
    eps1 + 2 eps2 (2 + eps2), an upper bound for the total curvature
    deviation from the constant-curvature tensor.
    """
    e1, e2 = budget.eps1, budget.eps2
    quadratic_ok = e1 + 4.0 * e2 + 2.0 * e2 * e2 <= P_THRESHOLD
    linear_ok = e1 + _LINEAR_SLOPE * e2 <= P_THRESHOLD
    implied = e1 + 2.0 * e2 * (2.0 + e2)
    return BudgetCheck(quadratic_ok=bool(quadratic_ok), linear_ok=bool(linear_ok),
                       implied_bound=float(implied))


def estimate_perturbation(field: MetricField, points: list[ChartPoint],
                          quad_samples: int = 256, seed: int = 0):
    """Sampled sup-norm deviations (metric, curvature) from the round
    metric over the given points, at least one; both curvatures are
    exact.  Estimates, not certified suprema.
    """
    if not points:
        raise InputError("need at least one point to estimate a perturbation")
    base = MetricField(family="round")
    eps1 = 0.0
    eps2 = 0.0
    rng = make_rng(seed, 13)
    per_point = max(1, quad_samples // len(points))
    for pt in points:
        g0 = base.matrix(pt)
        g1 = field.matrix(pt)
        B0 = orthonormal_frame(g0)
        h = B0.T @ (g1 - g0) @ B0
        eps2 = max(eps2, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        # Deviation sampled in the round orthonormal frame of the point.
        dev = express_in_frame(_coordinate_riemann(field, pt, FDConfig())[0]
                               - _coordinate_riemann(base, pt, FDConfig())[0], B0)
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
