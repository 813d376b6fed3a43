"""The perturbation budget around the round metric and an estimate of a
metric's deviation from it at given points, from exact curvature, with
the curvature part bounded by the curvature operator's spectrum; library
only, the command line never loads it."""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .certify import P_THRESHOLD
from .curvature import curvature_operator, express_in_frame
from .errors import InputError
from .sphere import (ChartPoint, CheckedRecord, FDConfig, MetricField, _chart_groups,
                     _coordinate_riemann, orthonormal_frame)


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


def estimate_perturbation(field: MetricField, points: list[ChartPoint]):
    """Sup-norm deviations (metric, curvature) from the round metric at
    the given points, at least one, from exact curvature in the round
    orthonormal frame.  eps2 is max |eigenvalue| of the metric difference;
    eps1 is max |lambda - 1| of the curvature operator, whose round value
    is Id: D(v1, v2, v3, v4) for D = R - G pairs v1 ^ v2, of norm <= 1
    for unit vectors, with D's operator on v3 ^ v4, so eps1 bounds sup |D|
    at each point up to rounding.  Between the points nothing is bounded.
    """
    if not points:
        raise InputError("need at least one point to estimate a perturbation")
    base = MetricField(family="round")
    eps1 = eps2 = 0.0
    for chart_id, _, xs in _chart_groups(points):
        R, g1 = _coordinate_riemann(field, chart_id, xs, FDConfig())
        g0 = base.matrices(chart_id, xs)
        B0 = orthonormal_frame(g0)
        h = B0.swapaxes(1, 2) @ (g1 - g0) @ B0
        eps2 = max(eps2, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        for R1 in express_in_frame(R, B0):
            eps1 = max(eps1, float(np.max(np.abs(curvature_operator(R1).spectrum - 1.0))))
    return PerturbationBudget(eps1=eps1, eps2=eps2)
