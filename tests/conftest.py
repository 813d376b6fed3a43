"""Shared fixtures and small construction helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from occert import curvature as cv
from occert import hermitian as hm
from occert.sphere import MetricField


@pytest.fixture(scope="session")
def G():
    """Curvature tensor of the unit round anchor (Kulkarni-Nomizu square)."""
    return cv.kulkarni_nomizu_square()


@pytest.fixture(scope="session")
def J0():
    return hm.standard_complex_structure()


@pytest.fixture(scope="session")
def omega0(J0):
    return hm.fundamental_two_form(J0)


def random_skew(rng, dim=6):
    a = rng.normal(size=(dim, dim))
    return a - a.T


def chart_coords(rng, scale=0.4, cap=1.2):
    """Random chart coordinates kept inside the chart radius."""
    x = rng.normal(size=6) * scale
    r = np.linalg.norm(x)
    return x if r <= cap else x * (cap / r)


def random_one_one_form(rng, J):
    """Random 2-form of type (1,1) for the given J."""
    zeta = random_skew(rng)
    return 0.5 * (zeta + J.T @ zeta @ J)


def random_form_above_omega(rng, J, omega):
    """Random (1,1)-form zeta0 with zeta0 - omega nonnegative."""
    mu = random_one_one_form(rng, J)
    b = mu @ J
    lift = max(0.0, -float(np.linalg.eigvalsh(0.5 * (b + b.T))[0]))
    return omega + mu + lift * omega


def saddle_metric() -> MetricField:
    """Chart metric (1 + |x|^2) Id: a debug family with Ric* < 0 regions."""
    terms = []
    for i in range(6):
        poly = [[1.0, [0] * 6]]
        for k in range(6):
            powers = [0] * 6
            powers[k] = 2
            poly.append([1.0, powers])
        terms.append([i, i, poly])
    return MetricField("custom", {"terms": terms})
