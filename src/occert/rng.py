"""Deterministic random streams.

All randomness in the library flows through counter-based Philox
generators keyed by an integer seed plus a stream path, so independent
work items (multistart searches, sampled points) get reproducible,
order-independent streams regardless of scheduling.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InputError


def check_nonnegative_integer(name: str, value) -> None:
    """InputError unless value is an integer >= 0; a bool is no integer,
    as in the schemas."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError("%s must be an integer" % name)
    if value < 0:
        raise InputError("%s must be nonnegative" % name)


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for ``(seed, stream...)``; same arguments, same stream.
    The seed must be a nonnegative integer (InputError otherwise)."""
    check_nonnegative_integer("seed", seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def haar_orthogonal(rng: np.random.Generator, dim: int = 6) -> np.ndarray:
    """Haar-uniform draw from O(dim) via sign-fixed QR of a Gaussian."""
    a = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d
