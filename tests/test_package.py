"""The package namespace: every exported name resolves."""

from __future__ import annotations

import occert


def test_every_export_resolves():
    missing = [name for name in occert.__all__ if not hasattr(occert, name)]
    assert not missing
