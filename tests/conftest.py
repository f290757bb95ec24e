"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from reference import dense_image_echelon


@pytest.fixture(scope="session")
def dense_images():
    """:func:`reference.dense_image_echelon`, kept per distinct columns for
    the whole session, so the tests that check one map against it share one
    dense elimination."""
    echelons = {}

    def echelon(columns, nrows):
        key = (nrows, tuple(tuple(sorted(c.items())) for c in columns))
        if key not in echelons:
            echelons[key] = dense_image_echelon(columns, nrows)
        return echelons[key]

    return echelon
