"""Bit-for-bit array comparison for the identity tests."""

import numpy as np


def assert_same_bits(actual, expected):
    """``actual`` equals ``expected`` in shape, dtype, value and raw bits."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    # array_equal treats -0.0 and 0.0 as equal; the raw bits must match too
    assert np.array_equal(np.ascontiguousarray(actual).view(np.uint8), np.ascontiguousarray(expected).view(np.uint8))
