"""Helpers shared by several test modules."""

import struct


def float_bits(values):
    """The 8 bytes of each float: equal lists mean bit-identical floats, so
    unlike ``==`` they tell -0.0 from 0.0."""
    return [struct.pack("<d", v) for v in values]
