"""Helpers shared by several test modules."""

import dataclasses
import struct


def float_bits(values):
    """The 8 bytes of each float: equal lists mean bit-identical floats, so
    unlike ``==`` they tell -0.0 from 0.0."""
    return [struct.pack("<d", v) for v in values]


def copy_model(model):
    """A copy of ``model`` with maps of its own, for a consumer such as
    ``write_arpa`` that takes the model's maps; no cached scorer."""
    return dataclasses.replace(model, logprobs=dict(model.logprobs), backoffs=dict(model.backoffs))
