"""Helpers shared by several test modules."""

import dataclasses
import os
import struct
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def float_bits(values):
    """The 8 bytes of each float: equal lists mean bit-identical floats, so
    unlike ``==`` they tell -0.0 from 0.0."""
    return [struct.pack("<d", v) for v in values]


def copy_model(model):
    """A copy of ``model`` with maps of its own, for a consumer such as
    ``write_arpa`` that takes the model's maps; no cached scorer."""
    return dataclasses.replace(model, logprobs=dict(model.logprobs), backoffs=dict(model.backoffs))


def child_env(src=CHECKOUT / "src", **variables):
    """The environment, plus ``variables``, for a child Python that imports
    templex from ``src`` (this checkout's by default) ahead of any other
    directory on ``PYTHONPATH``."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env
