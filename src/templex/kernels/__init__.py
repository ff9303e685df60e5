"""Scoring kernels: compiled extension when available, pure Python otherwise.

The backend is chosen at import time; set ``TEMPLEX_KERNEL=python`` (or
``native``) to force one, e.g. for the backend-comparison benchmark.
"""

from __future__ import annotations

import os
from typing import Sequence

from .pykernel import PyScorer
from .tables import MalformedTables, ScorerTables, build_tables, read_tables, write_tables

try:
    from ._native import NativeScorer
except ImportError:  # extension not built; fall back
    NativeScorer = None

_KERNELS = {"python": PyScorer}
if NativeScorer is not None:
    _KERNELS["native"] = NativeScorer

DEFAULT_BACKEND = os.environ.get("TEMPLEX_KERNEL") or (
    "native" if NativeScorer is not None else "python"
)


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_KERNELS))


class ModelScorer:
    """String-level query interface bound to one model and one kernel.

    Each model holds one, on the default backend, as ``model.scorer``;
    ``make_scorer(model, backend)`` builds another on an explicit backend.
    Either takes the model's ``ScorerTables`` in place of the model, as
    ``read_tables`` loads them.
    """

    def __init__(self, model, backend: str | None = None):
        name = backend or DEFAULT_BACKEND
        if name not in _KERNELS:
            raise ValueError(
                "unknown kernel backend %r (available: %s)" % (name, ", ".join(available_backends()))
            )
        self.tables = model if isinstance(model, ScorerTables) else build_tables(model)
        self.kernel = _KERNELS[name](self.tables)
        self.backend = name

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return self.tables.encode_all(tokens)

    def logprob(self, context: Sequence[str], token: str) -> float:
        """log10 P(token | context); context is truncated to order - 1 tokens."""
        return self.kernel.logprob_ids(self.tables.encode_all(context), self.tables.encode(token))

    def ends(self, tokens: Sequence[str]) -> tuple[int, int]:
        """(id of the first token, state after the last order - 1 tokens).

        A junction of two token sequences is then one ``kernel.score`` of
        the left tail state and the right head id, equal to ``logprob`` of
        the left side's last order - 1 tokens and the right side's first.
        """
        n = self.tables.order - 1
        tail = self.tables.encode_all(tokens[-n:]) if n else ()
        return self.tables.encode(tokens[0]), self.kernel.walk(0, tail)

    def sequence_logprob(self, tokens: Sequence[str], with_boundaries: bool = False) -> float:
        """Sum of per-token log10 probabilities, context growing left to right.

        With boundaries the sequence is padded with start symbols and the
        transition into the end symbol is scored as well.
        """
        if not tokens:
            raise ValueError("cannot score an empty sequence")
        return self.kernel.sequence_logprob_ids(self.tables.encode_all(tokens), with_boundaries)


def make_scorer(model, backend: str | None = None) -> ModelScorer:
    return ModelScorer(model, backend)
