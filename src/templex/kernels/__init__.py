"""Scoring kernels over the packed tables of ``tables.py``.

The pure-Python kernel, ``pykernel.PyScorer``, is always there.  A compiled
kernel is a module ``templex.kernels._native`` whose ``NativeScorer`` has the
same methods and returns bit-identical results; none is built yet.  The
default backend is the one that is built: ``native`` when that module
imports, ``python`` when it is absent.  A ``_native`` module that is present
but fails to import, or has no ``NativeScorer``, raises here, so a broken
build is an error, not a silent fall back to Python.
``make_scorer(model, backend)`` picks a backend by name.  The kernels read
the tables' ``parent`` and ``backoff``, the log probability columns
``prob_keys``, ``prob_index`` and ``logprobs`` and the transition columns
``trans_keys`` and ``trans_next`` (loaded from the file with the vocabulary,
each column but ``backoff`` as the array the file holds), and their
``eos_id`` and ``bos_state``, which are worked out at load.  The Python
kernel reads a context's run of each keyed column once, the first time a
query reaches the context, and keeps it as a map by token id; a compiled
kernel reads the same columns as it sees fit.
"""

from __future__ import annotations

from typing import Sequence

from .pykernel import PyScorer
from .tables import MalformedTables, ScorerTables, build_tables, read_tables, write_tables

_KERNELS = {"python": PyScorer}
try:
    from ._native import NativeScorer
except ModuleNotFoundError as exc:
    if exc.name != __name__ + "._native":  # _native is there but imports a missing module
        raise
    NativeScorer = None
else:
    _KERNELS["native"] = NativeScorer

DEFAULT_BACKEND = "native" if NativeScorer is not None else "python"


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
