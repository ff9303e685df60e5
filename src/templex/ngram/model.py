"""N-gram model in backoff form, log10 everywhere.

Stored probabilities are full interpolated values; unseen n-grams are scored
by the standard longest-match walk (sum the backoff weights of the contexts
that miss, then take the longest stored suffix).  Out-of-vocabulary tokens
score as ``<unk>`` when the model has one, else at the -99 floor; no query
ever returns -inf.  Queries go through :attr:`NGramModel.scorer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .. import kernels
from .counts import LOG_FLOOR, NGram


@dataclass
class NGramModel:
    order: int
    vocab: frozenset[str]  # real tokens incl. <s> and </s>; <unk> is not a member
    logprobs: dict[NGram, float]
    backoffs: dict[NGram, float]
    unk_log10: float = LOG_FLOOR

    @cached_property
    def scorer(self) -> kernels.ModelScorer:
        """The query object on the default kernel backend, built on first use."""
        return kernels.make_scorer(self)
