"""N-gram language model substrate: counting, smoothing, querying, ARPA IO."""

from .arpa import MalformedArpa, read_arpa, read_arpa_file, write_arpa, write_arpa_file
from .counts import BOS, EOS, UNK, EmptyCorpus, NGramCounts, count_ngrams
from .model import NGramModel
from .smoothing import Discounts, estimate_discounts, train, train_kn

__all__ = [
    "BOS",
    "EOS",
    "UNK",
    "Discounts",
    "EmptyCorpus",
    "MalformedArpa",
    "NGramCounts",
    "NGramModel",
    "count_ngrams",
    "estimate_discounts",
    "read_arpa",
    "read_arpa_file",
    "train",
    "train_kn",
    "write_arpa",
    "write_arpa_file",
]
