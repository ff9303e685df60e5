"""templex: evolve gapped sentences from chunk templates.

The package mines templates from chunk-annotated text, factors rare tokens
into part-of-speech gaps, trains Kneser-Ney n-gram models over the factored
token stream and over chunk-tag signatures, and runs a genetic search whose
crossover is gated by the token model and whose fitness comes from the
signature model.  Scoring runs on one pure-Python kernel, over the scorer
tables that train compiles from each model; no compiled extension is built.
"""

from .corpus import (
    AnnotatedSentence,
    AnnotatedToken,
    IllegalBIO,
    MalformedLine,
    Template,
    TemplateInventory,
    extract_templates,
    inventory_lines,
    parse_conll,
    parse_conll_file,
    parse_inventory_lines,
    token_counts,
)
from .factoring import FactorPolicy, factor_inventory, factored_token_stream
from .ga import (
    Chromosome,
    GAConfig,
    GAState,
    GenStats,
    crossover,
    fitness,
    init_population,
    junction_probability,
    mutate,
    run,
)
from .kernels import ModelScorer, available_backends, make_scorer
from .ngram import (
    BOS,
    EOS,
    UNK,
    MalformedArpa,
    NGramCounts,
    NGramModel,
    count_ngrams,
    read_arpa,
    read_arpa_file,
    train,
    train_kn,
    write_arpa,
    write_arpa_file,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedSentence",
    "AnnotatedToken",
    "BOS",
    "Chromosome",
    "EOS",
    "FactorPolicy",
    "GAConfig",
    "GAState",
    "GenStats",
    "IllegalBIO",
    "MalformedArpa",
    "MalformedLine",
    "ModelScorer",
    "NGramCounts",
    "NGramModel",
    "Template",
    "TemplateInventory",
    "UNK",
    "available_backends",
    "count_ngrams",
    "crossover",
    "extract_templates",
    "factor_inventory",
    "factored_token_stream",
    "fitness",
    "init_population",
    "inventory_lines",
    "junction_probability",
    "make_scorer",
    "mutate",
    "parse_conll",
    "parse_conll_file",
    "parse_inventory_lines",
    "read_arpa",
    "read_arpa_file",
    "run",
    "token_counts",
    "train",
    "train_kn",
    "write_arpa",
    "write_arpa_file",
]
