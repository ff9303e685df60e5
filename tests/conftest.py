import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from templex.corpus import (  # noqa: E402
    AnnotatedToken,
    extract_templates,
    parse_conll_file,
    token_counts,
)
from templex.factoring import FactorPolicy, factor_inventory, factored_token_stream  # noqa: E402
from templex.ngram import train  # noqa: E402

from oracles import NaiveKN  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def mini_sentences():
    return parse_conll_file(DATA / "mini.conll")


@pytest.fixture(scope="session")
def desk_sentences():
    return parse_conll_file(DATA / "desk.conll")


@pytest.fixture(scope="session")
def desk_inventory(desk_sentences):
    return extract_templates(desk_sentences)


@pytest.fixture(scope="session")
def desk_counts(desk_sentences):
    return token_counts(desk_sentences)


@pytest.fixture(scope="session")
def desk_kept(desk_counts):
    return FactorPolicy("absolute", 2).kept(desk_counts)


@pytest.fixture(scope="session")
def desk_factored_inventory(desk_inventory, desk_kept):
    return factor_inventory(desk_inventory, desk_kept)


@pytest.fixture(scope="session")
def desk_token_seqs(desk_sentences, desk_kept):
    return factored_token_stream(desk_sentences, desk_kept)


@pytest.fixture(scope="session")
def desk_sig_seqs(desk_inventory):
    return desk_inventory.signature_sequences()


@pytest.fixture(scope="session")
def token_lm3(desk_token_seqs):
    return train(desk_token_seqs, 3)


@pytest.fixture(scope="session")
def sig_lm5(desk_sig_seqs):
    return train(desk_sig_seqs, 5)


@pytest.fixture(scope="session")
def token_oracle(desk_token_seqs):
    return NaiveKN(desk_token_seqs, 3)


@pytest.fixture(scope="session")
def sig_oracle(desk_sig_seqs):
    return NaiveKN(desk_sig_seqs, 5)


def synthetic_sentences(n, seed):
    """Seeded chunk-annotated corpus with an exponential word profile; big
    enough settings yield inventories in the tens of thousands of templates."""
    rng = random.Random(seed)
    tags = ("NP", "VP", "PP", "ADVP", "ADJP", "SBAR", "PRT")
    vocab = ["w%03d" % i for i in range(600)]
    pos_for = {w: ("NN", "VB", "JJ", "IN", "RB", "DT")[i % 6] for i, w in enumerate(vocab)}
    sents = []
    for _ in range(n):
        toks = []
        for _ in range(rng.randint(2, 5)):
            tag = rng.choice(tags)
            for i in range(rng.randint(1, 3)):
                w = vocab[min(int(rng.expovariate(1 / 80.0)), len(vocab) - 1)]
                toks.append(AnnotatedToken(w, pos_for[w], ("B-" if i == 0 else "I-") + tag))
        if rng.random() < 0.5:
            toks.append(AnnotatedToken(".", ".", "O"))
        sents.append(tuple(toks))
    return sents


@pytest.fixture(scope="session")
def sweep_setup():
    """(inventory, token_lm, sig_lm) at full desk scale: ~11k unique
    templates from 4200 synthetic sentences, order-3 surface model, order-5
    signature model, scorers pre-built."""
    sents = synthetic_sentences(4200, 424242)
    inventory = extract_templates(sents)
    token_lm = train([[t.surface for t in s] for s in sents], 3)
    sig_lm = train(inventory.signature_sequences(), 5)
    token_lm.scorer
    sig_lm.scorer
    return inventory, token_lm, sig_lm
