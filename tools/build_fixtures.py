#!/usr/bin/env python3
"""Regenerate the committed test corpus tests/data/desk.conll.

desk.conll is a seeded ~55-sentence chunk-annotated corpus (>= 50 sentences,
<= 500 tokens) in 3-column format; this script rewrites it byte for byte.

The other fixtures are not regenerated here:

* mini.conll is hand-annotated;
* token_ref.arpa is frozen third-party output: the order-3 model over
  desk.conll's surface text written by Kaldi's Kneser-Ney trainer
  ``make_kn_lm.py``, which this repository does not vendor;
* token_ref_scores.tsv is frozen with it: the log10 scores of desk.conll's
  first 50 sentences under token_ref.arpa, computed with the independent
  ARPA scorer in tests/oracles.py.

Run from the repository root:  python3 tools/build_fixtures.py
"""

from __future__ import annotations

import random
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

SEED = 7781

# Word pools as (surface, pos); repetition inside a pool weights the draw so
# the corpus gets a roughly Zipfian count profile (some words at count 20+,
# a long tail at counts 1-4), which the factoring and discount tests need.
DET = [("the", "DT")] * 5 + [("a", "DT")] * 2 + [("its", "PRP$"), ("this", "DT")]
NOUN = (
    [("company", "NN")] * 3
    + [("plan", "NN")] * 2
    + [("offer", "NN")] * 2
    + [
        ("board", "NN"),
        ("contract", "NN"),
        ("proposal", "NN"),
        ("stake", "NN"),
        ("unit", "NN"),
        ("agreement", "NN"),
        ("market", "NN"),
        ("spokesman", "NN"),
        ("quarter", "NN"),
        ("venture", "NN"),
        ("dispute", "NN"),
        ("maker", "NN"),
        ("ruling", "NN"),
        ("merger", "NN"),
    ]
)
ADJ = [("new", "JJ")] * 2 + [
    ("big", "JJ"),
    ("federal", "JJ"),
    ("tentative", "JJ"),
    ("foreign", "JJ"),
    ("sluggish", "JJ"),
    ("joint", "JJ"),
]
PROPER = [("Rockwell", "NNP"), ("Boeing", "NNP"), ("Washington", "NNP"), ("Tokyo", "NNP"), ("Congress", "NNP")]
PLURAL = [("analysts", "NNS")] * 2 + [
    ("officials", "NNS"),
    ("investors", "NNS"),
    ("shares", "NNS"),
    ("traders", "NNS"),
    ("regulators", "NNS"),
]
VPAST = (
    [("said", "VBD")] * 4
    + [("announced", "VBD")] * 2
    + [
        ("approved", "VBD"),
        ("rejected", "VBD"),
        ("bought", "VBD"),
        ("sold", "VBD"),
        ("fell", "VBD"),
        ("rose", "VBD"),
        ("declined", "VBD"),
        ("dropped", "VBD"),
    ]
)
VPRES = [("says", "VBZ")] * 2 + [("expects", "VBZ"), ("holds", "VBZ"), ("remains", "VBZ")]
PREP = [("in", "IN")] * 2 + [("of", "IN"), ("for", "IN"), ("with", "IN"), ("under", "IN"), ("at", "IN")]
ADV = [("however", "RB"), ("earlier", "RB"), ("sharply", "RB"), ("still", "RB")]
STOP = [(".", ".")]


def _np(rng, pool=NOUN, adj_p=0.35):
    toks = [rng.choice(DET)]
    if rng.random() < adj_p:
        toks.append(rng.choice(ADJ))
    toks.append(rng.choice(pool))
    return ("NP", toks)


def _sentence(rng):
    """One chunk-annotated sentence as a list of (chunk_tag, [(word, pos)])."""
    pattern = rng.randrange(6)
    if pattern == 0:
        chunks = [_np(rng), ("VP", [rng.choice(VPAST)]), _np(rng)]
    elif pattern == 1:
        chunks = [
            ("NP", [rng.choice(PROPER)]),
            ("VP", [rng.choice(VPAST)]),
            _np(rng),
            ("PP", [rng.choice(PREP)]),
            _np(rng),
        ]
    elif pattern == 2:
        chunks = [
            ("NP", [rng.choice(PLURAL)]),
            ("ADVP", [rng.choice(ADV)]),
            ("VP", [rng.choice(VPAST)]),
        ]
    elif pattern == 3:
        chunks = [_np(rng), ("VP", [rng.choice(VPRES)]), _np(rng, adj_p=0.6)]
    elif pattern == 4:
        chunks = [
            ("NP", [rng.choice(PROPER)]),
            ("VP", [rng.choice(VPAST)]),
            ("PP", [rng.choice(PREP)]),
            ("NP", [rng.choice(PROPER)]),
        ]
    else:
        chunks = [
            ("NP", [rng.choice(PLURAL)]),
            ("VP", [rng.choice(VPAST)]),
            _np(rng),
            ("PP", [rng.choice(PREP)]),
            ("NP", [rng.choice(PLURAL)]),
        ]
    chunks.append(("O", [rng.choice(STOP)]))
    return chunks


def build_corpus(n_sentences=55):
    rng = random.Random(SEED)
    sentences = []
    tokens = 0
    for _ in range(n_sentences):
        chunks = _sentence(rng)
        lines = []
        for tag, toks in chunks:
            if tag == "O":
                lines.append("%s %s O" % toks[0])
                tokens += 1
                continue
            for i, (word, pos) in enumerate(toks):
                bio = ("B-" if i == 0 else "I-") + tag
                lines.append("%s %s %s" % (word, pos, bio))
                tokens += 1
        sentences.append(lines)
    assert len(sentences) >= 50, "interop scoring needs 50 sentences"
    assert tokens <= 500, "fixture budget exceeded: %d tokens" % tokens
    return sentences, tokens


def main():
    sentences, tokens = build_corpus()
    DATA.mkdir(parents=True, exist_ok=True)
    with open(DATA / "desk.conll", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join("\n".join(sent) + "\n" for sent in sentences))
    distinct = len({line.split()[0] for sent in sentences for line in sent})
    print("desk.conll: %d sentences, %d tokens, %d distinct words" % (len(sentences), tokens, distinct))


if __name__ == "__main__":
    main()
