"""The polynomial grammar pinned on a seeded corpus.

`golden/parse-corpus.json` holds about 1000 short ASCII strings over digits,
the names x, y, z and `_`, the operators + - * / ^, blank and tab, each with
what `parse_polynomial` makes of it over ℚ and over 𝔽₇ in the variables
x, y, z: the sorted terms, or the `ParseError` text.  Any change to the
grammar shows as a changed entry.  To regenerate the file from the parser
at hand:

    PYTHONPATH=src python tests/test_parse_corpus.py
"""

import json
import os
import random

from koszulator.fields import PrimeField, RationalField
from koszulator.polynomial import ParseError, parse_polynomial

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "parse-corpus.json")
VARS = ["x", "y", "z"]
FIELDS = {"Q": RationalField(), "F7": PrimeField(7)}
CHARS = "0123456789xyz_+-*/^ \t"


def _term(rng):
    """A random term: a coefficient n or n/d, variable powers, blanks."""
    coeff = rng.choice(["", "", "2", "13", "0", "7", "1/2", "3/7", "5/0"])
    factors = [rng.choice("xxyyzz_") + rng.choice(["", "", "^2", "^3", "^0", "^ 2"])
               for _ in range(rng.randint(0 if coeff else 1, 2))]
    joins = rng.choice(["*", "*", " * ", "", " "])
    return joins.join(([coeff] if coeff else []) + factors)


def corpus_strings(seed=0, count=1000, max_len=14):
    """count distinct strings of length <= max_len: half are sums of random
    terms with at most one character inserted, dropped or replaced, half
    are random characters."""
    rng = random.Random(seed)
    seen = {}
    while len(seen) < count:
        if rng.random() < 0.5:
            text = _term(rng)
            while rng.random() < 0.5:
                text += rng.choice(["+", "-", " + ", " - ", "\t-"]) + _term(rng)
            if rng.random() < 0.4:
                at = rng.randint(0, len(text))
                edit = rng.choice(["", rng.choice(CHARS)])
                text = text[:at] + edit + text[at + rng.randint(0, 1):]
        else:
            text = "".join(rng.choice(CHARS) for _ in range(rng.randint(0, max_len)))
        if len(text) <= max_len:
            seen.setdefault(text)
    return list(seen)


def outcome(text, field):
    """The sorted [exponents, coefficient] terms of text, or its ParseError."""
    try:
        p = parse_polynomial(text, VARS, field)
    except ParseError as exc:
        return str(exc)
    return sorted([list(m), str(c)] for m, c in p.terms.items())


def test_corpus_reads_as_pinned():
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    assert len(corpus) >= 1000
    wrong = [(entry["text"], name, outcome(entry["text"], field), entry[name])
             for entry in corpus for name, field in FIELDS.items()
             if outcome(entry["text"], field) != entry[name]]
    assert not wrong, wrong[:5]


if __name__ == "__main__":
    entries = [json.dumps({"text": t, **{name: outcome(t, f) for name, f in FIELDS.items()}},
                          ensure_ascii=False)
               for t in corpus_strings()]
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(entries) + "\n]\n")
