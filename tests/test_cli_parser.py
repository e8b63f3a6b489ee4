"""The CLI's expression parser against the reference parser it replaced.

``parser_reference`` lexes ``t[1,2]`` as six tokens and reads the index
list in the parser; ``superfn.cli`` lexes a whole generator as one token.
On seeded texts, valid and malformed, ``parse_expr`` must return the
reference's AST whenever the reference accepts, and raise ``CliError``
exactly when the reference raises.
"""

import random

import pytest

from parser_reference import reference_parse
from superfn import ugl
from superfn.cli import CliError, parse_expr
from superfn.grading import Dims
from superfn.spherical import LeviProfile
from test_cli import rand_enveloping, rand_function, rand_text

DIMS = [Dims(1, 1), Dims(2, 1), Dims(1, 2), Dims(2, 2)]


@pytest.fixture(autouse=True)
def long_words(monkeypatch):
    """rand_text builds the value of each text, long E words included."""
    monkeypatch.setenv("SUPERFN_DEGREE_CAP", "40")
    ugl.reread_degree_cap()


def outcome(parse, text):
    try:
        return parse(text)
    except CliError:
        return CliError


def spread(text: str, rng) -> str:
    """Insert random whitespace wherever it does not split a name or a
    number: inside brackets, around separators, between a name and '['.
    One ',' in three between indices becomes ';'."""
    out = [text[0]] if text else []
    depth = 0
    for prev, ch in zip(text, text[1:]):
        depth += (prev == "[") - (prev == "]")
        if not (prev.isalnum() and ch.isalnum()) and rng.random() < 0.3:
            out.append(rng.choice((" ", "  ", "\t", "\n")))
        out.append(";" if ch == "," and depth and rng.random() < 0.3 else ch)
    return "".join(out)


def extra_atom(dims: Dims, rng) -> str:
    """A C, CP, theta or z atom, in range or not."""
    blocks = len(LeviProfile.projective(dims).refined())
    a, b = rng.randint(1, dims.size), rng.randint(1, dims.size)
    i, j = rng.randint(1, blocks), rng.randint(1, blocks)
    return rng.choice((f"C[{i};{a},{b}]", f"C[{i},{a},{b}]", f"CP[{i},{j}]",
                       f"theta[{rng.randint(0, 3)}]", f"z[{a}]",
                       f"zb[{a}]", "r", "i"))


def valid_texts(dims: Dims, rng, count: int) -> list:
    """The round-trip generators' texts, some with extra atoms joined on,
    each spread with whitespace and ';' separators."""
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            text = rand_function(dims, rng).pretty()
        elif kind == 1:
            text = rand_enveloping(dims, rng).pretty()
        else:
            side = "u" if kind == 3 else "cg"
            text = rand_text(dims, side, rng, rng.randint(1, 3))[0]
            if side == "cg":
                text = f"{text}{rng.choice(('+', '-', '*'))}" \
                       f"{extra_atom(dims, rng)}"
        out.append(spread(text, rng))
    return out


def malformed(text: str, rng) -> str:
    """Drop one of '[', ']', ',', a digit or a letter, or insert one."""
    if rng.random() < 0.5:
        spots = [k for k, ch in enumerate(text) if ch in "[],;"
                 or ch.isalnum()]
        if spots:
            k = rng.choice(spots)
            return text[:k] + text[k + 1:]
    k = rng.randint(0, len(text))
    ch = rng.choice(("[", "]", ",", str(rng.randint(0, 9)),
                     rng.choice("tbEzrCPi")))
    return text[:k] + ch + text[k:]


@pytest.mark.parametrize("dims", DIMS, ids=["11", "21", "12", "22"])
def test_valid_texts_parse_as_the_reference_does(dims):
    rng = random.Random(300 + dims.m * 10 + dims.n)
    texts = valid_texts(dims, rng, 200)
    for text in texts:
        want = outcome(reference_parse, text)
        assert want is not CliError, text
        assert parse_expr(text) == want, text
    assert sum(";" in t for t in texts) >= 50
    assert sum(" [" in t or "\t[" in t or "\n[" in t for t in texts) >= 50


@pytest.mark.parametrize("dims", DIMS, ids=["11", "21", "12", "22"])
def test_malformed_texts_fail_as_the_reference_does(dims):
    rng = random.Random(400 + dims.m * 10 + dims.n)
    refused = accepted = 0
    for text in valid_texts(dims, rng, 150):
        for _ in range(4):
            bad = malformed(text, rng)
            want = outcome(reference_parse, bad)
            assert outcome(parse_expr, bad) == want, bad
            if want is CliError:
                refused += 1
            else:
                accepted += 1
    assert refused >= 500 and accepted >= 25, (refused, accepted)
