"""The expression tokenizer and parser that ``superfn.cli`` used before a
whole generator ``t[1,2]`` became one token: a slow reference the tests
compare the library's parser against.

Here the lexer makes six tokens of ``t[1,2]`` (name, ``[``, int, ``,``,
int, ``]``) and the parser reads the index list itself.  On any text the
library's ``parse_expr`` must return the same AST where this parser accepts
and raise ``CliError`` where it raises; the wording of the errors differs.
"""

import re

from superfn.cli import _GEN_ARGS, CliError
from superfn.scalar import Scalar, I

# finditer skips whitespace; "bad" is a character no token starts with
_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z]+)"
                       r"|(?P<punct>[\[\](),;+\-*^/])|(?P<bad>\S)")


def tokenize(text: str) -> list:
    """Break the input into (kind, value, position) triples."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise CliError(f"syntax error at position {m.start()}: "
                           f"unexpected character {m.group()!r}")
        out.append((kind, int(m.group()) if kind == "int" else m.group(),
                    m.start()))
    return out


class _Parser:
    """Recursive descent over the expression grammar; builds tuple ASTs.

    Nodes: ("num", Scalar), ("gen", name, args), ("add"|"sub"|"mul", l, r),
    ("pow", base, uint).
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise CliError(f"syntax error at position {len(self.text)}: "
                           "unexpected end of input")
        self.i += 1
        return tok

    def expect_punct(self, ch: str):
        tok = self.next()
        if tok[0] != "punct" or tok[1] != ch:
            raise CliError(f"syntax error at position {tok[2]}: "
                           f"expected {ch!r}")

    def expect_int(self) -> int:
        tok = self.next()
        if tok[0] != "int":
            raise CliError(f"syntax error at position {tok[2]}: "
                           "expected an integer")
        return tok[1]

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise CliError(f"syntax error at position {tok[2]}: "
                           "trailing input")
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "punct" and tok[1] in "+-":
                self.next()
                node = ("add" if tok[1] == "+" else "sub", node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "punct" and tok[1] == "*":
                self.next()
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        tok = self.peek()
        if tok is not None and tok[0] == "punct" and tok[1] == "^":
            self.next()
            return ("pow", node, self.expect_int())
        return node

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise CliError(f"syntax error at position {len(self.text)}: "
                           "unexpected end of input")
        kind, val, pos = tok
        if kind == "punct" and val == "(":
            self.next()
            node = self.expr()
            self.expect_punct(")")
            return node
        if kind == "punct" and val == "-":
            self.next()
            return self.scalar(negate=True)
        if kind == "int":
            return self.scalar(negate=False)
        if kind == "name" and val == "i":
            self.next()
            return ("num", I)
        if kind == "name":
            return self.generator()
        raise CliError(f"syntax error at position {pos}: "
                       f"unexpected {val!r}")

    def scalar(self, negate: bool):
        num = self.expect_int()
        den = 1
        tok = self.peek()
        if tok is not None and tok[0] == "punct" and tok[1] == "/":
            self.next()
            den = self.expect_int()
            if den == 0:
                raise CliError("zero denominator in scalar literal")
        value = Scalar(num) / Scalar(den)
        tok = self.peek()
        if tok is not None and tok[0] == "name" and tok[1] == "i":
            self.next()
            value = value * I
        if negate:
            value = -value
        return ("num", value)

    def generator(self):
        kind, name, pos = self.next()
        if name not in _GEN_ARGS:
            raise CliError(f"syntax error at position {pos}: "
                           f"unknown generator {name!r}")
        arity = len(_GEN_ARGS[name])
        if arity == 0:
            return ("gen", name, ())
        self.expect_punct("[")
        args = [self.expect_int()]
        for _ in range(arity - 1):
            tok = self.next()
            if tok[0] != "punct" or tok[1] not in ",;":
                raise CliError(f"syntax error at position {tok[2]}: "
                               "expected ',' between indices")
            args.append(self.expect_int())
        self.expect_punct("]")
        return ("gen", name, tuple(args))


def reference_parse(text: str):
    return _Parser(text).parse()
