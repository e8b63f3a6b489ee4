"""Command-line front end.

Expression grammar (whitespace insensitive between tokens)::

    expr      := term (('+' | '-') term)*
    term      := factor ('*' factor)*
    factor    := atom ('^' uint)?
    atom      := scalar | generator | '(' expr ')'
    scalar    := ['-'] uint ['/' uint] ['i'] | 'i'
    generator := name | name '[' uint ((',' | ';') uint)* ']'

A generator is one lexeme: whitespace may stand before its '[' and inside
its brackets, and a name followed by '[' but no such index list is a
syntax error there.  Parentheses nest at most 100 deep.

Generators: ``t[a,b]``, ``tb[a,b]``, ``E[a,b]``, ``z[a]``, ``zb[a]``, ``r``,
``C[i;a,b]``, ``CP[i,j]``, ``theta[k]``.  The ``E`` atoms build enveloping-
algebra elements; every other generator builds a function-algebra element;
one expression may not mix the two sides.  Shortcuts expand at parse time
into their defining polynomials, with block indices resolved against
``--profile`` (default: the projective profile ``[gl(m|n-1), gl(1)]``).

Exit codes: 0 value computed or all checks passed, 1 a verification suite
failed, 2 usage or parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .actions import act, is_invariant
from .cg import (CG, DimCapError, _case, _oracle_case, _report, is_zero_mod_j,
                 verify_hopf)
from .grading import Dims
from .grassmann import verify_group
from .scalar import Scalar, I
from .spherical import (
    LeviProfile,
    c_block,
    c_pair,
    laplacian_apply,
    r_func,
    theta,
    theta_eigenvalue,
    theta_exists,
    verify_invariance,
    verify_maxrank,
    verify_t51,
    z,
    zbar,
)
from .tensorinv import verify_fft
from .ugl import DegreeCapError, UEl, reread_degree_cap


class CliError(Exception):
    """A usage, syntax, or index error; maps to exit code 2."""


# ---------------------------------------------------------------------------
# tokenizer and recursive-descent parser


# finditer skips whitespace.  "gen" is a whole generator atom, its name and
# its bracketed index list; "open" is a name and '[' that do not lex whole;
# "bad" is a character no token starts with.
_TOKEN_RE = re.compile(
    r"(?P<gen>([A-Za-z]+)\s*\[(\s*\d+(?:\s*[,;]\s*\d+)*)\s*\])"
    r"|(?P<int>\d+)|(?P<open>[A-Za-z]+)\s*\[|(?P<name>[A-Za-z]+)"
    r"|(?P<punct>[\[\](),;+\-*^/])|(?P<bad>\S)")

# generator -> the kind of each index: "a" a row or column 1..m+n, "b" a
# refined block of the profile, "k" a degree
_GEN_ARGS = {"t": "aa", "tb": "aa", "E": "aa", "z": "a", "zb": "a", "r": "",
             "C": "baa", "CP": "bb", "theta": "k"}

# parentheses nested deeper than this are refused, so that neither the
# parser nor the evaluator runs out of stack
_MAX_NESTING = 100


def tokenize(text: str) -> list:
    """Break the input into (kind, value, position) triples.  A generator
    with indices is one token, ("gen", (name, indices), position)."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "gen":
            # int() skips the whitespace the pattern lets around a digit
            name, indices = m.group(2, 3)
            value = (name, tuple(map(int, indices.replace(";", ",")
                                     .split(","))))
        elif kind == "punct" or kind == "name":
            value = m.group()
        elif kind == "int":
            value = int(m.group())
        elif kind == "open":
            raise CliError(f"syntax error at position {m.start()}: "
                           f"malformed index list for {m.group(kind)!r}")
        else:
            raise CliError(f"syntax error at position {m.start()}: "
                           f"unexpected character {m.group()!r}")
        out.append((kind, value, m.start()))
    return out


class _Parser:
    """Recursive descent over the expression grammar; builds tuple ASTs.

    Nodes: ("num", Scalar), ("gen", name, args), ("add"|"sub"|"mul", l, r),
    ("pow", base, uint).  A generator arrives as one token, so only its
    name and index count are checked here.  The token list ends in an
    ("end", None, len(text)) sentinel, so the parser reads
    ``self.toks[self.i]`` with no bounds test, and tests a token by its
    value alone: only a punct token has a punctuation character as value,
    and only a name token the name "i".
    """

    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.toks.append(("end", None, len(text)))
        self.i = 0
        self.depth = 0

    def fail(self, what: str):
        kind, _, pos = self.toks[self.i]
        raise CliError(f"syntax error at position {pos}: " + (
            "unexpected end of input" if kind == "end" else what))

    def expect_punct(self, ch: str):
        if self.toks[self.i][1] != ch:
            self.fail(f"expected {ch!r}")
        self.i += 1

    def expect_int(self) -> int:
        kind, val, _ = self.toks[self.i]
        if kind != "int":
            self.fail("expected an integer")
        self.i += 1
        return val

    def parse(self):
        node = self.expr()
        if self.toks[self.i][0] != "end":
            self.fail("trailing input")
        return node

    def expr(self):
        node = self.term()
        toks = self.toks
        while (op := toks[self.i][1]) == "+" or op == "-":
            self.i += 1
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.factor()
        toks = self.toks
        while toks[self.i][1] == "*":
            self.i += 1
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.toks[self.i][1] == "^":
            self.i += 1
            return ("pow", node, self.expect_int())
        return node

    def atom(self):
        kind, val, pos = self.toks[self.i]
        if kind == "gen":
            self.i += 1
            return self.generator(*val, pos)
        if kind == "int":
            return self.scalar(negate=False)
        if val == "(":
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}")
            self.depth += 1
            self.i += 1
            node = self.expr()
            self.expect_punct(")")
            self.depth -= 1
            return node
        if val == "-":
            self.i += 1
            return self.scalar(negate=True)
        if kind == "name":
            self.i += 1
            return ("num", I) if val == "i" else self.generator(val, (), pos)
        self.fail(f"unexpected {val!r}")

    def scalar(self, negate: bool):
        toks = self.toks
        num = self.expect_int()
        if toks[self.i][1] == "/":
            self.i += 1
            den = self.expect_int()
            if den == 0:
                raise CliError("zero denominator in scalar literal")
            value = Scalar.rational(num, den)
        else:
            value = Scalar(num)
        if toks[self.i][1] == "i":
            self.i += 1
            value = value * I
        if negate:
            value = -value
        return ("num", value)

    @staticmethod
    def generator(name: str, args: tuple, pos: int):
        kinds = _GEN_ARGS.get(name)
        if kinds is None:
            raise CliError(f"syntax error at position {pos}: "
                           f"unknown generator {name!r}")
        n = len(kinds)
        if len(args) != n:
            raise CliError(f"syntax error at position {pos}: {name!r} takes "
                           f"{n} {'index' if n == 1 else 'indices'}, "
                           f"got {len(args)}")
        return ("gen", name, args)


def parse_expr(text: str):
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation


class ExprContext:
    """Ambient data for turning an AST into an algebra element."""

    def __init__(self, dims: Dims, profile: "LeviProfile | None" = None):
        self.dims = dims
        self._profile = profile

    @property
    def profile(self) -> LeviProfile:
        if self._profile is None:
            self._profile = LeviProfile.projective(self.dims)
        return self._profile

    def gen_value(self, name: str, args: tuple):
        dims = self.dims
        for kind, i in zip(_GEN_ARGS.get(name, ""), args):
            if kind == "a" and not 1 <= i <= dims.size:
                raise CliError(f"index {i} out of range for m+n = "
                               f"{dims.size}")
            if kind == "b" and not 1 <= i <= len(self.profile.refined()):
                raise CliError(f"block index {i} out of range for profile "
                               f"{self.profile.blocks}")
        if name == "E":
            return "u", UEl.letter(dims, *args)
        if name == "t":
            return "cg", CG.t(dims, *args)
        if name == "tb":
            return "cg", CG.tbar(dims, *args)
        if name == "z":
            return "cg", z(dims, *args)
        if name == "zb":
            return "cg", zbar(dims, *args)
        if name == "r":
            return "cg", r_func(dims)
        if name == "C":
            return "cg", c_block(self.profile, *args)
        if name == "CP":
            return "cg", c_pair(self.profile, *args)
        if name == "theta":
            try:
                return "cg", theta(dims, *args)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
        raise CliError(f"unknown generator {name!r}")

    def evaluate(self, node):
        """Return (side, value): side is None for a bare Scalar, else
        "cg" or "u".  A flat sum or product parses to a left-deep tree of
        any length, so its left spine is walked in a loop; what recursion
        is left is bounded by the parser's parenthesis nesting."""
        spine = []
        while node[0] in ("add", "sub", "mul"):
            spine.append(node)
            node = node[1]
        kind = node[0]
        if kind == "num":
            side, value = None, node[1]
        elif kind == "gen":
            side, value = self.gen_value(node[1], node[2])
        elif kind == "pow":
            side, value = self.evaluate(node[1])
            e = node[2]
            if side is not None and e == 0:
                value = CG.one(self.dims) if side == "cg" \
                    else UEl.one(self.dims)
            else:
                value = value ** e
        else:
            raise CliError(f"unknown node kind {kind!r}")
        for kind, _, right in reversed(spine):
            s2, v2 = self.evaluate(right)
            target = self._join(side, s2)
            value = self._promote(side, value, target)
            v2 = self._promote(s2, v2, target)
            if kind == "add":
                value = value + v2
            elif kind == "sub":
                value = value - v2
            else:
                value = value * v2
            side = target
        return side, value

    @staticmethod
    def _join(s1, s2):
        if s1 is None:
            return s2
        if s2 is None or s1 == s2:
            return s1
        raise CliError("expression mixes enveloping-algebra and "
                       "function-algebra generators")

    def _promote(self, side, value, target):
        if side == target or target is None:
            return value
        if target == "cg":
            return CG.from_scalar(self.dims, value)
        return UEl.from_scalar(self.dims, value)

    def eval_cg(self, text: str) -> CG:
        side, value = self.evaluate(parse_expr(text))
        if side == "u":
            raise CliError("expected a function-algebra expression")
        return self._promote(side, value, "cg")

    def eval_u(self, text: str) -> UEl:
        side, value = self.evaluate(parse_expr(text))
        if side == "cg":
            raise CliError("expected an enveloping-algebra expression")
        return self._promote(side, value, "u")


# ---------------------------------------------------------------------------
# report plumbing


def _schema_case(case: dict) -> dict:
    out = {"name": case["name"],
           "verdict": "pass" if case["passed"] else "fail"}
    witness = {}
    for key, val in case.items():
        if key in ("name", "passed"):
            continue
        if key == "failure_bound":
            out["failure_bound"] = val
        elif key == "verdict":
            witness["oracle"] = val
        else:
            witness[key] = val
    if witness:
        out["witness"] = witness
    return out


def _schema_report(rep: dict) -> dict:
    return {
        "suite": rep["suite"],
        "cases": [_schema_case(c) for c in rep["cases"]],
        "passed": rep["passed"],
    }


def _emit_report(rep: dict, as_json: bool) -> int:
    rep = _schema_report(rep)
    if as_json:
        print(json.dumps(rep, sort_keys=True))
    else:
        for case in rep["cases"]:
            mark = "PASS" if case["verdict"] == "pass" else "FAIL"
            print(f"{mark} {case['name']}")
        print(f"suite {rep['suite']}: "
              f"{'PASSED' if rep['passed'] else 'FAILED'}")
    return 0 if rep["passed"] else 1


def _emit_value(payload: dict, text: str, as_json: bool) -> int:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# verbs


def _cmd_eval(args, ctx: ExprContext) -> int:
    side, value = ctx.evaluate(parse_expr(args.expr))
    if side is None:
        value = CG.from_scalar(ctx.dims, value)
        side = "cg"
    pretty = value.pretty()
    payload = {"verb": "eval", "side": side, "pretty": pretty,
               "degree": value.degree(), "parity": value.parity()}
    return _emit_value(payload, pretty, args.json)


def _cmd_act(args, ctx: ExprContext) -> int:
    u = ctx.eval_u(args.elem)
    f = ctx.eval_cg(args.on)
    side = "left" if args.side == "dL" else "right"
    pretty = act(side, u, f).pretty()
    payload = {"verb": "act", "side": args.side, "pretty": pretty}
    return _emit_value(payload, pretty, args.json)


def _cmd_iszero(args, ctx: ExprContext) -> int:
    side, value = ctx.evaluate(parse_expr(args.expr))
    if side == "u":
        verdict = "zero" if not value.terms else "nonzero"
        payload = {"verb": "iszero", "verdict": verdict, "mode": "exact"}
        return _emit_value(payload, verdict, args.json)
    f = value if side == "cg" else CG.from_scalar(ctx.dims, value)
    v = is_zero_mod_j(f, mode=args.mode, trials=args.trials, seed=args.seed)
    payload = {"verb": "iszero"}
    payload.update(v.to_dict())
    text = v.verdict if v.mode == "exact" else \
        (f"{v.verdict} (mode={v.mode}, trials={v.trials}, "
         f"failure_bound<={v.failure_bound})" if v.verdict == "zero"
         else f"{v.verdict} (mode={v.mode})")
    return _emit_value(payload, text, args.json)


def _cmd_invariant(args, ctx: ExprContext) -> int:
    f = ctx.eval_cg(args.expr)
    sides = ("left", "right") if args.side == "both" else \
        (("left",) if args.side == "dL" else ("right",))
    flag = True
    failed = []
    for side in sides:
        ok, details = is_invariant(f, ctx.profile.blocks, side=side,
                                   mode=args.mode, trials=args.trials,
                                   seed=args.seed)
        if not ok:
            flag = False
            failed.extend(
                f"{side}:E[{a},{b}]"
                for (a, b), v in details.items() if not v.is_zero
            )
    payload = {"verb": "invariant", "invariant": flag, "side": args.side,
               "profile": [list(b) for b in ctx.profile.blocks],
               "failed_letters": sorted(failed)}
    text = "invariant" if flag else \
        "not invariant (failing letters: " + ", ".join(sorted(failed)) + ")"
    return _emit_value(payload, text, args.json)


def _cmd_laplacian(args, ctx: ExprContext) -> int:
    dims = ctx.dims
    k = args.k
    if k < 0:
        raise CliError("--k must be nonnegative")
    r = r_func(dims)
    rk = r ** k
    image = laplacian_apply(rk)
    predicted = rk.scale(Scalar(k * (dims.m - dims.n - k + 1))) \
        + (r ** max(k - 1, 0)).scale(Scalar(k * k))
    v = is_zero_mod_j(image - predicted, mode=args.mode, trials=args.trials,
                      seed=args.seed)
    case = _oracle_case(f"radial Laplacian power identity at k={k}", [v],
                        True, pretty=image.pretty())
    return _emit_report(_report("laplacian", [case]), args.json)


def _cmd_theta(args, ctx: ExprContext) -> int:
    dims = ctx.dims
    k = args.k
    if k < 0:
        raise CliError("--k must be nonnegative")
    if not theta_exists(dims, k):
        case = _case(f"no radial eigenfunction of degree {k} exists "
                     f"at (m,n)=({dims.m},{dims.n})", True, exists=False)
        return _emit_report(_report("theta", [case]), args.json)
    th = theta(dims, k)
    lam = theta_eigenvalue(dims, k)
    defect = laplacian_apply(th) - th.scale(lam)
    v = is_zero_mod_j(defect, mode=args.mode, trials=args.trials,
                      seed=args.seed)
    case = _oracle_case(
        f"Laplacian eigenfunction of degree {k}, eigenvalue {lam}", [v], True,
        exists=True, pretty=th.pretty(), eigenvalue=str(lam))
    return _emit_report(_report("theta", [case]), args.json)


def _fft_report(dims: Dims, d: int) -> dict:
    if d < 1:
        raise CliError("--d must be at least 1")
    return verify_fft(dims, d)


def _cmd_sergeev(args, ctx: ExprContext) -> int:
    return _emit_report(_fft_report(ctx.dims, args.d), args.json)


def _cmd_group(args, ctx: ExprContext) -> int:
    if args.count < 3:
        raise CliError("--count must be at least 3")
    rep = verify_group(ctx.dims, count=args.count, seed=args.seed)
    return _emit_report(rep, args.json)


def _default_profiles(dims: Dims) -> list:
    profiles = [LeviProfile.projective(dims)]
    if dims.m >= 2 and dims.n >= 2:
        profiles.append(LeviProfile.from_sizes(
            dims, [1, (dims.m - 1, dims.n - 1), 1]))
    return profiles


def _cmd_verify(args, ctx: ExprContext) -> int:
    dims = ctx.dims
    if args.suite == "hopf":
        rep = verify_hopf(dims, seed=args.seed, trials=args.trials,
                          mode=args.mode)
    elif args.suite == "t51":
        rep = verify_t51(dims, seed=args.seed, trials=args.trials,
                         mode=args.mode)
    elif args.suite == "maxrank":
        if not dims.m or not dims.n:
            raise CliError("--suite maxrank needs --m and --n at least 1")
        ks = [args.k] if args.k is not None else \
            list(range(1, min(dims.m, dims.n) + 1))
        cases = []
        for k in ks:
            cases += verify_maxrank(dims, k, seed=args.seed,
                                    trials=args.trials,
                                    mode=args.mode)["cases"]
        rep = _report("maxrank", cases)
    elif args.suite == "invariance":
        if args.profile is not None:
            profiles = [LeviProfile.parse(dims, args.profile)]
        else:
            profiles = _default_profiles(dims)
        rep = verify_invariance(dims, profiles, seed=args.seed,
                                trials=args.trials, mode=args.mode)
    elif args.suite == "fft":
        d = args.d if args.d is not None else (3 if dims.size <= 2 else 2)
        rep = _fft_report(dims, d)
    else:
        raise CliError(f"unknown suite {args.suite!r}")
    return _emit_report(rep, args.json)


# ---------------------------------------------------------------------------
# argument reading

# A flag is name -> (type, default, choices).  Type None marks a switch;
# any other flag reads the next argv item, even one that starts with '-'
# ("--trials -2").  A flag whose default is _REQUIRED must be given.
_REQUIRED = object()
_GLOBALS = {
    "--m": (int, _REQUIRED, None), "--n": (int, _REQUIRED, None),
    "--seed": (int, 0, None), "--trials": (int, 3, None),
    "--mode": (str, "generic", ("generic", "pairing")),
    "--json": (None, False, None), "--profile": (str, None, None),
}
_K = {"--k": (int, _REQUIRED, None)}
# verb -> (handler, help, positionals, its own flags)
_VERBS = {
    "eval": (_cmd_eval, "normalize and print an expression", ("expr",), {}),
    "act": (_cmd_act, "apply a translation action", (), {
        "--side": (str, _REQUIRED, ("dL", "dR")),
        "--elem": (str, _REQUIRED, None), "--on": (str, _REQUIRED, None)}),
    "iszero": (_cmd_iszero, "test vanishing modulo the defining ideal",
               ("expr",), {}),
    "invariant": (_cmd_invariant, "test Levi invariance under dL/dR",
                  ("expr",), {"--side": (str, "dL", ("dL", "dR", "both"))}),
    "laplacian": (_cmd_laplacian, "check the radial Laplacian power identity",
                  (), _K),
    "theta": (_cmd_theta, "construct and check a radial eigenfunction", (),
              _K),
    "sergeev": (_cmd_sergeev, "run the tensor-invariant suite up to degree d",
                (), {"--d": (int, _REQUIRED, None)}),
    "group": (_cmd_group, "run the supergroup-point suite", (),
              {"--count": (int, 20, None)}),
    "verify": (_cmd_verify, "run a named verification suite", (), {
        "--suite": (str, _REQUIRED,
                    ("t51", "maxrank", "invariance", "hopf", "fft")),
        "--k": (int, None, None), "--d": (int, None, None)}),
}


def _forms(flags: dict) -> list:
    out = []
    for name, (kind, default, choices) in flags.items():
        form = name if kind is None else f"{name} " + (
            "{" + ",".join(choices) + "}" if choices else name[2:].upper())
        out.append(form if default is _REQUIRED else f"[{form}]")
    return out


def _usage(verb) -> str:
    tail = ["{" + ",".join(_VERBS) + "} ..."] if verb is None else \
        [verb, *_forms(_VERBS[verb][3]), *_VERBS[verb][2]]
    return " ".join(["usage: superfn [-h]", *_forms(_GLOBALS), *tail])


def _help(verb) -> str:
    lines = [_VERBS[verb][1]] if verb is not None else \
        ["verbs:", *(f"  {v:<12}{spec[1]}" for v, spec in _VERBS.items())]
    return "\n".join([_usage(verb), "", *lines])


def _usage_error(verb, message: str):
    print(_usage(verb), f"superfn: error: {message}", sep="\n",
          file=sys.stderr)
    raise SystemExit(2)


def build_parser() -> dict:
    """Per verb (None: before the verb): the flags it reads by name, the
    namespace of its defaults, its positionals, and its required flags as
    (flag, key) pairs."""
    table = {}
    for verb, (func, _, names, own) in [(None, (None, None, ("verb",), {})),
                                        *_VERBS.items()]:
        flags = {**_GLOBALS, **own}
        defaults = {name[2:]: spec[1] for name, spec in flags.items()}
        defaults.update(verb=verb, func=func)
        required = tuple((name, name[2:]) for name, spec in flags.items()
                         if spec[1] is _REQUIRED)
        table[verb] = (flags, defaults, names, required)
    return table


def read_args(parser: dict, argv) -> SimpleNamespace:
    """Read argv in one pass by the table of :func:`build_parser`: flags
    come before or after the verb, a later one wins, and "--" ends them.
    A usage error prints a usage line and the error, and exits 2."""
    verb, ended, given = None, False, {}
    flags, _, names, _ = parser[None]
    args = iter(argv)
    for arg in args:
        if ended or not arg.startswith("-"):
            if verb is not None:
                if not names:
                    _usage_error(verb, f"unexpected argument {arg!r}")
                given[names[0]], names = arg, names[1:]
                continue
            if arg not in _VERBS:
                _usage_error(None, f"unknown verb {arg!r}")
            verb = arg
            flags, _, names, _ = parser[verb]
        elif arg == "--":
            ended = True
        elif arg in ("-h", "--help"):
            print(_help(verb))
            raise SystemExit(0)
        elif arg not in flags:
            _usage_error(verb, f"unknown flag {arg!r} (an argument "
                               "starting with '-' goes after --)")
        else:
            kind, _, choices = flags[arg]
            try:
                value = True if kind is None else kind(next(args))
            except StopIteration:
                _usage_error(verb, f"{arg} needs a value")
            except ValueError:
                _usage_error(verb, f"{arg} needs an integer")
            if choices is not None and value not in choices:
                _usage_error(verb, f"{arg} takes one of {', '.join(choices)}")
            given[arg[2:]] = value
    _, defaults, _, required = parser[verb]
    missing = [*names] + [flag for flag, key in required if key not in given]
    if missing:
        _usage_error(verb, f"missing {', '.join(missing)}")
    return SimpleNamespace(**(defaults | given))


# Built on the first main() call and kept for the process: read_args
# returns a fresh namespace each time and leaves the table unchanged.
_parser = None


def main(argv=None) -> int:
    global _parser
    reread_degree_cap()  # each call sees SUPERFN_DEGREE_CAP as it is now
    if _parser is None:
        _parser = build_parser()
    args = read_args(_parser, sys.argv[1:] if argv is None else argv)
    try:
        dims = Dims(args.m, args.n)
        profile = LeviProfile.parse(dims, args.profile) \
            if args.profile is not None else None
        ctx = ExprContext(dims, profile)
        return args.func(args, ctx)
    except (DegreeCapError, DimCapError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
