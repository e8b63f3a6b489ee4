"""Command-line front end.

Expression grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := scalar | generator | '(' expr ')'
    scalar := ['-'] uint ['/' uint] ['i'] | 'i'

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

import argparse
import json
import re
import sys

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
from .superpoly import render_terms
from .tensorinv import verify_fft
from .ugl import DegreeCapError, UEl


class CliError(Exception):
    """A usage, syntax, or index error; maps to exit code 2."""


# ---------------------------------------------------------------------------
# tokenizer and recursive-descent parser


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]+)"
                       r"|(?P<punct>[\[\](),;+\-*^/]))")

_GEN_ARITY = {"t": 2, "tb": 2, "E": 2, "z": 1, "zb": 1, "r": 0,
              "C": 3, "CP": 2, "theta": 1}


def tokenize(text: str) -> list:
    """Break the input into (kind, value, position) triples."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise CliError(f"syntax error at position {at}: "
                           f"unexpected character {stripped[0]!r}")
        if m.group("int") is not None:
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name") is not None:
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("punct", m.group("punct"), m.start("punct")))
        pos = m.end()
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
        if name not in _GEN_ARITY:
            raise CliError(f"syntax error at position {pos}: "
                           f"unknown generator {name!r}")
        arity = _GEN_ARITY[name]
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

    def _check_index(self, a: int):
        if not 1 <= a <= self.dims.size:
            raise CliError(f"index {a} out of range for m+n = "
                           f"{self.dims.size}")

    def gen_value(self, name: str, args: tuple):
        dims = self.dims
        if name == "E":
            for a in args:
                self._check_index(a)
            return "u", UEl.letter(dims, args[0], args[1])
        if name == "t":
            for a in args:
                self._check_index(a)
            return "cg", CG.t(dims, args[0], args[1])
        if name == "tb":
            for a in args:
                self._check_index(a)
            return "cg", CG.tbar(dims, args[0], args[1])
        if name == "z":
            self._check_index(args[0])
            return "cg", z(dims, args[0])
        if name == "zb":
            self._check_index(args[0])
            return "cg", zbar(dims, args[0])
        if name == "r":
            return "cg", r_func(dims)
        if name == "C":
            i, a, b = args
            nblocks = len(self.profile.refined())
            if not 1 <= i <= nblocks:
                raise CliError(f"block index {i} out of range for profile "
                               f"{self.profile.blocks}")
            self._check_index(a)
            self._check_index(b)
            return "cg", c_block(self.profile, i, a, b)
        if name == "CP":
            i, j = args
            nblocks = len(self.profile.refined())
            for k in (i, j):
                if not 1 <= k <= nblocks:
                    raise CliError(f"block index {k} out of range for "
                                   f"profile {self.profile.blocks}")
            return "cg", c_pair(self.profile, i, j)
        if name == "theta":
            k = args[0]
            try:
                return "cg", theta(dims, k)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
        raise CliError(f"unknown generator {name!r}")

    def evaluate(self, node):
        """Return (side, value): side is None for a bare Scalar, else
        "cg" or "u"."""
        kind = node[0]
        if kind == "num":
            return None, node[1]
        if kind == "gen":
            return self.gen_value(node[1], node[2])
        if kind in ("add", "sub", "mul"):
            s1, v1 = self.evaluate(node[1])
            s2, v2 = self.evaluate(node[2])
            side = self._join(s1, s2)
            v1 = self._promote(s1, v1, side)
            v2 = self._promote(s2, v2, side)
            if kind == "add":
                return side, v1 + v2
            if kind == "sub":
                return side, v1 - v2
            return side, v1 * v2
        if kind == "pow":
            s1, v1 = self.evaluate(node[1])
            e = node[2]
            if s1 is None:
                return None, v1 ** e
            if e == 0:
                return s1, (CG.one(self.dims) if s1 == "cg"
                            else UEl.one(self.dims))
            return s1, v1 ** e
        raise CliError(f"unknown node kind {kind!r}")

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
        if side is None:
            return CG.from_scalar(self.dims, value)
        return value

    def eval_u(self, text: str) -> UEl:
        side, value = self.evaluate(parse_expr(text))
        if side == "cg":
            raise CliError("expected an enveloping-algebra expression")
        if side is None:
            return UEl.from_scalar(self.dims, value)
        return value


def u_pretty(u: UEl) -> str:
    """Render an enveloping-algebra element in the expression grammar."""
    return render_terms(u.terms, lambda w: (len(w), w),
                        lambda w: [f"E[{a},{b}]" for a, b in w])


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
    pretty = value.pretty() if side == "cg" else u_pretty(value)
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
# argument plumbing


def _add_globals(p: argparse.ArgumentParser, suppress: bool):
    """Shared flags, accepted both before and after the verb.

    Subparser copies default to SUPPRESS so a flag given only before the
    verb is not clobbered by the subparser's defaults.
    """
    def dflt(v):
        return argparse.SUPPRESS if suppress else v

    p.add_argument("--m", type=int, default=dflt(None),
                   help="even dimension m of gl(m|n)")
    p.add_argument("--n", type=int, default=dflt(None),
                   help="odd dimension n of gl(m|n)")
    p.add_argument("--seed", type=int, default=dflt(0),
                   help="seed for randomized zero tests")
    p.add_argument("--trials", type=int, default=dflt(3),
                   help="trial count for the generic-point oracle")
    p.add_argument("--mode", choices=("generic", "pairing"),
                   default=dflt("generic"),
                   help="zero-test oracle: randomized generic points or "
                        "the exact pairing certificate")
    p.add_argument("--json", action="store_true",
                   default=dflt(False),
                   help="emit a deterministic JSON report")
    p.add_argument("--profile", default=dflt(None),
                   help="Levi block profile, e.g. \"1,1|1,1\" (the super "
                        "block as p|q); default is [gl(m|n-1), gl(1)]")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superfn",
        description="Exact computations in the function algebra of the "
                    "general linear supergroup.")
    _add_globals(p, suppress=False)

    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, **kw):
        q = sub.add_parser(name, **kw)
        _add_globals(q, suppress=True)
        return q

    q = verb("eval", help="normalize and print an expression")
    q.add_argument("expr")
    q.set_defaults(func=_cmd_eval)

    q = verb("act", help="apply a translation action")
    q.add_argument("--side", choices=("dL", "dR"), required=True)
    q.add_argument("--elem", required=True,
                   help="enveloping-algebra expression")
    q.add_argument("--on", required=True, help="function-algebra expression")
    q.set_defaults(func=_cmd_act)

    q = verb("iszero", help="test vanishing modulo the defining ideal")
    q.add_argument("expr")
    q.set_defaults(func=_cmd_iszero)

    q = verb("invariant", help="test Levi invariance under dL/dR")
    q.add_argument("expr")
    q.add_argument("--side", choices=("dL", "dR", "both"), default="dL")
    q.set_defaults(func=_cmd_invariant)

    q = verb("laplacian", help="check the radial Laplacian power identity")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=_cmd_laplacian)

    q = verb("theta", help="construct and check a radial eigenfunction")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=_cmd_theta)

    q = verb("sergeev", help="run the tensor-invariant suite up to degree d")
    q.add_argument("--d", type=int, required=True)
    q.set_defaults(func=_cmd_sergeev)

    q = verb("group", help="run the supergroup-point suite")
    q.add_argument("--count", type=int, default=20)
    q.set_defaults(func=_cmd_group)

    q = verb("verify", help="run a named verification suite")
    q.add_argument("--suite", required=True,
                   choices=("t51", "maxrank", "invariance", "hopf", "fft"))
    q.add_argument("--k", type=int, default=None,
                   help="maxrank: restrict to a single corner rank")
    q.add_argument("--d", type=int, default=None,
                   help="fft: maximum tensor degree")
    q.set_defaults(func=_cmd_verify)

    return p


# Built on the first main() call and kept for the process: parse_args
# returns a fresh Namespace each time and leaves the parser unchanged.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    if args.m is None or args.n is None:
        parser.error("--m and --n are required")
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
