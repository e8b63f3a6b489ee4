import json
import random
from fractions import Fraction

import pytest

from superfn import cli, ugl
from superfn.cg import CG, relations
from superfn.cli import CliError, ExprContext, main, parse_expr, tokenize
from superfn.grading import Dims
from superfn.scalar import Scalar
from superfn.spherical import LeviProfile, c_block, c_pair, r_func, z, zbar
from superfn.ugl import UEl

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- parsing


def test_tokenizer_reports_positions():
    with pytest.raises(CliError) as exc:
        tokenize("t[1,1] $ 2")
    assert "position 7" in str(exc.value)
    # leading and trailing whitespace is skipped, positions count it
    assert tokenize("  t[1,1]  ") == [("gen", ("t", (1, 1)), 2)]
    assert tokenize(" \t-2/3i*E[1,2]\n")[:6] == [
        ("punct", "-", 2), ("int", 2, 3), ("punct", "/", 4), ("int", 3, 5),
        ("name", "i", 6), ("punct", "*", 7)]
    assert tokenize("") == tokenize(" \n ") == []
    # a bad character after whitespace, and at the very end
    for text, at, ch in (("t[1,1]   $ 2", 9, "$"), ("  $", 2, "$"),
                         ("t[1,1]$", 6, "$"), ("t[1,1] + 1 %", 11, "%")):
        with pytest.raises(CliError) as exc:
            tokenize(text)
        assert str(exc.value) == (f"syntax error at position {at}: "
                                  f"unexpected character {ch!r}"), text


def test_parse_error_cases():
    for text in ("t[1,", "t[1 1]", "1//2", "t[1,1]^", "()", "t[1,1]+",
                 "w[1,1]", "theta[1,2]", "C[1,1]", "^2", "2^-1", " t[1,1] $",
                 "\tr + 1 #"):
        with pytest.raises(CliError):
            parse_expr(text)


def test_generator_errors_are_pinned():
    """A generator is one lexeme: a name, then indices in brackets; a bad
    index list is refused at the name, and so is a wrong index count."""
    for text, message in (
        ("t[1,", "position 0: malformed index list for 't'"),
        ("t[1 1]", "position 0: malformed index list for 't'"),
        ("2*t [1,]", "position 2: malformed index list for 't'"),
        ("theta[1,2]", "position 0: 'theta' takes 1 index, got 2"),
        ("r[1]", "position 0: 'r' takes 0 indices, got 1"),
        ("t", "position 0: 't' takes 2 indices, got 0"),
        ("1 + C[1,2]", "position 4: 'C' takes 3 indices, got 2"),
        ("w[1,1]", "position 0: unknown generator 'w'"),
    ):
        with pytest.raises(CliError) as exc:
            parse_expr(text)
        assert str(exc.value) == f"syntax error at {message}", text


def test_parse_basic_shapes():
    assert parse_expr("r") == ("gen", "r", ())
    assert parse_expr("z[2]") == ("gen", "z", (2,))
    assert parse_expr("C[1;2,3]") == ("gen", "C", (1, 2, 3))
    assert parse_expr("C[1,2,3]") == ("gen", "C", (1, 2, 3))
    assert parse_expr("-2/3") == ("num", parse_expr("-2/3")[1])
    ast = parse_expr("t[1,2]*tb[2,1] + 1/2")
    assert ast[0] == "add"
    assert parse_expr("(1-r)^3")[0] == "pow"


# Round trips: every printed element is valid input, and generated texts
# parse to the values the library builds for them.

ROUND_TRIP_DIMS = [Dims(1, 1), Dims(2, 1), Dims(1, 2), Dims(2, 2)]


def rand_scalar(rng):
    """A Gaussian rational with parts num/den, num in -9..9, den in 1..9;
    half of them complex."""
    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return Scalar(part(), part() if rng.random() < 0.5 else 0)


def rand_function(dims, rng):
    """A scaled power of r plus one or two ideal elements, each a defining
    relation times a generator and a complex scalar."""
    rels = relations(dims)
    f = (r_func(dims) ** rng.randint(0, 3)).scale(rand_scalar(rng))
    for _ in range(rng.randint(1, 2)):
        a, b = rng.randint(1, dims.size), rng.randint(1, dims.size)
        gen = rng.choice((CG.t, CG.tbar))(dims, a, b)
        f = f + (rng.choice(rels) * gen).scale(rand_scalar(rng))
    return f


def rand_enveloping(dims, rng):
    """A sum of up to three PBW words of length 0..3 with complex
    coefficients."""
    u = UEl.from_scalar(dims, 0)
    for _ in range(rng.randint(1, 3)):
        word = UEl.one(dims)
        for _ in range(rng.randint(0, 3)):
            word = word * UEl.letter(dims, rng.randint(1, dims.size),
                                     rng.randint(1, dims.size))
        u = u + word.scale(rand_scalar(rng))
    return u


@pytest.mark.parametrize("dims", ROUND_TRIP_DIMS,
                         ids=["11", "21", "12", "22"])
def test_printed_elements_parse_back_to_themselves(dims):
    rng = random.Random(dims.m * 10 + dims.n)
    ctx = ExprContext(dims)
    for _ in range(50):
        f = rand_function(dims, rng)
        assert ctx.eval_cg(f.pretty()) == f, f.pretty()
        u = rand_enveloping(dims, rng)
        assert ctx.eval_u(u.pretty()) == u, u.pretty()


# Grammar levels of a generated text: what it may stand under unbracketed.
SUM, PRODUCT, POWER, ATOM = 1, 2, 3, 4


def rand_literal(rng):
    """(text, value) of a scalar literal: num/den with num in -9..9 and den
    in 1..9, imaginary three times in ten."""
    num, den = rng.randint(-9, 9), rng.randint(1, 9)
    text = str(num) if den == 1 else f"{num}/{den}"
    q = Fraction(num, den)
    if rng.random() < 0.3:
        return text + "i", Scalar(0, q)
    return text, Scalar(q)


def rand_atom(dims, side, rng):
    """(text, value) of a generator of the given side."""
    size = dims.size
    if side == "u":
        a, b = rng.randint(1, size), rng.randint(1, size)
        return f"E[{a},{b}]", UEl.letter(dims, a, b)
    profile = LeviProfile.projective(dims)
    blocks = len(profile.refined())
    name = rng.choice(("t", "tb", "z", "zb", "r", "C", "CP"))
    a, b = rng.randint(1, size), rng.randint(1, size)
    i, j = rng.randint(1, blocks), rng.randint(1, blocks)
    return {
        "t": lambda: (f"t[{a},{b}]", CG.t(dims, a, b)),
        "tb": lambda: (f"tb[{a},{b}]", CG.tbar(dims, a, b)),
        "z": lambda: (f"z[{a}]", z(dims, a)),
        "zb": lambda: (f"zb[{a}]", zbar(dims, a)),
        "r": lambda: ("r", r_func(dims)),
        "C": lambda: (f"C[{i};{a},{b}]", c_block(profile, i, a, b)),
        "CP": lambda: (f"CP[{i},{j}]", c_pair(profile, i, j)),
    }[name]()


def rand_text(dims, side, rng, depth):
    """(text, level, value): a random expression of nesting depth at most
    ``depth`` over add, sub, mul and pow 0..5, printed with the fewest
    brackets the grammar needs plus some spare ones, and its value built
    through the library."""
    one = CG.one(dims) if side == "cg" else UEl.one(dims)
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            text, c = rand_literal(rng)
            return text, ATOM, one.scale(c)
        text, value = rand_atom(dims, side, rng)
        return text, ATOM, value

    def operand(need):
        text, level, value = rand_text(dims, side, rng, depth - 1)
        if level < need or rng.random() < 0.1:
            text, level = f"({text})", ATOM
        return text, value

    op = rng.choice(("add", "sub", "mul", "pow"))
    if op == "pow":
        base, value = operand(ATOM)
        # powers of sums stay small, and so do the values
        e = rng.randint(0, 5 if len(value.terms) == 1 else 2)
        out = one
        for _ in range(e):
            out = out * value
        return f"{base}^{e}", POWER, out
    if op == "mul":
        (lt, lv), (rt, rv) = operand(PRODUCT), operand(POWER)
        return f"{lt}*{rt}", PRODUCT, lv * rv
    (lt, lv), (rt, rv) = operand(SUM), operand(PRODUCT)
    if op == "add":
        return f"{lt} + {rt}", SUM, lv + rv
    return f"{lt} - {rt}", SUM, lv - rv


@pytest.mark.parametrize("dims", [Dims(1, 1), Dims(2, 1)], ids=["11", "21"])
def test_generated_texts_parse_to_their_library_values(dims, monkeypatch):
    monkeypatch.setenv("SUPERFN_DEGREE_CAP", "40")  # for long E words
    ugl.reread_degree_cap()
    rng = random.Random(99 + dims.m)
    ctx = ExprContext(dims)
    for k in range(400):
        side = "u" if k % 3 == 2 else "cg"
        text, _, want = rand_text(dims, side, rng, rng.randint(1, 4))
        got = ctx.eval_u(text) if side == "u" else ctx.eval_cg(text)
        assert got == want, text


# ------------------------------------------------------------- verbs


def test_eval_function_side(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "eval",
                       "t[1,2]*tb[2,1] + 1/2")
    assert code == 0
    assert out.strip() == "1/2 + t[1,2]*tb[2,1]"


def test_eval_flags_after_verb(capsys):
    code, out, _ = run(capsys, "eval", "t[1,2]*tb[2,1] + 1/2",
                       "--m", "1", "--n", "1")
    assert code == 0
    assert out.strip() == "1/2 + t[1,2]*tb[2,1]"


def test_eval_json_payload(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "--json", "eval",
                       "z[1]*zb[1]")
    assert code == 0
    payload = json.loads(out)
    assert payload["verb"] == "eval"
    assert payload["side"] == "cg"
    assert payload["degree"] == 2
    assert payload["parity"] == 0
    assert payload["pretty"] == "t[2,1]*tb[2,1]"


def test_eval_enveloping_side(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "eval",
                       "E[1,2]*E[2,1] + 1")
    assert code == 0
    assert "E[" in out


def test_eval_respects_pbw_straightening(capsys):
    # E_21 E_12 = -E_12 E_21 + E_11 + E_22 at (1,1)
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "eval",
                       "E[2,1]*E[1,2] + E[1,2]*E[2,1] - E[1,1] - E[2,2]")
    assert code == 0
    assert out.strip() == "0"


def test_iszero_zero_and_nonzero(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "iszero",
                       "t[1,1]*tb[1,1] + t[2,1]*tb[2,1] - 1")
    assert code == 0
    # the relation has degree 2: (2 * 3 / (2 * 2**20 + 1 - 2)) ** 3
    assert out.strip() == ("zero (mode=generic, trials=3, "
                           "failure_bound<=216/9223358842721533951)")
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "iszero", "t[1,1]")
    assert code == 0
    assert out.strip() == "nonzero (mode=generic)"


def test_iszero_pairing_mode_is_exact(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "--mode", "pairing",
                       "iszero", "t[1,1]*tb[1,1] + t[2,1]*tb[2,1] - 1")
    assert code == 0
    assert out.strip() == "zero (mode=pairing, trials=0, failure_bound<=0)"


def test_iszero_enveloping_side(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "iszero",
                       "E[1,2]*E[1,2]")
    assert code == 0
    assert out.strip() == "zero"


def test_act_verb(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "act",
                       "--side", "dR", "--elem", "E[1,1]",
                       "--on", "t[1,1]")
    assert code == 0
    assert out.strip() == "t[1,1]"
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "--json", "act",
                       "--side", "dL", "--elem", "E[1,1]",
                       "--on", "t[1,2]")
    assert code == 0
    payload = json.loads(out)
    assert payload["verb"] == "act"
    assert payload["pretty"] == "-1*t[1,2]"


def test_invariant_verb(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "--profile", "1,1",
                       "invariant", "t[1,1]", "--side", "both")
    assert code == 0
    assert "not invariant" in out
    assert "left:E[1,1]" in out
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "--profile", "1,1",
                       "--mode", "pairing", "invariant", "CP[1,1]",
                       "--side", "both")
    assert code == 0
    assert out.strip() == "invariant"


def test_laplacian_verb(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "laplacian",
                       "--k", "2")
    assert code == 0
    assert "PASSED" in out
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "--json",
                       "laplacian", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "laplacian"
    assert payload["passed"] is True
    assert payload["cases"][0]["verdict"] == "pass"


def test_theta_verb(capsys):
    code, out, _ = run(capsys, "--m", "1", "--n", "2", "--json",
                       "theta", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    case = payload["cases"][0]
    assert case["verdict"] == "pass"
    assert case["witness"]["pretty"] == "-1 + t[3,3]*tb[3,3]"
    assert case["witness"]["eigenvalue"] == "-1"
    # degrees outside the existence window report a passing gap case
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "theta", "--k", "1")
    assert code == 0
    assert "no radial eigenfunction" in out


def test_suite_verbs(capsys):
    for argv in (
        ("--m", "1", "--n", "1", "sergeev", "--d", "2"),
        ("--m", "1", "--n", "1", "group", "--count", "4"),
        ("--m", "1", "--n", "1", "verify", "--suite", "hopf"),
        ("--m", "1", "--n", "1", "verify", "--suite", "t51"),
        ("--m", "1", "--n", "1", "verify", "--suite", "maxrank", "--k", "1"),
        ("--m", "1", "--n", "1", "verify", "--suite", "invariance"),
        ("--m", "1", "--n", "1", "verify", "--suite", "fft", "--d", "2"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, (argv, out)
        assert "PASSED" in out


def test_json_reports_are_deterministic(capsys):
    argv = ("--m", "1", "--n", "1", "--json", "group", "--count", "3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"suite", "cases", "passed"}
    for case in payload["cases"]:
        assert set(case) <= {"name", "verdict", "witness", "failure_bound"}
        assert case["verdict"] in ("pass", "fail")


# ------------------------------------------------------------- exit codes


def test_mixed_side_expression_exits_2(capsys):
    code, _, err = run(capsys, "--m", "1", "--n", "1", "eval",
                       "t[1,1]*E[1,1]")
    assert code == 2
    assert "error:" in err


def test_syntax_and_index_errors_exit_2(capsys):
    for expr in ("t[1,]", "t[9,1]", "z[5]", "C[7;1,1]", "w[1]"):
        code, _, err = run(capsys, "--m", "1", "--n", "1", "eval", expr)
        assert code == 2, expr
        assert err.startswith("error:")


def test_long_printed_output_reads_back(capsys):
    """A flat sum of 1,302 terms evaluates with no recursion per term."""
    argv = ["--m", "2", "--n", "1", "eval"]
    code, out, _ = run(capsys, *argv, "(t[1,1]+t[1,2]+t[1,3]+t[2,1]+t[2,2]"
                       "+t[2,3]+t[3,1]+t[3,2]+t[3,3]+tb[1,1]+tb[2,2])^5")
    assert code == 0
    pretty = out.strip()
    assert pretty.count(" + ") + pretty.count(" - ") + 1 == 1302
    assert run(capsys, *argv, pretty) == (0, out, "")


def test_deep_parentheses_exit_2(capsys):
    for depth, code in ((100, 0), (101, 2), (400, 2)):
        text = "(" * depth + "1" + ")" * depth
        got, out, err = run(capsys, "--m", "1", "--n", "1", "eval", text)
        assert got == code, depth
        if code:
            assert err == ("error: syntax error at position 100: "
                           "parentheses nested deeper than 100\n")
        else:
            assert out == "1\n"


def test_bad_profile_exits_2(capsys):
    code, _, err = run(capsys, "--m", "2", "--n", "2", "--profile",
                       "2,1|1,1", "eval", "r")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("m, n", [("3", "3"), ("4", "2"), ("21", "0")])
def test_group_cap_exits_3(capsys, m, n):
    code, out, err = run(capsys, "--m", m, "--n", n, "group")
    assert (code, out) == (3, "")
    assert err.startswith("resource cap:")


def test_sergeev_cap_measures_the_columns_solved(capsys):
    # (3,2) d=3 solves over 545 weight-zero columns and reports; (2,2) d=4
    # needs 2716 and exits 3 before any row is built
    code, out, _ = run(capsys, "--m", "3", "--n", "2", "sergeev", "--d", "3")
    assert code == 0
    assert "PASS d=3: Sergeev rank 6 = invariant dim 6" in out
    assert out.endswith("suite fft: PASSED\n")
    code, out, err = run(capsys, "--m", "2", "--n", "2", "sergeev", "--d",
                         "4")
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: 2716 invariant-solve columns exceed"
                          " cap 2500")


def test_degree_cap_exits_3(capsys):
    code, _, err = run(capsys, "--m", "1", "--n", "1", "eval", "E[1,1]^9")
    assert code == 3
    assert err.startswith("resource cap:")


def test_degree_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("SUPERFN_DEGREE_CAP", "10")
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "eval", "E[1,1]^9")
    assert code == 0
    assert out.strip() == "*".join(["E[1,1]"] * 9)


def test_each_main_call_reads_the_degree_cap_as_it_is_then(capsys,
                                                           monkeypatch):
    for raw, want in (("10", 0), ("8", 3), ("9", 0), (None, 3)):
        if raw is None:
            monkeypatch.delenv("SUPERFN_DEGREE_CAP")
        else:
            monkeypatch.setenv("SUPERFN_DEGREE_CAP", raw)
        code, _, _ = run(capsys, "--m", "1", "--n", "1", "eval", "E[1,1]^9")
        assert code == want, raw


def test_bad_degree_cap_is_refused_only_where_a_u_element_is_built(
        capsys, monkeypatch):
    monkeypatch.setenv("SUPERFN_DEGREE_CAP", "abc")
    for expr in ("2*E[1,1]", "E[1,1]"):
        code, _, err = run(capsys, "--m", "1", "--n", "1", "eval", expr)
        assert code == 3, expr
        assert err.strip() == "resource cap: bad SUPERFN_DEGREE_CAP: 'abc'"
    code, out, _ = run(capsys, "--m", "1", "--n", "1", "eval", "t[1,1]")
    assert code == 0 and out.strip() == "t[1,1]"


def test_a_main_call_reads_the_degree_cap_at_most_once(capsys,
                                                       counting_environ):
    for argv, reads in (
            (("eval", "t[1,1]^3 + tb[1,2]*t[2,1]"), 0),
            (("eval", "E[1,1]*E[1,2] + E[2,1]^2*E[1,1]"), 1),
            (("act", "--side", "dL", "--elem", "E[1,2]*E[2,1] + E[2,2]",
              "--on", "t[1,1]*t[2,2] + tb[1,2]"), 1),
            (("invariant", "t[1,1]*tb[1,1]", "--side", "both"), 1)):
        counting_environ.reads = 0
        code, _, _ = run(capsys, "--m", "1", "--n", "1", *argv)
        assert code == 0 and counting_environ.reads == reads, argv


def test_missing_dims_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "r"])
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: superfn [-h] --m M --n N ")
    assert error == "superfn: error: missing --m, --n"


def test_unknown_mode_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--m", "1", "--n", "1", "--mode", "bogus", "iszero", "r"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: superfn ")


def test_counts_below_one_exit_2(capsys):
    trials = "error: trials must be at least 1"
    degree = "error: --d must be at least 1"
    for argv, err_want in (
        (("iszero", "t[1,1]", "--trials", "0"), trials),
        (("iszero", "t[1,1]", "--trials", "-2"), trials),
        (("verify", "--suite", "hopf", "--trials", "0"), trials),
        (("verify", "--suite", "fft", "--d", "0"), degree),
        (("verify", "--suite", "fft", "--d", "-3"), degree),
    ):
        code, out, err = run(capsys, "--m", "1", "--n", "1", *argv)
        assert (code, out, err.strip()) == (2, "", err_want), argv


@pytest.mark.parametrize("count", ["2", "1", "0"])
def test_group_counts_below_three_exit_2(capsys, count):
    code, out, err = run(capsys, "--m", "1", "--n", "1", "group",
                         "--count", count)
    assert (code, out, err.strip()) == (
        2, "", "error: --count must be at least 3")


@pytest.mark.parametrize("m, n", [("0", "1"), ("2", "0")])
@pytest.mark.parametrize("extra", [("--json",), ("--k", "1")])
def test_verify_maxrank_without_corner_rows_exits_2(capsys, m, n, extra):
    code, out, err = run(capsys, "--m", m, "--n", n, "verify",
                         "--suite", "maxrank", *extra)
    assert (code, out, err.strip()) == (
        2, "", "error: --suite maxrank needs --m and --n at least 1")


def test_verify_maxrank_honours_mode(capsys):
    def cases(*extra):
        code, out, _ = run(capsys, "--m", "1", "--n", "1", "verify",
                           "--suite", "maxrank", "--json", *extra)
        assert code == 0
        return json.loads(out)["cases"]

    generic = cases()
    pairing = cases("--mode", "pairing")
    oracle = [(g, p) for g, p in zip(generic, pairing) if "failure_bound" in g]
    assert len(oracle) == 10
    for g, p in oracle:
        assert (p["name"], p["verdict"]) == (g["name"], g["verdict"])
        assert p["witness"]["oracle"] == g["witness"]["oracle"]
        assert (g["witness"]["mode"], p["witness"]["mode"]) == \
            ("generic", "pairing")
        assert p["failure_bound"] == "0"
    # from (2,1) up, c_poly^2 outgrows the pairing workspace cap
    code, out, err = run(capsys, "--m", "2", "--n", "1", "verify",
                         "--suite", "maxrank", "--mode", "pairing")
    assert (code, out) == (3, "")
    assert err.startswith("resource cap:")


# ------------------------------------------------------------- one parser


# Each neighbouring pair differs in one thing a reused parser could carry
# over: output format, profile, oracle mode, an optional verb flag, flag
# placement, and a usage error just after dims given behind the verb.
PARSER_REUSE_SEQUENCE = (
    ("--m", "1", "--n", "1", "--json", "eval", "t[1,2]*tb[2,1] + 1/2"),
    ("--m", "1", "--n", "1", "eval", "t[1,2]*tb[2,1] + 1/2"),
    ("--m", "2", "--n", "2", "--profile", "1,1|1,1", "--json",
     "invariant", "CP[1,1]"),
    ("--m", "2", "--n", "2", "--json", "invariant", "CP[1,1]"),
    ("--m", "1", "--n", "1", "--mode", "pairing", "iszero",
     "t[1,1]*tb[1,1] + t[2,1]*tb[2,1] - 1"),
    ("--m", "1", "--n", "1", "iszero",
     "t[1,1]*tb[1,1] + t[2,1]*tb[2,1] - 1"),
    ("--m", "2", "--n", "2", "verify", "--suite", "maxrank", "--k", "1"),
    ("--m", "2", "--n", "2", "verify", "--suite", "maxrank"),
    ("eval", "r", "--m", "1", "--n", "1", "--json"),
    ("eval", "r"),
    ("--m", "1", "--n", "1", "eval", "r"),
)


def run_code(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_parser_built_once_and_keeps_no_state(capsys, monkeypatch):
    alone = []
    for argv in PARSER_REUSE_SEQUENCE:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(run_code(capsys, argv))
    assert [code for code, _ in alone] == [0] * 9 + [2, 0]
    assert len(set(out for _, out in alone[2:4])) == 2
    assert len(set(out for _, out in alone[6:8])) == 2

    # perfbench rebinds cli.build_parser after import; main must call
    # whatever the module global holds when it builds
    built = []
    original = cli.build_parser

    def counting():
        built.append(original())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    together = [run_code(capsys, argv) for argv in PARSER_REUSE_SEQUENCE]
    assert len(built) == 1
    assert cli._parser is built[0]
    assert together == alone
