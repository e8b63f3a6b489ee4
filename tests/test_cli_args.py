"""The CLI's table-driven argv reader against argparse, and its usage and
help output.

``argparse_reference`` is the argparse parser that ``superfn.cli`` used
before ``read_args`` replaced it, kept here as the reference.  On every
argv of the golden test, of ``PARSER_REUSE_SEQUENCE``, of the README and
of the ``queries`` benchmark workload (seed 7), both must give the same
namespace, or both a usage error.  The deliberate differences are pinned
one by one in ``test_contract_changes``.
"""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from superfn import cli
from superfn.cli import main, read_args
from test_bench_hooks import workloads
from test_cli import PARSER_REUSE_SEQUENCE
from test_cli_golden import calls

README = Path(__file__).resolve().parents[1] / "README.md"


# ------------------------------------------------------------- reference


def add_globals(p: argparse.ArgumentParser, suppress: bool):
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


def argparse_reference() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superfn",
        description="Exact computations in the function algebra of the "
                    "general linear supergroup.")
    add_globals(p, suppress=False)

    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, **kw):
        q = sub.add_parser(name, **kw)
        add_globals(q, suppress=True)
        return q

    q = verb("eval", help="normalize and print an expression")
    q.add_argument("expr")
    q.set_defaults(func=cli._cmd_eval)

    q = verb("act", help="apply a translation action")
    q.add_argument("--side", choices=("dL", "dR"), required=True)
    q.add_argument("--elem", required=True,
                   help="enveloping-algebra expression")
    q.add_argument("--on", required=True, help="function-algebra expression")
    q.set_defaults(func=cli._cmd_act)

    q = verb("iszero", help="test vanishing modulo the defining ideal")
    q.add_argument("expr")
    q.set_defaults(func=cli._cmd_iszero)

    q = verb("invariant", help="test Levi invariance under dL/dR")
    q.add_argument("expr")
    q.add_argument("--side", choices=("dL", "dR", "both"), default="dL")
    q.set_defaults(func=cli._cmd_invariant)

    q = verb("laplacian", help="check the radial Laplacian power identity")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=cli._cmd_laplacian)

    q = verb("theta", help="construct and check a radial eigenfunction")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=cli._cmd_theta)

    q = verb("sergeev", help="run the tensor-invariant suite up to degree d")
    q.add_argument("--d", type=int, required=True)
    q.set_defaults(func=cli._cmd_sergeev)

    q = verb("group", help="run the supergroup-point suite")
    q.add_argument("--count", type=int, default=20)
    q.set_defaults(func=cli._cmd_group)

    q = verb("verify", help="run a named verification suite")
    q.add_argument("--suite", required=True,
                   choices=("t51", "maxrank", "invariance", "hopf", "fft"))
    q.add_argument("--k", type=int, default=None,
                   help="maxrank: restrict to a single corner rank")
    q.add_argument("--d", type=int, default=None,
                   help="fft: maximum tensor degree")
    q.set_defaults(func=cli._cmd_verify)

    return p


REFERENCE = argparse_reference()


def reference_read(argv):
    """(namespace dict or None on a usage error, stderr) as argparse and
    the --m/--n check that main ran after it read argv."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = REFERENCE.parse_args(list(argv))
            if args.m is None or args.n is None:
                REFERENCE.error("--m and --n are required")
    except SystemExit as exc:
        assert exc.code == 2, argv
        return None, err.getvalue()
    return vars(args), err.getvalue()


def table_read(argv):
    """The same for the table reader; a usage error must exit 2 with a
    usage line and an error line on stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return vars(read_args(cli.build_parser(), list(argv))), ""
    except SystemExit as exc:
        assert exc.code == 2, argv
        usage, error = err.getvalue().splitlines()
        assert usage.startswith("usage: superfn ")
        assert error.startswith("superfn: error: ")
        return None, err.getvalue()


def assert_same_reading(argv):
    (got, _), (want, _) = table_read(argv), reference_read(argv)
    if want is None:
        assert got is None, argv
        return
    assert got is not None, argv
    assert got.pop("func") is want.pop("func"), argv
    assert got == want, argv


# ------------------------------------------------------------- equivalence


def readme_argvs() -> list:
    """Every ``superfn ...`` command of README's examples block."""
    text = README.read_text()
    block = text.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("superfn ")]
    assert len(argvs) >= 7
    return argvs


ARGV_SETS = {
    "golden": calls,
    "reuse": lambda: PARSER_REUSE_SEQUENCE,
    "readme": readme_argvs,
    "queries": lambda: [job.argv for job in workloads.queries_jobs(7)],
}


@pytest.mark.parametrize("source", ARGV_SETS)
def test_reader_matches_argparse(source):
    argvs = ARGV_SETS[source]()
    assert argvs
    for argv in argvs:
        assert_same_reading(argv)


def test_reader_matches_argparse_on_flag_order_and_repeats():
    base = ["--m", "1", "--n", "1"]
    for argv in (
        base + ["--trials", "2", "iszero", "r", "--trials", "5"],
        ["iszero", "r", "--m", "2", "--n", "1", "--seed", "-4"],
        base + ["--mode", "pairing", "iszero", "--mode", "generic", "r"],
        base + ["verify", "--suite", "maxrank", "--k", "-1", "--json"],
        base + ["invariant", "--side", "both", "--", "-1"],
        base + ["eval", "--", "-1/2*t[1,1]"],
        base + ["eval", "-1/2*t[1,1]"],
        base + ["eval"],
        base + ["act", "--side", "dL", "--elem", "E[1,1]"],
        base + ["--json"],
        ["--m", "1", "eval", "r"],
        base + ["--side", "dL", "act"],
        base + ["group", "--count", "x"],
        base + ["group"],
        base + ["theta", "--k", "0", "--profile", "1|1"],
        base + ["verify", "--suite", "fft", "--d", "2", "--k", "1"],
    ):
        assert_same_reading(argv)


def test_contract_changes():
    """Each deliberate difference from argparse, one assertion each."""
    base = ["--m", "1", "--n", "1"]
    # prefix abbreviations of flags are gone
    argv = base + ["iszero", "r", "--tri", "3"]
    assert reference_read(argv)[0]["trials"] == 3
    assert table_read(argv)[0] is None
    # so is --flag=value
    argv = ["--m=1", "--n", "1", "eval", "r"]
    assert reference_read(argv)[0]["m"] == 1
    assert table_read(argv)[0] is None
    # a positional starting with '-' needs "--" before it, also where
    # argparse took it as a negative number or for holding a space
    for expr in ("-1", "-1/2*t[1,1] + r"):
        assert reference_read(base + ["eval", expr])[0]["expr"] == expr
        assert table_read(base + ["eval", expr])[0] is None
        assert table_read(base + ["eval", "--", expr])[0]["expr"] == expr
    # a flag's value is the next item, whatever it starts with
    argv = base + ["act", "--side", "dL", "--elem", "E[1,1]",
                   "--on", "-1*t[1,1]"]
    assert reference_read(argv)[0] is None
    assert table_read(argv)[0]["on"] == "-1*t[1,1]"
    # the messages are worded anew; the usage line and exit code stay
    argv = base + ["--mode", "bogus", "iszero", "r"]
    assert reference_read(argv)[1].splitlines()[-1].startswith(
        "superfn: error: argument --mode: invalid choice: 'bogus'")
    assert table_read(argv)[1].splitlines()[-1] == (
        "superfn: error: --mode takes one of generic, pairing")


# ------------------------------------------------------------- usage, help


GLOBAL_FLAGS = ("-h", "--m", "--n", "--seed", "--trials", "--mode", "--json",
                "--profile")
VERB_FLAGS = {
    "eval": (), "act": ("--side", "--elem", "--on"), "iszero": (),
    "invariant": ("--side",), "laplacian": ("--k",), "theta": ("--k",),
    "sergeev": ("--d",), "group": ("--count",),
    "verify": ("--suite", "--k", "--d"),
}


def exits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def named(text: str, flag: str) -> bool:
    return re.search(rf"(^|[\s\[]){re.escape(flag)}\b", text) is not None


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_program_help_names_every_verb_and_flag(capsys, flag):
    code, out, err = exits(capsys, [flag])
    assert (code, err) == (0, "")
    assert out.startswith("usage: superfn ")
    for name in (*GLOBAL_FLAGS, *VERB_FLAGS):
        assert named(out, name), name


@pytest.mark.parametrize("verb", VERB_FLAGS)
def test_verb_help_names_every_flag_of_the_verb(capsys, verb):
    code, out, err = exits(capsys, ["--m", "1", "--n", "1", verb, "-h"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: superfn ")
    for name in (*GLOBAL_FLAGS, *VERB_FLAGS[verb]):
        assert named(out, name), (verb, name)
    # no flag of another verb is offered
    for other in set().union(*VERB_FLAGS.values()) - set(VERB_FLAGS[verb]):
        assert not named(out, other), (verb, other)


USAGE_ERRORS = {
    "unknown verb": ["frob", "r"],
    "unknown flag": ["eval", "r", "--frob"],
    "flag value missing at the end": ["eval", "r", "--seed"],
    "bad mode": ["--mode", "bogus", "iszero", "r"],
    "bad side": ["invariant", "r", "--side", "up"],
    "non-integer k": ["laplacian", "--k", "x"],
    "extra positional": ["eval", "r", "r"],
    "expression starting with - without --": ["eval", "-1/2*t[1,1]"],
    "verb flag before the verb": ["--k", "1", "laplacian"],
    "missing required flag": ["act", "--side", "dL", "--on", "r"],
    "missing verb": [],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_exit_2_with_a_usage_line(capsys, argv):
    code, out, err = exits(capsys, ["--m", "1", "--n", "1", *argv])
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: superfn ")
    assert error.startswith("superfn: error: ")


def test_negative_values_after_flags_reach_the_verb(capsys):
    for argv, want in (
        (["laplacian", "--k", "-1"], "error: --k must be nonnegative"),
        (["theta", "--k", "-3"], "error: --k must be nonnegative"),
    ):
        code = main(["--m", "1", "--n", "1", *argv])
        out, err = capsys.readouterr()
        assert (code, out, err.strip()) == (2, "", want), argv
    code = main(["--m", "1", "--n", "1", "--seed", "-5", "--json", "iszero",
                 "t[1,1]"])
    assert code == 0
    assert '"seed": -5' in capsys.readouterr().out
