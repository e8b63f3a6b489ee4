"""Golden stdout and exit codes of the CLI.

Every verb and every ``verify`` suite runs at (1,1) in text and ``--json``
form, plus the cheap verbs at (2,1); each call's stdout and exit code must
match ``cli_golden.json`` byte for byte.  Regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when an output
change is deliberate.
"""

import json
from pathlib import Path

import pytest

from superfn.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def calls() -> list:
    out = []
    for js in ([], ["--json"]):
        at = ["--m", "1", "--n", "1"]
        for expr in ("t[1,2]*tb[2,1] + 1/2",
                     "(1 + 2i)*t[1,1]*tb[2,2] - 3/4*t[2,1] + i",
                     "r^2 - 2*r + 1",
                     "z[1]*zb[2] - 2/3i",
                     "(1 + i)*E[1,2]*E[2,1] - 2i*E[1,1] + 3",
                     "E[2,1]*E[1,2] - E[1,2]*E[2,1]",
                     "(E[1,2] + 1/2)^2"):
            out.append(at + ["eval", expr] + js)
        for expr in ("t[1,2]*tb[2,1] + 1/2",
                     "t[1,1]*tb[1,1] + t[2,1]*tb[2,1] - 1",
                     "E[2,1]*E[1,2] - E[1,2]*E[2,1]"):
            out.append(at + ["iszero", expr] + js)
        out.append(at + ["iszero", "t[1,1]*tb[1,1] + t[2,1]*tb[2,1] - 1",
                         "--mode", "pairing"] + js)
        out.append(at + ["act", "--side", "dL", "--elem", "E[1,2]",
                         "--on", "t[1,1]*tb[2,1]"] + js)
        out.append(at + ["act", "--side", "dR", "--elem",
                         "(2 + i)*E[2,1] + E[1,1]^2",
                         "--on", "t[1,2]*tb[1,2] + r"] + js)
        out.append(at + ["invariant", "CP[1,1]", "--side", "both"] + js)
        out.append(at + ["invariant", "t[1,1]"] + js)
        out.append(at + ["laplacian", "--k", "2"] + js)
        out.append(at + ["theta", "--k", "1"] + js)
        out.append(at + ["theta", "--k", "2"] + js)
        out.append(at + ["sergeev", "--d", "1"] + js)
        out.append(at + ["group", "--count", "4"] + js)
        for suite in ("hopf", "t51", "maxrank", "invariance", "fft"):
            out.append(at + ["verify", "--suite", suite] + js)
        out.append(at + ["verify", "--suite", "hopf", "--mode", "pairing"]
                   + js)
        out.append(at + ["eval", "E[1,1]^9"] + js)
        out.append(at + ["eval", "t[1,"] + js)
        at = ["--m", "2", "--n", "1"]
        out.append(at + ["eval", "(1 + 2i)*t[1,3]*tb[3,3] - 3/4*z[2]"] + js)
        out.append(at + ["eval", "(1 + i)*E[1,3]*E[3,1] - 2i*E[2,2]"] + js)
        out.append(at + ["iszero", "t[1,1]*tb[1,1] + t[2,1]*tb[2,1] "
                         "- t[3,1]*tb[3,1] - 1"] + js)
        out.append(at + ["act", "--side", "dL", "--elem", "E[3,1]",
                         "--on", "t[1,1]*tb[3,1] + r"] + js)
        out.append(at + ["invariant", "CP[1,1]", "--side", "both"] + js)
        out.append(at + ["invariant", "t[1,1]"] + js)
        out.append(at + ["laplacian", "--k", "2"] + js)
        out.append(at + ["theta", "--k", "1"] + js)
        out.append(at + ["theta", "--k", "2"] + js)
        out.append(at + ["verify", "--suite", "t51"] + js)
    return out


def run(argv, capsys) -> dict:
    code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": capsys.readouterr().out}


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_covers_the_call_list():
    assert [case["argv"] for case in GOLDEN_CASES] == calls()


@pytest.mark.parametrize(
    "case", GOLDEN_CASES,
    ids=[f"{i:02d}-{c['argv'][4]}" for i, c in enumerate(GOLDEN_CASES)])
def test_cli_output_is_unchanged(case, capsys):
    assert run(case["argv"], capsys) == case


if __name__ == "__main__":
    import contextlib
    import io

    cases = []
    for argv in calls():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        cases.append({"argv": argv, "code": code, "stdout": buf.getvalue()})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
