"""Shared test plumbing: acceptance-criterion reporting, a fresh degree
cap after every test, and a count of the reads of that cap.

Each acceptance test records a one-line PASS/FAIL summary; pytest captures
stdout of passing tests, so the lines are replayed in the terminal summary
where they are always visible.
"""

import os
from types import SimpleNamespace

import pytest

from superfn import ugl

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def fresh_degree_cap():
    """Drop the held degree cap after each test.  Autouse fixtures are set
    up first and torn down last, so this runs after ``monkeypatch`` has
    restored SUPERFN_DEGREE_CAP: a cap a test set does not outlive it."""
    yield
    ugl.reread_degree_cap()


def record_criterion(line: str):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class CountingEnviron(dict):
    """A copy of the environment that counts reads of SUPERFN_DEGREE_CAP."""

    reads = 0

    def get(self, key, default=None):
        self.reads += key == "SUPERFN_DEGREE_CAP"
        return super().get(key, default)


@pytest.fixture
def counting_environ(monkeypatch):
    """The environment as ``ugl`` sees it, counting degree-cap reads."""
    env = CountingEnviron(os.environ)
    monkeypatch.setattr(ugl, "os", SimpleNamespace(environ=env))
    return env
