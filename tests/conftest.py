"""Shared test data and helpers: the toy corpus text and a call counter.

Also puts ``oracles`` on the import path.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

TOY_RAW = (
    "The cat sits on the mat. The dog sits on the log. "
    "The cat chases the mouse! The dog chases the cat."
)


class CallCount:
    """Calls ``fn`` and counts the calls in ``calls``, which a test may reset."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` for the test by a CallCount of it."""

    def install(owner, name: str) -> CallCount:
        counter = CallCount(getattr(owner, name))
        monkeypatch.setattr(owner, name, counter)
        return counter

    return install
