"""Shared fixtures: the specification documents shipped with the package."""

import dataclasses
from importlib import resources

import pytest

from pgsos import frontend, parse_spec

# the shared checks in helpers assert too, also under ``python -O``
pytest.register_assert_rewrite("helpers")


def _load(name: str):
    data = resources.files("pgsos").joinpath("data", name).read_bytes()
    return parse_spec(data)


@pytest.fixture(scope="session")
def pa_doc():
    """Finite probabilistic process algebra: prefixes, choice, three parallels."""
    return _load("pa.pgsos")


@pytest.fixture(scope="session")
def examples_doc():
    """Operators with multi-copy, reactive-testing, and replication behaviour."""
    return _load("examples.pgsos")


@pytest.fixture(scope="session")
def loops_doc():
    """Recursive processes: stopping loops, recursion through a prefix and
    a pair whose distance equation has an interval of fixed points."""
    return _load("loops.pgsos")


@pytest.fixture
def fresh_memo(monkeypatch):
    """``fresh_memo(doc)``: a document equal to ``doc`` with memo tables of
    its own, so nothing is derived, classified or solved in it yet, however
    the tests before it ran."""
    def fresh(doc):
        monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
        return dataclasses.replace(doc)
    return fresh
