"""Shared fixtures.  Builtin pairs validate on construction and carry
per-pair caches (PBW context, series), so each is built once per session."""

import os

import pytest

import sympair
from sympair.pairs import BUILTIN_PAIRS, builtin_pair

# The CLI tests start `python -m sympair` in child interpreters; let them
# import the same package as this session, also under a plain `pytest`.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(sympair.__file__)),
    os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def pairs():
    return {name: builtin_pair(name) for name in BUILTIN_PAIRS}


@pytest.fixture(scope="session")
def cot_abelian2(pairs):
    return pairs["cotangent:abelian2"]


@pytest.fixture(scope="session")
def cot_aff1(pairs):
    return pairs["cotangent:aff1"]


@pytest.fixture(scope="session")
def cot_heis3(pairs):
    return pairs["cotangent:heis3"]


@pytest.fixture(scope="session")
def cot_sl2(pairs):
    return pairs["cotangent:sl2"]


@pytest.fixture(scope="session")
def swap_sl2(pairs):
    return pairs["swap:sl2"]
