"""Shared fixtures: session-scoped databases and search engines.

Databases are built once per test session (k = 4 builds in ~0.4 s,
k = 5 in ~1 s) and shared read-only across test modules.
"""

from __future__ import annotations

import random

import pytest

from repro.synth.bfs import build_database
from repro.synth.search import MeetInTheMiddleSearch


@pytest.fixture(scope="session")
def db3():
    """Complete database for n = 3 (every 3-bit function has size <= 8)."""
    return build_database(3, 8)


@pytest.fixture(scope="session")
def db4_k4():
    """n = 4 database to depth 4."""
    return build_database(4, 4)


@pytest.fixture(scope="session")
def db4_k5():
    """n = 4 database to depth 5."""
    return build_database(4, 5)


@pytest.fixture(scope="session")
def engine3(db3):
    """Full-coverage search engine for n = 3 (L = 8 + 4 > L(3))."""
    lists = MeetInTheMiddleSearch.build_lists(db3, 4)
    return MeetInTheMiddleSearch(db3, lists)


@pytest.fixture(scope="session")
def engine4_l7(db4_k4):
    """n = 4 engine with L = 4 + 3 = 7."""
    lists = MeetInTheMiddleSearch.build_lists(db4_k4, 3)
    return MeetInTheMiddleSearch(db4_k4, lists)


@pytest.fixture(scope="session")
def engine4_l9(db4_k5):
    """n = 4 engine with L = 5 + 4 = 9."""
    lists = MeetInTheMiddleSearch.build_lists(db4_k5, 4)
    return MeetInTheMiddleSearch(db4_k5, lists)


@pytest.fixture(scope="session")
def handle4(db4_k4, engine4_l7):
    """Warm synthesis handle over the shared n=4, k=4 state (L = 7)."""
    from repro.synth.synthesizer import SynthesisHandle

    return SynthesisHandle(
        n_wires=4,
        k=4,
        max_list_size=3,
        database=db4_k4,
        engine=engine4_l7,
    )


@pytest.fixture()
def rng():
    """Seeded stdlib RNG for test-local sampling."""
    return random.Random(0xC0FFEE)
