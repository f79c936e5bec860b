"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro import Database
from repro.datasets import books, music, paper, university


@contextmanager
def primary_busy(pool):
    """Hold a :class:`~repro.serve.ReplicaPool`'s primary read slot, so
    every read issued inside the block finds the primary busy and takes
    the worker route — what a second concurrent reader sees, made
    deterministic.  White-box on purpose: the pool has no public option
    for this, and should not grow one for the tests."""
    with pool._primary_slot:  # noqa: SLF001
        yield


def replica_served(pool) -> int:
    """Reads a worker answered: what is left of ``reads`` after the
    primary's own and the fallbacks."""
    stats = pool.stats()
    return (stats["reads"] - stats["primary_reads"]
            - stats["fallback_reads"])


@pytest.fixture
def empty_db() -> Database:
    return Database()


@pytest.fixture
def music_db() -> Database:
    return music.load()


@pytest.fixture
def paper_db() -> Database:
    return paper.load()


@pytest.fixture
def university_db() -> Database:
    return university.load()


@pytest.fixture
def books_db() -> Database:
    return books.load()
