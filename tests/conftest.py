"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
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


def _generation_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro-gen-")}
    except FileNotFoundError:       # no POSIX shared-memory directory
        return set()


def _creator_gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass
    return False


@pytest.fixture(scope="session", autouse=True)
def no_leaked_generation_segments():
    """Every fold of a pooled service creates and retires shared-memory
    segments: fail the session if one that appeared during it is left
    behind by this process (``repro-gen-<pid>-*``) or by a process that
    no longer exists to unlink it — a child this session started.
    Segments of live foreign processes are theirs."""
    before = _generation_segments()
    yield
    leaked = sorted(
        name for name in _generation_segments() - before
        if int(name.split("-")[2]) == os.getpid()
        or _creator_gone(int(name.split("-")[2])))
    assert not leaked, f"shared-memory segments left in /dev/shm: {leaked}"


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
