"""The seeded world, its durable directory, and each workload's sessions.

Everything here is a pure function of ``--seed``: the same seed gives
the same facts, the same directory bytes and the same request sequence,
so counts (requests, bytes, waves, cache hits) repeat exactly and only
the clock differs between two runs.

The world's *shape* is the same for every seed (every department has
exactly 100 members, every session the same number of requests); the seed only decides which employee earns what,
knows which skill and is visited when.  Work per run is therefore
nearly seed-independent, which is what lets ten runs on ten seeds stay
inside the bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.entities import ISA, MEMBER
from repro.core.facts import Fact
from repro.datasets.synthetic import deep_retraction_workload
from repro.db import AXIOM_FACTS, Database
from repro.storage.journal import OP_ADD, OP_REMOVE
from repro.storage.session import DurableSession
from repro.storage.snapshot import SnapshotState, write_snapshot

WORKLOADS = ("browse-hot", "browse-cold", "write-mix", "ingest-recover")

#: ``(employees, departments)``: 100 colleagues per department either
#: way, so the join query returns ~100 rows on every workload.
#: ingest-recover serves the *plain* ``FactStore``, whose publish is an
#: O(heap) copy of hash indexes: at 5 000 employees one acknowledged
#: write costs 200–480 ms depending on how many gen-2 collections it
#: meets; at 500 it costs ~20 ms with the GC spikes above the median,
#: and a four-write session fits a round often enough to have a p50.
WORLD_SIZE = {
    "browse-hot": (5000, 50),
    "browse-cold": (5000, 50),
    "write-mix": (5000, 50),
    "ingest-recover": (500, 5),
}
#: ``--quick`` (the smoke test) runs every workload on this world.
QUICK_WORLD_SIZE = (200, 2)
AREAS, FIELDS, SKILLS = 3, 12, 240
CHAINS, CHAIN_DEPTH = 64, 4
HOT_SET = 32
ROUNDS = 21

#: Sessions per round for each second of ``--seconds``: tuned once on
#: the 2-vCPU reference host so that a window lasts about ``--seconds``,
#: then frozen.  Fixed work, not fixed time: the clock never decides how
#: many requests a run issues.
SESSIONS_PER_ROUND_SECOND = {
    "browse-hot": 76.0,
    "browse-cold": 7.2,     # also bounded by the oracle: ~3.5 ms/session
    "write-mix": 1.0,
    "ingest-recover": 0.4,
}
#: Untimed warm-up sessions.  The hot set needs two passes: employees
#: whose session number is 3 mod 4 alternate between two chain probes.
WARMUP_SESSIONS = {
    "browse-hot": 2 * HOT_SET,
    "browse-cold": 100,
    "write-mix": HOT_SET // 2,
    "ingest-recover": 4,
}

# A request is ``(kind, verb, argument)``: ``kind`` names the latency
# class it is reported under, ``verb`` the ServiceClient method.
Request = Tuple[str, str, object]
Session = Tuple[Request, ...]


@dataclass
class World:
    seed: int
    facts: List[Fact]               # axioms first, then generated
    employees: List[str]
    skill: Dict[str, str]           # the one skill each employee KNOWS
    lacks: Dict[str, str]           # a skill the employee does not know
    extra: Dict[str, str]           # a third one: the skill edits add
    hot: List[str]                  # the 64-employee working set
    order: List[str]                # seeded permutation of everyone
    departments: int


def build_world(seed: int, workload: str, quick: bool = False) -> World:
    n_employees, n_departments = \
        QUICK_WORLD_SIZE if quick else WORLD_SIZE[workload]
    rng = random.Random(seed)
    facts: List[Fact] = list(AXIOM_FACTS)
    facts.append(Fact("EMPLOYEE", ISA, "PERSON"))
    departments = [f"DEPT{i}" for i in range(n_departments)]
    facts.extend(Fact(d, MEMBER, "DEPARTMENT") for d in departments)
    # 3 areas ≺ 12 fields ≺ 240 skills: gen-target / mem-* rules fire.
    facts.extend(Fact(f"FIELD{f}", ISA, f"AREA{f % AREAS}")
                 for f in range(FIELDS))
    skills = [f"SKILL{s}" for s in range(SKILLS)]
    facts.extend(Fact(skills[s], ISA, f"FIELD{s % FIELDS}")
                 for s in range(SKILLS))
    employees = [f"EMP{i}" for i in range(n_employees)]
    seats = [departments[i % n_departments] for i in range(n_employees)]
    rng.shuffle(seats)
    skill, lacks, extra = {}, {}, {}
    for employee, seat in zip(employees, seats):
        salary = str(rng.randrange(20000, 90000, 500))
        own, missing, third = rng.sample(skills, 3)
        skill[employee], lacks[employee], extra[employee] = \
            own, missing, third
        facts.append(Fact(employee, MEMBER, "EMPLOYEE"))
        facts.append(Fact(employee, "WORKS-FOR", seat))
        facts.append(Fact(employee, "EARNS", salary))
        facts.append(Fact(employee, "KNOWS", own))
    for chain in range(CHAINS):
        chain_facts, _query = deep_retraction_workload(
            CHAIN_DEPTH, prefix=f"R{chain}C")
        facts.extend(chain_facts)
    order = list(employees)
    rng.shuffle(order)
    return World(seed=seed, facts=facts, employees=employees,
                 skill=skill, lacks=lacks, extra=extra,
                 hot=order[:HOT_SET],
                 order=order, departments=n_departments)


# ----------------------------------------------------------------------
# The durable directory handed to the server
# ----------------------------------------------------------------------
def write_directory(world: World, directory: Path, workload: str) -> None:
    """Write the world as the durable directory the server starts from.

    ``ingest-recover`` gets a checkpoint holding 60 % of the facts and a
    journal tail holding the other 40 % plus 2 % add-then-remove pairs
    (so replay exercises both ops and still ends at exactly the world);
    the other workloads get one snapshot and an empty journal.
    """
    rule_states = Database().rules.snapshot_state()
    facts = world.facts
    if workload != "ingest-recover":
        write_snapshot(directory / "snapshot.json",
                       SnapshotState(facts=facts, rule_states=rule_states))
        return
    generated = facts[len(AXIOM_FACTS):]
    rng = random.Random(world.seed + 1)
    tail_size = len(generated) * 2 // 5
    # The tail is the employees generated last plus the chains: a
    # journal holds recent work, the checkpoint the older bulk.
    head, tail = generated[:-tail_size], generated[-tail_size:]
    write_snapshot(directory / "snapshot.json",
                   SnapshotState(facts=list(AXIOM_FACTS) + head,
                                 rule_states=rule_states))
    entries = [(OP_ADD, f) for f in tail]
    for i in range(len(generated) // 50):
        scratch = Fact(f"TEMP{i}", MEMBER, "EMPLOYEE")
        at = rng.randrange(len(entries))
        entries.insert(at, (OP_ADD, scratch))
        entries.insert(rng.randrange(at + 1, len(entries) + 1),
                       (OP_REMOVE, scratch))
    session = DurableSession(directory)
    # Batches of 64, as the serving writer would have journaled them.
    for start in range(0, len(entries), 64):
        session.journal.append_batch(entries[start:start + 64])
    session.close()


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
def browse_session(world: World, employee: str, index: int) -> Session:
    """navigate · succeeding probe · failing probe (menu) · join query.

    Every 4th session the failing probe is a depth-4 relationship chain
    instead of the 1-wave ``KNOWS`` probe (a newcomer of ingest-recover
    knows nothing, so any skill fails for them)."""
    if index % 4 == 3:
        menu = f"(SOMEONE, R{index % CHAINS}C0, THING)"
    else:
        lacks = world.lacks.get(employee, f"SKILL{index % SKILLS}")
        menu = f"({employee}, KNOWS, {lacks})"
    return (
        ("navigate", "navigate", f"({employee}, *, *)"),
        ("probe", "probe", f"({employee}, EARNS, s)"),
        ("menu", "probe", menu),
        ("query", "query",
         f"({employee}, WORKS-FOR, d) and (d, ∈, DEPARTMENT)"
         f" and (x, WORKS-FOR, d) and (x, EARNS, s)"),
    )


def _curator_session(world: World, index: int) -> Session:
    """write-mix: the hot reads, then one edit of another hot employee
    — add a skill, navigate to see it, take it away again.  The heap is
    the world again when the session ends and never grows.

    Every session's reads follow the same kind of write, a retraction
    the replica needs ~28 ms to re-derive: it is always stale when they
    arrive, they always fall back to the primary, and their latencies
    have one path.  (With adds and removes in alternate sessions half
    the reads met a fresh replica and half a stale one, and a p50 sat
    in the gap between two modes: menu_p50_us 0.8–2.6 ms from round to
    round.)"""
    reader = world.hot[index % HOT_SET]
    target = world.hot[(index + HOT_SET // 2) % HOT_SET]
    triple = (target, "KNOWS", world.extra[target])
    return browse_session(world, reader, index) + (
        ("add", "add", triple),
        ("shows", "navigate", f"({target}, *, *)"),
        ("remove", "remove", triple))


def _ingest_session(world: World, index: int) -> Session:
    """ingest-recover: three adds for a new employee, one remove of an
    old employee's skill, then the four reads on the newcomer."""
    newcomer = f"NEW{index}"
    veteran = world.order[-1 - index]
    pay = random.Random(world.seed * 1000003 + index) \
        .randrange(20000, 90000, 500)
    return (
        ("add", "add", (newcomer, MEMBER, "EMPLOYEE")),
        ("add", "add", (newcomer, "WORKS-FOR",
                        f"DEPT{index % world.departments}")),
        ("add", "add", (newcomer, "EARNS", str(pay))),
        ("remove", "remove", (veteran, "KNOWS", world.skill[veteran])),
    ) + browse_session(world, newcomer, index)


def session_at(world: World, workload: str, index: int) -> Session:
    """Session number ``index`` of a workload's endless sequence."""
    if workload == "browse-hot":
        return browse_session(world, world.hot[index % HOT_SET], index)
    if workload == "browse-cold":
        return browse_session(
            world, world.order[index % len(world.order)], index)
    if workload == "write-mix":
        return _curator_session(world, index)
    if workload == "ingest-recover":
        return _ingest_session(world, index)
    raise ValueError(f"unknown workload {workload!r}")


def sessions_per_round(workload: str, seconds: float) -> int:
    return max(2, round(SESSIONS_PER_ROUND_SECOND[workload] * seconds))


@dataclass
class Plan:
    warmup: List[Session]
    rounds: List[List[Session]]
    #: index of the first session after the plan (the traced ladder
    #: continues the sequence there, on requests the window never saw)
    end: int


CHECKPOINT: Request = ("checkpoint", "checkpoint", None)


def build_plan(world: World, workload: str, per_round: int,
               rounds: int = ROUNDS, warmup: int = -1,
               start: int = 0) -> Plan:
    """A run's request sequence: warm-up, then equal rounds."""
    if warmup < 0:
        warmup = WARMUP_SESSIONS[workload]
    at = start
    warm = [session_at(world, workload, at + i) for i in range(warmup)]
    at += warmup
    window = []
    for _round in range(rounds):
        sessions = [session_at(world, workload, at + i)
                    for i in range(per_round)]
        if workload == "ingest-recover":
            # One checkpoint per round, always after the same session:
            # it lowers the round's requests/s and none of its p50s.
            middle = per_round // 2
            sessions[middle] = sessions[middle] + (CHECKPOINT,)
        window.append(sessions)
        at += per_round
    return Plan(warmup=warm, rounds=window, end=at)


def probe_session(world: World) -> Session:
    """The read-only session that ends every set-up measurement."""
    return browse_session(world, world.employees[0], 0)
