"""Workload inputs, made from the workload seed and nothing else.

Served workloads query one program (``PROGRAM`` over ``VARS``, 768
states once the flowchart's pc is counted).  A question is an integer
index of one of two shapes:

* **entry-less** (``index >= len(FAMILY)``): a (source, target) pair of
  declared variables and no entry assertion, the shape the service's
  known callers send (``scripts/serve_client.py query``, the CI smoke
  jobs).  There are 5 x 5 = 25 of them.
* **with an entry** (``index < len(FAMILY)``): source ``secret`` and an
  entry assertion that excludes exactly two *points* of the declared
  domains::

    (secret != 1 or limit != 0 or level != 1 or gate != true or out != 0)
    and (secret != 3 or ...)

  so every entry admits the same number of states (one cost class), and
  two entries have the same satisfying set exactly when they exclude
  the same two points.  The family has C(128, 2) = 8128 members; each
  member carries one fixed target (``TARGETS[index % 3]``).

The seed-oracle answer of every question sits in ``oracle.json``
(``python3 perfbench/oracle.py`` writes it again).  A seed only chooses
which questions a run asks, and in what order.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracle.json"

PROGRAM = "gate := secret > limit;\nif gate then out := level else out := 0"
VARS = {
    "secret": "0..3",
    "limit": "0..3",
    "level": "0,1",
    "gate": "bool",
    "out": "0,1",
}
#: The declared domains, enumerated here rather than asked of the program.
DOMAINS = {
    "secret": (0, 1, 2, 3),
    "limit": (0, 1, 2, 3),
    "level": (0, 1),
    "gate": (False, True),
    "out": (0, 1),
}
SOURCE = "secret"
TARGETS = ("gate", "out", "level")

#: Every assignment of the declared variables, in a fixed order.
POINTS = tuple(itertools.product(*DOMAINS.values()))
#: The entry family: unordered pairs of excluded points.
FAMILY = tuple(itertools.combinations(range(len(POINTS)), 2))

#: The entry-less questions: every (source, target) pair of declared variables.
PLAIN = tuple(itertools.product(DOMAINS, DOMAINS))

#: ``serve_repeat`` asks this many entry-less questions and this many
#: with an entry, 16 in all.  Entry-less questions are three quarters, so
#: the median latency lies well inside their cost class (about 7 ms a
#: request, against about 20 ms for one with an entry).
REPEAT_PLAIN = 12
REPEAT_ENTRY = 4
FRESH_WARMUP = 16


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def entry_text(index: int) -> str:
    """The entry assertion of family member ``index``."""
    clauses = []
    for point in FAMILY[index]:
        terms = " or ".join(
            f"{name} != {_literal(value)}"
            for name, value in zip(DOMAINS, POINTS[point])
        )
        clauses.append(f"({terms})")
    return " and ".join(clauses)


def has_entry(index: int) -> bool:
    return index < len(FAMILY)


def satisfying_set(index: int) -> frozenset:
    """The declared-variable assignments question ``index`` admits,
    computed by enumerating the domains (the program is not asked)."""
    if not has_entry(index):
        return frozenset(POINTS)
    excluded = {POINTS[p] for p in FAMILY[index]}
    return frozenset(p for p in POINTS if p not in excluded)


def question(index: int) -> dict:
    """The request body of question ``index`` (session added later)."""
    if not has_entry(index):
        source, target = PLAIN[index - len(FAMILY)]
        return {"source": source, "target": target}
    return {
        "source": SOURCE,
        "target": TARGETS[index % len(TARGETS)],
        "entry": entry_text(index),
    }


def closure_key(index: int) -> tuple[str, frozenset]:
    """(source, satisfying set): the store keeps one closure row per key."""
    return question(index)["source"], satisfying_set(index)


def served_order(seed: int) -> list[int]:
    """Family members in the seeded order a served run asks them."""
    order = list(range(len(FAMILY)))
    random.Random(f"served:{seed}").shuffle(order)
    return order


def repeat_questions(seed: int) -> list[int]:
    """The 16 questions ``serve_repeat`` cycles, in their seeded order:
    ``REPEAT_PLAIN`` entry-less ones and ``REPEAT_ENTRY`` with an entry."""
    rng = random.Random(f"repeat:{seed}")
    plain = rng.sample(range(len(FAMILY), len(FAMILY) + len(PLAIN)), REPEAT_PLAIN)
    chosen = plain + served_order(seed)[:REPEAT_ENTRY]
    rng.shuffle(chosen)
    return chosen


def load_oracle() -> dict[int, tuple[bool, int | None]]:
    """Question index -> (verdict, shortest-witness length), checked to
    belong to this program and these questions."""
    doc = json.loads(ORACLE_PATH.read_text(encoding="utf-8"))
    if (
        doc.get("program") != PROGRAM
        or doc.get("vars") != VARS
        or doc.get("source") != SOURCE
        or len(doc.get("answers", ())) != len(FAMILY)
        or doc.get("plain") != [list(pair) for pair in PLAIN]
        or len(doc.get("plain_answers", ())) != len(PLAIN)
    ):
        raise SystemExit(
            "perfbench/oracle.json does not match perfbench/inputs.py; "
            "run python3 perfbench/oracle.py"
        )
    return {
        k: (bool(flow), None if length < 0 else length)
        for k, (flow, length) in enumerate(doc["answers"] + doc["plain_answers"])
    }


