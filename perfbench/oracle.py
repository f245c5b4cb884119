"""Write ``perfbench/oracle.json``: the seed oracle's answer to every
served question the benchmark can ask.

Run from the repository root::

    python3 perfbench/oracle.py

For each question (see ``inputs.py``: every member of the entry family
and every entry-less (source, target) pair) it runs
``repro.core.reachability._seed_depends_ever`` - the per-query
reference BFS, not the engine or its kernels - on the program, source,
target and entry, and records the verdict and the shortest-witness
length (-1 for no flow).  An entry constraint is built from the
satisfying set ``inputs.satisfying_set`` computes, so the program's
expression parser is not used either.  It takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402


def answers(indices) -> list[list[int]]:
    from repro.cli import parse_domain
    from repro.core.constraints import Constraint
    from repro.core.reachability import _seed_depends_ever
    from repro.systems.program import build_program_system

    domains = dict(parse_domain(f"{k}={v}") for k, v in inputs.VARS.items())
    ps = build_program_system(inputs.PROGRAM, domains)
    names = tuple(inputs.DOMAINS)
    out = []
    for index in indices:
        entry = None
        if inputs.has_entry(index):
            sat = inputs.satisfying_set(index)
            entry = Constraint(
                ps.space,
                lambda s, sat=sat: tuple(s[n] for n in names) in sat,
                name=f"entry{index}",
            )
        q = inputs.question(index)
        result = _seed_depends_ever(
            ps.system, {q["source"]}, q["target"], ps.entry_constraint(entry)
        )
        length = len(result.witness.history) if result else -1
        out.append([int(bool(result)), length])
    return out


def main() -> int:
    started = time.perf_counter()
    doc = {
        "program": inputs.PROGRAM,
        "vars": inputs.VARS,
        "source": inputs.SOURCE,
        "answers": answers(range(len(inputs.FAMILY))),
        "plain": [list(pair) for pair in inputs.PLAIN],
        "plain_answers": answers(
            range(len(inputs.FAMILY), len(inputs.FAMILY) + len(inputs.PLAIN))
        ),
    }
    text = json.dumps(doc, separators=(",", ":"))
    inputs.ORACLE_PATH.write_text(text + "\n", encoding="utf-8")
    print(
        f"wrote {inputs.ORACLE_PATH.name}: "
        f"{len(doc['answers']) + len(doc['plain_answers'])} answers "
        f"in {time.perf_counter() - started:.0f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
