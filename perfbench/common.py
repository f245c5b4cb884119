"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: A served run keeps asking, in whole rounds, until both ``--seconds``
#: have passed and at least this many timed requests were answered, so
#: that ten samples lie beyond the 99th percentile.
MIN_REQUESTS = 1008
#: Memory and store size are read after exactly this many timed
#: requests, so both commits are compared at equal work.
CHECKPOINT_REQUESTS = MIN_REQUESTS


#: The reference load's time on an undisturbed core of the machine the
#: benchmark was written on; calibrated times are scaled to it.
REFERENCE_NOMINAL_S = 0.005
#: How many times a probe is repeated while the server keeps running.
QUIET_TRIES = 50


class _Slot:
    __slots__ = ("value", "key")

    def __init__(self, value, key) -> None:
        self.value = value
        self.key = key


def reference_seconds() -> float:
    """Time one pass of a fixed pure-Python load - tuple hashing, dict
    inserts, object and frozenset allocation, the instruction mix of the
    program's own hot paths - as a probe of the core's current speed.
    The garbage collector is held off meanwhile, so collecting garbage
    the program left behind is not charged to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        sets = []
        for i in range(4000):
            key = (i % 13, i % 7, i % 3 == 0, i)
            table[key] = _Slot(i, key)
            sets.append(frozenset((i % 5, i % 11)))
        sum(1 for key, slot in table.items() if key in table and slot.value % 3)
        len(set(sets))
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def process_cpu_ns(pid: int) -> int:
    """CPU time used so far by every thread of process ``pid``, in
    nanoseconds (``/proc/<pid>/task/*/schedstat``)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread ended between the listing and the read
    return total


def quiet_reference_seconds(pid: int) -> tuple[float, bool]:
    """:func:`reference_seconds` while process ``pid`` (the server, on
    the same core) uses no CPU.  Before the probe the caller sleeps in
    short steps until the server's CPU time stops moving, so work the
    server does after it has answered runs then, not during the probe;
    a probe during which the server still ran is thrown away and taken
    again.  Returns the time and whether the probe was quiet: the wait
    is bounded (500 steps of 0.2 ms), and after :data:`QUIET_TRIES`
    tries the last probe is kept as it is."""
    for _ in range(QUIET_TRIES):
        before = process_cpu_ns(pid)
        for _ in range(500):
            time.sleep(0.0002)
            now = process_cpu_ns(pid)
            if now == before:
                break
            before = now
        seconds = reference_seconds()
        if process_cpu_ns(pid) == before:
            return seconds, True
    return seconds, False


def calibrate(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of wall time scaled to the nominal core speed, by the
    reference load timed right before and right after it."""
    return seconds * REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2)


def pin_to_one_core() -> None:
    """Run this process, and every process it starts, on one core: the
    reference load then times the core the program runs on.  A closed
    loop over one connection never needs two cores at once."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def program_env() -> dict[str, str]:
    """The environment the program runs under: the source tree on the
    path and no ``REPRO_*`` setting inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def fresh_workdir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_checkout() -> None:
    """Fail early, printing no result, outside a full checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"no program source under {ROOT / 'src'}: run from a checkout"
        )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def file_mb(*paths: Path) -> float:
    return sum(p.stat().st_size for p in paths if p.exists()) / 1e6
