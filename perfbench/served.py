"""Served workloads: ``repro serve`` in a subprocess, one keep-alive
connection, a closed loop (the next request leaves when the previous
answer is back).

``serve_repeat`` cycles a fixed set of questions that the untimed pass
already answered, three quarters of them entry-less; ``serve_fresh``
asks, in every request, a question with an entry whose satisfying set
no earlier request of the run had.
"""

from __future__ import annotations

import http.client
import json
import signal
import sqlite3
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
from common import (
    CHECKPOINT_REQUESTS,
    MIN_REQUESTS,
    REFERENCE_NOMINAL_S,
    ROOT,
    SETUPS,
    calibrate,
    median,
    percentile,
    file_mb,
    program_env,
    quiet_reference_seconds,
    reference_seconds,
    vm_hwm_mb,
)

ROUND = 16
SESSION_DOC = {"program": inputs.PROGRAM, "vars": inputs.VARS}


class AnswerError(Exception):
    """A served answer that disagrees with the seed oracle."""


class Client:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, doc: dict | None = None):
        body = None if doc is None else json.dumps(doc).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class ServerProcess:
    """``python -m repro serve`` with a fresh store, as docs/SERVICE.md
    documents it."""

    def __init__(self, workdir: Path, tag: str) -> None:
        self.store = workdir / f"{tag}.sqlite"
        port_file = workdir / f"{tag}.port"
        for stale in (port_file, self.store, *self._sidecars()):
            stale.unlink(missing_ok=True)
        self.log = open(workdir / f"{tag}.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--port-file", str(port_file),
                "--store", str(self.store),
            ],
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=self.log,
        )
        deadline = time.monotonic() + 60
        while True:
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start; see {self.log.name}")
            time.sleep(0.002)
        self.client = Client(int(text))

    def _sidecars(self) -> tuple[Path, Path]:
        return Path(f"{self.store}-wal"), Path(f"{self.store}-shm")

    def quiet_reference(self) -> tuple[float, bool]:
        return quiet_reference_seconds(self.proc.pid)

    def rss_peak_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def store_mb(self) -> float:
        return file_mb(self.store, self._sidecars()[0])

    def stop(self) -> None:
        """SIGTERM (the documented drain), then wait for the exit."""
        if getattr(self, "client", None) is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def create_session(client) -> str:
    status, raw = client.call("POST", "/v1/sessions", SESSION_DOC)
    if status != 200:
        raise RuntimeError(f"session create answered {status}: {raw[:200]!r}")
    return json.loads(raw)["session"]


def ask(client, session: str, index: int):
    return client.call(
        "POST", "/v1/query", {"session": session, **inputs.question(index)}
    )


def witness_length(text: str) -> int:
    """Operations in the witness history (``history = History(a b c)``)."""
    for line in text.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == "history":
            inner = value.strip()[len("History("):-1]
            return 0 if inner in ("", "<lambda>") else len(inner.split())
    raise AnswerError(f"witness without a history line: {text!r}")


def provenance_fields(body: dict) -> dict[str, str]:
    return dict(
        bit.split("=", 1)
        for bit in body.get("provenance", "").split()
        if "=" in bit
    )


def check_answer(index: int, status: int, raw: bytes, oracle) -> dict:
    """Parse one answer and hold it against the seed oracle; returns the
    body.  Raises :class:`AnswerError` on any disagreement."""
    if status != 200:
        raise AnswerError(f"question {index}: HTTP {status}: {raw[:200]!r}")
    body = json.loads(raw)
    flow, length = oracle[index]
    want = "flow" if flow else "no_flow"
    if body.get("verdict") != want:
        raise AnswerError(
            f"question {index}: verdict {body.get('verdict')} != oracle {want}"
        )
    fields = provenance_fields(body)
    if flow:
        got = witness_length(body.get("witness", ""))
        if got != length or fields.get("witness_len") != str(length):
            raise AnswerError(
                f"question {index}: witness length {got} "
                f"(provenance {fields.get('witness_len')}) != oracle {length}"
            )
    elif "witness" in body:
        raise AnswerError(f"question {index}: no-flow answer with a witness")
    return body


def tally(bodies) -> Counter:
    """Provenance field tallies (``memo=``, ``store=``, ``kernel=``)."""
    counts: Counter = Counter()
    for body in bodies:
        fields = provenance_fields(body)
        for key in ("memo", "store", "kernel"):
            counts[f"{key}={fields.get(key, 'none')}"] += 1
    return counts


def store_closure_rows(store: Path) -> tuple[int, int]:
    """``(rows, distinct (sources, constraint key))`` of the closure
    table, read after the server has exited."""
    with sqlite3.connect(f"file:{store}?mode=ro", uri=True) as conn:
        rows, distinct = conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT sources || '|' || constraint_key) "
            "FROM closures"
        ).fetchone()
    return rows, distinct


class Plan:
    """Which questions a served run asks: the untimed pass, then whole
    rounds of timed questions."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload == "serve_repeat":
            self.warm = inputs.repeat_questions(seed)
            self._pool = None
        else:
            order = inputs.served_order(seed)
            self.warm = order[: inputs.FRESH_WARMUP]
            self._pool = order[inputs.FRESH_WARMUP:]
        self._next = 0

    def next_round(self) -> list[int] | None:
        """The next round's questions, or ``None`` once a fresh run has
        asked every member of the family."""
        if self._pool is None:
            return list(self.warm)
        batch = self._pool[self._next:self._next + ROUND]
        if len(batch) < ROUND:
            return None
        self._next += ROUND
        return batch

    def asked(self) -> list[int]:
        """Every distinct question asked so far."""
        return self.warm + (self._pool[: self._next] if self._pool is not None else [])


def smoothed_reference(refs: list[float], k: int) -> float:
    """The reference time for round ``k`` (timed between ``refs[k]`` and
    ``refs[k + 1]``): the median of the six probes around it, so one
    probe that ran in a lucky moment does not inflate a whole round."""
    return median(refs[max(0, k - 2):k + 4])


def check_store(store: Path, answered: list[int], asked: list[int]) -> None:
    """The store holds one closure row per distinct (source, satisfying
    set): at least one for every key a 200 answer was given for, at most
    one for every key asked."""
    rows, distinct = store_closure_rows(store)
    answered_keys = len({inputs.closure_key(i) for i in answered})
    asked_keys = len({inputs.closure_key(i) for i in asked})
    if rows != distinct or not answered_keys <= rows <= asked_keys:
        raise AnswerError(
            f"store holds {rows} closure rows ({distinct} distinct) after "
            f"{answered_keys} distinct (source, satisfying set) questions "
            f"answered ({asked_keys} asked)"
        )


def run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Times are calibrated: each set-up is scaled by the reference load
    timed right before and after it, each round of requests by the
    reference times around it (see :func:`smoothed_reference`).  Every
    probe taken while the server runs waits until the server is idle
    (:func:`common.quiet_reference_seconds`)."""
    oracle = inputs.load_oracle()
    plan = Plan(workload, seed)
    setups = []
    server = None
    noisy = 0
    for k in range(SETUPS):
        ref = reference_seconds()
        started = time.perf_counter()
        server = ServerProcess(workdir, f"setup{k}")
        try:
            session = create_session(server.client)
            for index in plan.warm:
                check_answer(index, *ask(server.client, session, index), oracle)
            setup_s = time.perf_counter() - started
            after, quiet = server.quiet_reference()
        except BaseException:
            server.stop()
            raise
        noisy += not quiet
        setups.append(calibrate(setup_s, ref, after))
        if k < SETUPS - 1:
            server.stop()
    answers = []
    rounds = []
    refs = []
    checkpoint = None
    try:
        client = server.client
        started = time.perf_counter()

        def probe() -> None:
            nonlocal noisy
            ref, quiet = server.quiet_reference()
            refs.append(ref)
            noisy += not quiet

        probe()
        while True:
            batch = plan.next_round()
            if batch is None:
                break
            round_started = time.perf_counter()
            timed = []
            for index in batch:
                sent = time.perf_counter()
                status, body = ask(client, session, index)
                timed.append((index, status, body, time.perf_counter() - sent))
            rounds.append((time.perf_counter() - round_started, timed))
            answers.extend(timed)
            probe()
            if checkpoint is None and len(answers) >= CHECKPOINT_REQUESTS:
                checkpoint = (server.rss_peak_mb(), server.store_mb())
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(answers) >= MIN_REQUESTS:
                break
    finally:
        server.stop()
    if checkpoint is None:
        raise RuntimeError(
            f"only {len(answers)} timed requests; the entry family ran out"
        )
    latencies = {True: [], False: []}
    raw = []
    busy = 0.0
    for k, (round_s, timed) in enumerate(rounds):
        scale = REFERENCE_NOMINAL_S / smoothed_reference(refs, k)
        busy += round_s * scale
        for index, status, _, t in timed:
            if status == 200:
                latencies[inputs.has_entry(index)].append(t * scale)
                raw.append(t)
    ok = latencies[True] + latencies[False]
    answered = list(plan.warm)
    for index, status, body, _ in answers:
        if status == 200:
            check_answer(index, status, body, oracle)
            answered.append(index)
    entries = [i for i in plan.asked() if inputs.has_entry(i)]
    if len({inputs.satisfying_set(i) for i in entries}) != len(entries):
        raise AnswerError("two questions of the run share a satisfying set")
    check_store(server.store, answered, plan.asked())
    shapes = "; ".join(
        f"{name}: {len(times)} ({len(times) / len(ok):.0%}), "
        f"p50 {1000 * percentile(times, 0.5):.3f} ms"
        for name, times in (("entry-less", latencies[False]), ("with entry", latencies[True]))
        if times
    )
    print(
        f"latency p99 {1000 * percentile(ok, 0.99):.3f} ms over {len(ok)} "
        f"answered requests; {shapes}; uncalibrated: p50 "
        f"{1000 * percentile(raw, 0.5):.3f} ms, p99 "
        f"{1000 * percentile(raw, 0.99):.3f} ms, {elapsed:.1f} s; "
        f"{noisy} of {len(refs) + SETUPS} reference probes not quiet",
        file=sys.stderr,
    )
    return {
        "attempted": len(answers),
        "failed": len(answers) - len(ok),
        "metrics": {
            "setup_s": (median(setups), "s"),
            "verdicts_per_s": (len(ok) / busy, "verdicts/s"),
            "latency_p50_ms": (1000 * percentile(ok, 0.50), "ms"),
            "rss_peak_mb": (checkpoint[0], "MB"),
            "store_mb": (checkpoint[1], "MB"),
        },
    }
