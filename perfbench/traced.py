"""The traced run: per-layer metrics for one workload.

It replays the workload's generated inputs in this process - with an
in-process ``ReproServer`` and a keep-alive client - in three phases:

1. set-up, traced: server start, session create, the untimed pass;
2. a fixed number of requests with the benchmark's spans off;
3. the same number again (new questions on ``serve_fresh``) with them on.

Fixed work, not a time limit, so every count repeats exactly for a seed.
Phase 2 against phase 3 gives ``obs.trace_overhead`` (calibrated by the
reference load, like the timed runs); the
per-layer times are uncalibrated wall time.  The spans are
``bench.*`` spans from this file, opened with the ``repro.obs`` span API
around public functions of each layer; they are kept in memory and
written once with ``write_chrome_trace``, then checked with
``scripts/validate_trace.py`` and summarized by ``repro stats``.  A
layer's self time is its span minus the part its child spans cover.
A layer the workload does not call reports 0.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import inputs
from common import ROOT, calibrate, program_env, reference_seconds

SERVED_OPS = 512

# The span ring must hold every span of the traced phase.
for _key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_key]
os.environ["REPRO_TELEMETRY_MAX_SPANS"] = "4000000"
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.core.compiled import CompiledSystem  # noqa: E402
from repro.core.constraints import Constraint  # noqa: E402
from repro.core.dependency import Witness  # noqa: E402
from repro.core.engine import DependencyEngine  # noqa: E402
from repro.core.store import PersistentStore  # noqa: E402
from repro.obs.provenance import Provenance  # noqa: E402
from repro.serve import app as serve_app  # noqa: E402
from repro.serve import sessions as serve_sessions  # noqa: E402
from repro.serve.admission import AdmissionController  # noqa: E402
from repro.serve.sessions import SessionRegistry  # noqa: E402
from repro.systems.program import ProgramSystem  # noqa: E402

import served  # noqa: E402


class Spans:
    """The benchmark's span wrappers; inert until :attr:`on` is set."""

    def __init__(self) -> None:
        self.on = False
        self._enumerated = threading.local()

    def install(self) -> None:
        wrap = self._wrap
        wrap(serve_sessions, "build_program_system", "bench.program.build")
        wrap(serve_app, "parse_expr", "bench.program.entry")
        wrap(ProgramSystem, "entry_constraint", "bench.program.entry")
        wrap(SessionRegistry, "create", "bench.serve.session_create")
        wrap(serve_app, "json_response", "bench.serve.encode")
        wrap(Witness, "describe", "bench.serve.encode")
        wrap(Provenance, "describe", "bench.serve.encode")
        wrap(DependencyEngine, "depends_ever", "bench.engine.depends_ever")
        wrap(PersistentStore, "load_closure", "bench.store.load")
        wrap(PersistentStore, "save_closure", "bench.store.save")
        wrap(CompiledSystem, "closure", "bench.kernel.closure", self._closure_attrs)
        wrap(CompiledSystem, "sat_ids", "bench.compiled.sat_ids", self._sat_attrs, self._sat_enter)
        self._wrap_compile()
        self._wrap_satisfying()
        self._wrap_admit()
        self._wrap_read_request()

    def _wrap(self, owner, attr, name, on_exit=None, on_enter=None) -> None:
        original = getattr(owner, attr)
        spans = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not spans.on:
                return original(*args, **kwargs)
            if on_enter is not None:
                on_enter()
            with obs.span(name) as span:
                result = original(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span, result)
                return result

        setattr(owner, attr, wrapper)

    # -- attributes -----------------------------------------------------------

    @staticmethod
    def _closure_attrs(span, closure) -> None:
        span.set("pairs", len(closure))
        span.set("kernel", closure.kernel_path)

    def _sat_enter(self) -> None:
        self._enumerated.flag = False

    def _sat_attrs(self, span, _result) -> None:
        span.set("enumerated", bool(getattr(self._enumerated, "flag", False)))

    def _wrap_satisfying(self) -> None:
        """Mark ``sat_ids`` calls that enumerate a constraint."""
        prop = Constraint.satisfying
        local = self._enumerated

        def satisfying(constraint):
            local.flag = True
            return prop.fget(constraint)

        Constraint.satisfying = property(satisfying, doc=prop.__doc__)

    def _wrap_compile(self) -> None:
        """``CompiledSystem(system)`` without given tables is the compile
        that an engine's first ``compiled_system()`` runs."""
        original = CompiledSystem.__init__
        spans = self

        @functools.wraps(original)
        def init(compiled, system, kernel=None):
            if not spans.on or kernel is not None:
                return original(compiled, system, kernel)
            with obs.span("bench.compiled.compile"):
                return original(compiled, system, kernel)

        CompiledSystem.__init__ = init

    def _wrap_admit(self) -> None:
        """Time how long a request waits to enter admission."""
        original = AdmissionController.admit
        spans = self

        class Timed:
            def __init__(self, manager) -> None:
                self.manager = manager

            async def __aenter__(self):
                if not spans.on:
                    return await self.manager.__aenter__()
                with obs.span("bench.serve.admit"):
                    return await self.manager.__aenter__()

            async def __aexit__(self, *exc):
                return await self.manager.__aexit__(*exc)

        @functools.wraps(original)
        def admit(controller, *args, **kwargs):
            return Timed(original(controller, *args, **kwargs))

        AdmissionController.admit = admit

    def _wrap_read_request(self) -> None:
        """``read_request``, timed from the arrival of the request line:
        the keep-alive wait for the client's next request is idle time,
        not parsing."""
        original = serve_app.read_request
        spans = self

        class Reader:
            def __init__(self, reader) -> None:
                self.reader = reader
                self.span = None

            async def readuntil(self, separator=b"\n"):
                line = await self.reader.readuntil(separator)
                if self.span is None:
                    self.span = obs.span("bench.serve.parse")
                    self.span.__enter__()
                return line

            async def readexactly(self, n):
                return await self.reader.readexactly(n)

        @functools.wraps(original)
        async def read_request(reader, *args, **kwargs):
            if not spans.on:
                return await original(reader, *args, **kwargs)
            timed = Reader(reader)
            try:
                return await original(timed, *args, **kwargs)
            finally:
                if timed.span is not None:
                    timed.span.__exit__(None, None, None)

        serve_app.read_request = read_request


# -- span arithmetic ----------------------------------------------------------


class Layers:
    """Per-name totals, counts and self times of the ``bench.*`` spans.

    The program's own spans are transparent here: a ``bench.*`` span's
    children are the nearest ``bench.*`` spans beneath it."""

    def __init__(self, spans) -> None:
        by_id = {s.span_id: s for s in spans}
        children = defaultdict(list)
        bench = [s for s in spans if s.name.startswith("bench.")]
        for s in bench:
            parent = by_id.get(s.parent_id)
            while parent is not None and not parent.name.startswith("bench."):
                parent = by_id.get(parent.parent_id)
            if parent is not None:
                children[parent.span_id].append(s)
        self.total = Counter()
        self.self_ns = Counter()
        self.count = Counter()
        self.spans = defaultdict(list)
        for s in bench:
            self.total[s.name] += s.duration_ns
            self.count[s.name] += 1
            self.self_ns[s.name] += s.duration_ns - _covered(s, children[s.span_id])
            self.spans[s.name].append(s)

    def mean_ms(self, name: str, own: bool = False) -> float:
        total = (self.self_ns if own else self.total)[name]
        n = self.count[name]
        return total / 1e6 / n if n else 0.0

    def total_ms(self, name: str) -> float:
        return self.total[name] / 1e6


def _covered(span, kids) -> int:
    """Nanoseconds of ``span`` covered by the union of its children."""
    covered, cursor = 0, span.start_ns
    end = span.start_ns + span.duration_ns
    for kid in sorted(kids, key=lambda k: k.start_ns):
        start = max(kid.start_ns, cursor)
        stop = min(kid.start_ns + kid.duration_ns, end)
        if stop > start:
            covered += stop - start
            cursor = stop
    return covered


# -- the in-process server ----------------------------------------------------


class InProcessServer:
    def __init__(self, store: Path) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        config = serve_app.ServeConfig(port=0, store=str(store))
        self.server = serve_app.ReproServer(config)
        self._call(self.server.start())
        self.client = served.Client(self.server.port)

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(120)

    def stop(self) -> None:
        self.client.close()
        self._call(self.server.drain())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        self.loop.close()


def _served_phase(client, session, questions, oracle, spans_on, spans):
    """Ask ``questions`` in rounds; returns the checked answers and the
    calibrated busy time."""
    spans.on = spans_on
    answers = []
    busy = 0.0
    ref = reference_seconds()
    for start in range(0, len(questions), served.ROUND):
        began = time.perf_counter()
        for index in questions[start:start + served.ROUND]:
            with obs.span("bench.client.request") if spans_on else obs.NULL_SPAN:
                status, raw = served.ask(client, session, index)
            answers.append((index, status, raw))
        after = reference_seconds()
        busy += calibrate(time.perf_counter() - began, ref, after)
        ref = after
    spans.on = False
    checked = [served.check_answer(i, s, r, oracle) for i, s, r in answers]
    return checked, busy


def _replay_served(workload: str, seed: int, workdir: Path, spans: Spans):
    oracle = inputs.load_oracle()
    plan = served.Plan(workload, seed)
    store = workdir / "traced.sqlite"
    spans.on = True
    obs.enable(reset=True)
    server = InProcessServer(store)
    try:
        session = served.create_session(server.client)
        for index in plan.warm:
            served.check_answer(index, *served.ask(server.client, session, index), oracle)
        spans.on = False
        setup_snap = obs.snapshot()

        def questions():
            out = []
            while len(out) < SERVED_OPS:
                batch = plan.next_round()
                if batch is None:
                    raise RuntimeError("the entry family ran out")
                out.extend(batch)
            return out

        obs.reset()
        _, plain_s = _served_phase(server.client, session, questions(), oracle, False, spans)
        obs.reset()
        bodies, traced_s = _served_phase(server.client, session, questions(), oracle, True, spans)
        snap = obs.snapshot()
        status, raw = server.client.call("GET", "/stats")
        stats = json.loads(raw)["telemetry"]
        engine = server.server.registry.sessions()[0].engine
        resident = engine.cache_stats()["closures"]["size"]
    finally:
        server.stop()
    with sqlite3.connect(f"file:{store}?mode=ro", uri=True) as conn:
        (bytes_per_closure,) = conn.execute("SELECT AVG(nbytes) FROM closures").fetchone()
    return {
        "requests": SERVED_OPS,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "setup": setup_snap,
        "snap": snap,
        "counters": stats["counters"],
        "queue_wait": stats["hists"].get("serve.queue_wait.seconds"),
        "prov": served.tally(bodies),
        "witness_len_total": sum(
            int(served.provenance_fields(b).get("witness_len", 0)) for b in bodies
        ),
        "resident": resident,
        "bytes_per_closure": bytes_per_closure or 0.0,
    }


def _write_trace(replay, workdir: Path) -> None:
    """One Chrome trace of the traced set-up and the traced phase;
    validated against docs/trace.schema.json and summarized by
    ``repro stats`` (printed to stderr)."""
    snap = replay["snap"]
    combined = obs.TelemetrySnapshot(
        spans=replay["setup"].spans + snap.spans,
        counters=snap.counters,
        gauges=snap.gauges,
        hists=snap.hists,
    )
    path = workdir / "trace.json"
    obs.export.write_chrome_trace(str(path), combined)
    for argv in (
        [sys.executable, "scripts/validate_trace.py", str(path)],
        [sys.executable, "-m", "repro", "stats", str(path)],
    ):
        done = subprocess.run(
            argv, cwd=ROOT, env=program_env(), capture_output=True, text=True
        )
        sys.stderr.write(done.stdout + done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[1:3])} failed on {path}")


def run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    spans = Spans()
    spans.install()
    replay = _replay_served(workload, seed, workdir, spans)
    _write_trace(replay, workdir)
    return {
        "attempted": replay["requests"],
        "failed": 0,
        "metrics": metrics(replay),
    }


def metrics(replay) -> dict:
    setup = Layers(replay["setup"].spans)
    layers = Layers(replay["snap"].spans)
    requests = replay["requests"]
    counters = replay["counters"]
    prov = replay["prov"]

    enumerating = [
        s for s in layers.spans["bench.compiled.sat_ids"] if s.attrs.get("enumerated")
    ]
    kernel_spans = layers.spans["bench.kernel.closure"]
    kernel_self_s = layers.self_ns["bench.kernel.closure"] / 1e9
    pairs = sum(s.attrs.get("pairs", 0) for s in kernel_spans)
    bitset = sum(1 for s in kernel_spans if s.attrs.get("kernel") == "compiled-bitset")
    beneath = sum(
        layers.total_ms(name)
        for name in (
            "bench.serve.parse", "bench.serve.admit", "bench.serve.encode",
            "bench.program.entry", "bench.engine.depends_ever",
        )
    )
    client_ms = layers.total_ms("bench.client.request")
    queue = replay["queue_wait"]
    closure_requests = counters.get("engine.closure.requests", 0)
    ram_hits = prov["memo=hit"] - prov["store=hit"]

    def per_request(value: float) -> float:
        return value / requests

    out = {
        "serve.parse_ms": (per_request(layers.total_ms("bench.serve.parse")), "ms"),
        "serve.admit_ms": (per_request(layers.total_ms("bench.serve.admit")), "ms"),
        "serve.encode_ms": (per_request(layers.total_ms("bench.serve.encode")), "ms"),
        "serve.queue_wait_ms": (
            1000 * queue["sum_seconds"] / queue["count"] if queue and queue["count"] else 0.0,
            "ms",
        ),
        "serve.unattributed_ms": (per_request(client_ms - beneath), "ms"),
        "serve.session_create_ms": (setup.mean_ms("bench.serve.session_create"), "ms"),
        "program.build_ms": (setup.mean_ms("bench.program.build"), "ms"),
        "program.entry_ms": (per_request(layers.total_ms("bench.program.entry")), "ms"),
        "compiled.compile_ms": (setup.mean_ms("bench.compiled.compile"), "ms"),
        "compiled.sat_ids_ms": (
            sum(s.duration_ns for s in enumerating) / 1e6 / len(enumerating)
            if enumerating else 0.0,
            "ms",
        ),
        "compiled.sat_ids_per_query": (per_request(len(enumerating)), "count"),
        "engine.memo_hit_ratio": (
            counters.get("engine.closure.memo_hit", 0) / closure_requests
            if closure_requests else 0.0,
            "ratio",
        ),
        "engine.ram_hit_ratio_provenance": (per_request(ram_hits), "ratio"),
        "engine.resident_closures": (replay["resident"], "count"),
        "engine.self_ms": (
            per_request(layers.self_ns["bench.engine.depends_ever"] / 1e6), "ms"
        ),
        "kernel.closure_ms": (layers.mean_ms("bench.kernel.closure", own=True), "ms"),
        "kernel.closures": (len(kernel_spans), "count"),
        "kernel.pairs_per_s": (pairs / kernel_self_s if kernel_self_s else 0.0, "pairs/s"),
        "kernel.bitset_share": (bitset / len(kernel_spans) if kernel_spans else 0.0, "ratio"),
        "store.load_ms": (layers.mean_ms("bench.store.load"), "ms"),
        "store.save_ms": (layers.mean_ms("bench.store.save"), "ms"),
        "store.reads_per_query": (per_request(layers.count["bench.store.load"]), "count"),
        "store.writes_per_query": (per_request(layers.count["bench.store.save"]), "count"),
        "store.bytes_per_closure": (replay["bytes_per_closure"], "B"),
        "obs.trace_overhead": (replay["traced_s"] / replay["plain_s"] - 1, "ratio"),
        "traced.verdicts": (requests, "count"),
    }
    for key in ("memo=hit", "memo=fresh", "store=ram", "store=hit", "store=miss",
                "kernel=compiled", "kernel=compiled-bitset"):
        name = "prov." + key.replace("=", "_").replace("compiled-bitset", "bitset")
        out[name] = (prov[key], "count")
    out["prov.witness_len_total"] = (replay["witness_len_total"], "count")
    for counter in (
        "engine.closure.requests", "engine.closure.memo_hit", "engine.closure.memo_miss",
        "store.hit", "store.miss", "store.write", "kernel.pair_expansions",
    ):
        out[f"stats.{counter}"] = (counters.get(counter, 0), "count")
    return out
