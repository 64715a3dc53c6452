"""The four workloads.  Each makes its inputs from the seed, sets up
``SETUPS`` times (the median is ``setup_s``), then runs a fixed amount
of work in a closed loop and checks every output.

Work scales with ``--seconds``: each profile's copy count is
``seconds`` times its copies-per-second on a 2-core reference host, so
one run measures about that long there.  Circuit structures are the
program's fixed ``like:`` profiles; the seed renames them
(:func:`common.generate_benches`) and orders the work, so seeds differ
in their inputs but not in their amount of work.

Where circuits are the latency items (``learn``, ``suite``), the mix is
three profiles of distinct cost in 30/40/30 shares: the median then
falls inside the middle profile's copies and p90 inside the heaviest
one's, so neither quantile jumps between profiles with run-to-run
noise.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (
    Checker,
    generate_benches,
    item_key,
    peak_rss_mb,
    process_peak_rss_mb,
    structure_key,
    work_dir,
    workload_rng,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Iterations of the host-speed probe, and the probe's mean time on the
#: 2-core reference host.  See :func:`_probe_loop`.
PROBE_ITERATIONS = 60_000
PROBE_REF_S = 0.0175
#: A phase's probes are discarded (its factor falls back to 1) when the
#: program's own threads or child processes used more CPU during them
#: than this share of their time.
LOAD_TOLERANCE = 0.05
#: Seconds between the probes beside a window whose work runs in
#: other processes.
PROBE_PERIOD_S = 0.5


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    checker: Checker
    recorder: Optional[object] = None   # tracing.Recorder when traced
    #: Host-speed probe times of the measured window and of the set-ups.
    probes: List[float] = field(default_factory=list)
    setup_probes: List[float] = field(default_factory=list)
    #: CPU seconds the program used beside each phase's probes.
    probe_load: Dict[str, float] = field(
        default_factory=lambda: {"setup": 0.0, "window": 0.0})
    #: Wall time the window's probes took, left out of the window.
    window_probe_s: float = 0.0

    def items(self, per_second: float) -> int:
        return max(1, round(self.seconds * per_second))

    def mix(self, rates) -> List[tuple]:
        """``(profile, scale, copies per second)`` -> copy counts."""
        return [(profile, scale, self.items(rate))
                for profile, scale, rate in rates]

    def probe(self, setup: bool = False) -> None:
        """Probe the host between items (or set-ups)."""
        begin = time.perf_counter()
        seconds, load = probe()
        phase = "setup" if setup else "window"
        (self.setup_probes if setup else self.probes).append(seconds)
        self.probe_load[phase] += load
        if not setup:
            self.window_probe_s += time.perf_counter() - begin

    def begin_measure(self) -> float:
        """Start of the measured region; traced runs drop set-up spans."""
        gc.collect()
        if self.recorder is not None:
            self.recorder.reset()
        return time.perf_counter()

    def item(self, key: Optional[str]) -> None:
        if self.recorder is not None:
            self.recorder.item = key


@dataclass
class Outcome:
    setup_s: List[float]
    #: Per-item latencies behind ``p50_s`` / ``p90_s``.
    latencies: List[float]
    ok: int
    attempted: int
    measured_s: float
    peak_rss_mb: float
    #: Latencies of subsets of the items, printed as their medians
    #: besides the metrics: ``printed name -> latencies``.
    groups: Dict[str, List[float]] = field(default_factory=dict)
    #: Lines printed with the result (``serve``: the request mix).
    notes: List[str] = field(default_factory=list)
    #: Per-layer values only the workload can measure (traced runs).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Spans recorded in another process (serve daemon), already
    #: restricted to the measured region.
    remote_spans: List[list] = field(default_factory=list)
    remote_counters: Dict[str, float] = field(default_factory=dict)
    #: Sum of per-request client latencies (serve coverage base).
    coverage_base_s: Optional[float] = None


def probe() -> Tuple[float, float]:
    """Run the probe loop between items; return its time and the CPU
    time the program's other threads and child processes used
    meanwhile.

    The probe's own time is thread CPU time, which the program's load
    does not lengthen by taking the cores.  Load could still slow it
    through shared caches or memory, and be credited back as host
    slowness, so :func:`host_factors` discards probes that saw any.
    """
    before = _program_cpu()
    seconds = _probe_loop()
    after = _program_cpu()
    threads = after[0] - before[0]
    children = sum(max(0, ticks - before[1].get(pid, 0))
                   for pid, ticks in after[1].items())
    return seconds, threads + children / _CLOCK_TICKS


def _probe_loop() -> float:
    """One host-speed probe: the thread CPU time of a fixed pure-Python
    loop.

    The host's speed drifts by about 8% (coefficient of variation of
    25 s windows of this loop) over minutes, more than a run can
    average out.  :func:`host_factors` turns a run's probe times into
    factors that scale its timings to the reference host.  ``learn``
    and ``atpg`` probe before each item, every workload around its
    set-ups (:func:`probe`); ``suite`` and ``serve`` probe in a process
    of their own beside the window (:class:`_ProbeProcess`).

    CPU time, not wall time: on the reference host, two busy processes
    beside the probe doubled its wall time and left its CPU time
    unchanged, so the program's own load cannot pass for host
    slowness by taking the cores.  The host's slowness, which stretches
    CPU time there, still shows.  Garbage collection is off so the
    program's heap does not cost the probe time.
    """
    gc.disable()
    try:
        start = time.thread_time()
        table: Dict[int, int] = {}
        for i in range(PROBE_ITERATIONS):
            table[i % 5000] = table.get(i * 7 % 5000, 0) + i * i % 7
        return time.thread_time() - start
    finally:
        gc.enable()


class _ProbeProcess:
    """Probes the host every ``period`` seconds, in a forked process of
    its own, while the window's work runs in other processes (the
    ``suite`` pool, the ``serve`` daemon); the times go to
    ``ctx.probes``.

    The host's speed swings at the scale of seconds, so probes only
    between ``run_suite`` calls, or around the ``serve`` window, tracked
    it worse than no correction.  In a process of its own the probe
    holds no lock the benchmark's client threads need; it takes a
    steady 4% of one core.
    """

    def __init__(self, ctx: Context, period: float):
        self.ctx, self.period = ctx, period

    def __enter__(self):
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            # Never unwind into the benchmark's own clean-up code.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            try:
                os.close(read)
                while True:
                    time.sleep(self.period)
                    os.write(write, f"{_probe_loop()!r}\n".encode())
            finally:
                os._exit(1)
        os.close(write)
        self.read = read
        return self

    def __exit__(self, *exc):
        os.kill(self.pid, signal.SIGTERM)
        os.waitpid(self.pid, 0)
        with os.fdopen(self.read) as handle:
            self.ctx.probes.extend(float(line) for line in handle)
        return False


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _program_cpu() -> Tuple[float, Dict[int, int]]:
    """CPU seconds of this process's threads other than the calling
    one, and clock ticks of each live descendant process."""
    others = time.process_time() - time.thread_time()
    ticks: Dict[int, int] = {}
    pending = [os.getpid()]
    while pending:
        pid = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    found = [int(child) for child in handle.read().split()]
            except OSError:
                continue
            for child in found:
                try:
                    with open(f"/proc/{child}/stat") as handle:
                        # Fields after the parenthesised name; utime and
                        # stime are fields 14 and 15 of the whole line.
                        fields = handle.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                ticks[child] = int(fields[11]) + int(fields[12])
                pending.append(child)
    return others, ticks


def host_factors(ctx: Context) -> Tuple[float, float, List[str]]:
    """Reference-host seconds per measured second, for the window and
    for the set-ups, and why a factor fell back to 1.

    A factor is the reference probe time over the phase's mean probe
    time (1 without probes).  The mean, not the median, because the
    items' time integrates the host's speed the same way.  A phase's
    factor falls back to 1, timings as measured, when the program's
    other threads or its child processes used CPU beside its probes
    (:data:`LOAD_TOLERANCE`): that load would slow the probes and be
    credited back as host slowness.
    """
    factors, reasons = {}, []
    for phase, probes in (("window", ctx.probes),
                          ("setup", ctx.setup_probes)):
        factors[phase] = (PROBE_REF_S * len(probes) / sum(probes)
                          if probes else 1.0)
        load = ctx.probe_load[phase]
        if probes and load > LOAD_TOLERANCE * sum(probes):
            factors[phase] = 1.0
            reasons.append(f"{phase}: the program used {load:.4f} s of CPU "
                           f"beside {sum(probes):.4f} s of probes")
    return factors["window"], factors["setup"], reasons


def _setup(ctx: Context, fn):
    """Run ``fn`` SETUPS times, probing the host before each and after
    the last; return (last result, times)."""
    times, result = [], None
    for _ in range(SETUPS):
        ctx.probe(setup=True)
        gc.collect()
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    ctx.probe(setup=True)
    return result, times


# ----------------------------------------------------------------------
# learn: cold sequential learning, one API request per circuit
# ----------------------------------------------------------------------
#: Paper profiles of 508, 834 and 1,007 gates, about 0.65, 1.2 and
#: 2.3 s each on the reference host.  like:s1196 (2.9-4.9 s) and
#: like:s13207@0.2 (3.7 s) are left out: one circuit would be a sixth
#: of a run.
LEARN_MIX = (("s1238", 1.0, 0.3), ("s5378", 0.3, 0.36),
             ("s9234", 0.18, 0.25))
LEARN_FIELDS = ("gates", "ffs", "ff_ff_relations", "gate_ff_relations",
                "ties", "equiv_gates")


def run_learn(ctx: Context) -> Outcome:
    from repro.api import LearnRequest, execute

    paths, setup = _setup(ctx, lambda: generate_benches(
        workload_rng("learn", ctx.seed), ctx.mix(LEARN_MIX), "learn"))
    # First use of the learning path pays one-off costs; not an item.
    execute(LearnRequest(spec="s27"))
    latencies, ok = [], 0
    start = ctx.begin_measure()
    for path in paths:
        ctx.probe()
        ctx.item(item_key(path))
        t0 = time.perf_counter()
        response = execute(LearnRequest(spec=path))
        latencies.append(time.perf_counter() - t0)
        if not response.ok:
            ctx.checker.fail(item_key(path), str(response.error))
            continue
        learn = response.result["learn"]
        ok += ctx.checker.check(structure_key(path), {
            name: learn[name] for name in LEARN_FIELDS})
    ctx.probe()
    measured = time.perf_counter() - start - ctx.window_probe_s
    ctx.item(None)
    return Outcome(setup_s=setup, latencies=latencies, ok=ok,
                   attempted=len(paths), measured_s=measured,
                   peak_rss_mb=peak_rss_mb())


# ----------------------------------------------------------------------
# atpg: PODEM in all three modes over learned mid circuits
# ----------------------------------------------------------------------
ATPG_MIX = (("s386", 0.75, 1 / 6), ("s641", 0.5, 1 / 6),
            ("s953", 0.5, 1 / 6))
ATPG_MODES = ("none", "known", "forbidden")
#: Faults sampled per (circuit, mode) with the default fill seed (a
#: seeded sample moves one circuit's cost by +-20%); the backtrack
#: limit is the paper's low setting.
ATPG_FAULTS = 27
ATPG_STATS_FIELDS = ("total_faults", "detected", "untestable", "aborted",
                     "collateral", "decisions", "backtracks",
                     "sequences_total")


def run_atpg(ctx: Context) -> Outcome:
    from repro.atpg import run_atpg as atpg
    from repro.circuit import load_bench
    from repro.circuit.library import s27
    from repro.core.engine import learn
    from repro.flow import ATPGConfig

    def setup():
        paths = generate_benches(workload_rng("atpg", ctx.seed),
                                 ctx.mix(ATPG_MIX), "atpg")
        return [(path, circuit, learn(circuit))
                for path, circuit in zip(paths, map(load_bench, paths))]

    def config(mode: str) -> ATPGConfig:
        return ATPGConfig(mode=mode, backtrack_limit=30, max_frames=10,
                          max_faults=ATPG_FAULTS, keep_sequences=False)

    prepared, setup_s = _setup(ctx, setup)
    # First use of each mode's search pays one-off costs; not an item.
    warm = s27()
    warm_learned = learn(warm)
    for mode in ATPG_MODES:
        atpg(warm, config=config(mode),
             learned=None if mode == "none" else warm_learned)
    latencies: List[float] = []
    ok = attempted = 0
    last = [0.0]

    def tick(done: int, total: int) -> None:
        now = time.perf_counter()
        latencies.append(now - last[0])
        last[0] = now

    start = ctx.begin_measure()
    for path, circuit, learned in prepared:
        for mode in ATPG_MODES:
            ctx.probe()
            item = f"{item_key(path)}:{mode}"
            ctx.item(item)
            before = len(latencies)
            last[0] = time.perf_counter()
            stats = atpg(circuit, config=config(mode), progress=tick,
                         learned=None if mode == "none" else learned)
            targeted = len(latencies) - before
            attempted += targeted
            observed = {name: getattr(stats, name)
                        for name in ATPG_STATS_FIELDS}
            if (stats.detected + stats.untestable + stats.aborted
                    != stats.total_faults):
                ctx.checker.fail(item, "verdicts do not add up")
            elif ctx.checker.check(f"{structure_key(path)}:{mode}",
                                   observed):
                ok += targeted
    ctx.probe()
    measured = time.perf_counter() - start - ctx.window_probe_s
    ctx.item(None)
    return Outcome(setup_s=setup_s, latencies=latencies, ok=ok,
                   attempted=attempted, measured_s=measured,
                   peak_rss_mb=peak_rss_mb())


# ----------------------------------------------------------------------
# suite: the whole pipeline over many small circuits on a 2-worker pool
# ----------------------------------------------------------------------
#: 80, 113 and 159 gates; about 0.4, 0.6 and 0.95 s of stage time each
#: on the reference host.
SUITE_MIX = (("s386", 0.5, 0.96), ("s641", 0.3, 1.32),
             ("s1196", 0.3, 0.96))
SUITE_MODES = ("none", "forbidden")
SUITE_JOBS = 2
#: Circuits per ``run_suite`` call: each call spawns its pool, warms its
#: workers, and drains its stragglers.
SUITE_BATCH = 16
#: Report fields that are timings or name the copy, not results.
SUITE_VOLATILE = ("cpu_s", "circuit")


def run_suite(ctx: Context) -> Outcome:
    from repro.core.engine import LearnConfig
    from repro.flow import ATPGConfig, ReproConfig, run_suite as suite

    paths, setup = _setup(ctx, lambda: generate_benches(
        workload_rng("suite", ctx.seed), ctx.mix(SUITE_MIX), "suite"))
    config = ReproConfig(
        learn=LearnConfig(max_frames=20),
        atpg=ATPGConfig(backtrack_limit=5, max_frames=5, max_faults=60,
                        keep_sequences=False))
    first: List[float] = []

    def progress(stage: str, event: str, payload) -> None:
        if not first:
            first.append(time.perf_counter())

    reports = []
    start = ctx.begin_measure()
    with _ProbeProcess(ctx, PROBE_PERIOD_S):
        for begin in range(0, len(paths), SUITE_BATCH):
            report = suite(paths[begin:begin + SUITE_BATCH], config=config,
                           modes=SUITE_MODES, progress=progress,
                           jobs=SUITE_JOBS)
            for error in report.errors:
                ctx.checker.fail(item_key(error["spec"]), error["error"])
            reports.extend(report.reports)
    measured = time.perf_counter() - start
    latencies, ok = [], 0
    for circuit_report in reports:
        latencies.append(sum(stage["elapsed_s"]
                             for stage in circuit_report["stages"]))
        learn = {k: v for k, v in circuit_report["learn"].items()
                 if k not in SUITE_VOLATILE}
        atpg = {mode: {k: v for k, v in row.items()
                       if k not in SUITE_VOLATILE}
                for mode, row in circuit_report["atpg"].items()}
        ok += ctx.checker.check(structure_key(circuit_report["circuit"]),
                                {"learn": learn, "atpg": atpg})
    outcome = Outcome(setup_s=setup, latencies=latencies, ok=ok,
                      attempted=len(paths), measured_s=measured,
                      peak_rss_mb=peak_rss_mb(include_children=True))
    if ctx.recorder is not None:
        outcome.layer["flow.first_task_s"] = (
            first[0] - start if first else measured)
    return outcome


# ----------------------------------------------------------------------
# serve: a daemon subprocess under a fixed, seeded request script
# ----------------------------------------------------------------------
#: Circuits the store already holds (reads) and fresh ones (writes).
SERVE_READ_MIX = (("s386", 0.75, 3), ("s1196", 0.2, 3))
SERVE_READ_CIRCUITS = sum(copies for _, _, copies in SERVE_READ_MIX)
SERVE_WRITE_PROFILES = (("s386", 1.0), ("s1196", 0.3))
#: Requests per second of run: sizes the script so a run takes about
#: ``--seconds`` on the 2-core reference host.  Not an offered rate;
#: the clients run closed-loop.
SERVE_REQUESTS_PER_S = 15
#: Script mix: (class, kind, endpoint, weight).  No record of real
#: traffic exists to take the weights from, so they are an assumption,
#: set for steadiness: reads are 90% of the script and writes 10%.
#: Among the reads, ``stats`` (the cheapest) fill the lowest 28% of
#: read latencies, store-hit learns the next 50% and the 3-mode ATPG
#: reads the top 22%.  p50 then falls mid-way through the store-hit
#: learns and p90 mid-way through the ATPG reads, so neither jumps
#: between kinds with noise.  Each run prints every kind's measured
#: share of the requests and of the client time, and the kinds p50 and
#: p90 fall in.
SERVE_MIX = (("read", "learn", "/v1/execute", 45),
             ("read", "stats", "/v1/execute", 25),
             ("read", "atpg", "/v1/execute", 10),
             ("read", "atpg", "/v1/stream", 10),
             ("write", "learn", "/v1/execute", 10))
SERVE_CLIENTS = 2
#: Small 3-mode ATPG: cheap enough to be a read.
SERVE_ATPG_CONFIG = {"learn": {"max_frames": 20},
                     "atpg": {"backtrack_limit": 5, "max_frames": 3,
                              "max_faults": 6}}
SERVE_LEARN_CONFIG = {"learn": {"max_frames": 20}}
#: Server-state counters inside ``stats`` answers; not part of the
#: result, so the canonical envelope leaves them out.
VOLATILE_STATS_KEYS = ("pattern_cache", "artifact_store")


def canonical_digest(envelope: dict) -> str:
    if envelope.get("command") == "stats":
        envelope = {k: v for k, v in envelope.items()
                    if k not in VOLATILE_STATS_KEYS}
    return hashlib.sha256(json.dumps(
        envelope, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class Daemon:
    """One ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, traced: bool, spans_path: Optional[str]):
        env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
        if traced:
            argv = [sys.executable, os.path.join("perfbench",
                                                 "serve_launcher.py"),
                    spans_path]
        else:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def request(self, endpoint: str, body: dict):
        """POST one request; returns (status, envelope or None)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            headers = {"Content-Type": "application/json"}
            conn.request("POST", endpoint, json.dumps(body), headers)
            response = conn.getresponse()
            data = response.read()
            status = response.status
        finally:
            conn.close()
        if endpoint == "/v1/stream" and status == 200:
            return status, _stream_envelope(data)
        return status, json.loads(data)

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset_trace(self) -> None:
        """Open the measured window: the launcher drops set-up spans."""
        self.proc.send_signal(signal.SIGUSR1)
        for line in self.proc.stdout:
            if line.strip() == "trace reset":
                return
        raise RuntimeError("daemon exited before resetting its trace")

    def stop(self) -> None:
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a shell starting the benchmark in the
            # background leaves SIGINT ignored in every child.
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _stream_envelope(data: bytes) -> Optional[dict]:
    """The terminal envelope of an NDJSON stream."""
    pos = 0
    while pos < len(data):
        end = data.index(b"\n", pos)
        line = json.loads(data[pos:end])
        pos = end + 1
        if line.get("event") == "result":
            return json.loads(data[pos:pos + line["bytes"]])
    return None


def serve_plan(ctx: Context):
    """The request script's shape: (index, class, kind, endpoint,
    circuit index).  Every seed gets the same count of each mix entry,
    in its own order; reads of one kind cycle through the read circuits
    and write ``j`` learns fresh circuit ``j``."""
    rng = workload_rng("serve-script", ctx.seed)
    n = ctx.items(SERVE_REQUESTS_PER_S)
    total = sum(entry[3] for entry in SERVE_MIX)
    entries = [entry[:3] for entry in SERVE_MIX
               for _ in range(round(n * entry[3] / total))]
    rng.shuffle(entries)
    seen: Dict[tuple, int] = {}
    plan = []
    for index, entry in enumerate(entries):
        count = seen.get(entry, 0)
        seen[entry] = count + 1
        cls, kind, endpoint = entry
        target = count if cls == "write" else count % SERVE_READ_CIRCUITS
        plan.append((index, cls, kind, endpoint, target))
    return plan, seen.get(("write", "learn", "/v1/execute"), 0)


def request_body(index: int, kind: str, spec: str) -> dict:
    body = {"kind": kind, "spec": spec, "request_id": f"bench-{index:05d}"}
    if kind == "learn":
        body.update(canonical=True, config=SERVE_LEARN_CONFIG)
    elif kind == "atpg":
        body.update(canonical=True, config=SERVE_ATPG_CONFIG,
                    modes=["none", "known", "forbidden"])
    return body


def run_serve(ctx: Context) -> Outcome:
    traced = ctx.recorder is not None
    spans_path = os.path.join(work_dir("serve"), "daemon-spans.json")
    plan, n_writes = serve_plan(ctx)
    daemons: List[Daemon] = []

    def setup():
        for daemon in daemons:
            daemon.stop()
        rng = workload_rng("serve", ctx.seed)
        reads = generate_benches(rng, SERVE_READ_MIX, "serve-read")
        shares = len(SERVE_WRITE_PROFILES)
        writes = generate_benches(
            rng, [(profile, scale, (n_writes + index) // shares)
                  for index, (profile, scale)
                  in enumerate(SERVE_WRITE_PROFILES)], "serve-write")
        daemon = Daemon(traced, spans_path)
        daemons.append(daemon)
        for path in reads:
            status, envelope = daemon.request(
                "/v1/execute", {"kind": "learn", "spec": path,
                                "config": SERVE_LEARN_CONFIG})
            if status != 200 or not envelope.get("ok"):
                raise RuntimeError(f"store warm-up failed: {envelope}")
        return reads, writes, daemon

    try:
        (reads, writes, daemon), setup_s = _setup(ctx, setup)
        script = [(index, cls, endpoint, request_body(
                      index, kind,
                      writes[target] if cls == "write" else reads[target]))
                  for index, cls, kind, endpoint, target in plan]
        return _drive(ctx, daemon, script, setup_s, spans_path)
    finally:
        for daemon in daemons:
            daemon.stop()


def _server_state(daemon: Daemon) -> dict:
    doc = daemon.get("/v1/metrics")
    return {"store": doc["caches"]["artifact_store"],
            "histograms": doc["metrics"]["histograms"]}


def _drive(ctx: Context, daemon: Daemon, script, setup_s, spans_path):
    lock = threading.Lock()
    cursor = iter(script)
    # (index, cls, latency, status, digest, label, output key); equal
    # requests answer the same envelope, so the key is the request.
    records = []

    def client():
        while True:
            with lock:
                entry = next(cursor, None)
            if entry is None:
                return
            index, cls, endpoint, body = entry
            t0 = time.perf_counter()
            try:
                status, envelope = daemon.request(endpoint, body)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                status, envelope = 0, {"error": str(exc)}
            latency = time.perf_counter() - t0
            digest = (canonical_digest(envelope)
                      if status == 200 and envelope
                      and envelope.get("ok") else None)
            label = f"{body['kind']}{endpoint[3:]}"
            with lock:
                records.append((index, cls, latency, status, digest, label,
                                f"{label}:{item_key(body['spec'])}"))

    before = _server_state(daemon)
    if ctx.recorder is not None:
        daemon.reset_trace()
    start = ctx.begin_measure()
    threads = [threading.Thread(target=client)
               for _ in range(SERVE_CLIENTS)]
    with _ProbeProcess(ctx, PROBE_PERIOD_S):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    measured = time.perf_counter() - start
    after = _server_state(daemon)
    rss = process_peak_rss_mb(daemon.proc.pid)
    if rss is None:
        raise RuntimeError("the serve workload reads the daemon's peak "
                           "RSS from /proc")
    daemon.stop()

    ok = rejected = 0
    reads, writes = [], []
    for _, cls, latency, status, digest, label, key in sorted(records):
        if cls == "write":
            writes.append(latency)
        else:
            reads.append((latency, label))
        rejected += status == 429
        if digest is None:
            ctx.checker.fail(key, f"HTTP {status}")
        else:
            ok += ctx.checker.check(key, digest)
    outcome = Outcome(setup_s=setup_s,
                      latencies=[latency for latency, _ in reads], ok=ok,
                      attempted=len(script), measured_s=measured,
                      peak_rss_mb=rss)
    outcome.groups["write_p50_s"] = writes
    outcome.notes = _composition(records, sorted(reads))
    if ctx.recorder is None:
        return outcome

    store = {key: after["store"][key] - before["store"][key]
             for key in ("memory_hits", "misses", "puts")}
    lookups = store["memory_hits"] + store["misses"]
    outcome.layer["api.store_hit_ratio"] = (
        store["memory_hits"] / lookups if lookups else 0.0)
    outcome.layer["api.store_puts"] = store["puts"]
    wait_sum = wait_count = 0.0
    for name, cell in after["histograms"].items():
        if name.startswith("queue_wait_s"):
            old = before["histograms"].get(name, {"sum": 0.0, "count": 0})
            wait_sum += cell["sum"] - old["sum"]
            wait_count += cell["count"] - old["count"]
    outcome.layer["serve.queue_wait_s"] = (
        wait_sum / wait_count if wait_count else 0.0)
    outcome.layer["serve.rejected"] = rejected
    with open(spans_path) as handle:
        doc = json.load(handle)
    # The daemon reset its recorder when the window opened; spans that
    # start after it closed (the metrics read) are dropped.
    end = start + measured
    outcome.remote_spans = [span if span[2] <= end else
                            [None] + span[1:] for span in doc["spans"]]
    outcome.remote_counters = doc["counters"]
    client_total = sum(record[2] for record in records)
    execute_total = sum((s[3] or s[2]) - s[2] for s in doc["spans"]
                        if s[1] == "api.execute" and s[2] <= end)
    outcome.layer["serve.overhead_s"] = (
        (client_total - execute_total) / len(records))
    outcome.coverage_base_s = client_total
    return outcome


def _composition(records, reads) -> List[str]:
    """What the script's request kinds measured: each kind's share of
    the requests and of the summed client latency, its median, and the
    read kinds the p50 and p90 ranks fall in."""
    total = sum(record[2] for record in records)
    kinds: Dict[str, List[float]] = {}
    for _, cls, latency, _, _, label, _ in records:
        kinds.setdefault(f"{cls} {label}", []).append(latency)
    lines = [f"serve mix: {name:<22} {len(lats):4d} requests "
             f"({100 * len(lats) / len(records):4.1f}%), "
             f"{100 * sum(lats) / total:4.1f}% of client time, "
             f"median {1000 * median(lats):7.2f} ms"
             for name, lats in sorted(kinds.items())]
    for q in (0.5, 0.9):
        rank = q * (len(reads) - 1)
        kinds_at = sorted({reads[int(rank)][1],
                           reads[min(int(rank) + 1, len(reads) - 1)][1]})
        lines.append(f"serve mix: p{round(100 * q)}_s falls in "
                     f"{' / '.join(kinds_at)} reads")
    return lines


WORKLOADS = {
    "learn": run_learn,
    "atpg": run_atpg,
    "serve": run_serve,
    "suite": run_suite,
}
