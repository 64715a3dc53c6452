"""Outside-in span tracing for the benchmark's traced runs.

Nothing here edits the program.  :func:`install` rebinds public
functions of the ``repro`` modules -- in every loaded module that
imported them by name -- to thin wrappers that record one span per call
into an in-memory :class:`Recorder`.  Spans carry (layer, name, start,
end, parent, item); a layer's *self time* is its spans' durations minus
their child spans.  Spans are kept in memory and written out (or handed
back to the benchmark) when the run ends.

Layers are the program's module names: ``core``, ``atpg``, ``sim``,
``flow``, ``api`` and ``serve``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional

LAYERS = ("core", "atpg", "sim", "flow", "api", "serve")


class Recorder:
    """Span and counter store; one per process."""

    def __init__(self, dump_dir: Optional[str] = None):
        self.pid = os.getpid()
        self.spans: List[list] = []     # [layer, name, start, end, parent, item]
        self.counters: Dict[str, float] = {}
        self.item: Optional[str] = None
        #: Where worker processes write their spans (suite pool).
        self.dump_dir = dump_dir
        self._worker_pid = self.pid
        self._generation = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Drop everything recorded so far (the measured window opens).
        Spans still open at this point are not recorded when they end."""
        with self._lock:
            self.spans, self.counters = [], {}
            self._generation += 1

    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def span(self, layer: str, name: str, item: Optional[str] = None):
        return _Span(self, layer, name, item)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def forked(self) -> None:
        """In a forked worker, forget what the parent had recorded."""
        if self._worker_pid != os.getpid():
            self._worker_pid = os.getpid()
            self._local = threading.local()
            self.reset()

    def dump_worker(self) -> None:
        """Worker processes: append spans/counters to a per-pid file."""
        if self.dump_dir is None:
            return
        with self._lock:
            spans, counters = self.spans, self.counters
            self.spans, self.counters = [], {}
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps({"spans": spans,
                                     "counters": counters}) + "\n")

    def load_workers(self):
        """Parent: every worker's dumped spans and summed counters."""
        spans: List[list] = []
        counters: Dict[str, float] = {}
        if self.dump_dir is None or not os.path.isdir(self.dump_dir):
            return spans, counters
        for name in sorted(os.listdir(self.dump_dir)):
            with open(os.path.join(self.dump_dir, name)) as handle:
                for line in handle:
                    doc = json.loads(line)
                    offset = len(spans)
                    for span in doc["spans"]:
                        if span[4] is not None:
                            span[4] += offset
                        spans.append(span)
                    for key, value in doc["counters"].items():
                        counters[key] = counters.get(key, 0) + value
        return spans, counters


class _Span:
    __slots__ = ("rec", "layer", "name", "item", "index", "generation")

    def __init__(self, rec: Recorder, layer: str, name: str,
                 item: Optional[str]):
        self.rec, self.layer, self.name, self.item = rec, layer, name, item

    def __enter__(self):
        rec = self.rec
        stack = rec._stack()
        start = time.perf_counter()
        with rec._lock:
            self.generation = rec._generation
            # A parent opened before the last reset is not recorded.
            parent = (stack[-1][0] if stack
                      and stack[-1][1] == self.generation else None)
            # The item is the benchmark's current one, else the
            # enclosing span's (a request id inside the daemon).
            item = self.item or (rec.spans[parent][5]
                                 if parent is not None else rec.item)
            self.index = len(rec.spans)
            rec.spans.append([self.layer, self.name, start, None,
                              parent, item])
        stack.append((self.index, self.generation))
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self.rec
        rec._stack().pop()
        with rec._lock:
            if self.generation == rec._generation:
                rec.spans[self.index][3] = end
        return False


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus direct children's durations."""
    own = [(s[3] or s[2]) - s[2] for s in spans]
    for span in spans:
        parent = span[4]
        if parent is not None:
            own[parent] -= (span[3] or span[2]) - span[2]
    return own


def layer_self_times(spans: List[list]) -> Dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        if span[0] in out:
            out[span[0]] += own
    return out


def inner_time(spans: List[list]) -> float:
    """Time inside the outermost spans that their child spans cover:
    the outermost spans' durations minus their self times."""
    own = self_times(spans)
    return sum((span[3] or span[2]) - span[2] - own[index]
               for index, span in enumerate(spans)
               if span[4] is None and span[0] is not None)


def root_names(spans: List[list]) -> List[str]:
    """Names of the outermost spans."""
    return sorted({span[1] for span in spans
                   if span[4] is None and span[0] is not None})


def name_totals(spans: List[list]) -> Dict[str, float]:
    """Total (inclusive) time per span name (layer ``None`` skipped)."""
    out: Dict[str, float] = {}
    for span in spans:
        if span[0] is not None:
            out[span[1]] = (out.get(span[1], 0.0)
                            + (span[3] or span[2]) - span[2])
    return out


def write_spans(path: str, spans: List[list]) -> None:
    """Write spans as JSON lines."""
    with open(path, "w") as handle:
        for layer, name, start, end, parent, item in spans:
            handle.write(json.dumps({
                "layer": layer, "name": name, "start": start, "end": end,
                "parent": parent, "item": item}) + "\n")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _rebind(original, replacement) -> int:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement``; returns how many bindings moved."""
    moved = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                moved += 1
    return moved


def _timed(rec: Recorder, layer: str, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        with rec.span(layer, name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer (once per process)."""
    import repro.api.executor as api_executor
    import repro.atpg as atpg
    import repro.core.engine as core_engine
    import repro.flow.parallel_suite as parallel_suite
    import repro.flow.session as flow_session
    import repro.serve.daemon as serve_daemon
    import repro.sim.compiled as sim_compiled
    import repro.sim.resident as resident

    def wrap(module, attr, layer, name, after=None):
        original = getattr(module, attr)
        if _rebind(original,
                   _timed(rec, layer, name, original, after)) == 0:
            raise RuntimeError(f"tracing found no binding of {attr}")

    # core: the phases SequentialLearner.learn calls by module global.
    wrap(core_engine, "run_single_node", "core", "core.single_node")
    wrap(core_engine, "extract_same_frame_relations", "core",
         "core.single_node")
    wrap(core_engine, "ties_from_single_node", "core", "core.ties")
    wrap(core_engine, "propagate_tie_constants", "core", "core.ties")
    wrap(core_engine, "find_equivalences", "core", "core.equivalence")

    def multi_done(stats, args, kwargs):
        rec.count("core.multi_node_targets", stats.targets_run)

    wrap(core_engine, "run_multi_node", "core", "core.multi_node",
         multi_done)

    def learn_done(result, args, kwargs):
        counts = result.counts()
        rec.count("core.relations", counts["ff_ff"] + counts["gate_ff"])
        rec.count("core.ties", len(result.ties))

    wrap(core_engine, "learn", "core", "core.learn", learn_done)

    # sim: kernel lowering (hits and misses) and the resident dropper.
    original_compile = sim_compiled.compile_circuit
    stats = sim_compiled.compile_cache_stats
    compile_lock = threading.Lock()

    def compile_circuit(circuit):
        # compile_circuit serializes on the kernel cache's lock anyway;
        # holding this one too makes the miss delta exact under threads.
        with compile_lock, rec.span("sim", "sim.compile"):
            before = stats()["misses"]
            result = original_compile(circuit)
            rec.count("sim.compile_misses", stats()["misses"] - before)
        return result

    _rebind(original_compile, compile_circuit)

    original_dropper = resident.make_resident_dropper

    def make_dropper(*args, **kwargs):
        dropper = original_dropper(*args, **kwargs)
        drop = dropper.drop

        def traced_drop(sequence):
            with rec.span("sim", "sim.drop"):
                hits = drop(sequence)
            rec.count("sim.drop_calls")
            rec.count("sim.collateral", len(hits))
            return hits

        dropper.drop = traced_drop
        return dropper

    _rebind(original_dropper, make_dropper)

    # atpg: fault preparation, the tie screen and each PODEM search.
    # The module holding run_atpg's fault loop and its helpers.
    atpg_loop = sys.modules[atpg.run_atpg.__module__]
    wrap(atpg_loop, "prepare_fault_list", "atpg", "atpg.prepare")
    wrap(atpg_loop, "tie_untestable_indices", "atpg", "atpg.prepare")
    wrap(atpg, "run_atpg", "atpg", "atpg.run")
    original_make_atpg = atpg.make_atpg

    def make_atpg(*args, **kwargs):
        engine = original_make_atpg(*args, **kwargs)
        mode = kwargs.get("mode", "none")
        generate = engine.generate
        span_name = f"atpg.generate.{mode}"

        def traced_generate(fault):
            with rec.span("atpg", span_name):
                result = generate(fault)
            rec.count("atpg.generate_calls")
            rec.count("atpg.decisions", result.decisions)
            rec.count("atpg.backtracks", result.backtracks)
            if result.status in ("detected", "untestable"):
                rec.count("atpg.useful")
            return result

        engine.generate = traced_generate
        return engine

    _rebind(original_make_atpg, make_atpg)

    # flow: circuit resolution and one suite task (pool worker or
    # serial loop).  A forked pool worker inherits these wrappers and
    # dumps its spans after every task.
    wrap(flow_session, "resolve_circuit", "flow", "flow.resolve")
    original_run_task = parallel_suite.run_task

    def run_task(*args, **kwargs):
        if os.getpid() != rec.pid:
            rec.forked()
        with rec.span("flow", "flow.task"):
            result = original_run_task(*args, **kwargs)
        if os.getpid() != rec.pid:
            rec.dump_worker()
        return result

    _rebind(original_run_task, run_task)
    wrap(flow_session, "run_suite", "flow", "flow.run_suite")

    # api: the one execute entry point (in-process and in the daemon,
    # where the request document carries the request id).
    original_execute = api_executor.execute

    def execute(request, *args, **kwargs):
        item = (request.get("request_id") if isinstance(request, dict)
                else getattr(request, "request_id", None))
        with rec.span("api", "api.execute", item):
            return original_execute(request, *args, **kwargs)

    _rebind(original_execute, execute)

    # serve: one HTTP exchange, from accepted socket to closed reply.
    original_process = serve_daemon.ReproServer.process_request_thread

    def process_request_thread(self, request, client_address):
        with rec.span("serve", "serve.handle"):
            return original_process(self, request, client_address)

    serve_daemon.ReproServer.process_request_thread = process_request_thread
