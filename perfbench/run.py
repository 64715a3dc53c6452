"""Benchmark of the learn -> ATPG -> serve pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload learn --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that wraps each layer's public entry
points (see ``tracing.py``) and prints the per-layer metrics, the
self-time coverage check and the tracing overhead.  Every run checks
every output; the last line of stdout is one JSON object.  See
``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    DEFAULT_SEED,
    Checker,
    host_probe,
    quantile,
    work_dir,
)

BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Span name -> per-layer metric holding its inclusive time.
SPAN_TOTALS = {
    "core.single_node": "core.single_node_s", "core.ties": "core.ties_s",
    "core.equivalence": "core.equivalence_s",
    "core.multi_node": "core.multi_node_s",
    "atpg.generate.none": "atpg.generate_s.none",
    "atpg.generate.known": "atpg.generate_s.known",
    "atpg.generate.forbidden": "atpg.generate_s.forbidden",
    "atpg.prepare": "atpg.prepare_s", "sim.compile": "sim.compile_s",
    "sim.drop": "sim.drop_s", "flow.resolve": "flow.resolve_s",
    "flow.task": "flow.task_s", "api.execute": "api.execute_s",
}

#: The traced run flags a coverage shortfall beyond this share.
COVERAGE_TOLERANCE = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("learn", "atpg", "serve", "suite"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sizes the fixed work of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's outputs as the checked-in "
                             "expectations (default seed only)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.write_expected and args.seed != DEFAULT_SEED:
        parser.error("--write-expected records the default seed only")
    return args


def metric_units(kind: str) -> dict:
    """``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json:
    name -> unit, in print order."""
    with open(BENCHMARK_PATH) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[kind]}


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    paths = []
    for top in (os.path.join("src", "repro"), "perfbench"):
        for folder, dirs, files in os.walk(top):
            # Skip the work directory: it changes with every run.
            dirs[:] = [d for d in dirs if not d.startswith(".")]
            paths.extend(os.path.join(folder, name) for name in files
                         if name.endswith((".py", ".json")))
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def show(name: str, value, unit: str) -> None:
    print(f"{name:<28} {value:>14.6g} {unit}")


def end_to_end(outcome, factor: float = 1.0,
               setup_factor: float = 1.0) -> dict:
    """The end-to-end metrics; timings of the measured window are
    scaled by ``factor`` and set-up times by ``setup_factor``
    (reference-host seconds per measured second)."""
    latencies = outcome.latencies
    return {
        "setup_s": median(outcome.setup_s) * setup_factor,
        "goodput_per_s": outcome.ok / (outcome.measured_s * factor),
        "p50_s": quantile(latencies, 0.5) * factor,
        "p90_s": quantile(latencies, 0.9) * factor,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def untraced_goodput(args, state_path: str) -> float:
    """Goodput of an untraced run with the same inputs and sources: from
    this checkout's last one, or from a fresh untraced run now."""
    if os.path.exists(state_path):
        with open(state_path) as handle:
            return json.load(handle)["goodput_per_s"]
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["goodput_per_s"]["value"]


def per_layer(args, outcome, recorder, goodput: float,
              state_path: str):
    """The per-layer metrics, and whether the coverage check passed."""
    import tracing

    local = recorder.spans
    worker_spans, worker_counters = recorder.load_workers()
    spans = local + worker_spans
    # Remote (daemon) spans keep their own parent indices.
    remote = outcome.remote_spans
    counters = dict(recorder.counters)
    for source in (worker_counters, outcome.remote_counters):
        for key, value in source.items():
            counters[key] = counters.get(key, 0) + value

    values = {name: 0.0 for name in metric_units("per_layer")}
    for group in (spans, remote):
        for name, total in tracing.name_totals(group).items():
            if name in SPAN_TOTALS:
                values[SPAN_TOTALS[name]] += total
    for name in ("core.relations", "core.ties", "core.multi_node_targets",
                 "atpg.generate_calls", "atpg.decisions", "atpg.backtracks",
                 "sim.compile_misses", "sim.drop_calls", "sim.collateral"):
        values[name] = counters.get(name, 0)
    calls = counters.get("atpg.generate_calls", 0)
    values["atpg.useful_ratio"] = (counters.get("atpg.useful", 0) / calls
                                   if calls else 0.0)
    from workloads import SUITE_JOBS
    if args.workload == "suite":
        wall = tracing.name_totals(local).get("flow.run_suite", 0.0)
        values["flow.pool_busy_ratio"] = (
            values["flow.task_s"] / (SUITE_JOBS * wall) if wall else 0.0)
    values.update(outcome.layer)

    # Coverage of the measured region by the layers' self times, in the
    # process that owns it: the daemon's spans against summed client
    # latency (serve), else this process's spans against the measured
    # time.  Inner coverage: the share below the outermost spans.  For
    # suite those run in the pool workers, against the pool's capacity,
    # jobs x measured time (the rest is spawn, pickling and idle
    # workers); the layer self times are the workers' too.
    if remote:
        outer, base = remote, outcome.coverage_base_s
    else:
        outer, base = local, outcome.measured_s
    attributed = sum(tracing.layer_self_times(outer).values())
    if worker_spans:
        selfs = tracing.layer_self_times(worker_spans)
        inner_base = SUITE_JOBS * outcome.measured_s
        inner = sum(selfs.values())
        inner_where = "in the pool workers, against jobs x measured time"
    else:
        selfs = tracing.layer_self_times(outer)
        inner_base, inner = base, tracing.inner_time(outer)
        inner_where = "against the measured time"
    for layer, seconds in selfs.items():
        values[f"{layer}.self_s"] = seconds
    values["trace.unattributed_s"] = base - attributed
    values["trace.coverage_ratio"] = attributed / base if base else 0.0
    values["trace.inner_coverage_ratio"] = (inner / inner_base
                                            if inner_base else 0.0)
    values["trace.overhead_ratio"] = (
        untraced_goodput(args, state_path) / goodput if goodput else 0.0)

    print(f"coverage: layers account for {attributed:.4f} s of "
          f"{base:.4f} s measured "
          f"({100 * values['trace.coverage_ratio']:.2f}%); "
          f"outermost spans: {', '.join(tracing.root_names(outer))}")
    print(f"  unattributed   {base - attributed:12.4f} s")
    print(f"  inner spans    {inner:12.4f} s of {inner_base:.4f} s "
          f"({100 * values['trace.inner_coverage_ratio']:.2f}%), "
          f"{inner_where}")
    for layer, seconds in selfs.items():
        print(f"  self {layer:<8} {seconds:12.4f} s")
    shortfall = abs(1 - values["trace.coverage_ratio"])
    covered_ok = shortfall <= COVERAGE_TOLERANCE
    print("coverage check: " + ("ok" if covered_ok else "FAIL") +
          f" (tolerance {100 * COVERAGE_TOLERANCE:.0f}%)")
    path = os.path.join(work_dir(), f"spans-{args.workload}.jsonl")
    tracing.write_spans(path, local + worker_spans + remote)
    print(f"spans written to {path}")
    return values, covered_ok


def _terminate(signum, frame):
    # Unwind normally on SIGTERM so workloads stop what they started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    source = os.path.join(ROOT, "src", "repro")
    try:
        # Load every layer before any timing, in both modes, so no
        # measured item pays for a first import.
        import repro.api  # noqa: F401
        import repro.serve.daemon  # noqa: F401
        import repro.sim.array_backend  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(repro.api.__file__)) != os.path.join(
            source, "api"):
        print(f"perfbench: the program must come from {source}",
              file=sys.stderr)
        return 2
    import workloads

    probe = host_probe()
    print("host: " + json.dumps(probe, sort_keys=True))
    recorder = None
    if args.trace:
        import tracing

        dump_dir = os.path.join(work_dir(), "worker-spans")
        shutil.rmtree(dump_dir, ignore_errors=True)
        os.makedirs(dump_dir)
        recorder = tracing.Recorder(dump_dir)
        tracing.install(recorder)

    checker = Checker(args.workload, args.seed)
    ctx = workloads.Context(workload=args.workload, seed=args.seed,
                            seconds=args.seconds, checker=checker,
                            recorder=recorder)
    started = time.perf_counter()
    outcome = workloads.WORKLOADS[args.workload](ctx)
    checker.save()
    if args.write_expected:
        checker.write_expected()

    factor, setup_factor, fallbacks = workloads.host_factors(ctx)
    e2e = end_to_end(outcome, factor, setup_factor)
    raw = end_to_end(outcome)
    failed = outcome.attempted - outcome.ok
    n = len(outcome.latencies)
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{outcome.attempted} items attempted, {outcome.ok} ok, "
          f"{n} latency samples ({n - 1 - int(0.9 * (n - 1))} beyond p90), "
          f"measured {outcome.measured_s:.3f} s, "
          f"run {time.perf_counter() - started:.1f} s")
    for key in checker.mismatches[:20]:
        print(f"output check failed: {key}")
    show("fail_ratio", failed / outcome.attempted, "ratio")
    end_to_end_units = metric_units("end_to_end")
    print(f"host speed: reference probe {workloads.PROBE_REF_S} s; "
          f"set-up probes {len(ctx.setup_probes)}, scale {setup_factor:.4f}; "
          f"window probes {len(ctx.probes)}, scale {factor:.4f}")
    for reason in fallbacks:
        print(f"host speed: scale 1 for the {reason}")
    print("as measured:")
    for name, value in raw.items():
        show(f"  {name}", value, end_to_end_units[name])
    for name, latencies in outcome.groups.items():
        if latencies:
            show(name, median(latencies) * factor,
                 f"s (n={len(latencies)})")
    for line in outcome.notes:
        print(line)
    state_path = os.path.join(
        work_dir("state"),
        f"untraced-{args.workload}-{args.seed}-{args.seconds}-"
        f"{source_digest()}.json")
    correct = failed == 0
    if args.trace:
        metrics, covered_ok = per_layer(args, outcome, recorder,
                                        e2e["goodput_per_s"], state_path)
        correct = correct and covered_ok
        units = metric_units("per_layer")
    else:
        metrics = e2e
        units = end_to_end_units
        with open(state_path, "w") as handle:
            json.dump(e2e, handle)
    for name, unit in units.items():
        show(name, metrics[name], unit)
    # The result line carries the scaled figures only; this file keeps
    # both, with the factors and why any fell back to 1.
    results_path = os.path.join(
        work_dir("results"),
        f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(results_path, "w") as handle:
        json.dump({"scaled": e2e, "as_measured": raw,
                   "window_factor": factor, "setup_factor": setup_factor,
                   "fallbacks": fallbacks, "metrics": metrics,
                   "window_probes": ctx.probes,
                   "setup_probes": ctx.setup_probes,
                   "probe_load": ctx.probe_load},
                  handle, indent=1, sort_keys=True)
    print(f"figures written to {results_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
