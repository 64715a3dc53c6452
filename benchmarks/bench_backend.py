"""Backend speedup benchmark: reference vs compiled vs array.

Measures the two simulation hot paths and one end-to-end Table-5
workload on all three backends, checks the results are identical, and
writes the speedup table to ``BENCH_backend.json`` (checked in at the
repo root so the perf trajectory is tracked over PRs).  The array
column times ``backend="array"`` as the install runs it: the numpy
fault simulator when numpy is importable, the compiled kernels for
everything else (signatures always, everything without numpy);
``array_substrate`` in the payload records ``numpy`` or ``compiled``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_backend.py          # full
    PYTHONPATH=src python benchmarks/bench_backend.py --tiny   # CI smoke

Rows:

* ``pattern_sim``  -- packed random-pattern signatures (the learning
  engine's equivalence-candidate pass; 256-bit words; the array leg
  is ``signatures(backend="array")``, i.e. the compiled kernels).
* ``learn_signatures`` -- :func:`repro.sim.parallel.signatures` at the
  4096-bit array word width, the wide learning-signature path.
* ``fault_sim``    -- sequential fault simulation of the full collapsed
  stuck-at list over a random binary sequence (the acceptance
  microbenchmark: the compiled backend must be >= 3x faster here).
* ``atpg_e2e``     -- learning + full ATPG run (mode 'forbidden'),
  i.e. one Table-5 cell, dominated by fault dropping.
* ``atpg_drop``    -- the dropping loop itself: PODEM-generated
  sequences (produced once, outside timing) replayed through each
  backend's resident dropper over the full collapsed list.  PODEM
  dominates end-to-end runs and is backend-invariant, so this row
  isolates exactly the share a simulation backend can move.

Acceptance gates (full mode): compiled fault_sim >= 3x the reference;
on a multicore machine with numpy, array fault_sim >= 10x, array
pattern_sim >= 1x and array atpg_drop >= 2x the reference (waived on
single-core runners, matching the other benches' single-core waivers,
and on installs without numpy, where the array column times the
compiled kernels).  The ``inject_setup`` row needs numpy and is left
out without it.

Timing is best-of-N wall clock; identical-result assertions run on
every repetition, so the bench doubles as a coarse differential test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import random

from repro.atpg.driver import run_atpg
from repro.atpg.faults import collapse_faults
from repro.circuit import iscas_like
from repro.sim.array_backend import HAVE_NUMPY, ArrayFaultSimulator
from repro.sim.compiled import (
    CompiledFaultSimulator,
    compile_circuit,
    make_fault_simulator,
)
from repro.sim.faultsim import FaultSimulator, fault_coverage
from repro.sim.parallel import (
    random_source_masks,
    signatures,
    simulate_patterns,
)
from repro.sim.resident import make_resident_dropper

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..",
                           "BENCH_backend.json")


def _best_of(fn: Callable[[], object], repeat: int
             ) -> Tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _row(bench: str, circuit_name: str, detail: str,
         reference: Callable[[], object],
         compiled: Callable[[], object],
         array: Callable[[], object], repeat: int
         ) -> Dict[str, object]:
    ref_s, ref_value = _best_of(reference, repeat)
    comp_s, comp_value = _best_of(compiled, repeat)
    arr_s, arr_value = _best_of(array, repeat)
    assert ref_value == comp_value, f"{bench}: compiled disagrees"
    assert ref_value == arr_value, f"{bench}: array disagrees"
    return {
        "bench": bench,
        "circuit": circuit_name,
        "detail": detail,
        "reference_s": round(ref_s, 4),
        "compiled_s": round(comp_s, 4),
        "array_s": round(arr_s, 4),
        "speedup": round(ref_s / comp_s, 2) if comp_s else float("inf"),
        "array_speedup": (round(ref_s / arr_s, 2) if arr_s
                          else float("inf")),
    }


def build_rows(tiny: bool, repeat: int) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []

    # -- pattern simulation (learning signatures) ----------------------
    pat_circuit = iscas_like("s953" if tiny else "s1423",
                             scale=0.25 if tiny else 1.0)
    width = 256
    source = random_source_masks(pat_circuit, width, random.Random(2))
    compiled_circuit = compile_circuit(pat_circuit)
    loops = 3 if tiny else 20

    def pattern_reference():
        out = None
        for _ in range(loops):
            out = simulate_patterns(pat_circuit, source, width)
        return out

    def pattern_compiled():
        out = None
        for _ in range(loops):
            out = compiled_circuit.simulate_patterns(source, width)
        return out

    def pattern_array():
        # Same rng seed as ``source``: signatures() draws identical
        # source masks before simulating them.
        out = None
        for _ in range(loops):
            out = signatures(pat_circuit, width=width,
                             rng=random.Random(2), backend="array")
        return out

    rows.append(_row(
        "pattern_sim", pat_circuit.name,
        f"{loops}x {width}-bit signatures over {pat_circuit.num_gates} "
        "gates", pattern_reference, pattern_compiled, pattern_array,
        repeat))

    # -- wide learning signatures (the array word width) ---------------
    sig_width = 1024 if tiny else 4096
    sig_loops = 2 if tiny else 10

    def wide_signatures(backend: str):
        out = None
        for _ in range(sig_loops):
            out = signatures(pat_circuit, width=sig_width,
                             rng=random.Random(7), backend=backend)
        return out

    rows.append(_row(
        "learn_signatures", pat_circuit.name,
        f"{sig_loops}x {sig_width}-bit signatures() over "
        f"{pat_circuit.num_gates} gates (LearnConfig.signature_width "
        "path)",
        lambda: wide_signatures("reference"),
        lambda: wide_signatures("compiled"),
        lambda: wide_signatures("array"), repeat))

    # -- fault simulation (the acceptance microbenchmark) --------------
    fs_circuit = iscas_like("s953" if tiny else "s1423",
                            scale=0.25 if tiny else 1.0)
    faults = collapse_faults(fs_circuit)
    rng = random.Random(1)
    inputs = [fs_circuit.nodes[i].name for i in fs_circuit.inputs]
    frames = 8 if tiny else 32
    sequence = [{n: rng.randint(0, 1) for n in inputs}
                for _ in range(frames)]
    ref_sim = FaultSimulator(fs_circuit)
    comp_sim = CompiledFaultSimulator(fs_circuit)
    arr_sim = make_fault_simulator(fs_circuit, backend="array")
    rows.append(_row(
        "fault_sim", fs_circuit.name,
        f"{len(faults)} collapsed faults x {frames} frames, "
        "width 128 (array backend at its own default width)",
        lambda: ref_sim.detected(sequence, faults),
        lambda: comp_sim.detected(sequence, faults),
        lambda: arr_sim.detected(sequence, faults), repeat))

    # -- end-to-end test-set grading (fault-sim bound) -----------------
    n_seq = 4 if tiny else 24
    grade_seqs = [[{n: rng.randint(0, 1) for n in inputs}
                   for _ in range(frames)] for _ in range(n_seq)]
    rows.append(_row(
        "fault_grading", fs_circuit.name,
        f"fault_coverage of {n_seq} random sequences over "
        f"{len(faults)} faults",
        lambda: fault_coverage(fs_circuit, grade_seqs, faults,
                               backend="reference"),
        lambda: fault_coverage(fs_circuit, grade_seqs, faults,
                               backend="compiled"),
        lambda: fault_coverage(fs_circuit, grade_seqs, faults,
                               backend="array"), repeat))

    # -- end-to-end Table-5 workload -----------------------------------
    e2e_circuit = iscas_like("s386", scale=0.25 if tiny else 0.75)
    e2e_faults = 16 if tiny else 220

    def atpg(backend: str) -> Tuple:
        stats = run_atpg(e2e_circuit, mode="none", backtrack_limit=10,
                         max_frames=4, max_faults=e2e_faults,
                         keep_sequences=False, sim_backend=backend)
        return (stats.total_faults, stats.detected, stats.untestable,
                stats.aborted, stats.collateral, stats.sequences_total)

    rows.append(_row(
        "atpg_e2e", e2e_circuit.name,
        "run_atpg mode=none bt=10; PODEM-bound on this engine, so the "
        "backend moves only its fault-dropping share",
        lambda: atpg("reference"), lambda: atpg("compiled"),
        lambda: atpg("array"), max(1, repeat - 1)))

    # -- the ATPG dropping loop itself ---------------------------------
    # PODEM dominates end-to-end s641 runs (and is backend-invariant),
    # so timing run_atpg mostly measured the test generator.  Generate
    # the sequences once, outside timing, then replay them through each
    # backend's resident dropper over the full collapsed list -- the
    # exact loop run_atpg executes after every successful generation.
    drop_circuit = iscas_like("s641", scale=0.25 if tiny else 1.0)
    drop_faults = collapse_faults(drop_circuit)
    drop_seqs = run_atpg(drop_circuit, mode="none", backtrack_limit=10,
                         max_frames=8, keep_sequences=True,
                         sim_backend="compiled").sequences

    def drop_replay(backend: str) -> List[List[int]]:
        dropper = make_resident_dropper(
            drop_circuit, drop_faults,
            list(range(len(drop_faults))), backend=backend)
        return [sorted(dropper.drop(sequence))
                for sequence in drop_seqs]

    rows.append(_row(
        "atpg_drop", drop_circuit.name,
        f"resident-dropper replay of {len(drop_seqs)} PODEM sequences "
        f"over {len(drop_faults)} collapsed faults (generation "
        "excluded; run_atpg's dropping loop verbatim)",
        lambda: drop_replay("reference"),
        lambda: drop_replay("compiled"),
        lambda: drop_replay("array"), repeat))
    if not HAVE_NUMPY:
        return rows

    # -- injection-plan cache (array-backend setup amortization) -------
    # ATPG grading calls detected() once per candidate sequence over
    # the same fault list; the splice tables depend only on the batch,
    # so a warm plan cache pays the setup once.  Cold = a fresh
    # simulator every call (plans rebuilt; circuit lowering is shared
    # via the module caches, so the delta is injection setup alone).
    inj_loops = 4 if tiny else 12

    def inject_cold():
        out = None
        for _ in range(inj_loops):
            out = ArrayFaultSimulator(fs_circuit).detected(sequence,
                                                           faults)
        return out

    warm_sim = ArrayFaultSimulator(fs_circuit)

    def inject_warm():
        out = None
        for _ in range(inj_loops):
            out = warm_sim.detected(sequence, faults)
        return out

    cold_s, cold_value = _best_of(inject_cold, repeat)
    warm_s, warm_value = _best_of(inject_warm, repeat)
    assert cold_value == warm_value, "inject_setup: warm cache disagrees"
    rows.append({
        "bench": "inject_setup",
        "circuit": fs_circuit.name,
        "detail": f"{inj_loops}x detected() over {len(faults)} faults; "
                  "cold rebuilds injection plans per call, warm reuses "
                  "the per-batch plan cache",
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "plan_cache_hits": warm_sim.plan_cache_hits,
        "plan_cache_misses": warm_sim.plan_cache_misses,
        "speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
    })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="small circuits / few repetitions "
                             "(CI smoke)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output JSON path")
    args = parser.parse_args(argv)

    rows = build_rows(args.tiny, args.repeat)
    payload = {
        "format": "repro/bench-backend",
        "version": 4,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "array_substrate": "numpy" if HAVE_NUMPY else "compiled",
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")

    header = f"{'bench':<12} {'circuit':<12} {'reference_s':>11} " \
             f"{'compiled_s':>10} {'array_s':>9} {'speedup':>8} " \
             f"{'array':>7}"
    print(header)
    print("-" * len(header))
    for row in rows:
        if "reference_s" not in row:  # the array-only inject_setup row
            print(f"{row['bench']:<12} {row['circuit']:<12} "
                  f"cold {row['cold_s']:.4f}s  warm {row['warm_s']:.4f}s"
                  f"  {row['speedup']:>6.2f}x")
            continue
        print(f"{row['bench']:<12} {row['circuit']:<12} "
              f"{row['reference_s']:>11.4f} {row['compiled_s']:>10.4f} "
              f"{row['array_s']:>9.4f} {row['speedup']:>7.2f}x "
              f"{row['array_speedup']:>6.2f}x")
    print(f"\nwrote {os.path.abspath(args.out)} "
          f"(array substrate: {payload['array_substrate']})")

    fault_row = next(r for r in rows if r["bench"] == "fault_sim")
    if not args.tiny and fault_row["speedup"] < 3.0:
        print("FAIL: fault_sim speedup below the 3x acceptance bar",
              file=sys.stderr)
        return 1
    # The array gate mirrors the other benches' multicore-only
    # enforcement, and additionally requires numpy -- without it the
    # array column times the compiled kernels, which it does not gate.
    multicore = (os.cpu_count() or 1) > 1
    pattern_row = next(r for r in rows if r["bench"] == "pattern_sim")
    drop_row = next(r for r in rows if r["bench"] == "atpg_drop")
    if not args.tiny and HAVE_NUMPY and multicore:
        if fault_row["array_speedup"] < 10.0:
            print("FAIL: array fault_sim speedup below the 10x "
                  "acceptance bar", file=sys.stderr)
            return 1
        if pattern_row["array_speedup"] < 1.0:
            print("FAIL: array pattern_sim slower than the reference "
                  "(signatures on the compiled kernels must at least "
                  "break even)", file=sys.stderr)
            return 1
        if drop_row["array_speedup"] < 2.0:
            print("FAIL: array atpg_drop speedup below the 2x "
                  "acceptance bar", file=sys.stderr)
            return 1
    elif not args.tiny:
        reason = ("no numpy: array runs the compiled kernels"
                  if not HAVE_NUMPY else "single-core machine")
        print(f"note: array gates (fault_sim 10x, pattern_sim 1x, "
              f"atpg_drop 2x) waived ({reason}); measured "
              f"{fault_row['array_speedup']}x / "
              f"{pattern_row['array_speedup']}x / "
              f"{drop_row['array_speedup']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
