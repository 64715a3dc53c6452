"""Differential harness: compiled and array backends vs the reference.

The compiled backend (:mod:`repro.sim.compiled`) re-implements the two
simulation hot paths with generated straight-line code; the array
backend (:mod:`repro.sim.array_backend`) lowers fault simulation again
to whole-circuit numpy word-matrix operations, and runs everything else
(and everything, without numpy) on the compiled kernels.  Their
contract is *bit-identical results*, so every case here runs all
backends on the same input and requires exact equality of

* packed pattern masks for every node,
* fault-detection index sets (exercising batching, pin faults, FF
  faults and three-valued sequences), and
* :class:`~repro.atpg.driver.ATPGStats` counts for whole ATPG runs.

Cases cover plain random circuits across sizes, retimed circuits and
multi-clock-domain industrial-like circuits (200+ generated netlists).
The array fault simulator runs with batch widths cycling through
{1, 7, 64, 128, 257} to cross word boundaries (64, 128) and
partial-word tails (7, 257).  Every array leg goes through the public
entrypoints, so the whole file also passes on an install without numpy
(``REPRO_ARRAY_DISABLE_NUMPY=1``), where they run the compiled kernels.
"""

import dataclasses
import os
import random
import subprocess
import sys
import zlib

import pytest

import repro
from repro.atpg.driver import run_atpg
from repro.atpg.faults import collapse_faults, full_fault_list
from repro.circuit import industrial_like, random_circuit, retime_circuit
from repro.sim.array_backend import HAVE_NUMPY, ArrayFaultSimulator
from repro.sim.compiled import (
    CompiledFaultSimulator,
    compile_circuit,
    make_fault_simulator,
)
from repro.sim.faultsim import FaultSimulator
from repro.sim.parallel import (
    random_source_masks,
    signatures,
    simulate_patterns,
)

#: Array-backend batch widths, cycled per case so the whole corpus
#: crosses every boundary class without multiplying its runtime.
ARRAY_WIDTHS = (1, 7, 64, 128, 257)

# ----------------------------------------------------------------------
# case generation: (kind, seed) -> circuit; 200 cases across shapes
# ----------------------------------------------------------------------
_SIZES = (
    dict(n_inputs=3, n_outputs=2, n_ffs=2, n_gates=10),
    dict(n_inputs=4, n_outputs=3, n_ffs=4, n_gates=22),
    dict(n_inputs=5, n_outputs=4, n_ffs=6, n_gates=40),
    dict(n_inputs=6, n_outputs=4, n_ffs=8, n_gates=64),
)

CASES = ([("random", seed) for seed in range(120)]
         + [("retimed", seed) for seed in range(40)]
         + [("industrial", seed) for seed in range(40)])


def _build(kind, seed):
    if kind == "random":
        params = _SIZES[seed % len(_SIZES)]
        return random_circuit(f"diff_r{seed}", seed=seed, **params)
    if kind == "retimed":
        params = _SIZES[seed % len(_SIZES)]
        base = random_circuit(f"diff_b{seed}", seed=seed, **params)
        return retime_circuit(base, moves=1 + seed % 3,
                              name=f"diff_rt{seed}")
    # Multi-clock-domain circuits with partial set/reset and multi-port
    # latches -- the paper's section 3.3 "real circuit" features.
    return industrial_like(f"diff_i{seed}", n_domains=2 + seed % 3,
                           n_ffs=8 + (seed % 4) * 4,
                           n_gates=50 + (seed % 3) * 20, seed=seed)


def _sequence(circuit, rng, length, x_rate=0.15):
    """Random binary sequence with occasional unspecified (X) inputs."""
    names = [circuit.nodes[i].name for i in circuit.inputs]
    return [{name: rng.randint(0, 1) for name in names
             if rng.random() >= x_rate}
            for _ in range(length)]


@pytest.mark.parametrize("kind,seed", CASES)
def test_backends_identical(kind, seed):
    """Node masks and detection sets agree on every generated case."""
    circuit = _build(kind, seed)
    compiled = compile_circuit(circuit)
    rng = random.Random(zlib.crc32(kind.encode()) ^ seed)

    # Packed pattern masks, node for node, across all three backends.
    width = 1 + rng.randrange(64)
    source = random_source_masks(circuit, width, rng)
    masks = simulate_patterns(circuit, source, width)
    assert compiled.simulate_patterns(source, width) == masks
    assert (signatures(circuit, width, random.Random(seed),
                       backend="array")
            == signatures(circuit, width, random.Random(seed)))

    # Fault-detection sets over the collapsed list, odd word widths to
    # exercise batch boundaries (width 1 = one machine per word).
    faults = collapse_faults(circuit)
    sequence = _sequence(circuit, rng, length=4 + rng.randrange(6))
    sim_width = 1 if seed % 10 == 0 else 2 + rng.randrange(24)
    reference = FaultSimulator(circuit, width=sim_width)
    fast = CompiledFaultSimulator(circuit, width=sim_width)
    detected = reference.detected(sequence, faults)
    assert fast.detected(sequence, faults) == detected

    # The array backend at its own width ladder -- detection sets are
    # width-independent, so every rung must reproduce the reference set
    # exactly, ghost columns and batch tails included.
    array_width = ARRAY_WIDTHS[seed % len(ARRAY_WIDTHS)]
    assert make_fault_simulator(
        circuit, width=array_width, backend="array").detected(
        sequence, faults) == detected


@pytest.mark.parametrize("seed", range(8))
def test_backends_identical_uncollapsed(seed):
    """The full (uncollapsed) fault universe agrees too."""
    circuit = _build("industrial", seed + 100)
    rng = random.Random(seed)
    faults = full_fault_list(circuit)
    sequence = _sequence(circuit, rng, length=8)
    detected = FaultSimulator(circuit, width=32).detected(
        sequence, faults)
    assert CompiledFaultSimulator(circuit, width=32).detected(
        sequence, faults) == detected
    array_width = ARRAY_WIDTHS[seed % len(ARRAY_WIDTHS)]
    assert make_fault_simulator(
        circuit, width=array_width, backend="array").detected(
        sequence, faults) == detected


def _stats_key(stats):
    """Everything on ATPGStats that must not depend on the backend."""
    return (stats.total_faults, stats.detected, stats.untestable,
            stats.aborted, stats.collateral, stats.decisions,
            stats.backtracks, stats.sequences_total, stats.sequences)


@pytest.mark.parametrize("kind,seed", [("random", s) for s in range(8)]
                         + [("retimed", s) for s in range(2)]
                         + [("industrial", s) for s in range(2)])
def test_atpg_stats_identical(kind, seed):
    """Whole ATPG runs produce identical statistics on every backend."""
    circuit = _build(kind, seed)
    rows = {}
    for backend in ("reference", "compiled", "array"):
        rows[backend] = run_atpg(
            circuit, mode="none", backtrack_limit=8, max_frames=4,
            max_faults=24, keep_sequences=True, sim_backend=backend)
    assert _stats_key(rows["reference"]) == _stats_key(rows["compiled"])
    assert _stats_key(rows["reference"]) == _stats_key(rows["array"])


def test_numpy_substrates_covered():
    """The harness above only proves the numpy engine if its array legs
    actually run it: they must whenever numpy is importable."""
    sim = make_fault_simulator(_build("random", 0), backend="array")
    assert isinstance(sim, ArrayFaultSimulator) == HAVE_NUMPY


def test_numpy_disable_env_forces_bigint_fallback():
    """``REPRO_ARRAY_DISABLE_NUMPY`` is the numpy-absent leg in CI: a
    fresh interpreter with it set must run ``backend='array'`` fault
    simulation on the compiled bigint kernels and still agree with the
    reference engine."""
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    code = (
        "from repro.sim.array_backend import HAVE_NUMPY\n"
        "from repro.sim.compiled import (CompiledFaultSimulator,\n"
        "                                make_fault_simulator)\n"
        "from repro.sim.faultsim import FaultSimulator\n"
        "from repro.circuit import s27\n"
        "from repro.atpg.faults import collapse_faults\n"
        "assert not HAVE_NUMPY\n"
        "circuit = s27()\n"
        "sim = make_fault_simulator(circuit, backend='array')\n"
        "assert type(sim) is CompiledFaultSimulator\n"
        "faults = collapse_faults(circuit)\n"
        "names = [circuit.nodes[i].name for i in circuit.inputs]\n"
        "seq = [{name: (t + i) % 2 for i, name in enumerate(names)}\n"
        "       for t in range(6)]\n"
        "assert (sim.detected(seq, faults)\n"
        "        == FaultSimulator(circuit).detected(seq, faults))\n"
        "print('ok')\n"
    )
    env = dict(os.environ,
               REPRO_ARRAY_DISABLE_NUMPY="1",
               PYTHONPATH=src_root)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


#: Run in a fresh interpreter with ``REPRO_ARRAY_DISABLE_NUMPY=1``.
_NO_NUMPY_CHECK = """
import dataclasses
from repro.atpg.driver import run_atpg
from repro.atpg.faults import collapse_faults
from repro.circuit import industrial_like, s27
from repro.core.engine import learn
from repro.core.single_node import run_single_node
from repro.sim import (
    HAVE_NUMPY, ArrayFaultSimulator, CompiledFaultSimulator,
    SubsetResidentDropper, fault_coverage, kernel_backend,
    make_fault_simulator, make_resident_dropper, warm_cache)
from repro.sim.eventsim import FrameSimulator

assert not HAVE_NUMPY
assert kernel_backend("array", fault_sim=True) == "compiled"
circuit = industrial_like("nonp", n_domains=2, n_ffs=10, n_gates=60, seed=5)
try:
    ArrayFaultSimulator(circuit)
except ImportError:
    pass
else:
    raise AssertionError("ArrayFaultSimulator built without numpy")

cc = warm_cache(circuit, backend="array")
assert getattr(cc, "_array_form", None) is None

faults = collapse_faults(circuit)
names = [circuit.nodes[i].name for i in circuit.inputs]
seq = [{name: (t + i) % 2 for i, name in enumerate(names)}
       for t in range(6)]
sim = make_fault_simulator(circuit, backend="array")
assert type(sim) is CompiledFaultSimulator and sim.width == 128
assert (sim.detected(seq, faults)
        == make_fault_simulator(circuit).detected(seq, faults))
assert (fault_coverage(circuit, [seq], faults, backend="array")
        == fault_coverage(circuit, [seq], faults, backend="compiled"))

live = list(range(len(faults)))
dropper = make_resident_dropper(circuit, faults, live, backend="array")
assert type(dropper) is SubsetResidentDropper
assert dropper.stats()["backend"] == "compiled"
assert (dropper.drop(seq) == make_resident_dropper(
    circuit, faults, live, backend="compiled").drop(seq))

array_data = run_single_node(FrameSimulator(circuit), max_frames=20,
                             backend="array")
compiled_data = run_single_node(FrameSimulator(circuit), max_frames=20,
                                backend="compiled")
assert array_data.runs == compiled_data.runs
assert array_data.justifications == compiled_data.justifications

assert (learn(circuit, sim_backend="array").counts()
        == learn(circuit, sim_backend="compiled").counts())

for target in (circuit, s27()):
    runs = [dataclasses.replace(run_atpg(
        target, mode="none", backtrack_limit=8, max_frames=4,
        max_faults=24, keep_sequences=True, sim_backend=backend),
        cpu_s=0.0) for backend in ("array", "compiled")]
    assert runs[0] == runs[1]
print("ok")
"""


def test_numpy_disable_env_routes_array_to_compiled():
    """``REPRO_ARRAY_DISABLE_NUMPY`` simulates an install without numpy:
    in a fresh interpreter with it set, every ``"array"`` entrypoint
    must build compiled-kernel objects and give the compiled results,
    whole ATPG runs included (signatures are checked in
    ``test_resident_and_signatures``)."""
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ,
               REPRO_ARRAY_DISABLE_NUMPY="1",
               PYTHONPATH=src_root)
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_CHECK],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
