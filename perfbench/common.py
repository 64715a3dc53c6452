"""Shared pieces of the benchmark: inputs from the seed, statistics,
output checks, host probe and resource readings."""

from __future__ import annotations

import json
import os
import platform
import random
import re
import resource
from typing import Dict, List, Optional, Sequence, Tuple

#: Seed the checked-in expectations were recorded with.
DEFAULT_SEED = 1
#: Work directory for generated inputs, spans and repeat-check state
#: (inside the checkout, ignored by git).
WORK_DIR = os.path.join("perfbench", ".work")
EXPECTED_PATH = os.path.join("perfbench", "expected.json")


def workload_rng(workload: str, seed: int) -> random.Random:
    """The one source of every input of a run."""
    return random.Random(f"perfbench:{workload}:{seed}")


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK_DIR, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def renamed_bench(circuit, rng: random.Random) -> str:
    """``.bench`` text of ``circuit`` with every signal renamed.

    The netlist and its declaration order are kept: the program's cost
    depends on node order (reordering alone moves one circuit's
    learning or ATPG time by +-15-20%), which would swamp the run-to-run
    spread.  New names still make the circuit new to every cache (its
    fingerprint changes).
    """
    from repro.circuit.bench import bench_text

    names = [node.name for node in circuit.nodes]
    fresh = [f"n{index}" for index in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    text = bench_text(circuit).split("\n", 1)[1]
    return _NAME.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def generate_benches(rng: random.Random,
                     mix: Sequence[Tuple[str, float, int]],
                     subdir: str) -> List[str]:
    """Write seeded copies of profile circuits; ``mix`` holds
    ``(profile, scale, copies)``.

    Structures are the program's ``like:<profile>@<scale>`` circuits
    (fixed generator seeds); the seed renames each copy
    (:func:`renamed_bench`) and shuffles the order of the copies.
    Returns paths relative to the checkout root, so circuit names (the
    program names a loaded circuit by its path) are the same in every
    checkout.
    """
    from repro.circuit.generator import iscas_like

    out_dir = work_dir(subdir)
    paths = []
    for profile, scale, copies in mix:
        base = iscas_like(profile, scale=scale)
        for index in range(copies):
            text = renamed_bench(base, rng)
            tag = rng.getrandbits(32)
            paths.append(os.path.join(
                out_dir, f"{profile}x{scale:g}_{index:03d}_{tag:08x}.bench"))
            with open(paths[-1], "w") as handle:
                handle.write(text)
    rng.shuffle(paths)
    return paths


def item_key(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def structure_key(path: str) -> str:
    """The profile a generated circuit copies, e.g. ``s1238x1``."""
    return item_key(path).split("_", 1)[0]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
#: Workloads whose checked outputs depend on the circuit structure
#: only (renaming a circuit moves none of them), so one checked-in
#: expectation per structure holds for every seed.  ``serve`` checks
#: envelope digests, which name the circuit.
SEED_FREE = ("learn", "atpg", "suite")


class Checker:
    """Compares each item's output with its expectation.

    ``learn``/``atpg``/``suite`` items are keyed by structure (and
    mode): ``expected.json`` holds one expectation per key for every
    seed, and the renamed copies within a run must agree too.  ``serve``
    items are keyed by request; ``expected.json`` holds the default
    seed's.  A key without a checked-in expectation is checked against
    the first run that saw it in this checkout (``.work/state``), so a
    repeated run on the same seed must reproduce it exactly.  A
    mismatch marks the item failed; it never stops the run.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.expected: Dict[str, object] = {}
        if ((workload in SEED_FREE or seed == DEFAULT_SEED)
                and os.path.exists(EXPECTED_PATH)):
            with open(EXPECTED_PATH) as handle:
                self.expected = json.load(handle).get(workload, {})
        self.state_path = os.path.join(work_dir("state"),
                                       f"{workload}-{seed}.json")
        self.state: Dict[str, object] = {}
        if os.path.exists(self.state_path):
            with open(self.state_path) as handle:
                self.state = json.load(handle)
        self.observed: Dict[str, object] = {}
        self.mismatches: List[str] = []

    def check(self, key: str, observed) -> bool:
        observed = json.loads(json.dumps(observed, sort_keys=True))
        reference = self.expected.get(
            key, self.state.get(key, self.observed.get(key)))
        self.observed.setdefault(key, observed)
        if reference is None:
            self.state[key] = observed
            return True
        if reference != observed:
            self.mismatches.append(key)
            return False
        return True

    def fail(self, key: str, reason: str) -> None:
        self.mismatches.append(f"{key}: {reason}")

    def save(self) -> None:
        tmp = self.state_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.state, handle, sort_keys=True)
        os.replace(tmp, self.state_path)

    def write_expected(self) -> None:
        """Record this run's outputs as the checked-in expectations."""
        doc = {}
        if os.path.exists(EXPECTED_PATH):
            with open(EXPECTED_PATH) as handle:
                doc = json.load(handle)
        doc[self.workload] = self.observed
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")


# ----------------------------------------------------------------------
# host and resources
# ----------------------------------------------------------------------
def host_probe() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "loadavg": list(os.getloadavg())}


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (and its reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None
