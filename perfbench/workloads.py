"""The benchmark's workloads: which cells each one sweeps.

A workload's cells are generated from the benchmark seed alone; the
``SweepRunner`` only ever receives the generated cells.  Cells are built
fresh for every pass, because an in-process (``jobs=1``) run attaches
and mutates the policy objects it is handed, and a reused cell would no
longer fingerprint like the original.  Every workload runs at ``jobs=1``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, List

from repro.arch.address import InterleavePolicy
from repro.config import baseline_config
from repro.experiments import (
    fig06_page_size_sweep,
    fig18_main,
    fig22_eight_chiplets,
    table2_workloads,
)
from repro.experiments.common import SEED
from repro.sim.parallel import SweepCell, cell_fingerprint
from repro.sim.results import SimResult
from repro.trace.workload import Pattern, StructureSpec, WorkloadSpec
from repro.units import MB

#: The seed whose expected digests are committed in ``expected.json``;
#: the experiments' own default, so ``quick`` cells at this seed are
#: exactly the cells ``repro report --quick`` simulates.
DEFAULT_SEED = SEED

#: The experiments ``repro report --quick`` runs, in report order.
REPORT_MODULES = (
    fig06_page_size_sweep,
    table2_workloads,
    fig18_main,
    fig22_eight_chiplets,
)

#: Policies x interleaves of the fault-heavy sweep.  Every one of them
#: resolves first touches through the placement path; none migrates.
FAULT_HEAVY_POLICIES = ("S-64KB", "Ideal", "MGvm", "CLAP", "S-2MB")
FAULT_HEAVY_INTERLEAVES = (InterleavePolicy.NUMA_AWARE, InterleavePolicy.NAIVE)
#: Trace seeds per fault-heavy pass, spaced so no two benchmark seeds
#: share a trace seed.  The noise of structure ``a`` is what makes the
#: seed reach the traffic: without it every seed gives the same trace.
FAULT_HEAVY_SEED_COUNT = 4
FAULT_HEAVY_SEED_STRIDE = 1000


class _Captured(Exception):
    """Raised by :class:`_CaptureRunner` once it holds an experiment's cells."""


class _CaptureRunner:
    """Stands in for a ``SweepRunner``: records the cells, simulates none."""

    def __init__(self) -> None:
        self.cells: List[SweepCell] = []

    def run_cells(self, cells) -> None:
        self.cells.extend(
            c if isinstance(c, SweepCell) else SweepCell(*c) for c in cells
        )
        raise _Captured


def quick_report_cells(seed: int) -> List[SweepCell]:
    """The cell list of ``repro report --quick``, with every trace at ``seed``.

    Each experiment module builds its own cells and hands them to its
    runner in one batch; a capturing runner takes that batch and stops
    the experiment before any aggregation.
    """
    cells: List[SweepCell] = []
    for module in REPORT_MODULES:
        capture = _CaptureRunner()
        try:
            module.run(quick=True, runner=capture)
        except _Captured:
            pass
        else:
            raise RuntimeError(f"{module.__name__} ran without its runner")
        cells.extend(capture.cells)
    return [dataclasses.replace(cell, seed=seed) for cell in cells]


def fault_heavy_spec() -> WorkloadSpec:
    """First-touch-dominated workload: one wave and six lines per touched
    page, single-page groups, so nearly every page is reached through the
    fault path and no spatial batching hides it.

    The FHVY spec of ``benchmarks/perf_batch.py``, except that 2% of the
    line accesses to ``a`` come from a random chiplet.  That noise draws
    on the trace seed, so each seed gives its own first-touch owners and
    remote traffic; none of the swept policies migrates on it.
    """
    return WorkloadSpec(
        abbr="FHVY",
        title="fault-heavy sweep",
        structures=(
            StructureSpec(
                "a", 96 * MB, 96 * MB, Pattern.PARTITIONED,
                group_pages=1, waves=1, lines_per_touch=6, noise=0.02,
            ),
            StructureSpec(
                "b", 96 * MB, 96 * MB, Pattern.CONTIGUOUS,
                group_pages=1, waves=1, lines_per_touch=6,
            ),
        ),
        tb_count=64,
        mem_fraction=0.9,
    )


def fault_heavy_cells(seed: int) -> List[SweepCell]:
    spec = fault_heavy_spec()
    trace_seeds = [
        seed + FAULT_HEAVY_SEED_STRIDE * k for k in range(FAULT_HEAVY_SEED_COUNT)
    ]
    return [
        SweepCell(spec, policy, interleave=interleave, seed=trace_seed)
        for trace_seed in trace_seeds
        for policy in FAULT_HEAVY_POLICIES
        for interleave in FAULT_HEAVY_INTERLEAVES
    ]


#: Workload name -> the cells of one pass, built from the benchmark seed.
WORKLOADS: Dict[str, Callable[[int], List[SweepCell]]] = {
    "quick-j1": quick_report_cells,
    "fault-heavy": fault_heavy_cells,
}


def cell_label(cell: SweepCell) -> str:
    config = cell.config if cell.config is not None else baseline_config()
    chiplets = config.num_chiplets
    return (
        f"{cell.workload.abbr}/{cell.policy.name}/{cell.interleave.name}"
        f"/c{chiplets}/s{cell.seed}"
    )


def unique_cells(cells: List[SweepCell]) -> List[int]:
    """Indices of the first cell of each distinct fingerprint, in order:
    the cells a cold pass must simulate."""
    seen = set()
    first = []
    for i, cell in enumerate(cells):
        key = cell_fingerprint(cell)
        if key not in seen:
            seen.add(key)
            first.append(i)
    return first


def result_digest(result: SimResult) -> str:
    """SHA-256 of the result's cache payload, the part engines must agree on."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
