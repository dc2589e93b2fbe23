"""One measured pass in a fresh interpreter; ``run.py`` starts one per pass.

A pass starts the interpreter, imports ``repro`` and the experiment
modules, builds the workload's cells and the ``SweepRunner`` (that span
is ``setup_s``), then times one cold pass into an empty result cache and
a warm block: ``WARM_PASSES`` warm passes over fresh copies of the same
cells against the cache the cold pass filled (one warm pass when
traced).  During the cold pass it takes a calibration sample after
every ``CALIBRATION_EVERY``-th simulated cell (hooked at the runner's
``_run_cell_worker``, outside any layer span), so ``run.py`` can scale
the pass by the host speed measured while it ran.  It prints one JSON
object: the timings, the calibration samples, the peak RSS of the pass
process, a digest of every unique cell's result, and any check that
failed.

``--warm-cache DIR`` times set-up and a warm block only, against the
result cache an earlier pass filled.  ``--reference`` instead simulates
the cells once with the staged reference engine, untimed, on
``REFERENCE_JOBS`` workers, and prints their digests.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time
from pathlib import Path
from typing import List

import numpy as np

import repro.sim.parallel as parallel
from perfbench import spans
from perfbench.workloads import (
    WORKLOADS,
    cell_label,
    result_digest,
    unique_cells,
)
from repro.sim.engine import resolve_engine
from repro.sim.parallel import SweepRunner

#: Warm passes per warm block; ``run.py`` reports the fastest of a run's
#: warm passes.
WARM_PASSES = 30
REFERENCE_JOBS = 2
#: Cells simulated between two calibration samples of the cold pass.
CALIBRATION_EVERY = 4


def calibrate() -> float:
    """Seconds of one fixed calibration sample (about 0.05 s): NumPy
    sorting, counting and gathering over a 64 Ki-entry array, the kind
    of work the batched replay does.  It runs no program code, so only
    the host's speed moves it.  A pure-Python sample tracked the host
    less well: fault-heavy sweep time rose with only the 0.4th power of
    its time.
    """
    start = time.perf_counter()
    vaddrs = (np.arange(1 << 16, dtype=np.int64) * 2654435761) & 0xFFFFFF
    acc = 0
    for k in range(40):
        pages = np.sort(vaddrs >> (6 + (k & 3)))
        owners = np.bincount(pages & 1023, minlength=1024)
        acc += int(owners[np.take(pages, vaddrs & 1023) & 1023].sum() & 1)
    elapsed = time.perf_counter() - start
    assert acc >= 0
    return elapsed


def _digests(cells, results, unique):
    return [
        [cell_label(cells[i]),
         result_digest(results[i]) if results[i] is not None else None]
        for i in unique
    ]


def reference(workload: str, seed: int) -> dict:
    """Digests of every unique cell under the staged engine, no cache.

    The caller pins ``REPRO_ENGINE=staged`` in this process's environment,
    which pool workers inherit.
    """
    cells = WORKLOADS[workload](seed)
    unique = unique_cells(cells)
    runner = SweepRunner(
        jobs=REFERENCE_JOBS, use_cache=False, on_error="skip", trace_store=False,
        surrogate=False, telemetry=False,
    )
    results = runner.run_cells(cells)
    return {
        "engine": resolve_engine(None),
        "digests": _digests(cells, results, unique),
    }


def calibrate_between_cells(samples: List[float]) -> None:
    """Take a calibration sample into ``samples`` after every
    ``CALIBRATION_EVERY``-th cell the serial runner simulates.  Install
    after :func:`spans.install`, so the samples fall outside the
    ``parallel.cell`` span."""
    run_cell = parallel._run_cell_worker
    simulated = 0

    @functools.wraps(run_cell)
    def calibrated(*args, **kwargs):
        nonlocal simulated
        try:
            return run_cell(*args, **kwargs)
        finally:
            simulated += 1
            if simulated % CALIBRATION_EVERY == 0:
                samples.append(calibrate())

    parallel._run_cell_worker = calibrated


def warm_block(args: argparse.Namespace, runner: SweepRunner, unique: List[int],
               out: dict, digests: list) -> None:
    """Time ``WARM_PASSES`` warm passes (one when traced) into
    ``out["warm_s"]``.  Each gets fresh cells, built and checked outside
    the timed call; its results are dropped before the next pass."""
    warm_s: List[float] = []
    for _ in range(1 if args.trace else WARM_PASSES):
        cells = WORKLOADS[args.workload](args.seed)
        runner.reset_stats()
        start = time.perf_counter()
        results = runner.run_cells(cells)
        warm_s.append(time.perf_counter() - start)
        warm = runner.stats
        if warm.simulated or warm.cache_hits != len(unique):
            out["errors"].append(
                f"warm pass was not warm: {warm.simulated} simulated, "
                f"{warm.cache_hits} cache hits for {len(unique)} unique cells"
            )
        digests.append(_digests(cells, results, unique))
    out["warm_s"] = warm_s


def measure(args: argparse.Namespace) -> dict:
    build = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    recorder = spans.install(cell_label) if args.trace else None
    cells = build(args.seed)
    runner = SweepRunner(
        jobs=1, cache_dir=args.warm_cache or workdir / "cache", on_error="skip",
        trace_store=False, surrogate=False, telemetry=False,
    )
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "engine": resolve_engine(None), "errors": []}
    unique = unique_cells(cells)
    if args.warm_cache:
        out["digests"] = []
        warm_block(args, runner, unique, out, out["digests"])
        return out

    calibration_s: List[float] = []
    calibrate_between_cells(calibration_s)
    start = time.perf_counter()
    results = runner.run_cells(cells)
    sweep_s = time.perf_counter() - start
    cold = runner.stats
    if cold.cache_hits or cold.simulated + cold.failed != len(unique):
        out["errors"].append(
            f"cold pass was not cold: {cold.simulated} simulated, "
            f"{cold.failed} failed, {cold.cache_hits} cache hits for "
            f"{len(unique)} unique cells"
        )
    simulated = [results[i] for i in unique if results[i] is not None]
    batched = [r.fast_path_fraction is not None for r in simulated]
    out["engine"] += " -> " + (
        "batched" if all(batched) else "staged" if not any(batched) else "mixed"
    )

    digests = [_digests(cells, results, unique)]
    # In-process cells keep their attached machines alive; drop them and
    # collect the benchmark's own garbage outside every timed region.
    del cells, results
    gc.collect()
    cold_spans = None
    if recorder is not None:
        # The per-layer metrics of the cold pass cover its spans alone;
        # the warm pass records into a fresh log.
        cold_spans = recorder.spans
        recorder.reset()

    warm_block(args, runner, unique, out, digests)
    out.update(
        sweep_s=sweep_s,
        calibration_s=calibration_s,
        accesses=sum(r.n_accesses for r in simulated),
        peak_rss_mb=spans.peak_rss_kb() / 1024.0,
        digests=digests,
    )
    if recorder is not None:
        out["layers"] = spans.layer_metrics(
            cold_spans, recorder.spans, simulated,
            cold_wall_s=sweep_s - sum(calibration_s),
        )
        (workdir / "spans.json").write_text(
            json.dumps({"cold": cold_spans, "warm": recorder.spans})
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warm-cache",
                        help="time set-up and warm passes only, against this "
                             "result cache of an earlier pass")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    if args.reference:
        out = reference(args.workload, args.seed)
    else:
        out = measure(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
