"""Layer spans recorded from outside the program, and the metrics built on them.

:func:`install` replaces each layer's public entry point (a class or
module attribute) with a wrapper that records one span per call:
``{name, start, end, parent, cell}``, where ``parent`` is the index of
the enclosing span in the same process and ``cell`` labels the sweep
cell being simulated.  A call nested inside a span of the same name
(a subclass calling ``super().place``) is not recorded again.  Every
workload runs its cells in the pass process (``jobs=1``), so one
in-memory log holds all spans; the pass writes it out at exit.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

#: Span fields, in storage order.
NAME, START, END, PARENT, CELL, EXTRA = range(6)


class Recorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: finished spans, by index; None while a span is still open
        self.spans: List[Optional[tuple]] = []
        #: (index, name) of each open span, innermost last
        self.stack: List[tuple] = []
        self.cell: Optional[str] = None


def _wrap(
    rec: Recorder,
    owner: object,
    attr: str,
    name: str,
    *,
    extra: Optional[Callable[[tuple, object], object]] = None,
    cell_of: Optional[Callable[[tuple], str]] = None,
) -> None:
    original = vars(owner)[attr]
    clock = time.perf_counter

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        if stack and stack[-1][1] == name:
            return original(*args, **kwargs)
        spans = rec.spans
        outer_cell = rec.cell
        if cell_of is not None:
            rec.cell = cell_of(args)
        cell = rec.cell
        index = len(spans)
        parent = stack[-1][0] if stack else None
        spans.append(None)
        stack.append((index, name))
        result = None
        start = clock()
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = clock()
            stack.pop()
            rec.cell = outer_cell
            # A finished span is a tuple of atoms, which the garbage
            # collector stops tracking: 10^5 live spans add no GC work.
            spans[index] = (
                name, start, end, parent, cell,
                extra(args, result) if extra is not None and result is not None
                else None,
            )

    setattr(owner, attr, wrapper)


def _invalidated_lines(args: tuple, dropped: int) -> tuple:
    """``(lines probed, lines hit)`` of ``invalidate_range(self, paddr, size)``."""
    cache, paddr, size = args
    first = paddr // cache.line_size
    last = (paddr + size - 1) // cache.line_size
    return (last - first + 1, dropped)


def _policy_classes() -> list:
    from repro.policies.base import PlacementPolicy

    found, todo = [], [PlacementPolicy]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(cell_label: Callable[[object], str]) -> Recorder:
    """Wrap every layer's entry point to record into the returned
    recorder.  Import the policy modules the sweep uses first, so their
    classes are found."""
    import repro.sim.parallel as parallel
    import repro.sim.runner as runner
    from repro.cache.cache import SetAssociativeCache
    from repro.sim.batch import BatchedPipeline
    from repro.sim.machine import Machine
    from repro.sim.pipeline import AccessPipeline
    from repro.tlb.hierarchy import TranslationPath
    from repro.trace.workload import Workload
    from repro.vm.fault import DemandPager

    rec = Recorder()
    _wrap(rec, parallel, "_run_cell_worker", "parallel.cell",
          cell_of=lambda args: cell_label(args[0]))
    _wrap(rec, parallel, "cell_fingerprint", "parallel.fingerprint")
    _wrap(rec, parallel.ResultCache, "get", "parallel.cache_get",
          extra=lambda args, hit: hit is not None)
    _wrap(rec, parallel.ResultCache, "put", "parallel.cache_put")
    _wrap(rec, runner, "run_simulation", "engine.run")
    _wrap(rec, Workload, "build_trace", "trace.build")
    _wrap(rec, Machine, "__init__", "machine.build")
    _wrap(rec, BatchedPipeline, "run", "replay")
    _wrap(rec, AccessPipeline, "run", "replay")
    for cls in _policy_classes():
        for attr, name in (("place", "policies.place"),
                           ("on_epoch", "policies.on_epoch")):
            method = vars(cls).get(attr)
            if method is not None and not getattr(
                method, "__isabstractmethod__", False
            ):
                _wrap(rec, cls, attr, name)
    for attr in ("map_single", "map_into_region", "ensure_region"):
        _wrap(rec, DemandPager, attr, "vm.map")
    _wrap(rec, DemandPager, "migrate_page", "vm.migrate")
    _wrap(rec, SetAssociativeCache, "invalidate_range", "cache.invalidate",
          extra=_invalidated_lines)
    _wrap(rec, TranslationPath, "shootdown", "tlb.shootdown")
    return rec


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _self_times(spans: Sequence[tuple], names: Sequence[str]) -> Dict[str, float]:
    """Self time per span name: duration minus the direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    out = {name: 0.0 for name in names}
    for i, span in enumerate(spans):
        if span[NAME] in out:
            out[span[NAME]] += span[END] - span[START] - child_time[i]
    return out


def _quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation (0.0 for no values)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Tally:
    """Calls, busy seconds and span extras per name over one span log."""

    def __init__(self, spans: Sequence[tuple]) -> None:
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.self_s = _self_times(spans, ["replay", "engine.run"])
        self.replay_cells: List[float] = []
        self.probed = self.hit = self.cache_hits = 0
        for span in spans:
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + duration
            if name == "replay":
                self.replay_cells.append(duration)
            elif name == "cache.invalidate":
                self.probed += span[EXTRA][0]
                self.hit += span[EXTRA][1]
            elif name == "parallel.cache_get" and span[EXTRA]:
                self.cache_hits += 1

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def s(self, name: str) -> float:
        return self.busy.get(name, 0.0)


def layer_metrics(
    cold_spans: Sequence[tuple],
    warm_spans: Sequence[tuple],
    results: Sequence[object],
    *,
    cold_wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced cold pass, the
    spans of the warm pass after it, and the simulated results of the
    cold pass (one per unique cell).

    The fingerprint and cache-get metrics, which should move ``warm_s``,
    come from the warm pass; every other metric, and
    ``parallel.cold_cache_io_s`` (cache gets and puts of the cold pass),
    from the cold pass alone.
    """
    cold = _Tally(cold_spans)
    warm = _Tally(warm_spans)
    n, s = cold.n, cold.s
    accesses = sum(r.n_accesses for r in results)
    faults = sum(r.page_faults for r in results)
    migrations = sum(r.migrations for r in results)

    def weighted(field: str) -> float:
        total = sum(
            (getattr(r, field) or 0.0) * r.n_accesses for r in results
        )
        return _ratio(total, accesses)

    metrics = {
        "trace.build_calls": n("trace.build"),
        "trace.build_s": s("trace.build"),
        "machine.build_calls": n("machine.build"),
        "machine.build_s": s("machine.build"),
        "policies.place_calls": n("policies.place"),
        "policies.place_s": s("policies.place"),
        "policies.on_epoch_calls": n("policies.on_epoch"),
        "policies.on_epoch_s": s("policies.on_epoch"),
        "vm.map_calls": n("vm.map"),
        "vm.map_s": s("vm.map"),
        "vm.migrate_calls": n("vm.migrate"),
        "vm.migrate_s": s("vm.migrate"),
        "cache.invalidate_calls": n("cache.invalidate"),
        "cache.invalidate_s": s("cache.invalidate"),
        "cache.invalidate_lines_probed": cold.probed,
        "cache.invalidate_lines_hit": cold.hit,
        "cache.invalidate_useful_ratio": _ratio(cold.hit, cold.probed),
        "tlb.shootdown_calls": n("tlb.shootdown"),
        "tlb.shootdown_s": s("tlb.shootdown"),
        "replay.s": s("replay"),
        "replay.self_s": cold.self_s["replay"],
        "replay.cell_p50_s": _quantile(cold.replay_cells, 0.5),
        "replay.cell_p90_s": _quantile(cold.replay_cells, 0.9),
        "replay.accesses_per_s": _ratio(accesses, s("replay")),
        "replay.fast_path_fraction": weighted("fast_path_fraction"),
        "replay.fault_batch_fraction": weighted("fault_batch_fraction"),
        "engine.run_s": s("engine.run"),
        "engine.fold_s": cold.self_s["engine.run"],
        "parallel.fingerprint_s": warm.s("parallel.fingerprint"),
        "parallel.cache_get_calls": warm.n("parallel.cache_get"),
        "parallel.cache_get_s": warm.s("parallel.cache_get"),
        "parallel.cache_put_s": s("parallel.cache_put"),
        "parallel.cache_hit_ratio": _ratio(
            warm.cache_hits, warm.n("parallel.cache_get")
        ),
        "parallel.cold_cache_io_s": s("parallel.cache_get") + s("parallel.cache_put"),
        "parallel.worker_busy_s": s("parallel.cell"),
        "parallel.worker_idle_share": 1.0 - _ratio(
            s("parallel.cell"), cold_wall_s
        ),
        "model.page_faults": faults,
        "model.migrations": migrations,
        "model.l2_misses": sum(r.l2_misses for r in results),
        "model.l2_tlb_misses": sum(r.l2_tlb_misses for r in results),
        "model.replay_ns_per_access": 1e9 * _ratio(s("replay"), accesses),
        "model.place_us_per_fault": 1e6 * _ratio(s("policies.place"), faults),
        "model.migration_us_per_migration": 1e6 * _ratio(
            s("vm.migrate") + s("tlb.shootdown") + s("cache.invalidate"),
            migrations,
        ),
    }
    return metrics
