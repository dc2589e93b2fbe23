"""Machine-state invariant checking.

``validate_machine`` walks the entire VM state after (or during) a run
and verifies the structural invariants that every placement policy must
preserve.  The engine does not run it on the hot path; tests call it
after end-to-end runs, which is how subtle frame-accounting bugs
(double-mapped frames, reservation leaks) get caught.

Checked invariants:

1. **Unique translation** — no virtual address is covered by two PTEs
   (the unified page table, Section 2.3).
2. **No physical aliasing** — no physical byte backs two live mappings
   (frames are never handed out twice), except pages explicitly evicted
   and remapped.
3. **Chiplet consistency** — every PTE's cached chiplet matches the
   NUMA-aware layout's owner of its physical frame.
4. **Region bookkeeping** — every region's ``mapped`` count equals its
   live PTEs; promoted regions are fully backed by their frame.
5. **Free-list hygiene** — no frame on a free list overlaps a live
   mapping.
6. **Data-cache rows** — in every L1, L2 and remote cache, each row
   holds at most ``ways`` valid tags, no tag twice, its valid tags
   packed at the MRU end, and only lines whose hash selects that row
   (:func:`cache_violations`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..arch.address import InterleavePolicy
from ..cache.cache import EMPTY, SetAssociativeCache, set_indices
from .errors import InvariantViolation
from .machine import Machine


@dataclass
class ValidationReport:
    """Outcome of one validation pass."""

    violations: List[str] = field(default_factory=list)
    mappings_checked: int = 0
    regions_checked: int = 0
    free_frames_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def raise_if_failed(self) -> None:
        """Raise :class:`InvariantViolation` when any check failed.

        The error carries the full violation list plus the check counts
        as ``context`` (the first ten violations go in the message).
        """
        if self.violations:
            preview = "\n  ".join(self.violations[:10])
            raise InvariantViolation(
                f"{len(self.violations)} machine invariant violation(s):\n"
                f"  {preview}",
                context={
                    "violations": list(self.violations),
                    "mappings_checked": self.mappings_checked,
                    "regions_checked": self.regions_checked,
                    "free_frames_checked": self.free_frames_checked,
                },
            )


def cache_violations(cache: SetAssociativeCache, label: str) -> List[str]:
    """Structural problems of one data cache's tag array, if any."""
    tags = cache.tags
    valid = tags != EMPTY
    problems = []
    for row in np.flatnonzero(valid.sum(axis=1) > cache.ways).tolist():
        problems.append(f"{label} set {row} holds more than {cache.ways} lines")
    ordered = np.sort(tags, axis=1)
    dup = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != EMPTY)
    for row in np.flatnonzero(dup.any(axis=1)).tolist():
        problems.append(f"{label} set {row} holds a line twice")
    gap = valid[:, :-1] & ~valid[:, 1:]
    for row in np.flatnonzero(gap.any(axis=1)).tolist():
        problems.append(
            f"{label} set {row} has an empty way on the MRU side of a line"
        )
    rows, _ = np.nonzero(valid)
    homes = set_indices(tags[valid], cache.num_sets)
    for row in np.unique(rows[homes != rows]).tolist():
        problems.append(f"{label} set {row} holds a line of another set")
    return problems


def validate_machine(machine: Machine) -> ValidationReport:
    """Run all invariant checks against ``machine``'s current state."""
    report = ValidationReport()
    page_table = machine.page_table
    layout = machine.layout

    records = []
    for size, table in page_table._tables.items():
        for vpn, record in table.items():
            records.append(record)
            if record.va_base // size != vpn:
                report.fail(
                    f"PTE keyed at vpn {vpn:#x} but va_base "
                    f"{record.va_base:#x} (size {size})"
                )
    report.mappings_checked = len(records)

    # 1. unique virtual coverage
    intervals = sorted(
        (r.va_base, r.va_base + r.page_size) for r in records
    )
    for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
        if e1 > s2:
            report.fail(
                f"virtual overlap: [{s1:#x},{e1:#x}) and [{s2:#x},...)"
            )

    # 2. no physical aliasing
    physical = sorted(
        (r.paddr, r.paddr + r.page_size, r.va_base) for r in records
    )
    for (s1, e1, v1), (s2, _, v2) in zip(physical, physical[1:]):
        if e1 > s2:
            report.fail(
                f"physical alias: frames of {v1:#x} and {v2:#x} overlap "
                f"at {s2:#x}"
            )

    # 3. chiplet consistency (only meaningful under NUMA-aware layout)
    if layout.policy is InterleavePolicy.NUMA_AWARE:
        for record in records:
            owner = layout.chiplet_of_paddr(record.paddr)
            if owner != record.chiplet:
                report.fail(
                    f"PTE {record.va_base:#x} cached chiplet "
                    f"{record.chiplet} but frame {record.paddr:#x} "
                    f"belongs to chiplet {owner}"
                )

    # 4. region bookkeeping
    live_by_region = {}
    for record in records:
        if record.region is not None:
            live_by_region.setdefault(id(record.region), []).append(record)
    for region_base, region in machine.pager._regions.items():
        report.regions_checked += 1
        if region.va_base != region_base:
            report.fail(
                f"region registered at {region_base:#x} but claims "
                f"va_base {region.va_base:#x}"
            )
        live = live_by_region.get(id(region), [])
        if region.promoted:
            promoted = page_table.lookup(region.va_base)
            if promoted is None or promoted.page_size != region.size:
                report.fail(
                    f"promoted region {region.va_base:#x} has no "
                    f"native PTE of its size"
                )
            continue
        if region.mapped != len(live):
            report.fail(
                f"region {region.va_base:#x} counts {region.mapped} "
                f"mapped pages but {len(live)} PTEs reference it"
            )
        for record in live:
            offset = record.va_base - region.va_base
            if record.paddr != region.frame.paddr + offset:
                report.fail(
                    f"region page {record.va_base:#x} broke the "
                    f"virtual-to-physical offset invariant"
                )

    # 5. free-list hygiene
    live_spans = [(r.paddr, r.paddr + r.page_size) for r in records]
    live_spans.sort()

    def overlaps_live(start: int, end: int) -> bool:
        import bisect

        index = bisect.bisect_right(live_spans, (start, float("inf")))
        if index > 0 and live_spans[index - 1][1] > start:
            return True
        return index < len(live_spans) and live_spans[index][0] < end

    for (chiplet, size, pool), frames in machine.allocator._free.items():
        for frame in frames:
            report.free_frames_checked += 1
            if frame.chiplet != chiplet:
                report.fail(
                    f"free list ({chiplet},{size},{pool}) holds a frame "
                    f"of chiplet {frame.chiplet}"
                )
            if overlaps_live(frame.paddr, frame.paddr + frame.size):
                # Regions that were released keep their mapped pages;
                # only truly free frames may not overlap live mappings.
                report.fail(
                    f"free frame {frame.paddr:#x} (+{frame.size}) "
                    f"overlaps a live mapping"
                )

    # 6. data-cache rows
    caches = [(f"L1[{c}]", cache) for c, cache in enumerate(machine.l1_caches)]
    caches += [(f"L2[{c}]", cache) for c, cache in enumerate(machine.l2_caches)]
    for c, scheme in enumerate(machine.remote_caches or ()):
        caches.append((f"remote cache[{c}]", scheme.cache))
    for label, cache in caches:
        for problem in cache_violations(cache, label):
            report.fail(problem)
    return report
