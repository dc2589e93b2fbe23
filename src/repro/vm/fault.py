"""Demand paging with physical frame reservation (Figure 5) and migration.

The GPU driver resolves page faults by (1) picking a target chiplet and a
mapping granularity — that decision belongs to the *placement policy* —
and (2) reserving a physically contiguous frame of that granularity,
mapping base pages into it on demand, and promoting the region to a native
large page once fully populated.  This module implements step (2): the
mechanics shared by every policy, including CLAP.

It also implements page migration (unmap + copy + remap) with a simple
cost model: migrations trigger TLB shootdowns and cache flushes whose
cycle costs are accumulated in :class:`MigrationStats` and charged by the
timing model.  Ideal C-NUMA / GRIT configurations zero these costs, per
the paper's idealised comparison (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..mem.frames import ChipletMemoryExhausted, Frame, FrameAllocator
from ..units import PAGE_2M, PAGE_64K, is_pow2
from .page_table import MappingRecord, PageTable, Region
from .va_space import VASpace


@dataclass
class MigrationStats:
    """Accumulated migration work, charged by the timing model."""

    pages_migrated: int = 0
    pages_migrated_free: int = 0
    bytes_migrated: int = 0
    tlb_shootdowns: int = 0

    #: Cost constants (core cycles), scaled to trace time: the trace is a
    #: 1/16-footprint sample of the execution, so wall-clock-fixed costs
    #: (a ~1.3us shootdown, the page copy) are divided by the same factor
    #: to keep their share of total runtime faithful.
    SHOOTDOWN_CYCLES: int = 100
    COPY_CYCLES_PER_KB: int = 1

    def total_cycles(self) -> int:
        copy = (self.bytes_migrated // 1024) * self.COPY_CYCLES_PER_KB
        return self.tlb_shootdowns * self.SHOOTDOWN_CYCLES + copy


class DemandPager:
    """Reservation-based demand paging shared by all placement policies.

    Parameters
    ----------
    page_table / allocator / va_space:
        The VM substrate being driven.
    native_sizes:
        Page sizes the system can promote a full region to (baseline:
        {64KB, 2MB}; Figure 6 sweep configs add one intermediate native
        size).  Regions of other sizes remain groups of base pages and
        rely on TLB coalescing for reach.
    """

    def __init__(
        self,
        page_table: PageTable,
        allocator: FrameAllocator,
        va_space: VASpace,
        native_sizes: Optional[Set[int]] = None,
    ) -> None:
        self.page_table = page_table
        self.allocator = allocator
        self.va_space = va_space
        self.native_sizes = (
            set(native_sizes) if native_sizes is not None else {PAGE_64K, PAGE_2M}
        )
        self._regions: Dict[int, Region] = {}
        self.migration = MigrationStats()
        self.fallback_placements = 0
        #: optional host-eviction support for oversubscribed GPUs (§4.7)
        self.eviction = None

    # --- oversubscription (Section 4.7) ---

    def enable_host_eviction(self) -> "HostEvictionManager":
        """Turn on LRU-block eviction to host memory when the GPU fills."""
        from .oversubscription import HostEvictionManager

        if self.eviction is None:
            self.eviction = HostEvictionManager(self)
        return self.eviction

    def _note_mapping(self, record: MappingRecord) -> None:
        if self.eviction is not None:
            self.eviction.note_mapping(record.paddr)

    # --- region / page mapping ---

    def region_at(self, region_base: int) -> Optional[Region]:
        return self._regions.get(region_base)

    def ensure_region(
        self,
        region_base: int,
        region_size: int,
        base_page_size: int,
        chiplet: int,
        pool: str,
    ) -> Region:
        """The region reserved at ``region_base``; reserve it if missing.

        Falls back to the least-loaded chiplet when the preferred chiplet
        has no free PF blocks (Section 4.7: migrating already-mapped pages
        would cost more than a remote placement).
        """
        region = self._regions.get(region_base)
        if region is not None:
            if region.released:
                raise ValueError(
                    f"region at {region_base:#x} was released; map pages "
                    "individually instead"
                )
            return region
        if not is_pow2(region_size) or region_size % base_page_size:
            raise ValueError("region size must be a power-of-two multiple "
                             "of the base page size")
        frame = self._allocate_with_fallback(chiplet, region_size, pool)
        region = Region(
            va_base=region_base,
            size=region_size,
            frame=frame,
            page_size=base_page_size,
            pool=pool,
        )
        self._regions[region_base] = region
        return region

    def map_into_region(
        self, vaddr: int, region: Region, alloc_id: int
    ) -> MappingRecord:
        """Demand-map the base page at ``vaddr`` into its reserved slot.

        Promotes the region to a native page when it becomes full and its
        size is natively supported (Figure 5's promotion step).
        """
        page_base = vaddr - (vaddr % region.page_size)
        offset = region.offset_of(page_base)
        frame = region.frame.subframe(offset, region.page_size)
        record = self.page_table.map_page(
            page_base, region.page_size, frame, alloc_id, region=region
        )
        self._note_mapping(record)
        if (
            region.full
            and not region.promoted
            and region.size in self.native_sizes
            and region.size > region.page_size
        ):
            return self.page_table.promote_region(region)
        return record

    def map_single(
        self, vaddr: int, page_size: int, chiplet: int, alloc_id: int, pool: str
    ) -> MappingRecord:
        """Map one page with no surrounding reservation (no contiguity)."""
        page_base = vaddr - (vaddr % page_size)
        frame = self._allocate_with_fallback(chiplet, page_size, pool)
        record = self.page_table.map_page(
            page_base, page_size, frame, alloc_id
        )
        self._note_mapping(record)
        return record

    def release_region(self, region: Region) -> None:
        """Release an unfinished reservation (OLP release path, §4.2).

        Frames already backing mapped pages stay where they are; the
        *unused remainder* of the reserved frame returns to the base-page
        free list.  Pages already mapped keep translating and keep their
        group-contiguity metadata: neither
        :attr:`MappingRecord.contiguity_base` nor
        :attr:`MappingRecord.contiguity_size` reads ``region.released``,
        so a released region still anchors contiguity for the pages
        mapped into it (Section 4.6).  ``released`` only makes
        :meth:`ensure_region` refuse the region and a second release a
        no-op.

        Mapped slots are compacted conservatively: we return only the
        trailing never-touched sub-frames.  Because demand mapping into a
        region follows first-touch order and releases happen on the first
        foreign-chiplet touch, mapped slots are not necessarily a prefix;
        we scan the page table for which slots are in use.
        """
        if region.promoted:
            raise ValueError("cannot release a promoted region")
        if region.released:
            return
        used_offsets = {
            record.va_base - region.va_base
            for record in self.page_table.mappings_in_range(
                region.va_base, region.size
            )
            if record.region is region
        }
        count = region.size // region.page_size
        for i in range(count):
            offset = i * region.page_size
            if offset in used_offsets:
                continue
            sub = region.frame.subframe(offset, region.page_size)
            self.allocator.free(sub, region.pool)
        region.released = True

    # --- migration ---

    def migrate_page(
        self,
        vaddr: int,
        dst_chiplet: int,
        pool: str,
        free_of_cost: bool = False,
    ) -> MappingRecord:
        """Move the page covering ``vaddr`` to ``dst_chiplet``.

        Costs one TLB shootdown plus the data copy unless
        ``free_of_cost`` (idealised C-NUMA / GRIT).  The old frame returns
        to its pool's free list.
        """
        record = self.page_table.unmap(vaddr)
        old_frame = Frame(record.paddr, record.page_size, record.chiplet)
        self.allocator.free(old_frame, pool)
        new_frame = self._allocate_with_fallback(
            dst_chiplet, record.page_size, pool
        )
        new_record = self.page_table.map_page(
            record.va_base, record.page_size, new_frame, record.alloc_id
        )
        if free_of_cost:
            self.migration.pages_migrated_free += 1
        else:
            self.migration.pages_migrated += 1
            self.migration.bytes_migrated += record.page_size
            self.migration.tlb_shootdowns += 1
        return new_record

    # --- helpers ---

    def _allocate_with_fallback(
        self, chiplet: int, size: int, pool: str
    ) -> Frame:
        try:
            return self.allocator.allocate(chiplet, size, pool)
        except ChipletMemoryExhausted:
            pass
        # Pick the chiplet with the most remaining capacity (Section 4.7:
        # balance memory usage across chiplets).
        candidates: List[int] = []
        for other in range(self.allocator.num_chiplets):
            if other == chiplet:
                continue
            capacity = self.allocator.free_capacity(other)
            if capacity is None or capacity > 0:
                candidates.append(other)
        if not candidates:
            if self.eviction is not None:
                # Oversubscription: push the least-recently-mapped block
                # on the preferred chiplet out to host memory and retry.
                for _ in range(4):
                    if not self.eviction.evict_one_block(chiplet):
                        break
                    try:
                        return self.allocator.allocate(chiplet, size, pool)
                    except ChipletMemoryExhausted:
                        continue
            raise ChipletMemoryExhausted(
                chiplet,
                context={
                    "chiplet": chiplet,
                    "frame_size": size,
                    "pool": pool,
                    "host_eviction": self.eviction is not None,
                    "blocks_in_use": {
                        c: self.allocator.blocks_in_use(c)
                        for c in range(self.allocator.num_chiplets)
                    },
                },
            )
        best = max(
            candidates,
            key=lambda c: (
                self.allocator.free_capacity(c)
                if self.allocator.free_capacity(c) is not None
                else 1 << 60
            ),
        )
        self.fallback_placements += 1
        return self.allocator.allocate(best, size, pool)
