"""Tests for the set-associative TLB and coalesced entries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tlb.tlb import SetAssociativeTLB
from repro.units import GB, PAGE_2M, PAGE_4K, PAGE_64K


class TestBasics:
    def test_miss_then_hit(self):
        tlb = SetAssociativeTLB(entries=4)
        assert not tlb.lookup(0)
        tlb.insert(0, PAGE_64K, 1)
        assert tlb.lookup(0)
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_lru_eviction_fully_associative(self):
        tlb = SetAssociativeTLB(entries=2)
        tlb.insert(0, PAGE_64K, 1)
        tlb.insert(PAGE_64K, PAGE_64K, 1)
        tlb.lookup(0)  # refresh tag 0
        tlb.insert(2 * PAGE_64K, PAGE_64K, 1)  # evicts tag 64K (LRU)
        assert tlb.lookup(0)
        assert not tlb.lookup(PAGE_64K)
        assert tlb.lookup(2 * PAGE_64K)

    def test_set_conflicts(self):
        tlb = SetAssociativeTLB(entries=4, ways=2, index_granule=PAGE_64K)
        # tags mapping to the same set (stride = num_sets * granule)
        stride = tlb.num_sets * PAGE_64K
        tlb.insert(0, PAGE_64K, 1)
        tlb.insert(stride, PAGE_64K, 1)
        tlb.insert(2 * stride, PAGE_64K, 1)  # evicts tag 0
        assert not tlb.lookup(0)
        assert tlb.lookup(stride)

    def test_occupancy_never_exceeds_capacity(self):
        tlb = SetAssociativeTLB(entries=8, ways=2)
        for i in range(100):
            tlb.insert(i * PAGE_64K, PAGE_64K, 1)
        assert tlb.occupancy <= 8

    def test_invalidate(self):
        tlb = SetAssociativeTLB(entries=4)
        tlb.insert(0, PAGE_64K, 1)
        assert tlb.invalidate(0)
        assert not tlb.invalidate(0)
        assert not tlb.lookup(0)

    def test_flush(self):
        tlb = SetAssociativeTLB(entries=4)
        tlb.insert(0, PAGE_64K, 1)
        tlb.flush()
        assert tlb.occupancy == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB(entries=0)
        with pytest.raises(ValueError):
            SetAssociativeTLB(entries=6, ways=4)
        with pytest.raises(ValueError):
            SetAssociativeTLB(entries=4, index_granule=3)
        with pytest.raises(ValueError):
            SetAssociativeTLB(entries=4).insert(0, PAGE_64K, 0)


class TestCoalescedEntries:
    def test_valid_bits_gate_hits(self):
        """An entry covering 16 pages hits only pages with set bits."""
        tlb = SetAssociativeTLB(entries=4)
        tlb.insert(0, 16 * PAGE_64K, valid_mask=0b0101)
        assert tlb.lookup(0, page_bit=0)
        assert not tlb.lookup(0, page_bit=1)
        assert tlb.lookup(0, page_bit=2)
        assert not tlb.lookup(0, page_bit=15)

    def test_merge_ors_valid_bits(self):
        """A later walk merges new valid bits into the existing entry."""
        tlb = SetAssociativeTLB(entries=4)
        tlb.insert(0, 16 * PAGE_64K, 0b0001)
        tlb.insert(0, 16 * PAGE_64K, 0b0100)
        assert tlb.lookup(0, 0)
        assert tlb.lookup(0, 2)
        assert tlb.coalesced_merges == 1
        assert tlb.occupancy == 1  # still a single entry

    def test_shape_change_replaces_entry(self):
        """Promotion to a native page replaces the coalesced entry."""
        tlb = SetAssociativeTLB(entries=4)
        tlb.insert(0, 16 * PAGE_64K, 0b1)
        tlb.insert(0, 2 * 1024 * 1024, 0b1)
        assert tlb.occupancy == 1

    def test_hit_rate(self):
        tlb = SetAssociativeTLB(entries=4)
        tlb.insert(0, PAGE_64K, 1)
        tlb.lookup(0)
        tlb.lookup(PAGE_64K)
        assert tlb.hit_rate == 0.5
        tlb.reset_stats()
        assert tlb.accesses == 0


@given(
    tags=st.lists(
        st.integers(min_value=0, max_value=63), min_size=1, max_size=200
    )
)
@settings(max_examples=30, deadline=None)
def test_property_capacity_invariant(tags):
    """Under any insert stream, occupancy stays within capacity and a
    just-inserted entry is immediately visible."""
    tlb = SetAssociativeTLB(entries=8, ways=4)
    for tag in tags:
        tlb.insert(tag * PAGE_64K, PAGE_64K, 1)
        assert tlb.occupancy <= 8
        assert tlb.lookup(tag * PAGE_64K)


# ------------------------------------------------ batched translation pass

_REGIONS = 300  # distinct 2MB regions: enough to evict a 128-entry walk cache


def _unit_head(slot, size, group, bit, extra, alloc_id, leaf):
    """One translation head: a ``TranslationUnit`` for the staged path
    and the same head as the batched engine's recorded tuple."""
    from repro.tlb.units import TranslationUnit, UnitKind

    region, offset = divmod(slot, 16)
    base = (region % _REGIONS) * PAGE_2M + (region // _REGIONS) * GB
    if group and size < PAGE_2M:
        coverage = 16 * size
        tag = base + (offset % (PAGE_2M // coverage)) * coverage
        mask = (extra & 0xFFFF) | 1 << bit
        kind = UnitKind.COALESCED
    else:
        coverage, bit, mask = size, 0, 1
        tag = base + offset % max(PAGE_2M // size, 1) * size
        kind = UnitKind.NATIVE
    vaddr = tag + bit * size
    unit = TranslationUnit(kind, tag, coverage, size, bit)
    record = (tag, bit, coverage, size, mask, vaddr, alloc_id, leaf,
              0 if kind is UnitKind.NATIVE else 1)
    return unit, record, mask


def _translation_state(machine):
    """Every counter, LRU order and entry the translation path holds."""
    tlbs = []
    for path in machine.paths:
        tlbs.append((path.l1_hits, path.l2_hits, path.walks))
        for level in (path._l1, path._l2):
            for size in sorted(level):
                tlb = level[size]
                tlbs.append((
                    size, tlb.hits, tlb.misses, tlb.coalesced_merges,
                    [[(k, e.tag, e.coverage, e.valid_mask)
                      for k, e in entries.items()] for entries in tlb._sets],
                ))
    walks = [
        (list(w.walk_cache._cache), w.walk_cache.hits, w.walk_cache.misses,
         w.stats)
        for w in machine.walkers
    ]
    trackers = [
        (rt._clock, rt.evictions,
         {a: (e.accesses, e.remotes, e.last_update)
          for a, e in rt._table.items()})
        for rt in machine.remote_trackers
    ]
    return tlbs, walks, trackers


_head = st.tuples(
    st.just("head"),
    st.integers(0, 3),  # requester
    st.one_of(st.integers(0, 40), st.integers(0, 16 * 2 * _REGIONS)),
    st.sampled_from([PAGE_4K, PAGE_64K, PAGE_2M]),
    st.booleans(),  # coalesced group unit (partial valid masks)
    st.integers(0, 15),  # page bit
    st.integers(0, 0xFFFF),  # other valid bits
    st.integers(0, 40),  # alloc id: unregistered ones are unknown to RTs
    st.integers(0, 3),  # leaf chiplet
    st.integers(1, 3),  # run length
)
_event = st.one_of(
    st.tuples(st.just("shootdown"), st.integers(0, 40),
              st.sampled_from([PAGE_4K, PAGE_64K, PAGE_2M]), st.booleans()),
    st.tuples(st.just("register"), st.integers(0, 40)),
    st.tuples(st.just("ratio"), st.integers(0, 40)),
    st.tuples(st.just("drain")),
)


def _replay_matches_per_access(
    walk_cache, tracker_entries, local_ptes, steps, scale=16
):
    """Replay ``steps`` per access on one machine and through
    ``TranslationReplay`` on another; assert equal translation state
    after every event and at the end.  Returns the per-access machine.
    A larger ``scale`` shrinks the TLBs (down to 4 entries)."""
    import dataclasses

    from repro.config import baseline_config
    from repro.gmmu.walker import PtePlacement
    from repro.sim.batch import TranslationReplay
    from repro.sim.machine import Machine

    config = dataclasses.replace(
        baseline_config(),
        scale=scale,
        walk_cache_entries=walk_cache,
        remote_tracker_entries=tracker_entries,
    )
    placement = (
        PtePlacement.LOCAL if local_ptes else PtePlacement.DISTRIBUTED
    )
    staged = Machine(config, pte_placement=placement)
    batched = Machine(config, pte_placement=placement)
    replay = TranslationReplay(batched)
    cycles = [0, 0]

    def drain():
        cycles[1] += replay.drain()

    batched.replay_drain = drain
    for alloc_id in range(0, 40, 3):
        staged.register_allocation(alloc_id)
        batched.register_allocation(alloc_id)
    for step in steps:
        kind = step[0]
        if kind == "head":
            c, slot, size, group, bit, extra, aid, leaf, run = step[1:]
            unit, record, mask = _unit_head(
                slot, size, group, bit, extra, aid, leaf
            )
            walker = staged.walkers[c]
            for _ in range(run):
                cycles[0] += staged.paths[c].access(
                    unit,
                    walk=lambda: walker.walk(record[5], aid, leaf),
                    valid_mask=lambda: mask,
                ).latency
            replay.heads[c].append(record)
            replay.runs[c].append(run)
        elif kind == "shootdown":
            _, slot, size, group = step
            unit = _unit_head(slot, size, group, 0, 0, 0, 0)[0]
            staged.shootdown(unit.tag, size)
            batched.shootdown(unit.tag, size)
        elif kind == "register":
            staged.register_allocation(step[1])
            batched.register_allocation(step[1])
        elif kind == "ratio":
            assert staged.rt_ratio(step[1]) == batched.rt_ratio(step[1])
        else:
            batched.drain_replay()
        if kind != "head":
            assert _translation_state(batched) == _translation_state(
                staged
            )
    batched.drain_replay()
    assert cycles[1] == cycles[0]
    assert _translation_state(batched) == _translation_state(staged)
    return staged


class TestTranslationReplay:
    @given(
        walk_cache=st.sampled_from([4, 16, 128]),
        tracker_entries=st.sampled_from([4, 32]),
        local_ptes=st.booleans(),
        scale=st.sampled_from([16, 64, 512]),
        steps=st.lists(
            st.one_of(_head, _head, _head, _head, _event),
            min_size=20,
            max_size=300,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_level_by_level_matches_per_head(
        self, walk_cache, tracker_entries, local_ptes, scale, steps
    ):
        """``TranslationReplay`` over recorded heads equals one
        ``TranslationPath.access`` (with ``PageWalker.walk`` on an L2
        miss) per access in trace order: TLB contents and LRU order,
        coverage replacements, coalesced merges, walk caches past their
        capacity, walk stats, Remote Trackers (evictions, unknown ids,
        drains by ``rt_ratio``) and cycles, with shootdowns, allocation
        registrations and ratio reads between drains; TLBs of 4 to 64
        entries, so both levels evict."""
        _replay_matches_per_access(
            walk_cache, tracker_entries, local_ptes, steps, scale
        )

    def test_full_tlbs_evict_across_unit_shapes(self):
        # 4-entry TLBs cycling through native and coalesced units of one
        # size class: every fill of a full set evicts an entry of another
        # coverage or mask, and some re-fill a tag with a new shape.
        steps = [
            ("head", 0, slot % 41, PAGE_64K, bool(slot % 2), slot % 16,
             slot * 7919, 0, 1, 1)
            for slot in range(200)
        ]
        _replay_matches_per_access(16, 32, False, steps, scale=512)

    def test_walk_cache_evicts_past_128_entries(self):
        # Walks into 300 distinct 2MB regions overflow the 128-entry walk
        # cache; revisiting the first 100 misses again at level 3.
        steps = [
            ("head", 0, 16 * region, PAGE_64K, False, 0, 0, 3, 1, 1)
            for region in range(300)
        ]
        steps += [("drain",)] + steps[:100]
        staged = _replay_matches_per_access(128, 32, False, steps)
        assert staged.walkers[0].walk_cache.misses >= 400
