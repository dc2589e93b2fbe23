"""The batched replay engine: vectorized steady-state trace windows.

The staged :class:`~repro.sim.pipeline.AccessPipeline` replays one
access at a time through four Python closures; every cache-line access
pays interpreter dispatch for work that is, in the steady state, pure
array arithmetic.  This module partitions each chunk of the trace into
*steady-state windows* — maximal runs of accesses whose pages are
already mapped, which cross no epoch or kernel boundary and trigger no
policy callback — and replays each chunk in two passes.  Pass 1 (the
windows, the scalar fallback and the fault path) handles faults and
accounting and only *records* each access's translation head, physical
address and home chiplet; pass 2 then replays the records level by
level, ``translation_pass`` (:class:`TranslationReplay`) for the
translation path and ``data_pass`` for the data path:

* **page-base derivation and classification** — one ``np.unique`` over
  the chunk's granule-page keys, one page-table lookup and unit
  resolution per unique page, and vectorized physical address /
  home-chiplet derivation for every window access from the per-unique
  arrays;
* **translation heads** — per-requester run-length compression over
  page keys: each run's *head* is recorded (unit, valid mask taken at
  its own trace position, walk inputs) and its tail counts as
  guaranteed L1 TLB hits (the head leaves the entry present, valid-bit
  set and MRU, and no other access of that requester intervenes);
* **translation pass** — per requester, the L1 TLBs over every head,
  the L2 TLBs over the L1 misses, the walk cache over the L2 misses,
  then the walks' step costs, stats and Remote Tracker updates;
* **data pass** — level by level over the recorded chunk (L1 ->
  remote cache -> ring -> home L2 -> DRAM): each cache level is one
  bulk LRU replay (:func:`~repro.cache.cache.replay_lines`) over the
  references the previous level missed, the ring is a ``bincount``
  over requester/home pairs, and DRAM row hits come from each
  channel's previous row;
* **accounting** — ``np.bincount`` reductions for per-structure and
  per-page statistics, preserving first-touch insertion order of the
  page-stats dict (policies may iterate it).

Anything that is not steady state is replayed exactly, one access at a
time: faults resolve through the staged ``FaultStage.process`` (which
also enriches exhaustion errors), the faulting access is recorded as a
head of its own and accounted inline, and epoch/kernel callbacks fire
at chunk boundaries only, after pass 2 (chunks are clipped so
boundaries never fall inside a window).  Telemetry-instrumented and
multi-page-TLB runs use the staged pipeline entirely (see
:mod:`repro.sim.engine`).

**The vectorized fault path** (``batch_faults``): when the policy opts
in via ``fault_batch_size()`` (a contract promise that ``place`` is a
stateless single-page ``map_single`` at exactly the replay granule) and
the run has neither bounded capacity nor host eviction, a chunk's
first-touch faults are resolved as a batch, in trace order of their
first touches — through the staged ``FaultStage.process`` with an
abort at the first broken promise, or, when ``place`` is one of the
audited implementations in :data:`AUDITED_PLACE`, through an inlined
copy of the promised sequence.  Hoisting such faults ahead of the
intervening steady-state accesses is unobservable; ``batch_faults``
and DESIGN.md section 7 give the argument.

**Why results stay bit-identical** (DESIGN.md section 7): within a
window no page-table mutation can occur, so resolving records up front
equals resolving them per access; translation, data and accounting
touch disjoint machine state, so replaying a window stage-major equals
replaying it access-major; run tails are provably L1 TLB hits with zero
latency; and every counter flush is integer-exact.  The page table's
``generation``/event log guarantees staleness is *detected* rather than
assumed away: any mutation between windows re-resolves exactly the
affected page keys.  Inside a chunk only pass 2 touches the TLBs, walk
caches, Remote Trackers, caches, ring and DRAM.  Each of those
structures belongs to one chiplet (or one cache set, or one DRAM
channel) and depends only on its own operations, and what one level
installs never depends on a later level's outcome, so replaying the
chunk level by level equals the staged per-access interleaving.  The
other readers and writers — ``Machine.shootdown``,
``flush_data_caches_range``, ``rt_ratio`` and ``register_allocation``,
called by policies inside faults or between chunks — first drain the
recorded prefix through both passes (``Machine.drain_replay``), and a
chunk that aborts drains its recorded prefix before the error
propagates.
"""

from __future__ import annotations

import gc
import os
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from ..arch.address import FINE_INTERLEAVE, InterleavePolicy
from ..cache.cache import replay_lines
from ..cache.remote_cache import RemoteCachingScheme
from ..gmmu.walker import (
    _LEVEL_SPANS,
    WALK_CACHE_HIT_CYCLES,
    PtePlacement,
)
from ..mem.dram import ROW_SIZE
from ..tlb.tlb import TLBEntry
from ..tlb.units import COALESCE_WINDOW_PAGES
from ..units import PAGE_2M, PAGE_64K
from ..vm.page_table import MappingRecord
from .pipeline import FaultStage, SimState, close_epoch

#: Accesses per chunk.  Chunks are additionally clipped at kernel starts
#: and epoch boundaries so callbacks only ever fire between chunks.
CHUNK = 4096

#: Minimum window length worth vectorizing; shorter fault-free runs go
#: through the scalar fast path instead (the fixed NumPy setup
#: cost of a window would exceed the interpreter cost it saves).
MIN_VEC = 24

#: Remote-transfer payload in bytes (one 128B line plus header), matching
#: ``DataStage``'s ``ring.record_transfer(home, requester, 160)``.
_TRANSFER_BYTES = 160

#: ``(module, qualname)`` of every unbound ``place`` implementation whose
#: body is — by direct inspection — exactly the sequence the
#: ``fault_batch_size`` contract promises: ``pager.map_single(vaddr,
#: granule, requester, allocation.alloc_id, pool_for(allocation))`` with
#: no other effect.  Only these may take ``batch_faults``'s bulk path,
#: which inlines that sequence (frame allocation + page-table insert)
#: without calling the policy at all.  A subclass override never matches
#: (its ``__qualname__`` names the subclass), so contract-violating
#: policies keep the per-fault verified path and its abort protocol.
#: Adding an entry here asserts you have audited the method body against
#: the contract comment in :mod:`repro.policies.contract`.
AUDITED_PLACE = frozenset(
    {
        ("repro.policies.static_paging", "StaticPaging.place"),
        ("repro.policies.ideal", "IdealPolicy.place"),
        ("repro.policies.mgvm", "MgvmPolicy.place"),
        ("repro.policies.grit", "GritPolicy.place"),
    }
)


#: The two TLB levels, as indices into ``TranslationPath._tlbs``'s pair.
L1_TLB, L2_TLB = 0, 1

#: Spans of the page-walk levels: level 1 and 2 entries cover 512GB and
#: 1GB; level 3 entries and the leaf PTE line (level 4) cover 2MB.
_TOP_SPAN, _GB_SPAN, _LEAF_SPAN = _LEVEL_SPANS


def _tlb_level(heads, runs, path, level: int) -> list:
    """One TLB level of ``path`` over ``heads`` in trace order.

    Each head probes the ``level`` TLB (``L1_TLB`` or ``L2_TLB``) of its
    size class, and a miss fills it with the head's recorded mask, as
    ``SetAssociativeTLB.lookup`` and ``insert`` do; the ``runs[i] - 1``
    tail accesses behind head ``i`` count as hits.  Returns the heads
    that missed, in order.
    """
    missed = []
    tlb = sc_now = None
    hits = misses = 0
    for t, run in zip(heads, runs):
        tag, pb, coverage, sc, mask, _, _, _, _ = t
        if sc != sc_now:
            if tlb is not None:
                tlb.hits += hits
                tlb.misses += misses
            tlb = path._tlbs(sc)[level]
            sets = tlb._sets
            nsets = tlb.num_sets
            granule = tlb.index_granule
            ways = tlb.ways
            sc_now = sc
            hits = misses = 0
        entries = sets[(tag // granule) % nsets]
        e = entries.get(tag)
        if e is not None and e.valid_mask >> pb & 1:
            entries.move_to_end(tag)
            hits += run
            continue
        hits += run - 1
        misses += 1
        missed.append(t)
        if e is not None:
            if e.coverage != coverage:
                entries[tag] = TLBEntry(tag, coverage, mask)
            else:
                e.valid_mask |= mask
                tlb.coalesced_merges += 1
            entries.move_to_end(tag)
        elif len(entries) >= ways:
            # Refill the evicted LRU entry: nothing else holds it.
            _, e = entries.popitem(last=False)
            e.tag = tag
            e.coverage = coverage
            e.valid_mask = mask
            entries[tag] = e
        else:
            entries[tag] = TLBEntry(tag, coverage, mask)
    if tlb is not None:
        tlb.hits += hits
        tlb.misses += misses
    return missed


class TranslationReplay:
    """Pass 2 of translation: recorded heads, replayed level by level.

    Pass 1 appends each head of requester ``c`` to ``heads[c]`` as the
    tuple ``(tag, page_bit, coverage, size_class, mask, vaddr, alloc_id,
    leaf_chiplet, kind)`` — the unit, the valid mask its fill installs
    and the walk's inputs — and the length of the run it starts to
    ``runs[c]``.  :meth:`translation_pass` has the effect of
    ``TranslationPath.access`` + ``PageWalker.walk`` per access, one
    structure at a time (DESIGN.md section 7 gives the argument).
    """

    def __init__(self, machine) -> None:
        config = machine.config
        nc = config.num_chiplets
        self.nc = nc
        self.paths = machine.paths
        self.walkers = machine.walkers
        self.heads: List[list] = [[] for _ in range(nc)]
        self.runs: List[List[int]] = [[] for _ in range(nc)]
        self.l2_tlb_latency = config.l2_tlb.latency
        walker = self.walkers[0]
        self.hashed_ptes = walker.placement is not PtePlacement.LOCAL
        hop = walker.hop_cycles
        #: step_tab[c][holder]: cycles for chiplet ``c`` to fetch a PTE
        #: line held by ``holder`` (L2 latency + two ring traversals).
        self.step_tab = [
            [
                config.l2_latency
                + 2 * min((h - c) % nc, (c - h) % nc) * hop
                for h in range(nc)
            ]
            for c in range(nc)
        ]

    def drain(self) -> int:
        """Replay and clear every recorded head; returns their cycles."""
        cycles = 0
        for c in range(self.nc):
            if self.heads[c]:
                cycles += self.translation_pass(c)
        return cycles

    def translation_pass(self, c: int) -> int:  # noqa: C901 - one hot path
        """Replay requester ``c``'s recorded heads; returns the cycles."""
        heads = self.heads[c]
        runs = self.runs[c]
        path = self.paths[c]

        # -- 1./2. the L1 TLBs over every head, the L2s over the misses --
        l1_miss = _tlb_level(heads, runs, path, L1_TLB)
        walks = _tlb_level(l1_miss, repeat(1), path, L2_TLB)
        n_miss = len(l1_miss)
        n_walks = len(walks)
        path.l1_hits += sum(runs) - n_miss
        path.l2_hits += n_miss - n_walks
        heads.clear()
        runs.clear()
        cycles = self.l2_tlb_latency * n_miss
        if not n_walks:
            return cycles
        path.walks += n_walks

        # -- 3. the walk cache: each walk's upper levels, in trace order,
        # -- 4. with the step costs of the PTE-line fetches --
        walker = self.walkers[c]
        walk_cache = walker.walk_cache
        cache = walk_cache._cache
        capacity = walk_cache._entries
        touch = cache.move_to_end
        row = self.step_tab[c]
        hashed = self.hashed_ptes
        nc = self.nc
        hits = misses = remote = 0
        walk_cycles = 0
        last_leaf = last_upper = -1
        for t in walks:
            vaddr = t[5]
            leaf_key = vaddr // _LEAF_SPAN
            if leaf_key == last_leaf:
                # The previous walk left this walk's three upper-level
                # entries as the cache's three most recent, in level
                # order: three hits that leave the LRU order as it is,
                # and the same leaf fetch.
                hits += 3
                walk_cycles += leaf_cycles
                remote += leaf_remote
                continue
            last_leaf = leaf_key
            upper = vaddr // _GB_SPAN
            if upper == last_upper:
                # Levels 1 and 2 are the previous walk's entries, two
                # of the cache's three most recent: two hits.
                touch(top)
                touch(mid)
                hits += 2
                steps = ((3, leaf_key),)
            else:
                last_upper = upper
                top = (1, vaddr // _TOP_SPAN)
                mid = (2, upper)
                steps = (top, mid, (3, leaf_key))
            for ck in steps:
                if ck in cache:
                    touch(ck)
                    hits += 1
                    continue
                misses += 1
                if len(cache) >= capacity:
                    cache.popitem(last=False)
                cache[ck] = True
                level, key = ck
                holder = (key * 0x9E3779B1 + level) % nc if hashed else c
                if holder != c:
                    remote += 1
                walk_cycles += row[holder]
            holder = (leaf_key * 0x9E3779B1 + 4) % nc if hashed else c
            leaf_remote = holder != c
            leaf_cycles = row[holder]
            walk_cycles += leaf_cycles
            remote += leaf_remote
        walk_cycles += WALK_CACHE_HIT_CYCLES * hits
        walk_cache.hits += hits
        walk_cache.misses += misses
        stats = walker.stats
        stats.walks += n_walks
        stats.total_cycles += walk_cycles
        stats.remote_steps += remote
        stats.local_steps += misses + n_walks - remote
        tracker = walker.remote_tracker
        if tracker is not None:
            update = tracker.update
            for t in walks:
                update(t[6], t[7] != c)

        # -- 5. translation cycles --
        return cycles + walk_cycles


class BatchedPipeline:
    """Replays a trace through vectorized windows with staged fallback.

    Drop-in alternative to :class:`~repro.sim.pipeline.AccessPipeline`
    for telemetry-off runs: same constructor state, same ``run()``
    contract, bit-identical :class:`SimState` at the end.  Additionally
    exposes ``fast_path_fraction`` — the fraction of accesses replayed
    through vectorized windows — and ``fault_batch_fraction`` — the
    fraction of page faults resolved through the vectorized fault path
    (None when the run was not eligible for it).
    """

    def __init__(self, state: SimState) -> None:
        self.state = state
        #: Batched runs are always telemetry-off (the engine falls back
        #: to the staged pipeline otherwise); ``_fold_result`` reads this.
        self.telemetry = None
        self.fault_stage = FaultStage(state, None)
        self.fast_path_fraction: Optional[float] = None
        self.fault_batch_fraction: Optional[float] = None

    def run(self) -> SimState:  # noqa: C901 - one hot path
        state = self.state
        machine = state.machine
        config = machine.config
        trace = state.trace
        n = len(trace)
        caps = state.capabilities

        # --- trace arrays ---
        vaddrs = trace.vaddrs
        chiplets = trace.chiplets
        va_np = np.asarray(vaddrs, dtype=np.int64)
        ch_np = np.asarray(chiplets, dtype=np.int64)

        # --- machine bindings ---
        nc = config.num_chiplets
        page_table = machine.page_table
        pt_lookup = page_table.lookup
        l1_caches = machine.l1_caches
        l2_caches = machine.l2_caches
        remote_caches = machine.remote_caches
        ring = machine.ring
        dram = machine.dram
        l1_latency = config.l1_latency
        l2_latency = config.l2_latency
        line_size = config.cache_line
        cpc = machine.layout.channels_per_chiplet
        naive = state.interleave is InterleavePolicy.NAIVE

        use_rc = remote_caches is not None
        if use_rc:
            rc_caches = [rc.cache for rc in remote_caches]
            rc_insert_all = (
                type(remote_caches[0]).should_insert
                is RemoteCachingScheme.should_insert
            )

        hops_tab = [[ring.hops(s, d) for d in range(nc)] for s in range(nc)]
        #: rcost_pair[home * nc + requester]: ring cycles of one remote
        #: line fetch (request and response traversals).
        rcost_pair = (
            2 * ring.hop_cycles * np.array(hops_tab, dtype=np.int64)
        ).T.reshape(-1)
        open_row = dram._open_row
        open_row_get = open_row.get
        ch_accesses = dram.channel_accesses
        #: Channel ids fit 16 bits on every modelled machine, which
        #: lets the data pass group DRAM accesses with a radix sort.
        channel_dtype = np.int16 if dram.num_channels <= 1 << 15 else np.int64
        row_hit_c = dram.row_hit_cycles
        row_miss_c = dram.row_miss_cycles

        # --- translation-unit flags and page granule ---
        coalescing = caps.coalescing
        pattern = caps.pattern_coalescing
        ideal = caps.ideal_translation
        #: Only coalesced and pattern heads (kinds 1/2) need a recorded
        #: mask; native and ideal units always install mask ``1``.
        masked = (coalescing or pattern) and not ideal
        granule = min(state.policy.native_sizes())
        shift = granule.bit_length() - 1
        pt_tables = page_table._tables

        def unit_tuple(va: int, rec) -> tuple:
            """The :class:`TranslationReplay` head of an access to ``va``.

            :func:`repro.tlb.units.unit_for`'s decision tree (kind 0 =
            native/ideal, 1 = coalesced, 2 = pattern) as a plain tuple,
            since the hot loops resolve every unique page of every
            chunk.  The mask is ``1`` for kind 0 and ``0`` for kinds
            1/2, whose mask ``window_mask`` fills in at record time.
            """
            aid = rec.alloc_id
            leaf = rec.chiplet
            if ideal:
                tag = va - va % PAGE_2M
                return (tag, 0, PAGE_2M, PAGE_2M, 1, va, aid, leaf, 0)
            ps = rec.page_size
            if ps > PAGE_64K or not (coalescing or pattern):
                return (rec.va_base, 0, ps, ps, 1, va, aid, leaf, 0)
            window = COALESCE_WINDOW_PAGES * ps
            if coalescing:
                group = rec.contiguity_size
                if rec.region is not None and group > ps:
                    span = window if group > window else group
                    off = rec.va_base - rec.contiguity_base
                    base = rec.contiguity_base + off - off % span
                    pb = (rec.va_base - base) // ps
                    return (base, pb, span, ps, 0, va, aid, leaf, 1)
            if pattern:
                base = rec.va_base - rec.va_base % window
                pb = (rec.va_base - base) // ps
                return (base, pb, window, ps, 0, va, aid, leaf, 2)
            return (rec.va_base, 0, ps, ps, 1, va, aid, leaf, 0)

        #: Valid masks without the page's own bit, per unit, as of page
        #: table generation ``mask_gen``: the pages of one coalesced
        #: group share their unit's mask until the next mutation.
        mask_memo: dict = {}
        mask_gen = -1

        def window_mask(t: tuple, rec) -> int:
            """``valid_mask_for`` of the kind 1/2 head ``t`` at this
            trace position, the PTEs its fill reads.  Probes only the
            ``size_class`` bucket: promotion removes the base PTEs it
            replaces, so sizes never overlap a vaddr.
            """
            nonlocal mask_gen
            tag, pb, coverage, size_class, _, _, _, _, kind = t
            if page_table.generation != mask_gen:
                mask_memo.clear()
                mask_gen = page_table.generation
            region = rec.region if kind == 1 else None
            key = (tag, coverage, size_class, id(region))
            mask = mask_memo.get(key)
            if mask is None:
                mask = 0
                table = pt_tables.get(size_class)
                if table is not None:
                    probe = table.get
                    base_vpn = tag // size_class
                    for i in range(coverage // size_class):
                        cand = probe(base_vpn + i)
                        if cand is not None and (
                            region is None or cand.region is region
                        ):
                            mask |= 1 << i
                mask_memo[key] = mask
            return mask | (1 << pb)

        # --- translation pass (pass 2) and its head records ---
        replay = TranslationReplay(machine)
        #: heads[c] / runs[c]: requester ``c``'s recorded heads and the
        #: length of the run each one starts, in trace order.
        heads = replay.heads
        runs = replay.runs

        per_structure = state.per_structure
        alloc_ids_present = list(per_structure)
        n_alloc = max(alloc_ids_present, default=0) + 1
        wants_stats = caps.wants_page_stats
        epoch_len = state.epoch_len
        on_kernel = state.policy.on_kernel
        kernel_starts = sorted(set(trace.kernel_starts))

        fault = self.fault_stage.process

        # --- vectorized fault path eligibility ---
        # The batch may only hoist faults when placement is provably a
        # stateless granule-size map_single (the policy's contract
        # promise), translation units never read the page table between
        # faults (no coalescing windows), and allocation can neither
        # evict (host eviction reorders under hoisting) nor exhaust
        # mid-batch under bounded capacity (the enriched error must
        # carry the exact staged access index and fault count).
        # ``REPRO_FAULT_BATCH=0`` forces the pre-vectorization scalar
        # fault path — a debugging/benchmarking escape hatch (results
        # are bit-identical either way; only wall time changes).
        fault_batch_eligible = (
            getattr(caps, "fault_batch_size", None) == granule
            and not coalescing
            and not pattern
            and machine.pager.eviction is None
            and machine.allocator.free_capacity(0) is None
            and os.environ.get("REPRO_FAULT_BATCH", "1").lower()
            not in ("0", "false")
        )
        #: Flips to False when a batch aborts (the hook's promise was
        #: observed broken); the exact scalar path takes over.
        fault_batch_enabled = fault_batch_eligible
        batched_faults = 0

        # --- bulk fault path proof ---
        # The bulk branch of ``batch_faults`` may only run when the
        # policy's ``place`` is *literally* one of the audited in-tree
        # implementations: equivalence to the contract's map_single
        # sequence is then a static fact, not a runtime observation, so
        # the policy call, the double page-table lookup and the
        # per-fault verification all fold away.  Anything else —
        # subclass overrides included — keeps the fault()-per-fault
        # path, whose post-fault check catches even contract lies.
        place_fn = type(state.policy).place
        bulk_proven = (
            fault_batch_eligible
            and (
                getattr(place_fn, "__module__", None),
                getattr(place_fn, "__qualname__", None),
            )
            in AUDITED_PLACE
        )
        bulk_faults = 0
        if bulk_proven:
            pool_for = state.policy.pool_for
            allocations = state.allocations
            trace_alloc_ids = trace.alloc_ids
            allocator_allocate = machine.allocator.allocate
            # The allocator's per-(chiplet, size, pool) free lists: the
            # bulk loop pops these directly (``allocate`` minus the
            # constant-size validation) and only calls ``allocate`` to
            # split a fresh block when a list runs dry.
            alloc_free = machine.allocator._free
            buf_log = [b.log for b in machine.fault_buffers]
            buf_drain = [b.drain for b in machine.fault_buffers]

        # --- batch-owned accumulators (merged into state at the end) ---
        vec_translation = 0
        vec_data = 0
        vec_on_ring = 0
        acc_remote_placement = 0
        acc_epoch_remote = 0
        acc_epoch_accesses = 0
        fast_accesses = 0

        def data_pass(
            ch: np.ndarray, pd: np.ndarray, hm: np.ndarray
        ) -> None:
            """Replay recorded accesses through the data path (pass 2).

            ``DataStage.process`` per access, level by level: the
            requester L1s, the remote caches, the ring, the home L2s
            and DRAM.  Each level sees exactly the references the
            staged engine sends it, in the same order per cache, per
            remote-cache filter and per DRAM channel, so its state and
            counters come out identical (DESIGN.md section 7).
            """
            nonlocal vec_data, vec_on_ring
            line = pd // line_size
            served = replay_lines(l1_caches, ch, line)
            cycles = l1_latency * int(np.count_nonzero(served))
            remote = hm != ch
            if use_rc:
                look = np.flatnonzero(remote & ~served)
                if look.size:
                    rch = ch[look]
                    if rc_insert_all:
                        rc_hit = replay_lines(rc_caches, rch, line[look])
                        rc_lookups = np.bincount(rch, minlength=nc).tolist()
                        rc_hits = np.bincount(
                            rch[rc_hit], minlength=nc
                        ).tolist()
                        for c in range(nc):
                            remote_caches[c].remote_lookups += rc_lookups[c]
                            remote_caches[c].remote_hits += rc_hits[c]
                    else:
                        # A reuse filter (SAC) depends on lookup order:
                        # each chiplet's lookups run in trace order.
                        rc_hit = np.array(
                            [
                                remote_caches[c].access(p)
                                for c, p in zip(
                                    rch.tolist(), pd[look].tolist()
                                )
                            ],
                            dtype=bool,
                        )
                    served[look[rc_hit]] = True
                    cycles += l2_latency * int(np.count_nonzero(rc_hit))
            miss = np.flatnonzero(~served)
            if not miss.size:
                vec_data += cycles
                return
            home = hm[miss]
            ring_pairs = (home * nc + ch[miss])[remote[miss]]
            if ring_pairs.size:
                pair_counts = np.bincount(ring_pairs, minlength=nc * nc)
                cycles += int(pair_counts @ rcost_pair)
                traffic = ring.traffic_bytes
                for p in np.flatnonzero(pair_counts).tolist():
                    src, dst = divmod(p, nc)
                    nbytes = _TRANSFER_BYTES * int(pair_counts[p])
                    traffic[(src, dst)] = traffic.get((src, dst), 0) + nbytes
                    ring.total_bytes += nbytes
                    ring.hop_bytes += hops_tab[src][dst] * nbytes
                vec_on_ring += ring_pairs.size
            l2_hit = replay_lines(l2_caches, home, line[miss])
            cycles += l2_latency * miss.size
            to_dram = miss[~l2_hit]
            if to_dram.size:
                dpd = pd[to_dram]
                channel = hm[to_dram] * cpc + (dpd // FINE_INTERLEAVE) % cpc
                row = dpd // ROW_SIZE
                # Per channel in trace order: a row hit is a repeat of
                # the channel's previous row (or of its open row).
                order = np.argsort(
                    channel.astype(channel_dtype), kind="stable"
                )
                cs = channel[order]
                rs = row[order]
                starts = np.empty(cs.size, dtype=bool)
                starts[0] = True
                np.not_equal(cs[1:], cs[:-1], out=starts[1:])
                prev = np.empty_like(rs)
                prev[1:] = rs[:-1]
                first = np.flatnonzero(starts)
                firsts = cs[first].tolist()
                prev[first] = [open_row_get(cn, -1) for cn in firsts]
                row_hits = int(np.count_nonzero(rs == prev))
                dram.accesses += to_dram.size
                dram.row_hits += row_hits
                ends = np.append(first[1:], cs.size)
                for cn, lo, hi, rw in zip(
                    firsts, first.tolist(), ends.tolist(),
                    rs[ends - 1].tolist(),
                ):
                    ch_accesses[cn] += hi - lo
                    open_row[cn] = rw
                cycles += (
                    row_hit_c * row_hits
                    + row_miss_c * (to_dram.size - row_hits)
                )
            vec_data += cycles

        def scalar_one(
            i: int,
            # Default-bound bindings: local loads in the body instead of
            # closure-cell dereferences (this runs once per page fault).
            chiplets=chiplets,
            vaddrs=vaddrs,
            heads=heads,
            runs=runs,
            per_structure=per_structure,
            naive=naive,
            nc=nc,
            wants_stats=wants_stats,
        ) -> Tuple[int, int]:
            """One access through the exact staged fault stage, with its
            translation head recorded and its accounting inlined;
            returns the access's physical address and home chiplet for
            the data pass.

            ``FaultStage.process`` runs unmodified (fault buffering,
            policy placement, error enrichment).  Every fault-path
            access is a head of its own, translated by the translation
            pass like a window head; the accounting mirrors
            ``AccountingStage.process`` statement for statement.
            """
            nonlocal acc_remote_placement, acc_epoch_remote
            nonlocal acc_epoch_accesses
            c = int(chiplets[i])
            va = int(vaddrs[i])
            rec = fault(i, c, va)
            t = unit_tuple(va, rec)
            if not t[4]:
                t = t[:4] + (window_mask(t, rec),) + t[5:]
            heads[c].append(t)
            runs[c].append(1)

            pd = rec.paddr + (va - rec.va_base)
            if naive:
                hm = (pd // FINE_INTERLEAVE) % nc
            else:
                hm = rec.chiplet
            rm = hm != c

            # -- accounting (AccountingStage.process, inlined) --
            stats = per_structure[rec.alloc_id]
            stats[0] += 1
            if rm:
                acc_remote_placement += 1
                stats[1] += 1
                acc_epoch_remote += 1
            acc_epoch_accesses += 1
            if wants_stats:
                page_base = va & ~(PAGE_64K - 1)
                page_stats = state.page_stats
                counts = page_stats.get(page_base)
                if counts is None:
                    counts = [0] * nc
                    page_stats[page_base] = counts
                counts[c] += 1
            return pd, hm

        def run_chunk(start: int, end: int) -> None:  # noqa: C901
            nonlocal fast_accesses

            m = end - start
            #: Pass 1 records each access's physical address and home
            #: chiplet here; the data pass replays them.
            pd_buf = np.empty(m, dtype=np.int64)
            hm_buf = np.empty(m, dtype=np.int64)
            va_chunk = va_np[start:end]
            ch_chunk = ch_np[start:end]
            uniq, inv = np.unique(va_chunk >> shift, return_inverse=True)
            va_list = va_chunk.tolist()
            ch_list = ch_chunk.tolist()
            inv_list = inv.tolist()
            uniq_list = uniq.tolist()
            key_to_j = {k: j for j, k in enumerate(uniq_list)}
            n_uniq = len(uniq_list)

            recs: List[object] = [None] * n_uniq
            #: Per unique page, the head ``unit_tuple`` builds for it.
            templates: List[object] = [None] * n_uniq
            # Plain lists: ``resolve_j`` runs for every unique page and
            # again on every page-table event, where Python-list writes
            # beat NumPy scalar writes; ``vec_window`` materializes the
            # array views lazily (``vec_arrays``) when one goes stale.
            ok = [False] * n_uniq
            #: True when the key has *no* PTE at all — distinct from
            #: "mapped at sub-granule size": only truly unmapped keys
            #: are first-touch faults the batch path may resolve.
            unmapped = [False] * n_uniq
            delta = [0] * n_uniq
            homec = [0] * n_uniq
            alloc = [0] * n_uniq
            vec_arrays = None

            def resolve_j(j: int) -> None:
                nonlocal vec_arrays
                va_page = uniq_list[j] << shift
                rec = pt_lookup(va_page)
                vec_arrays = None
                if rec is None or rec.page_size < granule:
                    # Unmapped (or mapped at sub-granule size, where one
                    # key no longer identifies one record): the staged
                    # fallback resolves these accesses exactly.
                    recs[j] = None
                    templates[j] = None
                    ok[j] = False
                    unmapped[j] = rec is None
                    return
                recs[j] = rec
                templates[j] = unit_tuple(va_page, rec)
                ok[j] = True
                unmapped[j] = False
                delta[j] = rec.paddr - rec.va_base
                homec[j] = rec.chiplet
                alloc[j] = rec.alloc_id

            page_table.drain_events()
            for j in range(n_uniq):
                resolve_j(j)
            last_gen = page_table.generation

            def drain_repairs() -> bool:
                """Re-resolve keys the page table mutated since the last
                call; True when a previously resolved key went stale (a
                new scalar position appeared behind the scan cursor)."""
                nonlocal last_gen
                if page_table.generation == last_gen:
                    return False
                went_stale = False
                lo = uniq_list[0]
                hi = uniq_list[-1]
                for base, size in page_table.drain_events():
                    k0 = base >> shift
                    k1 = (base + size - 1) >> shift
                    if k0 < lo:
                        k0 = lo
                    if k1 > hi:
                        k1 = hi
                    for k in range(k0, k1 + 1):
                        j = key_to_j.get(k)
                        if j is not None:
                            was_ok = ok[j]
                            resolve_j(j)
                            if was_ok and not ok[j]:
                                went_stale = True
                last_gen = page_table.generation
                return went_stale

            def vec_window(a: int, b: int) -> None:
                """Replay resolved accesses ``[start+a, start+b)``."""
                nonlocal acc_remote_placement, acc_epoch_remote
                nonlocal acc_epoch_accesses, vec_arrays

                ch_seg = ch_chunk[a:b]
                inv_seg = inv[a:b]

                # -- derived per-access arrays for this window --
                arrs = vec_arrays
                if arrs is None:
                    arrs = (
                        np.array(delta, dtype=np.int64),
                        np.array(homec, dtype=np.int64),
                        np.array(alloc, dtype=np.int64),
                    )
                    vec_arrays = arrs
                delta_np, homec_np, alloc_np = arrs
                paddr = va_chunk[a:b] + delta_np[inv_seg]
                if naive:
                    home = (paddr // FINE_INTERLEAVE) % nc
                else:
                    home = homec_np[inv_seg]
                remote = home != ch_seg
                pd_buf[a:b] = paddr
                hm_buf[a:b] = home

                # -- translation heads: per-requester run compression --
                # Stable-sorted by requester, a head is an access whose
                # requester or page key differs from its predecessor's.
                order = np.argsort(ch_seg.astype(np.int16), kind="stable")
                c_by = ch_seg[order]
                j_by = inv_seg[order]
                change = np.empty(b - a, dtype=bool)
                change[0] = True
                np.not_equal(j_by[1:], j_by[:-1], out=change[1:])
                change[1:] |= c_by[1:] != c_by[:-1]
                head_pos = np.flatnonzero(change)
                run_lens = np.diff(np.append(head_pos, b - a)).tolist()
                js = j_by[head_pos].tolist()
                lo = 0
                for c, k in enumerate(
                    np.bincount(c_by[head_pos], minlength=nc).tolist()
                ):
                    if not k:
                        continue
                    hi = lo + k
                    runs[c] += run_lens[lo:hi]
                    if masked:
                        heads[c] += [
                            t if t[4] else
                            t[:4] + (window_mask(t, recs[j]),) + t[5:]
                            for t, j in zip(
                                map(templates.__getitem__, js[lo:hi]),
                                js[lo:hi],
                            )
                        ]
                    else:
                        heads[c] += map(templates.__getitem__, js[lo:hi])
                    lo = hi

                # -- accounting: bincount reductions --
                aid_seg = alloc_np[inv_seg]
                totals = np.bincount(aid_seg, minlength=n_alloc)
                remotes = np.bincount(aid_seg[remote], minlength=n_alloc)
                for alloc_id in alloc_ids_present:
                    t = int(totals[alloc_id])
                    if t:
                        stats = per_structure[alloc_id]
                        stats[0] += t
                        stats[1] += int(remotes[alloc_id])
                rn = int(np.count_nonzero(remote))
                acc_remote_placement += rn
                acc_epoch_remote += rn
                acc_epoch_accesses += b - a

                if wants_stats:
                    pb = va_chunk[a:b] & ~np.int64(PAGE_64K - 1)
                    upb, first_idx, pinv = np.unique(
                        pb, return_index=True, return_inverse=True
                    )
                    counts = np.bincount(
                        pinv * nc + ch_seg, minlength=len(upb) * nc
                    ).tolist()
                    upb_list = upb.tolist()
                    page_stats = state.page_stats
                    # New pages must enter the dict in first-touch order
                    # (policies may iterate it), not in sorted-key order.
                    order = np.argsort(first_idx, kind="stable").tolist()
                    for t in order:
                        base = upb_list[t]
                        prow = page_stats.get(base)
                        if prow is None:
                            prow = [0] * nc
                            page_stats[base] = prow
                        off = t * nc
                        for q in range(nc):
                            prow[q] += counts[off + q]


            def small_window(
                a: int,
                b: int,
                # Default-bound hot bindings (local loads in the loop
                # instead of closure-cell dereferences).
                ch_list=ch_list,
                va_list=va_list,
                inv_list=inv_list,
                heads=heads,
                runs=runs,
                per_structure=per_structure,
                naive=naive,
                nc=nc,
                wants_stats=wants_stats,
            ) -> None:
                """Fused scalar replay of resolved accesses [a, b).

                Exactly the semantics of ``vec_window`` — run-compressed
                translation heads, recorded physical addresses and
                homes, per-access accounting — but in plain Python, so
                short fault-to-fault runs (the first-touch wave of a
                workload faults every handful of accesses) skip the
                fixed NumPy setup of a vectorized window.
                """
                nonlocal acc_remote_placement, acc_epoch_remote
                nonlocal acc_epoch_accesses
                pds = []
                hms = []
                last_j = [-1] * nc
                last_aid = -1
                stats = None
                last_pb = -1
                counts = None
                page_stats = state.page_stats
                for p in range(a, b):
                    c = ch_list[p]
                    va = va_list[p]
                    j = inv_list[p]
                    rec = recs[j]
                    if last_j[c] == j:
                        # A tail of this requester's run: one more
                        # guaranteed L1 TLB hit behind its head.
                        runs[c][-1] += 1
                    else:
                        t = templates[j]
                        if not t[4]:
                            t = t[:4] + (window_mask(t, rec),) + t[5:]
                        heads[c].append(t)
                        runs[c].append(1)
                        last_j[c] = j
                    pd = rec.paddr + (va - rec.va_base)
                    if naive:
                        hm = (pd // FINE_INTERLEAVE) % nc
                    else:
                        hm = rec.chiplet
                    rm = hm != c
                    pds.append(pd)
                    hms.append(hm)
                    aid = rec.alloc_id
                    if aid != last_aid:
                        stats = per_structure[aid]
                        last_aid = aid
                    stats[0] += 1
                    if rm:
                        acc_remote_placement += 1
                        stats[1] += 1
                        acc_epoch_remote += 1
                    acc_epoch_accesses += 1
                    if wants_stats:
                        page_base = va & ~(PAGE_64K - 1)
                        if page_base != last_pb:
                            counts = page_stats.get(page_base)
                            if counts is None:
                                counts = [0] * nc
                                page_stats[page_base] = counts
                            last_pb = page_base
                        counts[c] += 1
                pd_buf[a:b] = pds
                hm_buf[a:b] = hms

            def batch_faults(rel: int) -> int:
                """Batch-resolve every first-touch fault in ``[rel, m)``.

                One ``np.unique`` over the remaining positions yields,
                per still-unmapped page, the index of its *first* access
                — the PMM first-touch owner sample, vectorized.  Every
                fault then routes through the unmodified staged
                ``fault`` binding (``FaultStage.process``) in trace
                order of those first touches: buffer logging, policy
                placement, frame allocation order, fault counters and
                exhaustion enrichment are exactly the scalar path's.
                Returns the number of faults fired (0 = nothing to do).

                The batch aborts at the *first* fault that breaks the
                ``fault_batch_size`` promise (a stale key, or a mapping
                smaller than the granule): the path is disabled for the
                rest of the run and the caller falls back to exact
                scalar replay.  Aborting per-fault — not after the whole
                batch — is what keeps even a contract-violating run
                bit-identical to staged: every fault fired so far
                resolved a full granule, so between consecutive batched
                first touches the staged engine would have faulted
                nothing else, and the machine state at the abort point
                is exactly the staged state at that fault.  The faults
                already fired are *not* replayed (a repeat ``fault``
                call is a pure lookup), so every access and every fault
                is still processed exactly once.

                When the run is ``bulk_proven`` (``place`` is an audited
                implementation — see :data:`AUDITED_PLACE`), the batch
                instead inlines the promised map_single sequence per
                fault — buffer log, frame pop, PTE insert, buffer drain
                — in the same order with the same counters, and no
                verification or abort is needed: equivalence is static.
                """
                nonlocal fault_batch_enabled, batched_faults
                nonlocal bulk_faults, last_gen, vec_arrays
                seg_uniq, seg_first = np.unique(
                    inv[rel:], return_index=True
                )
                todo = [
                    (rel + int(first), j)
                    for j, first in zip(seg_uniq.tolist(), seg_first.tolist())
                    if unmapped[j] and not ok[j]
                ]
                if not todo:
                    return 0
                todo.sort()
                if bulk_proven:
                    # --- bulk path: statically-audited placement ---
                    # Exactly FaultStage.process minus what the proof
                    # makes redundant: the miss lookup (keys are known
                    # unmapped), the policy dispatch (its body is the
                    # inlined statements below), the post-place lookup
                    # and granule check (we installed the PTE), and the
                    # per-fault event drain (the resolved state is
                    # written directly).  Counter updates — buffer
                    # ``faults_logged``, ``mapped_pages``,
                    # ``generation``, fault totals — are identical.
                    table = page_table._table_for(granule)
                    aids = trace_alloc_ids[
                        [start + pos for pos, _ in todo]
                    ].tolist()
                    for (pos, j), aid in zip(todo, aids):
                        v = va_list[pos]
                        r = ch_list[pos]
                        allocation = allocations[aid]
                        buf_log[r](v, r)
                        pool = pool_for(allocation)
                        fl = alloc_free.get((r, granule, pool))
                        frame = (
                            fl.pop()
                            if fl
                            else allocator_allocate(r, granule, pool)
                        )
                        page_base = v - (v % granule)
                        vpn = page_base >> shift
                        if vpn in table:
                            raise ValueError(
                                f"page at {page_base:#x} is already mapped"
                            )
                        rec = MappingRecord(
                            page_base,
                            granule,
                            frame.paddr,
                            frame.chiplet,
                            allocation.alloc_id,
                        )
                        table[vpn] = rec
                        buf_drain[r]()
                        recs[j] = rec
                        templates[j] = unit_tuple(page_base, rec)
                        ok[j] = True
                        unmapped[j] = False
                        delta[j] = frame.paddr - page_base
                        homec[j] = frame.chiplet
                        alloc[j] = allocation.alloc_id
                    done = len(todo)
                    page_table.mapped_pages += done
                    page_table.generation += done
                    last_gen = page_table.generation
                    vec_arrays = None
                    bulk_faults += done
                    batched_faults += done
                    return done
                done = 0
                for pos, j in todo:
                    if ok[j]:
                        # A previous fault over-mapped this key (only a
                        # contract violation can): no fault to fire.
                        continue
                    fault(start + pos, ch_list[pos], va_list[pos])
                    done += 1
                    if drain_repairs() or not ok[j]:
                        fault_batch_enabled = False
                        break
                batched_faults += done
                return done

            # --- window scan over the chunk (pass 1) ---
            # Unresolved positions are computed once; faults only shrink
            # the set (checked lazily via ``ok``), so the list is rebuilt
            # only when an eviction/demotion makes a resolved key stale.
            # Positions ``[0, rel)`` are recorded; their translation
            # heads and the data path of ``[done, rel)`` still await
            # pass 2, which ``drain`` runs at the chunk's end, before any
            # out-of-band TLB, Remote Tracker or cache operation, and on
            # an abort.
            done = 0
            rel = 0

            def drain() -> None:
                nonlocal done, vec_translation
                vec_translation += replay.drain()
                if rel > done:
                    lo = done
                    done = rel
                    data_pass(ch_chunk[lo:rel], pd_buf[lo:rel], hm_buf[lo:rel])

            machine.replay_drain = drain
            try:
                ok_np = np.array(ok, dtype=bool)
                bad_list = np.flatnonzero(~ok_np[inv]).tolist()
                bp = 0
                while rel < m:
                    if drain_repairs():
                        ok_np = np.array(ok, dtype=bool)
                        bad_list = (
                            rel + np.flatnonzero(~ok_np[inv[rel:]])
                        ).tolist()
                        bp = 0
                    while bp < len(bad_list) and (
                        bad_list[bp] < rel or ok[inv_list[bad_list[bp]]]
                    ):
                        bp += 1
                    nxt = bad_list[bp] if bp < len(bad_list) else m
                    f = nxt - rel
                    if f:
                        if f >= MIN_VEC:
                            vec_window(rel, nxt)
                        else:
                            small_window(rel, nxt)
                        fast_accesses += f
                        rel = nxt
                    if rel < m:
                        if fault_batch_enabled and unmapped[inv_list[rel]]:
                            # ``batch_faults`` drained its own events, so
                            # the next drain_repairs() is a no-op; rebuild
                            # the unresolved list from the resolved flags
                            # (on abort, keys behind/ahead may have moved).
                            if batch_faults(rel):
                                ok_np = np.array(ok, dtype=bool)
                                bad_list = (
                                    rel + np.flatnonzero(~ok_np[inv[rel:]])
                                ).tolist()
                                bp = 0
                                continue
                        pd_buf[rel], hm_buf[rel] = scalar_one(start + rel)
                        rel += 1
            finally:
                drain()
                machine.replay_drain = None

        # --- chunk loop with kernel/epoch clipping ---
        ks_i = 0
        n_kernels = len(kernel_starts)
        pos = 0
        # The replay allocates heavily but briefly (per-chunk lists,
        # TLB entries, window arrays); cyclic collection mid-run only
        # adds pauses.  Results are unaffected — this is wall time only.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while pos < n:
                if ks_i < n_kernels and kernel_starts[ks_i] == pos:
                    state.kernel_index += 1
                    on_kernel(state.kernel_index)
                    ks_i += 1
                cend = min(pos + CHUNK, n)
                if ks_i < n_kernels:
                    cend = min(cend, kernel_starts[ks_i])
                cend = min(cend, ((pos // epoch_len) + 1) * epoch_len)
                run_chunk(pos, cend)
                pos = cend
                if pos % epoch_len == 0:
                    state.remote_placement = acc_remote_placement
                    state.epoch_remote = acc_epoch_remote
                    state.epoch_accesses = acc_epoch_accesses
                    close_epoch(state, None)
                    acc_epoch_remote = 0
                    acc_epoch_accesses = 0
        finally:
            if gc_was_enabled:
                gc.enable()
            # Publish even on an abort so error enrichment and
            # post-mortems see true totals (mirrors AccessPipeline.run).
            self.fault_stage.finish()
            # Bulk-path faults bypass FaultStage entirely; fold them
            # into the same total its finish() just published.
            state.faults += bulk_faults
            state.translation_cycles = vec_translation
            state.data_cycles = vec_data
            state.remote_on_ring = vec_on_ring
            state.remote_placement = acc_remote_placement
            state.epoch_remote = acc_epoch_remote
            state.epoch_accesses = acc_epoch_accesses

        if state.epoch_accesses:
            close_epoch(state, None)
        self.fast_path_fraction = fast_accesses / n if n else 1.0
        if fault_batch_eligible:
            self.fault_batch_fraction = (
                batched_faults / state.faults if state.faults else 1.0
            )
        return state


__all__ = ["BatchedPipeline", "CHUNK", "MIN_VEC"]
