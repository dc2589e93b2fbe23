"""Tests for the data caches and remote-caching schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import EMPTY, SetAssociativeCache, replay_lines
from repro.cache.remote_cache import (
    NubaCache,
    SacCache,
    make_remote_cache,
)
from repro.config import baseline_config
from repro.sim.validation import cache_violations


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(16 * 128, ways=4)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(64)  # same 128B line
        assert cache.hits == 2

    def test_lru_within_set(self):
        cache = SetAssociativeCache(2 * 128, ways=2)
        # Two-entry fully-mapped cache: fill, refresh, insert third.
        cache.access(0)
        cache.access(128 * 1000)
        cache.access(0)
        cache.access(128 * 2000)  # evicts the LRU line
        assert cache.access(0)
        assert not cache.probe(128 * 1000)

    def test_probe_does_not_fill(self):
        cache = SetAssociativeCache(16 * 128)
        assert not cache.probe(0)
        assert not cache.access(0)  # still a miss: probe didn't fill

    def test_invalidate_range_small(self):
        cache = SetAssociativeCache(64 * 128)
        cache.access(0)
        cache.access(128)
        cache.access(4096)
        assert cache.invalidate_range(0, 256) == 2
        assert not cache.probe(0)
        assert cache.probe(4096)

    def test_invalidate_range_large_scan_path(self):
        cache = SetAssociativeCache(16 * 128)
        for i in range(8):
            cache.access(i * 128)
        dropped = cache.invalidate_range(0, 64 * 1024 * 1024)
        assert dropped == 8
        assert cache.probe(0) is False

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(64)
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, line_size=100)

    def test_hit_rate_and_reset(self):
        cache = SetAssociativeCache(16 * 128)
        cache.access(0)
        cache.access(0)
        assert cache.hit_rate == 0.5
        cache.reset_stats()
        assert cache.accesses == 0

    @given(
        lines=st.lists(st.integers(0, 1000), min_size=1, max_size=300)
    )
    @settings(max_examples=30, deadline=None)
    def test_property_occupancy_bounded(self, lines):
        cache = SetAssociativeCache(32 * 128, ways=4)
        for line in lines:
            cache.access(line * 128)
        resident = cache.occupancy
        assert resident <= cache.capacity_lines


def _lines_by_set(cache, per_set):
    """``per_set`` distinct lines for every set of ``cache``."""
    pools = [[] for _ in range(cache.num_sets)]
    line = 0
    while min(len(p) for p in pools) < per_set:
        pool = pools[cache.set_of(line)]
        if len(pool) < per_set:
            pool.append(line)
        line += 1
    return pools


#: One reference: (cache, set, kind, index).  ``new`` takes the next
#: unused line of the set; ``reuse`` repeats an earlier line of the set
#: with ``ways - 1 + index`` set-local references after it (index 0..2
#: gives the distances ``ways - 1``, ``ways`` and ``ways + 1``);
#: ``repeat`` references the set's last line again.
_step = st.tuples(
    st.integers(0, 1),
    st.integers(0, 3),
    st.sampled_from(["new", "reuse", "reuse", "repeat"]),
    st.integers(0, 2),
)


class TestBulkReplay:
    @given(
        ways=st.sampled_from([1, 2, 4]),
        sets=st.sampled_from([1, 2, 4]),
        batches=st.lists(
            st.tuples(
                st.lists(_step, max_size=60),
                st.none() | st.tuples(st.integers(0, 40), st.integers(1, 24)),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_replay_matches_access_loop(self, ways, sets, batches):
        """``replay_lines`` over a batch equals one ``access()`` per
        reference in order: hit flags, counters and final tag arrays,
        across reuse at set-local distances around ``ways``, repeated
        lines, partially filled rows and invalidations between batches.
        """
        capacity = ways * sets * 128
        looped = [SetAssociativeCache(capacity, ways=ways) for _ in range(2)]
        bulk = [SetAssociativeCache(capacity, ways=ways) for _ in range(2)]
        pools = _lines_by_set(looped[0], 64)
        history = {}
        fresh = {}
        for steps, flush in batches:
            owners, lines = [], []
            for owner, set_no, kind, index in steps:
                key = (owner, set_no % looped[0].num_sets)
                past = history.setdefault(key, [])
                if kind == "repeat" and past:
                    line = past[-1]
                elif kind == "reuse" and len(past) >= ways + index:
                    line = past[-(ways + index)]
                else:
                    n = fresh.get(key, 0) % len(pools[key[1]])
                    fresh[key] = n + 1
                    line = pools[key[1]][n]
                past.append(line)
                owners.append(owner)
                lines.append(line)
            expected = [
                looped[o].access(line * 128) for o, line in zip(owners, lines)
            ]
            got = replay_lines(
                bulk,
                np.array(owners, dtype=np.int64),
                np.array(lines, dtype=np.int64),
            )
            assert got.tolist() == expected
            for ref, cache in zip(looped, bulk):
                assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
                assert np.array_equal(cache.tags, ref.tags)
                assert cache_violations(cache, "bulk") == []
            if flush is not None:
                start, count = flush
                for ref, cache in zip(looped, bulk):
                    assert cache.invalidate_range(
                        start * 128, count * 128
                    ) == ref.invalidate_range(start * 128, count * 128)
                    assert np.array_equal(cache.tags, ref.tags)
                    assert cache_violations(cache, "bulk") == []

    def test_invalidate_keeps_survivors_in_lru_order(self):
        cache = SetAssociativeCache(128 * 4, ways=4)
        lines = [line for line in range(200) if cache.set_of(line) == 0][:4]
        for line in lines:
            cache.access(line * 128)
        assert cache.invalidate_range(lines[1] * 128, 128) == 1
        assert cache.tags[0].tolist() == [EMPTY] + [lines[0]] + lines[2:]


class TestRemoteCaches:
    def test_nuba_inserts_everything(self):
        cache = NubaCache(baseline_config())
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.coverage == 0.5

    def test_sac_requires_reuse_before_inserting(self):
        cache = SacCache(baseline_config())
        assert not cache.access(0)   # first touch: filtered, not inserted
        assert not cache.access(0)   # second touch: inserted now
        assert cache.access(0)       # third touch: hit

    def test_sac_smaller_than_nuba(self):
        cfg = baseline_config()
        assert (
            SacCache(cfg).cache.capacity_lines
            < NubaCache(cfg).cache.capacity_lines
        )

    def test_factory(self):
        cfg = baseline_config()
        assert make_remote_cache(None, cfg) is None
        assert isinstance(make_remote_cache("nuba", cfg), NubaCache)
        assert isinstance(make_remote_cache("SAC", cfg), SacCache)
        with pytest.raises(ValueError):
            make_remote_cache("bogus", cfg)
