"""Set-associative data caches.

Two cache roles exist in the simulated memory path:

* a per-chiplet **L1 aggregate** (requester side) standing in for the
  chiplet's per-SM L1s, probed by physical line address;
* a per-chiplet **L2** modelled **memory-side**: lines are cached at the
  chiplet that owns the physical page (its home), and every requester —
  local or remote — probes the home L2.

The memory-side choice is a deliberate modelling decision (see
DESIGN.md): it makes L2 capacity sensitive to data *placement*.  When a
2MB page pulls four chiplets' worth of data into one home chiplet, that
home L2 serves a ~4x working set while the others idle, reproducing the
L2 MPKI inflation the paper reports for misplaced large pages (Table 2).
A purely SM-side model is placement-blind and cannot show that effect.

**State.** A cache is one ``int64`` tag array, ``tags``, with one row
per set ordered LRU (column 0) to MRU (column ``ways - 1``).  Invalid
ways hold :data:`EMPTY` and valid ways are packed at the MRU end, so a
miss is always "shift the row one way toward LRU and write the new line
at the MRU end" — the shift drops either the LRU line or an empty way.
Three entry points share the array: the per-access :meth:`access` the
staged engine calls, the bulk :func:`replay_lines` the batched engine's
data pass calls, and the vectorized :meth:`invalidate_range`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..units import CACHE_LINE, is_pow2

#: Tag of an invalid way (line addresses are non-negative).
EMPTY = -1

#: Multiplier of the Fibonacci set-index hash.
_HASH_MUL = 0x9E3779B1


def set_indices(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Vectorized set index of each line (the hash in :meth:`set_of`).

    The product may wrap around in ``int64``; its low 32 bits, the only
    ones the hash keeps, are exact either way.
    """
    return ((lines * _HASH_MUL & 0xFFFFFFFF) >> 16) % num_sets


class SetAssociativeCache:
    """LRU set-associative cache indexed by physical line address."""

    def __init__(
        self,
        capacity_bytes: int,
        ways: int = 16,
        line_size: int = CACHE_LINE,
    ) -> None:
        if capacity_bytes < line_size:
            raise ValueError("capacity must hold at least one line")
        if not is_pow2(line_size):
            raise ValueError("line_size must be a power of two")
        self.line_size = line_size
        total_lines = capacity_bytes // line_size
        ways = max(1, min(ways, total_lines))
        self.num_sets = max(1, total_lines // ways)
        self.ways = ways
        self.tags = np.full((self.num_sets, ways), EMPTY, dtype=np.int64)
        # Flat int64 view of ``tags`` for the per-access path: element
        # reads and overlapping slice moves without NumPy scalar boxing.
        self._flat = memoryview(self.tags).cast("B").cast("q")
        self.hits = 0
        self.misses = 0

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    @property
    def occupancy(self) -> int:
        """Number of valid lines resident."""
        return int(np.count_nonzero(self.tags != EMPTY))

    def set_of(self, line: int) -> int:
        """Set index of ``line``.

        GPU L2s hash their set index; a Fibonacci multiplicative hash
        disperses both page-strided streams and physically contiguous
        CLAP regions uniformly (a plain modulo or XOR-fold thrashes a
        handful of sets for one layout or the other).
        """
        return (((line * _HASH_MUL) & 0xFFFFFFFF) >> 16) % self.num_sets

    def lookup(self, paddr: int) -> bool:
        """Probe the line containing ``paddr``; a hit becomes MRU.

        Counts a hit or a miss but never fills (see :meth:`fill`).
        """
        line = paddr // self.line_size
        ways = self.ways
        base = self.set_of(line) * ways
        end = base + ways
        flat = self._flat
        row = flat[base:end].tolist()
        if line in row:
            k = base + row.index(line)
            if k != end - 1:
                flat[k:end - 1] = flat[k + 1:end]
                flat[end - 1] = line
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, paddr: int) -> None:
        """Insert the (absent) line containing ``paddr`` as MRU,
        evicting the set's LRU line when the set is full."""
        line = paddr // self.line_size
        ways = self.ways
        base = self.set_of(line) * ways
        end = base + ways
        flat = self._flat
        flat[base:end - 1] = flat[base + 1:end]
        flat[end - 1] = line

    def access(self, paddr: int) -> bool:
        """Probe-and-fill for the line containing ``paddr``.

        Returns True on hit.  Misses insert the line (allocate-on-miss)
        and evict the set's LRU line when full.  This is :meth:`lookup`
        and :meth:`fill` inlined: the staged engine calls it for every
        access.
        """
        line = paddr // self.line_size
        ways = self.ways
        base = (((line * _HASH_MUL) & 0xFFFFFFFF) >> 16) % self.num_sets * ways
        end = base + ways
        flat = self._flat
        row = flat[base:end].tolist()
        if line in row:
            k = base + row.index(line)
            if k != end - 1:
                flat[k:end - 1] = flat[k + 1:end]
                flat[end - 1] = line
            self.hits += 1
            return True
        self.misses += 1
        flat[base:end - 1] = flat[base + 1:end]
        flat[end - 1] = line
        return False

    def probe(self, paddr: int) -> bool:
        """Check residency without filling or touching statistics."""
        line = paddr // self.line_size
        return line in self.tags[self.set_of(line)].tolist()

    def invalidate_range(self, paddr: int, size: int) -> int:
        """Drop all lines in ``[paddr, paddr+size)`` (migration flush).

        Returns the number of lines dropped.  Work is proportional to
        the cache, not to the range: one comparison over the tag array,
        then the affected rows are re-packed toward the MRU end with
        their surviving lines' order kept.
        """
        first = paddr // self.line_size
        last = (paddr + size - 1) // self.line_size
        tags = self.tags
        drop = np.flatnonzero((tags >= first) & (tags <= last))
        if not drop.size:
            return 0
        tags.reshape(-1)[drop] = EMPTY
        rows = np.unique(drop // self.ways)
        tags[rows] = _packed(tags[rows])
        return drop.size

    def flush(self) -> None:
        self.tags.fill(EMPTY)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


def _packed(rows: np.ndarray) -> np.ndarray:
    """``rows`` with their empty ways moved to the LRU end.

    A stable sort on the valid flag keeps the valid lines in their
    LRU-to-MRU order.
    """
    order = np.argsort(rows != EMPTY, axis=1, kind="stable")
    base = np.arange(len(rows)) * rows.shape[1]
    return rows.reshape(-1)[order + base[:, None]]


def replay_lines(
    caches: Sequence[SetAssociativeCache],
    owners: np.ndarray,
    lines: np.ndarray,
) -> np.ndarray:
    """Replay line references through a group of same-shaped caches.

    Reference ``i`` probes-and-fills ``caches[owners[i]]`` with line
    ``lines[i]``, in index order.  The result — the returned hit flags,
    every cache's hit/miss counters and final tag array — equals calling
    :meth:`SetAssociativeCache.access` once per reference in that order,
    because a set's state depends only on its own references.

    Each set's resident row counts as earlier references, LRU first.
    Then a reference whose line has no earlier reference in its set is a
    certain miss, and one with fewer than ``ways`` set-local references
    since its line's last reference is a certain hit (fewer than
    ``ways`` distinct lines can have been used in between).  A set
    holding any other reference replays per access; every other set's
    new row is its last ``ways`` distinct lines ordered by last
    reference, which is exactly what LRU with allocate-on-miss keeps.
    """
    n = len(lines)
    hits = np.zeros(n, dtype=bool)
    if not n:
        return hits
    num_sets, ways = caches[0].num_sets, caches[0].ways
    n_caches = len(caches)
    n_rows = n_caches * num_sets
    tags = np.concatenate([c.tags for c in caches])
    row = owners * num_sets + set_indices(lines, num_sets)

    # Touched rows are numbered by ``gid``; ``rank`` counts the earlier
    # references to the same row, and ``by_row`` lists the references
    # grouped by row, in time order.
    per_row = np.bincount(row, minlength=n_rows)
    urow = np.flatnonzero(per_row)
    k = len(urow)
    gid = (np.cumsum(per_row > 0) - 1)[row]
    by_row = (
        np.argsort(row.astype(np.int16), kind="stable")
        if n_rows <= 1 << 15
        else np.argsort(row, kind="stable")
    )
    row_start = np.cumsum(per_row) - per_row
    rank = np.empty(n, dtype=np.int64)
    rank[by_row] = np.arange(n) - row_start[row[by_row]]

    # Previous and next reference to the same line of the same cache.
    key = lines * n_caches + owners
    if n < 1 << 16 and int(key.max()) < 1 << 47:
        by_key = np.argsort((key << 16) | np.arange(n))
    else:
        by_key = np.argsort(key, kind="stable")
    same = np.flatnonzero(key[by_key[1:]] == key[by_key[:-1]])
    later, earlier = by_key[same + 1], by_key[same]
    prev = np.full(n, -1, dtype=np.int64)
    prev[later] = earlier
    is_last = np.ones(n, dtype=bool)
    is_last[earlier] = False

    # Set-local references since the line's last use: in-chunk reuse
    # counts the row's references in between; a first reference to a
    # resident line adds the resident lines more recent than it.
    res = tags[urow]
    dist = np.full(n, -1, dtype=np.int64)
    dist[later] = rank[later] - rank[earlier] - 1
    fresh = np.flatnonzero(prev < 0)
    # Rows hold distinct lines, so a fresh reference matches at most
    # one resident way: ``found`` indexes the (fresh, way) matrix.
    found = np.flatnonzero(
        np.take(res, gid[fresh], axis=0) == lines[fresh, None]
    )
    hit_fresh = fresh[found // ways]
    col = found % ways
    dist[hit_fresh] = rank[hit_fresh] + (ways - 1 - col)
    hits[:] = dist >= 0
    bad = np.zeros(k, dtype=bool)
    bad[gid[dist >= ways]] = True

    # New rows: each row's unreferenced resident lines in row order,
    # then its references' distinct lines by last use, laid out in a
    # (k, 2 * ways) grid; the row's last ``ways`` entries are kept.
    in_row = by_row[is_last[by_row]]
    last_gid = gid[in_row]
    shift = np.bincount(last_gid, minlength=k)
    grid = np.full((k, 2 * ways), EMPTY, dtype=np.int64)
    grid[:, :ways] = res
    if hit_fresh.size:
        grid.reshape(-1)[gid[hit_fresh] * 2 * ways + col] = EMPTY
        moved = np.unique(gid[hit_fresh])
        grid[moved, :ways] = _packed(grid[moved, :ways])
    # A row's last uses start at grid column ``ways``; when there are
    # more than ``ways`` of them, the oldest fall off the front.
    row_base = np.arange(k) * 2 * ways + ways
    to = np.arange(len(in_row)) + (
        row_base - (np.cumsum(shift) - shift) - np.maximum(shift - ways, 0)
    )[last_gid]
    fit = to >= row_base[last_gid]
    grid.reshape(-1)[to[fit]] = lines[in_row[fit]]
    first = row_base - ways + np.minimum(shift, ways)
    new = grid.reshape(-1)[first[:, None] + np.arange(ways)]

    if bad.any():
        # Rows with a reuse too distant to classify: plain LRU replay.
        for g in np.flatnonzero(bad).tolist():
            lru = [x for x in res[g].tolist() if x != EMPTY]
            start = row_start[urow[g]]
            span = by_row[start:start + per_row[urow[g]]]
            out: List[bool] = []
            for line in lines[span].tolist():
                if line in lru:
                    lru.remove(line)
                    lru.append(line)
                    out.append(True)
                else:
                    lru.append(line)
                    if len(lru) > ways:
                        del lru[0]
                    out.append(False)
            hits[span] = out
            new[g] = EMPTY
            new[g, ways - len(lru):] = lru

    tags[urow] = new
    per_hit = np.bincount(owners[hits], minlength=n_caches).tolist()
    per_all = np.bincount(owners, minlength=n_caches).tolist()
    for c, cache in enumerate(caches):
        if per_all[c]:
            cache.tags[:] = tags[c * num_sets:(c + 1) * num_sets]
            cache.hits += per_hit[c]
            cache.misses += per_all[c] - per_hit[c]
    return hits


__all__ = ["EMPTY", "SetAssociativeCache", "replay_lines", "set_indices"]
