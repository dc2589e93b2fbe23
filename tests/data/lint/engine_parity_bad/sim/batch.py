# ruff: noqa
"""Bad fixture: five distinct parity violations.

* ``data_pass`` consults DRAM before the ring (drifted memory-path
  order);
* ``scalar_one`` probes the L1 itself, ahead of the data pass;
* ``_TRANSFER_BYTES`` disagrees with the staged 32-byte payload;
* ``small_window`` inlines its own translation instead of routing
  through ``translate_head``;
* the epoch callback fires directly from ``run_chunk`` instead of
  going through ``close_epoch`` (which is never called at all).
"""

_TRANSFER_BYTES = 64


def translate_head(units, l1t, l2t, walkers):
    unit = units.lookup()
    if l1t.hit(unit):
        return 1
    if l2t.hit(unit):
        return 2
    return walkers.walk(unit)


def scalar_one(ctx, records, l1_caches, units, l1t, l2t, walkers):
    translate_head(units, l1t, l2t, walkers)
    if not l1_caches.lookup(ctx):
        records.append(ctx)


def small_window(window, records, units, l1t, l2t, walkers):
    for ctx in window:
        unit = units.lookup()
        l1t.hit(unit)
        records.append(ctx)


def vec_window(window, records, units, l1t, l2t, walkers):
    translate_head(units, l1t, l2t, walkers)
    records.extend(window)


def data_pass(records, l1_caches, remote_caches, l2_latency, ring, dram):
    total = 0
    for ctx in records:
        if l1_caches.lookup(ctx):
            continue
        if remote_caches.lookup(ctx):
            total += l2_latency
            continue
        total += l2_latency + dram.access(ctx)
        ring.hops(ctx)
    return total


def run_chunk(policy, stats, ratio):
    policy.on_epoch(0, stats, ratio)
