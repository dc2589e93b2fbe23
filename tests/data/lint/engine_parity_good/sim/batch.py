# ruff: noqa
"""Good fixture: pass-1 functions that only translate and record, one
data pass whose normalized memory-path order matches the staged
DataStage.process, one shared translation head and the staged
epoch-closing sequence."""

_TRANSFER_BYTES = 32


def translate_head(units, l1t, l2t, walkers):
    unit = units.lookup()
    if l1t.hit(unit):
        return 1
    if l2t.hit(unit):
        return 2
    return walkers.walk(unit)


def scalar_one(ctx, records, units, l1t, l2t, walkers):
    translate_head(units, l1t, l2t, walkers)
    records.append(ctx)


def small_window(window, records, units, l1t, l2t, walkers):
    for ctx in window:
        translate_head(units, l1t, l2t, walkers)
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
        total += l2_latency + ring.hops(ctx)
        dram.access(ctx)
    return total


def run_chunk(policy, stats, ratio):
    from .pipeline import close_epoch

    close_epoch(policy, stats, ratio)
