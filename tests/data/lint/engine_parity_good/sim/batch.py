# ruff: noqa
"""Good fixture: pass-1 functions that only record translation heads
and data accesses, one translation pass whose level order matches the
staged TranslationPath.access, one data pass whose normalized
memory-path order matches the staged DataStage.process, and the staged
epoch-closing sequence."""

_TRANSFER_BYTES = 32


def scalar_one(ctx, heads, records, unit_tuple, window_mask):
    head = unit_tuple(ctx)
    heads.append(window_mask(head))
    records.append(ctx)


def small_window(window, heads, records, templates):
    for ctx in window:
        heads.append(templates[ctx])
        records.append(ctx)


def vec_window(window, heads, records, templates):
    heads.extend(templates[ctx] for ctx in window)
    records.extend(window)


def translation_pass(heads, l1t, l2t, walker):
    total = 0
    for head in heads:
        if l1t.hit(head):
            continue
        if l2t.hit(head):
            total += 1
            continue
        total += walker.walk(head)
    return total


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
