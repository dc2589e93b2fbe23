# ruff: noqa
"""Bad fixture: seven distinct parity violations.

* ``data_pass`` consults DRAM before the ring (drifted memory-path
  order);
* ``scalar_one`` probes the L1 data cache itself, ahead of the data
  pass;
* ``_TRANSFER_BYTES`` disagrees with the staged 32-byte payload;
* ``small_window`` probes the L1 TLB itself, ahead of the translation
  pass;
* ``translation_pass`` walks before it probes the L2 TLB (drifted
  translation order);
* the epoch callback fires directly from ``run_chunk`` instead of
  going through ``close_epoch`` (which is never called at all).
"""

_TRANSFER_BYTES = 64


def scalar_one(ctx, heads, records, l1_caches, unit_tuple):
    heads.append(unit_tuple(ctx))
    if not l1_caches.lookup(ctx):
        records.append(ctx)


def small_window(window, heads, records, templates, l1t):
    for ctx in window:
        if not l1t.hit(templates[ctx]):
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
        total += walker.walk(head)
        if l2t.hit(head):
            total += 1
    return total


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
