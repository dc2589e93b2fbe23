"""Trace serialization: save, reload, and zero-copy attach access streams.

Traces are deterministic given (spec, chiplets, seed), but regenerating a
large sweep repeatedly is wasteful and external tools may want the raw
streams.  One archive format round-trips a :class:`Trace`: format v2, an
uncompressed, page-aligned arena archive — a fixed-size JSON header
followed by the trace's arena bytes in exactly the layout of
:mod:`repro.trace.arena`.  ``load_trace`` memory-maps the data section
read-only and reconstructs the columns as views — zero copies, and
every process mapping the same file shares one set of physical pages.
This is the format the :class:`~repro.trace.store.TraceStore`
materializes.

``save_trace`` routes through :func:`repro.sim.durability.atomic_write`,
so a crash mid-write can never leave a torn archive for an attaching
worker to map — repro-lint rule RPR006 enforces the routing statically.

``load_trace`` validates the archive up front — magic, header fields,
column layout and dtypes, kernel-start bounds, declared lengths and the
data CRC32 — and raises a :class:`~repro.errors.TraceFormatError`
naming exactly what is wrong, instead of letting a corrupt archive
surface later as a cryptic numpy error mid-simulation.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Union

import numpy as np

from ..errors import TraceFormatError
from ..sim.durability import atomic_write
from . import arena as _arena
from .workload import Trace

#: v2 magic prefix.  The full first line is
#: ``#repro-trace-v2 <header-size>\n`` with a fixed-width decimal size,
#: so a reader can find the JSON header without guessing.
_V2_MAGIC = b"#repro-trace-v2 "
_V2_MAGIC_LINE_LEN = len(_V2_MAGIC) + 12 + 1  # magic + %012d + newline


def _v2_header_bytes(trace: Trace) -> bytes:
    """The fixed-size v2 header block for ``trace``."""
    n = len(trace)
    layout, total = _arena.column_layout(n)
    arena = trace.arena
    assert arena is not None  # Trace construction guarantees an arena
    header = {
        "format": "repro-trace",
        "version": 2,
        "n": n,
        "kernel_starts": [int(k) for k in trace.kernel_starts],
        "n_warp_instructions": int(trace.n_warp_instructions),
        "columns": {
            name: {
                "dtype": dtype.name,
                "offset": offset,
                "nbytes": nbytes,
            }
            for name, dtype, offset, nbytes in layout
        },
        "data_length": int(arena.nbytes),
        "data_crc32": zlib.crc32(arena.tobytes()) & 0xFFFFFFFF,
    }
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    header_size = _align(
        _V2_MAGIC_LINE_LEN + len(body) + 1, _arena.ARENA_ALIGN
    )
    magic_line = _V2_MAGIC + b"%012d" % header_size + b"\n"
    padding = b"\0" * (header_size - _V2_MAGIC_LINE_LEN - len(body) - 1)
    return magic_line + body + b"\n" + padding


def _align(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


def save_trace(trace: Trace, path: Union[str, os.PathLike]) -> None:
    """Write the page-aligned arena archive :func:`load_trace` can mmap.

    The file is ``<header block><arena bytes>`` with the data section
    starting on a 4096-byte boundary; the header carries the column
    layout, the kernel starts, and a CRC32 over the data section that
    :func:`load_trace` verifies before any worker trusts the mapping.
    The whole file goes through one :func:`atomic_write`, so concurrent
    materializers of the same fingerprint race benignly — both write
    identical bytes and the last rename wins.
    """
    assert trace.arena is not None
    atomic_write(path, [_v2_header_bytes(trace), memoryview(trace.arena)])


def _v2_error(path, problems: list) -> TraceFormatError:
    return TraceFormatError(
        f"corrupt trace archive {os.fspath(path)!r}: "
        + "; ".join(str(p) for p in problems),
        context={"path": os.fspath(path), "problems": problems},
    )


def load_trace(
    path: Union[str, os.PathLike], *, mmap: bool = True
) -> Trace:
    """Load a trace previously written by :func:`save_trace`.

    The archive attaches zero-copy by default: the data section is
    memory-mapped read-only and the columns are views over the mapping
    (``mmap=False`` forces a private in-memory copy).

    Raises :class:`TraceFormatError` when the file is unreadable or
    lacks the v2 magic, or when its header is missing keys, declares
    column lengths or dtypes that disagree with the arena layout, or
    the data is truncated or fails its checksum — every message names
    the offending key.
    """
    try:
        file_size = os.stat(path).st_size
        with open(path, "rb") as handle:
            magic_line = handle.read(_V2_MAGIC_LINE_LEN)
            if not magic_line.startswith(_V2_MAGIC):
                raise TraceFormatError(
                    f"cannot read trace archive {os.fspath(path)!r}: it "
                    f"does not start with the v2 magic "
                    f"{_V2_MAGIC.decode().strip()!r}",
                    context={"path": os.fspath(path)},
                )
            try:
                header_size = int(magic_line[len(_V2_MAGIC):-1])
            except ValueError:
                raise _v2_error(path, ["malformed v2 magic line"]) from None
            head = handle.read(header_size - _V2_MAGIC_LINE_LEN)
    except OSError as exc:
        raise TraceFormatError(
            f"cannot read trace archive {os.fspath(path)!r}: {exc}",
            context={"path": os.fspath(path)},
        ) from exc
    try:
        header = json.loads(head.rstrip(b"\0").decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _v2_error(path, [f"unparseable v2 header: {exc}"]) from None
    if not isinstance(header, dict) or header.get("format") != "repro-trace":
        raise _v2_error(path, ["header is not a repro-trace object"])
    if header.get("version") != 2:
        raise TraceFormatError(
            f"unsupported trace format version {header.get('version')} "
            f"(expected 2)",
            context={"path": os.fspath(path), "version": header.get("version")},
        )

    problems: list = []
    n = header.get("n")
    data_length = header.get("data_length")
    crc = header.get("data_crc32")
    starts = header.get("kernel_starts")
    n_warp = header.get("n_warp_instructions")
    if not isinstance(n, int) or n < 0:
        problems.append(f"n must be a non-negative integer, got {n!r}")
    if not isinstance(data_length, int) or not isinstance(crc, int):
        problems.append("header missing data_length/data_crc32")
    if not isinstance(starts, list) or not all(
        isinstance(s, int) for s in starts
    ):
        problems.append("kernel_starts must be a list of integers")
    if not isinstance(n_warp, int) or n_warp < 0:
        problems.append(
            f"n_warp_instructions must be >= 0, got {n_warp!r}"
        )
    if problems:
        raise _v2_error(path, problems)

    layout, total = _arena.column_layout(n)
    if data_length != total:
        problems.append(
            f"data_length {data_length} does not match the arena layout "
            f"for n={n} ({total})"
        )
    declared = header.get("columns") or {}
    for name, dtype, offset, nbytes in layout:
        column = declared.get(name)
        if not isinstance(column, dict):
            problems.append(f"header is missing column {name}")
            continue
        if (
            column.get("dtype") != dtype.name
            or column.get("offset") != offset
            or column.get("nbytes") != nbytes
        ):
            problems.append(
                f"column {name} declares "
                f"{column.get('dtype')}@{column.get('offset')}"
                f"+{column.get('nbytes')}, layout expects "
                f"{dtype.name}@{offset}+{nbytes}"
            )
    if file_size != header_size + total:
        problems.append(
            f"file is {file_size} bytes, header + data declare "
            f"{header_size + total} (truncated or trailing garbage)"
        )
    if any(not 0 <= s <= n for s in starts):
        problems.append(
            f"kernel_starts must lie within [0, {n}], got {starts}"
        )
    elif starts != sorted(starts):
        problems.append(f"kernel_starts must be sorted, got {starts}")
    if problems:
        raise _v2_error(path, problems)

    buffer = np.memmap(path, dtype=np.uint8, mode="r", offset=header_size)
    if (zlib.crc32(buffer.tobytes()) & 0xFFFFFFFF) != crc:
        raise _v2_error(path, ["data section CRC32 mismatch"])
    if not mmap:
        buffer = np.array(buffer)  # private in-memory copy
    views = _arena.views_over(buffer, n)
    return Trace(
        chiplets=views["chiplets"],
        vaddrs=views["vaddrs"],
        alloc_ids=views["alloc_ids"],
        kernel_starts=list(starts),
        n_warp_instructions=n_warp,
        arena=buffer,
        source="archive",
    )
