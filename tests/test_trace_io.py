"""Tests for trace serialization."""

import json

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.policies import StaticPaging
from repro.sim.engine import run_simulation
from repro.trace import arena
from repro.trace.io import load_trace, save_trace
from repro.trace.workload import Workload
from repro.units import MB, PAGE_64K

from .conftest import make_spec, partitioned


@pytest.fixture
def trace():
    spec = make_spec(
        partitioned(size=8 * MB, group=2, waves=2, lines_per_touch=4)
    )
    return Workload(spec, 4).build_trace(7)


def _edit_header(path, edit):
    """Rewrite the JSON header of the v2 archive at ``path`` in place.

    ``edit`` mutates the parsed header dict; the re-serialized header is
    padded back to the original header size, so the data section (and
    its CRC32) is untouched.
    """
    blob = path.read_bytes()
    magic_line, rest = blob.split(b"\n", 1)
    header_size = int(magic_line[len(b"#repro-trace-v2 "):])
    body = rest[: header_size - len(magic_line) - 1]
    header = json.loads(body.rstrip(b"\0"))
    edit(header)
    new_body = json.dumps(header, sort_keys=True).encode() + b"\n"
    assert len(new_body) <= len(body)
    new_body += b"\0" * (len(body) - len(new_body))
    path.write_bytes(magic_line + b"\n" + new_body + blob[header_size:])


class TestRoundTrip:
    def test_arrays_identical(self, trace, tmp_path):
        path = tmp_path / "trace.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.chiplets, trace.chiplets)
        assert np.array_equal(loaded.vaddrs, trace.vaddrs)
        assert np.array_equal(loaded.alloc_ids, trace.alloc_ids)
        assert loaded.kernel_starts == trace.kernel_starts
        assert loaded.n_warp_instructions == trace.n_warp_instructions

    def test_loaded_trace_drives_identical_simulation(self, tmp_path):
        spec = make_spec(
            partitioned(size=8 * MB, group=2, waves=2, lines_per_touch=4)
        )
        direct = run_simulation(spec, StaticPaging(PAGE_64K), seed=7)

        workload = Workload(spec, 4)
        path = tmp_path / "trace.trace"
        save_trace(workload.build_trace(7), path)
        replayed = run_simulation(
            spec, StaticPaging(PAGE_64K), seed=7, trace=load_trace(path)
        )
        assert replayed.cycles == direct.cycles
        assert replayed.remote_accesses == direct.remote_accesses

    def test_version_check(self, trace, tmp_path):
        path = tmp_path / "trace.trace"
        save_trace(trace, path)
        _edit_header(path, lambda h: h.update(version=99))
        with pytest.raises(TraceFormatError, match="version 99"):
            load_trace(path)


class TestCorruptArchives:
    """load_trace validates up front and names what is wrong."""

    @pytest.fixture
    def archive(self, tmp_path):
        from repro.trace.workload import Trace

        path = tmp_path / "t.trace"
        save_trace(
            Trace(
                chiplets=np.zeros(4, dtype=np.int8),
                vaddrs=np.zeros(4, dtype=np.int64),
                alloc_ids=np.zeros(4, dtype=np.int16),
                kernel_starts=[0],
                n_warp_instructions=1,
            ),
            path,
        )
        return path

    def test_missing_key(self, archive):
        _edit_header(archive, lambda h: h["columns"].pop("alloc_ids"))
        with pytest.raises(TraceFormatError, match="missing column alloc_ids"):
            load_trace(archive)

    def test_length_mismatch(self, archive):
        def shorten(header):
            header["columns"]["chiplets"]["nbytes"] = 3

        _edit_header(archive, shorten)
        with pytest.raises(TraceFormatError, match="chiplets declares.*\\+3"):
            load_trace(archive)

    def test_wrong_dtype(self, archive):
        def as_float(header):
            header["columns"]["vaddrs"]["dtype"] = "float64"

        _edit_header(archive, as_float)
        with pytest.raises(TraceFormatError, match="vaddrs declares float64"):
            load_trace(archive)

    def test_out_of_range_kernel_starts(self, archive):
        _edit_header(archive, lambda h: h.update(kernel_starts=[0, 99]))
        with pytest.raises(TraceFormatError, match="kernel_starts"):
            load_trace(archive)

    def test_unsorted_kernel_starts(self, archive):
        _edit_header(archive, lambda h: h.update(kernel_starts=[2, 0]))
        with pytest.raises(TraceFormatError, match="sorted"):
            load_trace(archive)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"this is not a trace archive")
        with pytest.raises(TraceFormatError, match="cannot read.*v2 magic"):
            load_trace(path)

    def test_npz_file_is_rejected_for_missing_magic(self, trace, tmp_path):
        """A NumPy ``.npz`` archive is a zip file, not a trace archive:
        the loader names the missing v2 magic instead of surfacing a
        NumPy or zip error."""
        path = tmp_path / "t.npz"
        np.savez(
            path,
            chiplets=trace.chiplets,
            vaddrs=trace.vaddrs,
            alloc_ids=trace.alloc_ids,
        )
        with pytest.raises(TraceFormatError, match="#repro-trace-v2"):
            load_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_trace(tmp_path / "absent.trace")

    def test_format_error_is_still_a_value_error(self, archive):
        """Callers that predate the hierarchy catch ValueError."""
        _edit_header(archive, lambda h: h.update(version=99))
        with pytest.raises(ValueError, match="version"):
            load_trace(archive)


class TestArenaLayout:
    """The single columnar layout behind every trace."""

    def test_columns_are_views_over_one_buffer(self, trace):
        assert trace.arena is not None
        for column in (trace.chiplets, trace.vaddrs, trace.alloc_ids):
            assert column.base is not None
            assert np.shares_memory(column, trace.arena)

    def test_column_offsets_are_page_aligned(self):
        layout, total = arena.column_layout(12345)
        for _name, _dtype, offset, _nbytes in layout:
            assert offset % arena.ARENA_ALIGN == 0
        assert total % arena.ARENA_ALIGN == 0

    def test_arrays_are_read_only(self, trace):
        for column in (trace.chiplets, trace.vaddrs, trace.alloc_ids):
            with pytest.raises(ValueError):
                column[0] = 1
        with pytest.raises(ValueError):
            trace.arena[0] = 1

    def test_loose_array_construction_packs_an_arena(self):
        from repro.trace.workload import Trace

        t = Trace(
            chiplets=np.asarray([0, 1], dtype=np.int8),
            vaddrs=np.asarray([0, PAGE_64K], dtype=np.int64),
            alloc_ids=np.asarray([0, 0], dtype=np.int16),
            kernel_starts=[0],
            n_warp_instructions=10,
        )
        assert t.arena is not None
        assert np.shares_memory(t.vaddrs, t.arena)
        assert not t.vaddrs.flags.writeable


class TestV2Archive:
    """The page-aligned, mmap-attachable format-v2 archive."""

    def test_round_trip_bit_identity(self, trace, tmp_path):
        path = tmp_path / "trace.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.chiplets, trace.chiplets)
        assert np.array_equal(loaded.vaddrs, trace.vaddrs)
        assert np.array_equal(loaded.alloc_ids, trace.alloc_ids)
        assert loaded.kernel_starts == trace.kernel_starts
        assert loaded.n_warp_instructions == trace.n_warp_instructions
        assert bytes(loaded.arena) == bytes(trace.arena)

    def test_attaches_as_memmap_views(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert isinstance(loaded.arena, np.memmap)
        for column in (loaded.chiplets, loaded.vaddrs, loaded.alloc_ids):
            assert np.shares_memory(column, loaded.arena)
            assert not column.flags.writeable
        assert loaded.source == "archive"

    def test_mmap_false_forces_private_copy(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        loaded = load_trace(path, mmap=False)
        assert not isinstance(loaded.arena, np.memmap)
        assert np.array_equal(loaded.vaddrs, trace.vaddrs)

    def test_drives_identical_simulation(self, tmp_path):
        spec = make_spec(
            partitioned(size=8 * MB, group=2, waves=2, lines_per_touch=4)
        )
        direct = run_simulation(spec, StaticPaging(PAGE_64K), seed=7)
        path = tmp_path / "t.trace"
        save_trace(Workload(spec, 4).build_trace(7), path)
        replayed = run_simulation(
            spec, StaticPaging(PAGE_64K), seed=7, trace=load_trace(path)
        )
        assert replayed.cycles == direct.cycles
        assert replayed.remote_accesses == direct.remote_accesses

    def test_npz_suffix_still_writes_v2(self, trace, tmp_path):
        path = tmp_path / "weird.npz"
        save_trace(trace, path)
        assert path.read_bytes().startswith(b"#repro-trace-v2 ")
        loaded = load_trace(path)
        assert isinstance(loaded.arena, np.memmap)

    def test_unknown_version_rejected(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        _edit_header(path, lambda h: h.update(version=3))
        with pytest.raises(ValueError, match="version 3"):
            load_trace(path)


class TestCorruptV2Archives:
    """Truncation, bit rot and header damage all raise TraceFormatError."""

    @pytest.fixture
    def archive(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        return path

    def test_truncated_data_section(self, archive):
        blob = archive.read_bytes()
        archive.write_bytes(blob[:-64])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(archive)

    def test_flipped_data_bit_fails_crc(self, archive):
        blob = bytearray(archive.read_bytes())
        blob[-1] ^= 0xFF
        archive.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="CRC32"):
            load_trace(archive)

    def test_garbled_header(self, archive):
        blob = bytearray(archive.read_bytes())
        blob[len(b"#repro-trace-v2 ") + 14] ^= 0xFF  # inside the JSON
        archive.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError):
            load_trace(archive)

    def test_malformed_magic_size(self, archive):
        blob = bytearray(archive.read_bytes())
        blob[len(b"#repro-trace-v2 ")] = ord("x")
        archive.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="magic"):
            load_trace(archive)
