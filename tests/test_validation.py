"""Run the machine-state validator after end-to-end runs of every policy.

These are the strongest integration tests in the suite: any frame
double-allocation, reservation leak, or page-table inconsistency that a
policy introduces anywhere in a run fails here.
"""

import numpy as np
import pytest

from repro.cache.cache import EMPTY
from repro.config import baseline_config
from repro.core.clap import ClapPolicy
from repro.core.clap_sa import ClapSaPlusPolicy
from repro.core.migration import ClapMigrationPolicy
from repro.policies import (
    BarreChordPolicy,
    CNumaPolicy,
    GritPolicy,
    SaStaticPolicy,
    StaticPaging,
)
from repro.sim.machine import Machine
from repro.sim.validation import validate_machine
from repro.trace.suite import gemm_reuse_scenario
from repro.trace.workload import Workload
from repro.units import MB, PAGE_2M, PAGE_4K, PAGE_64K

from .conftest import contiguous, make_spec, partitioned, shared


def run_and_validate(spec, policy, **machine_kwargs):
    """Drive a trace manually so the machine stays inspectable."""
    # run_simulation builds its own machine; replicate enough here by
    # attaching to a machine we keep.
    config = baseline_config()
    machine = Machine(config, pte_placement=policy.pte_placement,
                      **machine_kwargs)
    workload = Workload(spec, config.num_chiplets, va_space=machine.va_space)
    policy.attach(machine, workload)
    trace = workload.build_trace(7)
    n = len(trace)
    epoch_len = max(1, n // 10)
    kernel_starts = set(trace.kernel_starts)
    kernel = -1
    page_stats = {}
    for i in range(n):
        if i in kernel_starts:
            kernel += 1
            policy.on_kernel(kernel)
        chiplet = int(trace.chiplets[i])
        vaddr = int(trace.vaddrs[i])
        if machine.page_table.lookup(vaddr) is None:
            policy.place(
                vaddr, chiplet, workload.va_space.by_id(int(trace.alloc_ids[i]))
            )
        if policy.wants_page_stats:
            base = vaddr & ~(PAGE_64K - 1)
            counts = page_stats.setdefault(base, [0] * 4)
            counts[chiplet] += 1
        if (i + 1) % epoch_len == 0:
            policy.on_epoch(i // epoch_len, page_stats, 0.5)
            if policy.wants_page_stats:
                page_stats = {}
    report = validate_machine(machine)
    report.raise_if_failed()
    return report


MIXED = None


def mixed_spec():
    return make_spec(
        partitioned(size=16 * MB, group=4, waves=2, lines_per_touch=4),
        shared(size=12 * MB, waves=2, lines_per_touch=4),
        contiguous(size=16 * MB, waves=2, lines_per_touch=4),
    )


class TestInvariantsAcrossPolicies:
    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda: StaticPaging(PAGE_4K),
            lambda: StaticPaging(PAGE_64K),
            lambda: StaticPaging(256 * 1024),
            lambda: StaticPaging(PAGE_2M),
            ClapPolicy,
            lambda: ClapPolicy(base_page_size=PAGE_4K),
            BarreChordPolicy,
            GritPolicy,
            lambda: CNumaPolicy(intermediate=True),
            lambda: SaStaticPolicy(PAGE_2M),
            ClapSaPlusPolicy,
        ],
        ids=[
            "S-4KB", "S-64KB", "S-256KB", "S-2MB", "CLAP", "CLAP-4K",
            "F-Barre", "GRIT", "C-NUMA+inter", "SA-2MB", "CLAP-SA++",
        ],
    )
    def test_policy_preserves_invariants(self, make_policy):
        # Promoted 2MB pages collapse many base PTEs into one record, so
        # the floor is small; what matters is that the checks ran.
        report = run_and_validate(mixed_spec(), make_policy())
        assert report.mappings_checked > 10

    def test_migration_scenario_preserves_invariants(self):
        report = run_and_validate(
            gemm_reuse_scenario(), ClapMigrationPolicy()
        )
        assert report.mappings_checked > 100

    def test_host_eviction_preserves_invariants(self):
        spec = make_spec(
            contiguous(size=16 * MB, waves=3, lines_per_touch=4)
        )
        policy = StaticPaging(PAGE_64K)
        config = baseline_config()
        machine = Machine(config, capacity_blocks_per_chiplet=1)
        machine.pager.enable_host_eviction()
        workload = Workload(spec, 4, va_space=machine.va_space)
        policy.attach(machine, workload)
        trace = workload.build_trace(7)
        for chiplet, vaddr, alloc_id in zip(
            trace.chiplets.tolist(),
            trace.vaddrs.tolist(),
            trace.alloc_ids.tolist(),
        ):
            if machine.page_table.lookup(vaddr) is None:
                policy.place(
                    vaddr, chiplet, workload.va_space.by_id(alloc_id)
                )
        assert machine.pager.eviction.stats.pages_evicted > 0
        validate_machine(machine).raise_if_failed()


class TestValidatorDetectsCorruption:
    def test_detects_physical_alias(self):
        from repro.mem.frames import Frame

        machine = Machine(baseline_config())
        machine.page_table.map_page(
            0, PAGE_64K, Frame(0, PAGE_64K, 0), 0
        )
        machine.page_table.map_page(
            PAGE_64K, PAGE_64K, Frame(0, PAGE_64K, 0), 0
        )
        report = validate_machine(machine)
        assert not report.ok
        assert any("alias" in v for v in report.violations)
        with pytest.raises(AssertionError):
            report.raise_if_failed()

    def test_detects_wrong_chiplet_cache(self):
        from repro.mem.frames import Frame

        machine = Machine(baseline_config())
        # Frame at block 1 belongs to chiplet 1; lie about it.
        record = machine.page_table.map_page(
            0, PAGE_2M, Frame(PAGE_2M, PAGE_2M, 1), 0
        )
        record.chiplet = 2
        report = validate_machine(machine)
        assert any("belongs to chiplet" in v for v in report.violations)

    @staticmethod
    def _lines_of_set(cache, row, count):
        lines = (line for line in range(10**6) if cache.set_of(line) == row)
        return [next(lines) for _ in range(count)]

    def test_detects_overfull_cache_set(self):
        machine = Machine(baseline_config())
        cache = machine.l2_caches[0]
        wide = np.full((cache.num_sets, cache.ways + 1), EMPTY, np.int64)
        wide[3] = self._lines_of_set(cache, 3, cache.ways + 1)
        cache.tags = wide
        report = validate_machine(machine)
        assert report.violations == [
            f"L2[0] set 3 holds more than {cache.ways} lines"
        ]

    def test_detects_duplicate_cache_line(self):
        machine = Machine(baseline_config())
        cache = machine.l1_caches[1]
        (line,) = self._lines_of_set(cache, 5, 1)
        cache.tags[5, -2:] = line
        report = validate_machine(machine)
        assert report.violations == ["L1[1] set 5 holds a line twice"]

    def test_detects_unpacked_cache_row(self):
        machine = Machine(baseline_config())
        cache = machine.l2_caches[2]
        (line,) = self._lines_of_set(cache, 7, 1)
        cache.tags[7, 0] = line
        report = validate_machine(machine)
        assert report.violations == [
            "L2[2] set 7 has an empty way on the MRU side of a line"
        ]

    def test_detects_cache_line_in_wrong_set(self):
        machine = Machine(baseline_config(), remote_cache="NUBA")
        cache = machine.remote_caches[3].cache
        (line,) = self._lines_of_set(cache, 2, 1)
        cache.tags[4, -1] = line
        report = validate_machine(machine)
        assert report.violations == [
            "remote cache[3] set 4 holds a line of another set"
        ]

    def test_clean_machine_passes(self):
        machine = Machine(baseline_config())
        report = validate_machine(machine)
        assert report.ok
        assert report.mappings_checked == 0
