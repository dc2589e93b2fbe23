"""End-to-end engine tests: invariants that must hold for any run."""

import pytest

from repro.arch.address import InterleavePolicy
from repro.config import eight_chiplet_config
from repro.policies import StaticPaging
from repro.sim.engine import ENGINES, resolve_engine, run_simulation
from repro.sim.runner import run_workload
from repro.trace.workload import Workload
from repro.units import MB, PAGE_64K

from .conftest import contiguous, make_spec, partitioned, run, shared


class TestInvariants:
    def test_counts_are_consistent(self, mixed_spec):
        result = run(mixed_spec, StaticPaging(PAGE_64K))
        assert result.n_accesses > 0
        assert 0.0 <= result.remote_ratio <= 1.0
        assert result.remote_accesses <= result.n_accesses
        assert result.page_faults <= result.n_accesses
        assert result.cycles > result.n_warp_instructions * 0.9

    def test_per_structure_stats_sum_to_totals(self, mixed_spec):
        result = run(mixed_spec, StaticPaging(PAGE_64K))
        accesses = sum(v[0] for v in result.per_structure_remote.values())
        remotes = sum(v[1] for v in result.per_structure_remote.values())
        assert accesses == result.n_accesses
        assert remotes == result.remote_accesses

    def test_every_touched_page_faults_exactly_once(self):
        spec = make_spec(
            partitioned(size=8 * MB, group=2, waves=3, lines_per_touch=4)
        )
        result = run(spec, StaticPaging(PAGE_64K))
        assert result.page_faults == 128  # 8MB / 64KB

    def test_determinism(self, mixed_spec):
        a = run(mixed_spec, StaticPaging(PAGE_64K), seed=13)
        b = run(mixed_spec, StaticPaging(PAGE_64K), seed=13)
        assert a.cycles == b.cycles
        assert a.remote_accesses == b.remote_accesses
        assert a.l2_tlb_misses == b.l2_tlb_misses

    def test_shared_structure_remote_is_three_quarters(self):
        spec = make_spec(shared(size=12 * MB, waves=2, lines_per_touch=4))
        result = run(spec, StaticPaging(PAGE_64K))
        assert result.remote_ratio == pytest.approx(0.75, abs=0.02)

    def test_naive_interleave_randomises_homes(self):
        spec = make_spec(
            partitioned(size=16 * MB, group=4, waves=2, lines_per_touch=4)
        )
        numa = run(spec, StaticPaging(PAGE_64K))
        naive = run(
            spec,
            StaticPaging(PAGE_64K),
            interleave=InterleavePolicy.NAIVE,
        )
        assert numa.remote_ratio < 0.05
        assert naive.remote_ratio == pytest.approx(0.75, abs=0.05)

    def test_eight_chiplet_config_runs(self):
        spec = make_spec(
            contiguous(size=16 * MB, waves=2, lines_per_touch=4)
        )
        result = run(spec, StaticPaging(PAGE_64K), config=eight_chiplet_config())
        assert result.remote_ratio < 0.05

    def test_prebound_workload_must_share_va_space(self):
        spec = make_spec(partitioned(size=8 * MB))
        foreign = Workload(spec, 4)
        with pytest.raises(ValueError):
            run_simulation(foreign, StaticPaging(PAGE_64K))


class TestRunnerApi:
    def test_by_name(self):
        result = run_workload("STE", "S-64KB")
        assert result.workload == "STE"
        assert result.policy == "S-64KB"

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            run_workload("NOPE", "S-64KB")

    def test_remote_cache_coverage_reported(self):
        result = run_workload("STE", "S-2MB", remote_cache="NUBA")
        assert result.remote_cache_coverage is not None
        assert 0.0 <= result.remote_cache_coverage <= 1.0

    def test_no_cache_reports_none(self):
        result = run_workload("STE", "S-2MB")
        assert result.remote_cache_coverage is None


class TestResolveEngine:
    def test_engine_set(self):
        assert ENGINES == ("staged", "batched", "auto")

    def test_unknown_argument_lists_the_engines(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ValueError) as info:
            resolve_engine("fused")
        assert "('staged', 'batched', 'auto')" in str(info.value)

    def test_unknown_env_value_lists_the_engines(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fused")
        with pytest.raises(ValueError) as info:
            resolve_engine(None)
        assert "('staged', 'batched', 'auto')" in str(info.value)
