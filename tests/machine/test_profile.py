"""Tests for repro.machine.profile."""

import pytest

from repro.errors import ProfileError
from repro.machine.profile import Phase, ProfileBuilder, WorkProfile


class TestPhaseValidation:
    def test_defaults(self):
        p = Phase("x")
        assert p.alu_ops == 0.0 and p.parallel

    def test_negative_rejected(self):
        with pytest.raises(ProfileError):
            Phase("x", alu_ops=-1)

    def test_max_unit_frac_range(self):
        Phase("x", max_unit_frac=1.0)
        with pytest.raises(ProfileError):
            Phase("x", max_unit_frac=1.5)

    def test_hot_counts_bounded_by_totals(self):
        with pytest.raises(ProfileError):
            Phase("x", atomics=5, atomic_max_addr=6)
        with pytest.raises(ProfileError):
            Phase("x", locks=5, lock_max_addr=6)


class TestPhaseScaled:
    def test_work_scaling(self):
        p = Phase("x", alu_ops=10, rand_accesses=4, atomics=2, barriers=3)
        s = p.scaled(5.0)
        assert s.alu_ops == 50 and s.rand_accesses == 20 and s.atomics == 10
        assert s.barriers == 15  # extensive by default

    def test_footprint_separate(self):
        p = Phase("x", footprint_bytes=100, rand_accesses=1)
        s = p.scaled(2.0, footprint=3.0)
        assert s.footprint_bytes == 300
        assert s.rand_accesses == 2

    def test_max_addr_applies_to_unscaled_counts(self):
        p = Phase("x", atomics=100, atomic_max_addr=10)
        s = p.scaled(10.0, max_addr=3.0)
        assert s.atomics == 1000
        assert s.atomic_max_addr == 30  # 10 * 3, not (10*10)*3

    def test_max_addr_clamped_to_total(self):
        p = Phase("x", atomics=10, atomic_max_addr=10)
        s = p.scaled(1.0, max_addr=5.0)
        assert s.atomic_max_addr == s.atomics == 10

    def test_max_unit_frac_clamped(self):
        p = Phase("x", max_unit_frac=0.5)
        assert p.scaled(1.0, max_unit_frac=4.0).max_unit_frac == 1.0

    def test_negative_scale_rejected(self):
        with pytest.raises(ProfileError):
            Phase("x").scaled(-1.0)


class TestPhaseMerged:
    def test_extensive_add(self):
        a = Phase("a", alu_ops=1, rand_accesses=2, atomics=3)
        b = Phase("b", alu_ops=10, rand_accesses=20, atomics=30)
        m = a.merged_with(b)
        assert m.alu_ops == 11 and m.rand_accesses == 22 and m.atomics == 33

    def test_footprint_max(self):
        m = Phase("a", footprint_bytes=10).merged_with(Phase("b", footprint_bytes=99))
        assert m.footprint_bytes == 99

    def test_parallel_flag_anded(self):
        m = Phase("a").merged_with(Phase("b", parallel=False))
        assert not m.parallel

    def test_unit_frac_weighted(self):
        a = Phase("a", rand_accesses=90, max_unit_frac=0.1)
        b = Phase("b", rand_accesses=10, max_unit_frac=1.0)
        m = a.merged_with(b)
        assert 0.0 < m.max_unit_frac <= 0.2


class TestWorkProfile:
    def test_requires_phases(self):
        with pytest.raises(ProfileError):
            WorkProfile("empty", ())

    def test_total(self):
        wp = WorkProfile("x", (Phase("a", alu_ops=1), Phase("b", alu_ops=2)))
        assert wp.total("alu_ops") == 3.0

    def test_footprint_is_peak(self):
        wp = WorkProfile(
            "x", (Phase("a", footprint_bytes=5), Phase("b", footprint_bytes=9))
        )
        assert wp.footprint_bytes == 9

    def test_collapsed(self):
        wp = WorkProfile("x", (Phase("a", alu_ops=1), Phase("b", alu_ops=2)))
        c = wp.collapsed()
        assert len(c.phases) == 1
        assert c.total("alu_ops") == 3.0

    def test_describe_mentions_phases(self):
        wp = WorkProfile("demo", (Phase("sweep", alu_ops=10),))
        text = wp.describe()
        assert "demo" in text and "sweep" in text


class TestProfileBuilder:
    def test_build(self):
        b = ProfileBuilder("x", n=5)
        b.phase("p1", alu_ops=1)
        b.phase("p2", rand_accesses=2)
        b.meta(extra=True)
        wp = b.build()
        assert len(wp.phases) == 2
        assert wp.meta == {"n": 5, "extra": True}

    def test_extend(self):
        b = ProfileBuilder("x")
        b.extend([Phase("a"), Phase("b")])
        assert len(b.build().phases) == 2
