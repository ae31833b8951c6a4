"""Tests for repro.machine.scale."""

import pytest

from repro.errors import ProfileError
from repro.machine.profile import Phase, WorkProfile
from repro.machine.scale import (
    ScaledInstance,
    rmat_size_biased_growth,
    scale_profile,
)


@pytest.fixture
def instance():
    return ScaledInstance(
        n_measured=1 << 12,
        m_measured=10 << 12,
        n_target=1 << 20,
        m_target=10 << 20,
        bytes_per_vertex=40.0,
        bytes_per_edge=16.0,
    )


class TestScaledInstance:
    def test_work_scale_defaults_to_edges(self, instance):
        assert instance.work_scale == pytest.approx(256.0)

    def test_explicit_ops(self):
        inst = ScaledInstance(10, 100, 10, 100, ops_measured=5, ops_target=50)
        assert inst.work_scale == 10.0

    def test_footprint(self, instance):
        assert instance.footprint_target_bytes == pytest.approx(
            40.0 * (1 << 20) + 16.0 * (10 << 20)
        )
        assert instance.footprint_scale == pytest.approx(256.0)

    def test_hot_spot_scale_sublinear(self, instance):
        hs = instance.hot_spot_scale()
        assert 1.0 < hs < instance.work_scale
        assert hs == pytest.approx(256.0 ** 0.6)

    def test_diameter_scale_logarithmic(self, instance):
        d = instance.diameter_scale()
        assert 1.0 < d < 2.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ProfileError):
            ScaledInstance(0, 1, 1, 1)


class TestScaleProfile:
    def _profile(self):
        return WorkProfile(
            "w",
            (
                Phase(
                    "p",
                    alu_ops=100,
                    rand_accesses=50,
                    atomics=40,
                    atomic_max_addr=10,
                    footprint_bytes=1000,
                    barriers=2,
                    max_unit_frac=0.1,
                ),
            ),
        )

    def test_work_scaled(self, instance):
        out = scale_profile(self._profile(), instance)
        ph = out.phases[0]
        assert ph.alu_ops == pytest.approx(100 * 256)
        assert ph.rand_accesses == pytest.approx(50 * 256)

    def test_hot_counts_grow_sublinearly(self, instance):
        out = scale_profile(self._profile(), instance)
        ph = out.phases[0]
        assert ph.atomic_max_addr == pytest.approx(10 * 256 ** 0.6)
        # and the hot *fraction* shrinks
        assert ph.max_unit_frac < 0.1

    def test_footprint_recomputed(self, instance):
        out = scale_profile(self._profile(), instance)
        assert out.phases[0].footprint_bytes == pytest.approx(1000 * 256)

    def test_barriers_untouched_by_default(self, instance):
        out = scale_profile(self._profile(), instance)
        assert out.phases[0].barriers == 2

    def test_barriers_scale_with_diameter(self, instance):
        out = scale_profile(
            self._profile(), instance, scale_barriers_with_diameter=True
        )
        assert out.phases[0].barriers == pytest.approx(2 * instance.diameter_scale())

    def test_meta_records_scaling(self, instance):
        out = scale_profile(self._profile(), instance)
        assert out.meta["scaled_to"]["n"] == 1 << 20
        assert out.meta["work_scale"] == pytest.approx(256.0)

    def test_logdeg_correction_mild(self, instance):
        plain = scale_profile(self._profile(), instance)
        corrected = scale_profile(self._profile(), instance, logdeg_correction=True)
        ratio = corrected.phases[0].alu_ops / plain.phases[0].alu_ops
        assert 0.8 < ratio < 1.3


class TestGrowthFormulas:
    def test_size_biased_growth_paper_params(self):
        # (a+b) = 0.75: factor 1.25 per scale doubling.
        assert rmat_size_biased_growth(11, 12) == pytest.approx(1.25)
        assert rmat_size_biased_growth(11, 25) == pytest.approx(1.25 ** 14)

    def test_size_biased_growth_identity(self):
        assert rmat_size_biased_growth(15, 15) == 1.0

    def test_size_biased_growth_invalid(self):
        with pytest.raises(ProfileError):
            rmat_size_biased_growth(0, 5)
