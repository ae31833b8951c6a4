"""Tests for the experiment-harness infrastructure."""

import pytest

from repro.experiments.common import (
    FigureResult,
    SeriesSpec,
    footprint_coefficients,
    measured_scale,
    scaled_sweep,
)
from repro.machine.scale import ScaledInstance
from repro.machine.sim import ScalingResult
from repro.machine.spec import ULTRASPARC_T2


def make_series(label="s", threads=(1, 2, 4), seconds=(4.0, 2.0, 1.0), n_items=100):
    return SeriesSpec(
        label=label,
        result=ScalingResult("m", "w", threads, seconds, n_items=n_items),
    )


class TestSeriesSpec:
    def test_accessors(self):
        s = make_series()
        assert s.seconds_at(2) == 2.0
        assert s.speedup_at(4) == pytest.approx(4.0)
        assert s.mups_at(4) == pytest.approx(100 / 1.0 / 1e6)

    def test_unknown_thread_count(self):
        with pytest.raises(ValueError):
            make_series().seconds_at(64)


class TestFigureResult:
    def test_checks_and_failures(self):
        fig = FigureResult("F", "t")
        fig.check("good", True, "detail")
        fig.check("bad", False, "why")
        assert not fig.all_passed
        assert fig.checks == {"good": (True, "detail"), "bad": (False, "why")}

    def test_get_series(self):
        fig = FigureResult("F", "t", series=[make_series("a"), make_series("b")])
        assert fig.get("b").label == "b"
        with pytest.raises(KeyError):
            fig.get("c")

    def test_render_includes_everything(self):
        fig = FigureResult(
            "Figure X", "title",
            series=[make_series("curve")],
            rows=[{"k": 1, "v": 2.5}, {"k": 2, "v": None}],
            notes="a note",
        )
        fig.check("claim", True, "measured")
        text = fig.render()
        assert "Figure X" in text and "a note" in text
        assert "curve" in text
        assert "[PASS] claim" in text
        assert "2.5" in text
        assert "-" in text  # the None cell


class TestHelpers:
    def test_measured_scale(self):
        assert measured_scale(15, 12, quick=True) == 12
        assert measured_scale(15, 12, quick=False) == 15

    def test_footprint_coefficients(self):
        class FakeRep:
            def model_bytes(self):
                return 10_000

        bpv, bpe = footprint_coefficients(FakeRep(), n=100, arcs=500)
        assert bpv == 40.0
        assert bpe == pytest.approx((10_000 - 4_000) / 500)

    def test_footprint_coefficients_floor(self):
        class TinyRep:
            def model_bytes(self):
                return 10

        _, bpe = footprint_coefficients(TinyRep(), n=100, arcs=500)
        assert bpe == 0.0

    def test_scaled_sweep(self):
        from repro.machine.profile import Phase, WorkProfile

        profile = WorkProfile(
            "w", (Phase("p", rand_accesses=1e5, footprint_bytes=1e6),)
        )
        inst = ScaledInstance(
            n_measured=1000, m_measured=10_000,
            n_target=10_000, m_target=100_000,
            bytes_per_vertex=8.0, bytes_per_edge=8.0,
        )
        s = scaled_sweep(profile, inst, ULTRASPARC_T2, (1, 64), n_items=100_000,
                         label="x")
        assert s.label == "x"
        assert s.result.threads == (1, 64)
        assert s.seconds_at(64) < s.seconds_at(1)
