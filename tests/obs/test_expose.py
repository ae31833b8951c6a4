"""Tests for repro.obs.expose: OpenMetrics rendering, validation, the routes."""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import DynamicGraph
from repro.obs.expose import (
    CONTENT_TYPE,
    telemetry_response,
    to_openmetrics,
    validate_openmetrics,
)
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.reqtrace import ExemplarStore
from repro.obs.sink import describe
from repro.service import GraphService
from repro.util import httpd


def populated_registry():
    reg = MetricsRegistry()
    reg.inc("updates.applied", 42)
    reg.set("memory.rss_bytes", 1024.0)
    for v in (0.1, 0.2, 0.4):
        reg.observe("lat.seconds", v)
    return reg


class TestToOpenMetrics:
    def test_counter_gauge_summary_families(self):
        text = to_openmetrics(populated_registry())
        assert "# TYPE updates_applied counter" in text
        assert "updates_applied_total 42" in text
        assert "# TYPE memory_rss_bytes gauge" in text
        assert "memory_rss_bytes 1024" in text
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{quantile="0.5"}' in text
        assert "lat_seconds_count 3" in text
        assert text.endswith("# EOF\n")

    def test_dotted_names_sanitised(self):
        reg = MetricsRegistry()
        reg.inc("a.b-c.d", 1)
        assert "a_b_c_d_total 1" in to_openmetrics(reg)

    def test_empty_registry_is_still_terminated(self):
        assert to_openmetrics(MetricsRegistry()) == "# EOF\n"

    def test_payload_always_validates(self):
        stats = validate_openmetrics(to_openmetrics(populated_registry()))
        assert stats["n_families"] == 3
        assert stats["types"]["updates_applied"] == "counter"
        assert stats["types"]["lat_seconds"] == "summary"
        # counter + gauge + 2 quantiles + _count + _sum
        assert stats["n_samples"] == 6


class TestValidateOpenMetrics:
    def test_rejects_empty_and_unterminated(self):
        with pytest.raises(ValueError, match="empty"):
            validate_openmetrics("")
        with pytest.raises(ValueError, match="# EOF"):
            validate_openmetrics("# TYPE a counter\na_total 1\n")

    def test_rejects_double_eof(self):
        with pytest.raises(ValueError, match="exactly once"):
            validate_openmetrics("# EOF\n# EOF\n")

    def test_rejects_sample_without_family(self):
        with pytest.raises(ValueError, match="no declared family"):
            validate_openmetrics("orphan_total 1\n# EOF\n")

    def test_rejects_counter_sample_without_total_suffix(self):
        with pytest.raises(ValueError, match="_total"):
            validate_openmetrics("# TYPE a counter\na 1\n# EOF\n")

    def test_rejects_non_numeric_and_non_finite_values(self):
        with pytest.raises(ValueError, match="non-numeric"):
            validate_openmetrics("# TYPE g gauge\ng up\n# EOF\n")
        with pytest.raises(ValueError, match="non-finite"):
            validate_openmetrics("# TYPE g gauge\ng nan\n# EOF\n")

    def test_rejects_duplicate_family_and_blank_line(self):
        with pytest.raises(ValueError, match="declared twice"):
            validate_openmetrics("# TYPE g gauge\n# TYPE g gauge\ng 1\n# EOF\n")
        with pytest.raises(ValueError, match="blank line"):
            validate_openmetrics("# TYPE g gauge\n\ng 1\n# EOF\n")

    def test_rejects_bare_summary_sample_without_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            validate_openmetrics("# TYPE s summary\ns 1\n# EOF\n")

    def test_accepts_labels_and_help_comments(self):
        stats = validate_openmetrics(
            "# TYPE s summary\n"
            "# HELP s latency\n"
            's{quantile="0.5"} 0.25\n'
            "s_count 10\n"
            "s_sum 2.5\n"
            "# EOF\n"
        )
        assert stats == {
            "n_families": 1,
            "n_samples": 3,
            "n_exemplars": 0,
            "types": {"s": "summary"},
        }


class TestExemplars:
    def payload(self):
        reg = MetricsRegistry()
        reg.observe("service.query.seconds", 0.004)
        reg.observe("service.query.seconds", 0.03)
        ex = ExemplarStore()
        ex.observe("service.query.seconds", 0.004, "0000abcd00000001")
        ex.observe("service.query.seconds", 0.03, "0000abcd00000002")
        return to_openmetrics(reg, exemplars=ex)

    def test_exemplar_histogram_renders_and_validates(self):
        text = self.payload()
        assert "# TYPE service_query_seconds histogram" in text
        assert '# {trace_id="0000abcd00000001"} 0.004' in text
        assert '# {trace_id="0000abcd00000002"} 0.03' in text
        assert 'le="+Inf"' in text
        stats = validate_openmetrics(text)
        assert stats["n_exemplars"] == 2
        assert stats["types"]["service_query_seconds"] == "histogram"

    def test_buckets_are_cumulative_and_counted(self):
        lines = self.payload().splitlines()
        buckets = [ln for ln in lines if "_bucket" in ln]
        counts = [int(ln.split("#")[0].split()[-1]) for ln in buckets]
        assert counts == sorted(counts)  # cumulative, monotone
        assert counts[-1] == 2  # +Inf bucket covers every observation
        assert any(ln.startswith("service_query_seconds_count 2") for ln in lines)

    def test_metrics_without_exemplars_still_render_as_summaries(self):
        reg = MetricsRegistry()
        reg.observe("lat.seconds", 0.1)
        text = to_openmetrics(reg, exemplars=ExemplarStore())
        assert "# TYPE lat_seconds summary" in text

    def test_exemplar_on_gauge_rejected(self):
        with pytest.raises(ValueError, match="exemplar"):
            validate_openmetrics(
                "# TYPE g gauge\n"
                'g 1 # {trace_id="abc"} 1.0\n'
                "# EOF\n"
            )

    def test_exemplar_on_counter_total_accepted(self):
        stats = validate_openmetrics(
            "# TYPE c counter\n"
            'c_total 3 # {trace_id="abc"} 1.0\n'
            "# EOF\n"
        )
        assert stats["n_exemplars"] == 1

    def test_non_finite_exemplar_value_rejected(self):
        with pytest.raises(ValueError, match="exemplar"):
            validate_openmetrics(
                "# TYPE c counter\n"
                'c_total 3 # {trace_id="abc"} nan\n'
                "# EOF\n"
            )


class TestValidatorStructure:
    def test_interleaved_families_rejected(self):
        with pytest.raises(ValueError, match="interleaves"):
            validate_openmetrics(
                "# TYPE a counter\n"
                "# TYPE b counter\n"
                "a_total 1\n"
                "b_total 1\n"
                "# EOF\n"
            )

    def test_histogram_bucket_requires_le_label(self):
        with pytest.raises(ValueError, match="'le' label"):
            validate_openmetrics(
                "# TYPE h histogram\n"
                "h_bucket 1\n"
                "# EOF\n"
            )

    def test_histogram_rejects_foreign_suffix(self):
        with pytest.raises(ValueError, match="histogram"):
            validate_openmetrics(
                "# TYPE h histogram\n"
                "h 1\n"
                "# EOF\n"
            )

    def test_eof_and_duplicate_type_stay_locked(self):
        # regression locks for the satellite: both were already enforced,
        # keep them that way.
        with pytest.raises(ValueError, match="# EOF"):
            validate_openmetrics("# TYPE a counter\na_total 1\n")
        with pytest.raises(ValueError, match="declared twice"):
            validate_openmetrics(
                "# TYPE a counter\na_total 1\n"
                "# TYPE a counter\na_total 2\n# EOF\n"
            )


class TestFormatRollups:
    """The routes as a handler returns them, and the terminal counter table."""

    def test_table_has_header_and_rows(self):
        status, ctype, body = telemetry_response("/metrics.json", populated_registry())
        assert (status, ctype) == (200, httpd.JSON)
        payload = json.loads(body)
        assert list(payload) == ["snapshot"]
        assert payload["snapshot"]["counters"] == {"updates.applied": 42}
        assert payload["snapshot"]["histograms"]["lat.seconds"]["count"] == 3

    def test_top_keeps_busiest(self):
        reg = MetricsRegistry()
        reg.inc("small", 1)
        reg.inc("big", 1000)
        out = describe([], metrics=reg, top=1)
        assert "-- top counters (1 of 2) --" in out
        assert "big" in out and "small" not in out

    def test_empty(self):
        reg = MetricsRegistry()
        assert telemetry_response("/nope", reg) is None
        assert "top counters" not in describe([], metrics=reg)
        status, ctype, body = telemetry_response("/metrics", reg)
        assert (status, ctype, body) == (200, CONTENT_TYPE, "# EOF\n")


@pytest.fixture(scope="module")
def service():
    with GraphService(DynamicGraph(16), query_threads=1).start_background() as handle:
        yield handle


class TestTelemetryServer:
    """The service's ``/metrics``, ``/metrics.json``, ``/healthz`` and 404."""

    def test_metrics_endpoint_serves_valid_payload(self, service):
        METRICS.inc("updates.applied", 0)
        with urllib.request.urlopen(service.url + "/metrics") as r:
            assert r.headers["Content-Type"] == CONTENT_TYPE
            body = r.read().decode()
        stats = validate_openmetrics(body)
        assert stats["types"]["updates_applied"] == "counter"

    def test_metrics_json_includes_rollups(self, service):
        METRICS.inc("updates.applied", 7)
        payload = json.loads(urllib.request.urlopen(service.url + "/metrics.json").read())
        assert list(payload) == ["snapshot"]  # the registry snapshot alone
        assert payload["snapshot"]["counters"]["updates.applied"] >= 7

    def test_healthz_and_404(self, service):
        health = json.loads(urllib.request.urlopen(service.url + "/healthz").read())
        assert health["ok"] is True
        for path in ("/nope", "/slo"):
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(service.url + path)
            assert exc.value.code == 404

    def test_stop_releases_socket(self):
        handle = GraphService(DynamicGraph(4), query_threads=1).start_background()
        url = handle.url
        handle.close()
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(url + "/healthz", timeout=0.5)
