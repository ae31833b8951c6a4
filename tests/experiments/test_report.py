"""Tests for the JSON experiment exporter and the report document
``python -m repro.experiments --json`` writes."""

import json

import numpy as np
import pytest

from repro.experiments import get_figure
from repro.experiments.__main__ import main
from repro.experiments.report import _jsonify_row, figure_to_dict


class TestFigureToDict:
    @pytest.fixture(scope="class")
    def fig(self):
        return get_figure("fig02")(quick=True)

    def test_structure(self, fig):
        d = figure_to_dict(fig)
        assert d["figure"] == "Figure 2"
        assert d["all_passed"] is True
        assert set(d["checks"]) == set(fig.checks)
        assert len(d["series"]) == 2

    def test_series_content(self, fig):
        d = figure_to_dict(fig)
        s = d["series"][0]
        assert s["threads"] == [1, 2, 4, 8, 16, 32, 64]
        assert len(s["seconds"]) == 7
        assert s["speedups"][0] == 1.0
        assert "mups" in s

    def test_json_serialisable(self, fig):
        json.dumps(figure_to_dict(fig))

    def test_rows_jsonified(self):
        fig01 = get_figure("fig01")(quick=True)
        d = figure_to_dict(fig01)
        assert d["rows"]
        json.dumps(d)

    def test_meta_carries_manifest_id(self, fig):
        d = figure_to_dict(fig)
        assert d["meta"]["manifest_id"]


class TestJsonifyRow:
    def test_numpy_scalars_and_arrays(self):
        row = {
            "count": np.int64(3),
            "rate": np.float32(1.5),
            "passed": np.bool_(True),
            "series": np.array([1.0, 2.0]),
            "label": "x",
        }
        out = _jsonify_row(row)
        json.dumps(out)
        assert out == {
            "count": 3,
            "rate": 1.5,
            "passed": True,
            "series": [1.0, 2.0],
            "label": "x",
        }
        assert isinstance(out["passed"], bool)


def report(tmp_path, *figures):
    """The ``--json`` document of a CLI run over ``figures`` (quick scale)."""
    path = tmp_path / "report.json"
    assert main([*figures, "--json", str(path)]) == 0
    return json.loads(path.read_text())


class TestCollect:
    def test_subset(self, tmp_path):
        doc = report(tmp_path, "fig02", "fig09")
        assert [r["module"] for r in doc["results"]] == ["fig02", "fig09"]
        assert (doc["n_results"], doc["n_failed"]) == (2, 0)
        assert all(r["all_passed"] for r in doc["results"])
        assert doc["full_scale"] is False

    def test_document_manifest(self, tmp_path):
        doc = report(tmp_path, "fig09")
        manifest = doc["manifest"]
        assert manifest["id"] and manifest["git_sha"] and manifest["numpy"]
        (result,) = doc["results"]
        assert result["meta"]["manifest_id"] == manifest["id"]

    def test_write_json(self, tmp_path, capsys):
        doc = report(tmp_path, "fig02")
        (result,) = doc["results"]
        assert result["figure"] == "Figure 2"
        assert doc["n_failed"] == 0
        assert "wrote report for 1 experiment(s)" in capsys.readouterr().out
