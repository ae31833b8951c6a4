"""Tests for the command-line interface."""

import json
import threading
import time
from contextlib import contextmanager
from urllib.request import urlopen

import pytest

from repro.__main__ import main
from repro.io import load_npz


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.npz"
    code = main([
        "generate", "--model", "rmat", "--scale", "9", "--edge-factor", "8",
        "--ts-max", "50", "--seed", "3", "--out", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_rmat_npz(self, graph_file):
        g = load_npz(graph_file)
        assert g.n == 512 and g.m == 8 * 512
        assert g.ts is not None and g.ts.max() <= 50

    def test_text_output(self, tmp_path):
        path = tmp_path / "g.txt"
        assert main(["generate", "--scale", "6", "--out", str(path)]) == 0
        assert path.exists()
        assert sum(1 for line in open(path) if not line.startswith("#")) == 10 * 64

    def test_ws_model(self, tmp_path):
        path = tmp_path / "ws.npz"
        assert main(["generate", "--model", "ws", "--scale", "7", "--k", "4",
                     "--out", str(path)]) == 0
        g = load_npz(path)
        assert g.n == 128 and g.m == 128 * 2

    def test_er_model(self, tmp_path):
        path = tmp_path / "er.npz"
        assert main(["generate", "--model", "er", "--scale", "7", "--p", "0.05",
                     "--out", str(path)]) == 0
        assert load_npz(path).m > 0


class TestStats:
    def test_runs(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "degrees:" in out
        assert "giant component" in out
        assert "effective diameter" in out


class TestConnectivity:
    def test_pairs_and_random(self, graph_file, capsys):
        assert main([
            "connectivity", str(graph_file), "--pairs", "0,1", "3,4",
            "--random", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "connected(0, 1)" in out
        assert "500 random queries" in out


class TestTrace:
    def test_quickstart_tree_and_jsonl(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        out = tmp_path / "trace.jsonl"
        assert main([
            "trace", "quickstart", "--scale", "9", "--edge-factor", "6",
            "--updates", "300", "--queries", "500", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        # The span tree reaches representation depth through the API and
        # update engine, and carries simulated time + counters.
        assert "trace.quickstart" in printed
        assert "api.apply" in printed
        assert "update_engine.apply_stream" in printed
        assert "adjacency.hybrid.apply_arcs" in printed
        assert "sim.sweep" in printed
        assert "sim_seconds" in printed
        assert "top counters" in printed
        assert "manifest" in printed

        events = read_jsonl(out)
        assert events
        ids = {e["manifest_id"] for e in events}
        assert len(ids) == 1  # every event stamped with the run manifest
        by_id = {e["span_id"]: e for e in events}

        def depth_of(e):
            d, p = 0, e["parent_id"]
            while p is not None:
                d += 1
                p = by_id[p]["parent_id"]
            return d

        max_depth = max(depth_of(e) for e in events)
        assert max_depth >= 3  # root -> api -> engine -> representation

    def test_single_kernel_workload(self, tmp_path, capsys):
        out = tmp_path / "bfs.jsonl"
        assert main(["trace", "bfs", "--scale", "8", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "core.bfs" in printed
        assert out.exists()

    def test_connectit_workload(self, tmp_path, capsys):
        out = tmp_path / "connectit.jsonl"
        assert main(["trace", "connectit", "--scale", "8", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "connectit.components" in printed
        assert "connectit.sample" in printed
        assert "connectit.finish" in printed
        assert out.exists()
        # The default and the named unsampled baseline, on one snapshot.
        line = next(x for x in printed.splitlines() if x.startswith("connectit: default"))
        assert "bfs+rank/halving" in line and "baseline rank/halving" in line
        assert "labels identical" in line
        assert line.count(" unions") == 2

    def test_connectit_workload_fails_on_differing_labels(self, tmp_path, monkeypatch):
        import dataclasses

        import repro.connectit as connectit

        real = connectit.connect_components

        def skewed(graph, spec=None, **kwargs):
            res = real(graph, spec, **kwargs)
            if res.spec.sampling == "none":
                res = dataclasses.replace(res, labels=res.labels[::-1].copy())
            return res

        monkeypatch.setattr(connectit, "connect_components", skewed)
        with pytest.raises(SystemExit, match="differ from the unsampled baseline"):
            main(["trace", "connectit", "--scale", "8", "--out", str(tmp_path / "c.jsonl")])

    def test_tracing_disabled_after_run(self, tmp_path):
        from repro import obs

        assert main(["trace", "connectivity", "--scale", "8",
                     "--out", str(tmp_path / "c.jsonl")]) == 0
        assert not obs.tracing_enabled()


class TestSimulate:
    @pytest.mark.parametrize("rep", ["hybrid", "dynarr", "dynarr-nr"])
    def test_representations(self, graph_file, rep, capsys):
        assert main([
            "simulate", str(graph_file), "--representation", rep,
            "--machine", "t2",
        ]) == 0
        out = capsys.readouterr().out
        assert "UltraSPARC T2" in out
        assert "speedup" in out

    def test_power570(self, graph_file, capsys):
        assert main(["simulate", str(graph_file), "--machine", "power570"]) == 0
        assert "Power 570" in capsys.readouterr().out

    def test_text_input(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["generate", "--scale", "7", "--out", str(path)])
        assert main(["simulate", str(path)]) == 0


class TestTraceFlagsAndExporters:
    WORKLOADS = ["quickstart", "updates", "bfs", "connectivity",
                 "components", "connectit", "fig08", "fig10", "genscale"]

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_every_workload_quiet_no_manifest(self, workload, tmp_path, capsys):
        assert main([
            "trace", workload, "--scale", "8", "--edge-factor", "4",
            "--updates", "100", "--queries", "400",
            "--quiet", "--no-manifest", "--out", str(tmp_path / "t.jsonl"),
        ]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "t.jsonl").exists()

    def test_exported_artifacts_validate(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace, validate_speedscope

        chrome = tmp_path / "c.json"
        speedscope = tmp_path / "s.json"
        folded = tmp_path / "f.txt"
        assert main([
            "trace", "bfs", "--scale", "8", "--out", str(tmp_path / "t.jsonl"),
            "--chrome", str(chrome), "--speedscope", str(speedscope),
            "--folded", str(folded),
        ]) == 0
        capsys.readouterr()
        chrome_doc = json.loads(chrome.read_text())
        assert validate_chrome_trace(chrome_doc) == []
        assert chrome_doc["metadata"]["id"]  # run manifest rides along
        assert validate_speedscope(json.loads(speedscope.read_text())) == []
        assert any(line.startswith("trace.bfs") for line in
                   folded.read_text().splitlines())

    def test_memprof_attaches_span_memory(self, tmp_path, capsys):
        # Trace spans carry their kernels' attrs in one tree, and no memory
        # sampler: --memprof is no flag.
        from repro import obs
        from repro.obs import read_jsonl

        out = tmp_path / "t.jsonl"
        assert main(["trace", "bfs", "--scale", "8", "--out", str(out)]) == 0
        capsys.readouterr()
        spans = [e for e in read_jsonl(out) if e["type"] == "span"]
        ids = {e["span_id"] for e in spans}
        roots = [e for e in spans if e["parent_id"] is None]
        assert [e["name"] for e in roots] == ["trace.bfs"]
        assert all(e["parent_id"] in ids for e in spans if e["parent_id"] is not None)
        bfs = [e for e in spans if e["name"] == "core.bfs"]
        assert bfs and all(e["attrs"]["reached"] > 0 for e in bfs)
        assert not any({"peak_bytes", "alloc_bytes"} & set(e["attrs"]) for e in spans)
        assert not obs.tracing_enabled()
        with pytest.raises(SystemExit):
            main(["trace", "bfs", "--memprof", "--out", str(out)])
        capsys.readouterr()

    def test_backend_compare_writes_only_the_out_file(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        for workload in ("fig08", "fig10", "genscale"):
            assert main([
                "trace", workload, "--scale", "8", "--edge-factor", "4",
                "--queries", "400", "--out", "t.jsonl",
            ]) == 0
            assert "speedup" in capsys.readouterr().out
            assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    @pytest.mark.parametrize("workload", ["fig08", "fig10", "genscale"])
    def test_backend_result_differing_from_serial_exits_nonzero(
        self, workload, tmp_path, monkeypatch, capsys
    ):
        from repro.parallel.backend import SerialBackend

        class Lossy(SerialBackend):
            def bfs(self, *args, **kwargs):
                res = super().bfs(*args, **kwargs)
                res.dist[0] += 1
                return res

            def query_batch(self, *args, **kwargs):
                answers, hops = super().query_batch(*args, **kwargs)
                answers[0] ^= True
                return answers, hops

            def rmat_edges(self, *args, **kwargs):
                src, dst = super().rmat_edges(*args, **kwargs)
                src[0] ^= 1
                return src, dst

        monkeypatch.setattr(
            "repro.__main__._resolve_trace_backend", lambda args: Lossy()
        )
        with pytest.raises(SystemExit, match="differ from serial"):
            main([
                "trace", workload, "--scale", "8", "--edge-factor", "4",
                "--queries", "400", "--quiet", "--out", str(tmp_path / "t.jsonl"),
            ])
        capsys.readouterr()


class TestObs:
    """Serve and inspect a run: ``repro serve`` and ``repro trace``; ``obs`` is no command."""

    SERVE = ["serve", "--scale", "6", "--edge-factor", "2", "--quiet"]

    @contextmanager
    def serving(self, tmp_path, *extra):
        """Run ``repro serve`` on a thread; yields its URL while it holds up."""
        url_file = tmp_path / "url.txt"
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main([
            *self.SERVE, "--duration", "3", "--url-file", str(url_file), *extra,
        ])))
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while not (url_file.exists() and url_file.read_text().strip()):
                assert time.monotonic() < deadline, "serve never published its URL"
                time.sleep(0.02)
            yield url_file.read_text().strip()
        finally:
            thread.join()
        assert codes == [0]

    def test_serve_runs_workload_and_writes_url_file(self, tmp_path, capsys):
        url_file = tmp_path / "url.txt"
        assert main([
            "serve", "--scale", "6", "--edge-factor", "2", "--url-file", str(url_file),
        ]) == 0
        out = capsys.readouterr().out
        assert url_file.read_text().startswith("http://127.0.0.1:")
        assert "serving hybrid graph n=2^6" in out
        assert "updates in" in out and "answered 0 query(ies)" in out

    def test_scrape_check_and_out(self, tmp_path):
        from repro.obs import validate_openmetrics

        report = tmp_path / "report.json"
        with self.serving(tmp_path, "--report", str(report)) as url:
            urlopen(url + "/connected?u=0&v=1", timeout=30).read()
            text = urlopen(url + "/metrics", timeout=30).read().decode()
        assert validate_openmetrics(text)["n_exemplars"] > 0
        assert "service_queries_total 1" in text
        assert json.loads(report.read_text())["stats"]["queries"] == 1

    def test_scrape_prints_to_stdout_without_out(self, capsys):
        assert main(self.SERVE) == 0
        assert capsys.readouterr().out == ""
        assert main(self.SERVE[:-1]) == 0
        assert "answered 0 query(ies)" in capsys.readouterr().out

    def test_scrape_unreachable_endpoint_exits_2(self, capsys):
        for argv in (
            ["obs", "scrape", "http://127.0.0.1:9", "--timeout", "0.5"],
            ["obs", "serve", "quickstart"],
            [*self.SERVE, "--interval", "0.25"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "invalid choice: 'obs'" in capsys.readouterr().err

    def test_top_renders_rollups(self, tmp_path, capsys):
        assert main([
            "trace", "updates", "--scale", "8", "--edge-factor", "4",
            "--updates", "200", "--out", str(tmp_path / "t.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "-- top counters" in out and "update_engine" in out

    def test_top_and_scrape_work_against_a_service(self, tmp_path):
        """The service serves the registry as JSON and as OpenMetrics text."""
        with self.serving(tmp_path) as url:
            snapshot = json.loads(urlopen(url + "/metrics.json", timeout=30).read())
            text = urlopen(url + "/metrics", timeout=30).read().decode()
        assert list(snapshot) == ["snapshot"]
        assert snapshot["snapshot"]["counters"]["service.updates.applied"] == 128
        assert "service_updates_applied_total 128" in text
