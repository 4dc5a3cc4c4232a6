"""The benchmark-regression gates must catch doctored BENCH payloads.

CI runs ``benchmarks/bench_server_ingest.py --check BENCH_server.json
--baseline BENCH_baseline.json --engine BENCH_engine.json``; these tests
pin down the gate logic itself — a payload matching baseline passes, a
payload whose server ingest throughput collapsed fails — and run the
actual ``--check`` entry point against a doctored file, exactly as the CI
self-test step does.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_server_ingest import (  # noqa: E402 - path set up above
    check_engine_regression,
    check_throughput_regression,
    main,
)

BASELINE = {
    "baseline": "bench-regression-baseline",
    "max_drop": 0.40,
    "server": {"hashtogram": 20_000_000},
    "engine": {"hashtogram": 4_000_000},
}


def _server_payload(rate=20_000_000):
    return {"results": [
        {"protocol": "hashtogram", "reports_per_s": rate, "wire_mb": 4.0},
    ]}


def _engine_payload(rate=4_000_000, workers=1):
    return {"results": [{"protocol": "hashtogram", "workers": workers,
                         "reports_per_s": rate}]}


class TestThroughputGate:
    def test_matching_baseline_passes(self):
        assert check_throughput_regression(_server_payload(), BASELINE) == []

    def test_faster_host_passes(self):
        payload = _server_payload(rate=60_000_000)
        assert check_throughput_regression(payload, BASELINE) == []

    def test_drop_within_margin_passes(self):
        payload = _server_payload(rate=13_000_000)  # -35%
        assert check_throughput_regression(payload, BASELINE) == []

    def test_drop_beyond_margin_fails(self):
        payload = _server_payload(rate=10_000_000)  # -50%
        failures = check_throughput_regression(payload, BASELINE)
        assert len(failures) == 1
        assert "server/hashtogram" in failures[0]
        assert "regressed" in failures[0]

    def test_missing_measured_row_fails(self):
        payload = {"results": [dict(_server_payload()["results"][0],
                                    protocol="explicit")]}
        failures = check_throughput_regression(payload, BASELINE)
        assert any("no measured row" in f for f in failures)

    def test_baseline_max_drop_is_honored(self):
        tight = dict(BASELINE, max_drop=0.10)
        payload = _server_payload(rate=17_000_000)  # -15%
        assert check_throughput_regression(payload, BASELINE) == []
        assert check_throughput_regression(payload, tight) != []


class TestEngineGate:
    def test_matching_baseline_passes(self):
        assert check_engine_regression(_engine_payload(), BASELINE) == []

    def test_collapsed_throughput_fails(self):
        failures = check_engine_regression(_engine_payload(rate=1_000_000),
                                           BASELINE)
        assert any("engine/hashtogram" in f for f in failures)

    def test_only_one_worker_rows_count(self):
        payload = {"results": [
            {"protocol": "hashtogram", "workers": 4,
             "reports_per_s": 16_000_000},
        ]}
        failures = check_engine_regression(payload, BASELINE)
        assert any("no measured 1-worker row" in f for f in failures)


class TestCheckEntryPoint:
    """The CI invocation end to end, including the doctored-file self-test."""

    @pytest.fixture()
    def committed_baseline(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"
        assert path.exists(), "BENCH_baseline.json must be committed"
        return path

    def test_committed_baseline_shape(self, committed_baseline):
        baseline = json.loads(committed_baseline.read_text())
        assert baseline["baseline"] == "bench-regression-baseline"
        assert 0.0 < float(baseline["max_drop"]) < 1.0
        assert float(baseline["server"]["hashtogram"]) > 0
        assert "hashtogram" in baseline["engine"]

    def test_doctored_payload_fails_check(self, tmp_path, committed_baseline,
                                          capsys):
        baseline = json.loads(committed_baseline.read_text())
        reference = float(baseline["server"]["hashtogram"])
        doctored = _server_payload(rate=int(reference * 0.1))
        path = tmp_path / "BENCH_doctored.json"
        path.write_text(json.dumps(doctored))
        code = main(["--check", str(path),
                     "--baseline", str(committed_baseline)])
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def test_healthy_payload_passes_check(self, tmp_path, committed_baseline):
        baseline = json.loads(committed_baseline.read_text())
        healthy = _server_payload(
            rate=int(float(baseline["server"]["hashtogram"])))
        path = tmp_path / "BENCH_healthy.json"
        path.write_text(json.dumps(healthy))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 0

    def test_engine_requires_baseline(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(_server_payload()))
        assert main(["--check", str(path), "--engine", str(path)]) == 2
