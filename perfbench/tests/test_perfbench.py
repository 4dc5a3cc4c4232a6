"""Tests of the benchmark itself: its statistics, load generator, failure
accounting, and a tiny-size smoke run of every workload through the
correctness gate.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.common import (
    Ledger,
    Tracer,
    result_line,
    tail_index,
    tail_percentile,
    tail_value,
)
from perfbench.served import OpenLoop

BENCH_DIR = Path(__file__).resolve().parent.parent


class TestTailRule:
    def test_ten_samples_stay_beyond_the_tail(self):
        samples = list(range(100))
        assert tail_value(samples) == 89
        assert sum(1 for x in samples if x > tail_value(samples)) == 10
        assert tail_percentile(100) == 90.0

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0,
                   11.0]
        assert tail_value(samples) == 1.0
        assert tail_index(len(samples)) == 1

    def test_eleven_samples_give_the_minimum(self):
        assert tail_value(list(range(11, 0, -1))) == 1
        assert tail_percentile(11) == pytest.approx(100 / 11)

    @pytest.mark.parametrize("count", [0, 1, 10])
    def test_too_few_samples_raise(self, count):
        with pytest.raises(ValueError):
            tail_value([1.0] * count)


class TestLedger:
    def test_error_rate_counts_every_kind(self):
        ledger = Ledger()
        ledger.record("report", 1000, 3, "3 reports sent but not absorbed")
        ledger.check("query", True)
        ledger.check("query", False, "query 7 timed out")
        ledger.check("planted", False, "planted heavy hitter 42 was missed")
        assert ledger.total_attempted == 1003
        assert ledger.total_failed == 5
        assert ledger.error_rate == pytest.approx(5 / 1003)
        assert len(ledger.notes) == 3

    def test_result_line_reports_the_ledger(self):
        ledger = Ledger()
        ledger.check("answer", False, "differs")
        line = json.loads(result_line(False, ledger,
                                      {"job_s": (1.5, "s")}))
        assert line == {"correct": False, "attempted": 1, "failed": 1,
                        "metrics": {"job_s": {"value": 1.5, "unit": "s"}}}

    def test_clean_ledger_has_zero_error_rate(self):
        assert Ledger().error_rate == 0.0


class _FakeQueryServer:
    """Answers ``query`` frames in order; stalls before answer ``stall_at``."""

    def __init__(self, stall_s: float, stall_at: int = 0,
                 close_after: int = -1) -> None:
        self.stall_s = stall_s
        self.stall_at = stall_at
        self.close_after = close_after
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        from repro.server.framing import read_frame_sync, write_frame_sync

        conn, _ = self._listener.accept()
        with conn, conn.makefile("rwb") as stream:
            answered = 0
            while True:
                frame = read_frame_sync(stream)
                if frame is None or answered == self.close_after:
                    return
                if answered == self.stall_at:
                    time.sleep(self.stall_s)
                write_frame_sync(stream, {
                    "type": "estimates", "items": frame["items"],
                    "estimates": [1.0] * len(frame["items"])})
                answered += 1

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


def _open_loop(server: _FakeQueryServer, count: int, rate: float,
               ledger: Ledger) -> OpenLoop:
    loop = OpenLoop("127.0.0.1", server.port, [1, 2, 3], count, rate,
                    timeout_s=5.0, ledger=ledger, tracer=Tracer(False))
    loop.start(time.perf_counter())
    loop.join()
    server.close()
    return loop


class TestOpenLoop:
    def test_a_stall_raises_the_latency_of_later_queries(self):
        stall_s, rate, count = 0.6, 20.0, 6
        ledger = Ledger()
        loop = _open_loop(_FakeQueryServer(stall_s), count, rate, ledger)
        assert ledger.total_failed == 0
        assert len(loop.latencies_ms) == count
        # Query i was due i/rate after the start and could not be answered
        # before the stall ended: timed from its due time, it carries the
        # rest of the stall even though the server answered it at once.
        for i, latency in enumerate(loop.latencies_ms):
            assert latency >= (stall_s - i / rate) * 1000.0 - 5.0
        # The generator itself kept to its schedule during the stall.
        assert max(loop.late_ms) < 100.0

    def test_without_a_stall_latency_stays_small(self):
        ledger = Ledger()
        loop = _open_loop(_FakeQueryServer(0.0), 6, 20.0, ledger)
        assert ledger.total_failed == 0
        assert max(loop.latencies_ms) < 200.0

    def test_unanswered_queries_count_as_failures_at_the_timeout(self):
        ledger = Ledger()
        loop = _open_loop(_FakeQueryServer(0.0, close_after=2), 5, 50.0,
                          ledger)
        assert ledger.total_attempted == 5
        assert ledger.total_failed == 3
        assert loop.latencies_ms[2:] == [5000.0] * 3


class TestCommandLine:
    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim-six",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""


class TestProcessCleanup:
    def test_an_orphaned_grandchild_is_killed_and_reaped(self):
        # sh exits at once, so its background sleep is orphaned: adopted by
        # the subreaper, which must kill it and reap it.
        script = (
            "import subprocess\n"
            "from perfbench.common import become_subreaper, stop_descendants\n"
            "become_subreaper()\n"
            "out = subprocess.run(['sh', '-c', 'sleep 300 >/dev/null 2>&1 & "
            "echo $!'], capture_output=True, text=True, check=True).stdout\n"
            "print(int(out), stop_descendants())\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              cwd=BENCH_DIR.parent, capture_output=True,
                              text=True, timeout=60, check=True)
        orphan, killed = proc.stdout.split(" ", 1)
        assert killed.strip() == f"[{orphan}]"
        assert not Path(f"/proc/{orphan}").exists()


@pytest.mark.slow
class TestSmoke:
    """Tiny workloads, seconds long, through the full correctness gate."""

    def _check(self, outcome, trace: bool) -> None:
        assert outcome.ledger.total_failed == 0, outcome.ledger.notes
        assert outcome.ledger.total_attempted > 0
        if trace:
            from perfbench.layers import all_metric_units

            assert set(outcome.metrics) == set(all_metric_units())
        else:
            assert set(outcome.metrics) == set(workloads.E2E_UNITS)
            assert all(value > 0 for value, _ in outcome.metrics.values())

    @pytest.mark.cluster
    @pytest.mark.parametrize("name", ["hh-cluster", "freq-stream"])
    def test_served_workload(self, tmp_path, name):
        self._check(workloads.run(name, 3, 2, False, tmp_path, Ledger(),
                                  smoke=True), trace=False)

    def test_sim_six(self, tmp_path):
        self._check(workloads.run("sim-six", 3, 2, False, tmp_path, Ledger(),
                                  smoke=True), trace=False)

    @pytest.mark.cluster
    def test_traced_run(self, tmp_path):
        outcome = workloads.run("freq-stream", 4, 2, True, tmp_path, Ledger(),
                                smoke=True)
        self._check(outcome, trace=True)
        assert any(line.startswith("reconcile freq-stream ingest")
                   for line in outcome.lines)
        assert (tmp_path / "trace-freq-stream-4.json").is_file()
