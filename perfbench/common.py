"""Shared pieces of the benchmark: statistics, failure ledger, spans, host.

Nothing here imports :mod:`repro`; the workload modules do.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10


# ----- statistics ---------------------------------------------------------------------

def tail_index(count: int) -> int:
    """0-based rank of the highest sample with ``TAIL_BEYOND`` samples above it."""
    if count <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, "
                         f"got {count}")
    return count - TAIL_BEYOND - 1


def tail_percentile(count: int) -> float:
    """The percentile :func:`tail_value` reports for ``count`` samples."""
    return 100.0 * (tail_index(count) + 1) / count


def tail_value(samples: Sequence[float]) -> float:
    """The highest percentile that still has ``TAIL_BEYOND`` samples beyond it."""
    return sorted(samples)[tail_index(len(samples))]


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


# ----- failure accounting -------------------------------------------------------------

@dataclass
class Ledger:
    """Attempted and failed operations, by kind; feeds ``error_rate``.

    A failure is a report sent but not absorbed, a query that errored or
    timed out, an answer that differs from the offline engine, or a planted
    heavy hitter the protocol missed.
    """

    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, kind: str, attempted: int, failed: int = 0,
               note: str = "") -> None:
        with self._lock:
            self.attempted[kind] = self.attempted.get(kind, 0) + int(attempted)
            self.failed[kind] = self.failed.get(kind, 0) + int(failed)
            if failed and note:
                self.notes.append(f"{kind}: {note}")

    def check(self, kind: str, ok: bool, note: str = "") -> None:
        self.record(kind, 1, 0 if ok else 1, note)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def error_rate(self) -> float:
        return self.total_failed / max(self.total_attempted, 1)


# ----- spans --------------------------------------------------------------------------

class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span's name is ``<layer>.<operation>``; its parent is the span open on
    the same thread when it started.  Disabled tracers record nothing, so
    the untraced runs pay one attribute check per call site.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record: Dict[str, object] = {
            "name": name, "parent": stack[-1] if stack else None,
            "thread": threading.get_ident(), "start": time.perf_counter(),
            "end": None}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def self_seconds_by_layer(self) -> Dict[str, float]:
        """Each layer's span time minus the part its child spans cover."""
        child_time: Dict[int, float] = {}
        for rec in self.spans:
            if rec["parent"] is not None and rec["end"] is not None:
                parent = int(rec["parent"])
                child_time[parent] = (child_time.get(parent, 0.0)
                                      + rec["end"] - rec["start"])
        out: Dict[str, float] = {}
        for rec in self.spans:
            if rec["end"] is None:
                continue
            layer = str(rec["name"]).split(".", 1)[0]
            own = rec["end"] - rec["start"] - child_time.get(int(rec["id"]), 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")


# ----- host and process records -------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_type(path: Path) -> str:
    """Type of the filesystem mounted under ``path`` (longest mount prefix)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1].replace("\\040", " ")
        inside = (target == mount
                  or target.startswith(mount.rstrip("/") + "/"))
        if inside and len(mount) > len(best):
            best, kind = mount, parts[2]
    return kind


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    Recorded before and after each run so that a shift in every figure can
    be told apart from a change in the program.
    """
    times = []
    for _ in range(3):
        begin = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append((time.perf_counter() - begin) * 1000.0)
    return median(times)


def host_record(work_dir: Path) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
        "cpu_probe_ms_before": cpu_probe_ms(),
        "work_dir_fs": filesystem_type(work_dir),
    }


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def reset_peak_rss() -> None:
    """Set this process's ``VmHWM`` back to its current resident set."""
    Path("/proc/self/clear_refs").write_text("5")


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    out = [pid]
    for tid_dir in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children = (tid_dir / "children").read_text().split()
        except OSError:
            continue
        for child in children:
            out.extend(process_tree(int(child)))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over a process and its descendants."""
    return sum(vm_hwm_mb(p) for p in process_tree(pid))


# ----- process clean-up ---------------------------------------------------------------

#: ``prctl`` option from ``<linux/prctl.h>``
PR_SET_CHILD_SUBREAPER = 36
#: how long a SIGKILLed process may take to end before the run fails
KILL_WAIT_S = 30.0


def become_subreaper() -> None:
    """Adopt this process's orphaned descendants.

    A shard whose router has died is then re-parented to the benchmark, which
    can kill it and wait for it, instead of to an init that might not.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): "
                             f"{os.strerror(errno)}")


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs; an ended child of this process is reaped."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return False
    except ChildProcessError:
        pass  # not a child of this process: only /proc can tell
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def end_processes(pids: Sequence[int], grace_s: float) -> List[int]:
    """Give ``pids`` ``grace_s`` to exit, SIGKILL the rest, wait for each.

    Returns the pids that had to be killed.
    """
    live = [p for p in pids if _alive(p)]
    deadline = time.monotonic() + grace_s
    while live and time.monotonic() < deadline:
        time.sleep(0.05)
        live = [p for p in live if _alive(p)]
    killed = list(live)
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + KILL_WAIT_S
    while live:
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {live} outlived SIGKILL by "
                               f"{KILL_WAIT_S} s")
        time.sleep(0.01)
        live = [p for p in live if _alive(p)]
    return killed


def stop_descendants() -> List[int]:
    """End every process below this one; returns those that had to be killed.

    The multiprocessing resource tracker (started by the shm transport) is
    stopped through its own pipe first, so that it still cleans up.
    """
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    killed: List[int] = []
    while True:
        # a killed process's own children are re-parented here, so look again
        live = [p for p in process_tree(os.getpid())[1:] if _alive(p)]
        if not live:
            return killed
        killed += end_processes(live, grace_s=0.0)


# ----- result line --------------------------------------------------------------------

def result_line(correct: bool, ledger: Ledger,
                metrics: Dict[str, tuple]) -> str:
    """The benchmark's last stdout line: ``{correct, attempted, failed, metrics}``."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": max(int(ledger.total_attempted), 1),
        "failed": int(ledger.total_failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
