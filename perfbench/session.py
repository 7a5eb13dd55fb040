"""Process-level plumbing for the benchmark: the Ray session, the peak-RSS
sampler, the Ray warning counter, spans, and process clean-up.

Nothing here imports ``versa_ray``; the workloads call the program.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import subprocess
import threading
import time

# Ray warnings the ROADMAP observability target wants at zero
SCHEMA_WARNINGS = ("different schema", "Failed to hash the schemas")


def nproc() -> int:
    """CPU count as the ``nproc`` command reports it (it honours
    OMP_NUM_THREADS, as the command does)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return max(1, int(out.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return max(1, len(os.sched_getaffinity(0)))


# -- /proc helpers ------------------------------------------------------------


def _ppid_map() -> dict:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] == "Z":
            continue
        out[int(name)] = int(fields[1])
    return out


def descendants(root: int) -> list:
    """PIDs of every live process under ``root`` (not ``root`` itself)."""
    children: dict = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def tree_rss_bytes(root: int) -> int:
    return sum(_rss_bytes(p) for p in [root] + descendants(root))


def host_cpu_jiffies() -> dict:
    """Whole-host CPU time from /proc/stat, in seconds: busy (user, nice,
    system, irq, softirq), steal (time the hypervisor ran someone else
    while this host wanted the CPU) and idle."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:]]
    hz = os.sysconf("SC_CLK_TCK")
    return {"busy": (f[0] + f[1] + f[2] + f[5] + f[6]) / hz,
            "steal": f[7] / hz, "idle": (f[3] + f[4]) / hz}


def host_steal_s() -> float:
    return host_cpu_jiffies()["steal"]


class PeakRSS:
    """Samples the summed RSS of this process and all its descendants
    (the Ray head processes and workers) on a background thread."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self):
        me = os.getpid()
        while True:
            self.peak = max(self.peak, tree_rss_bytes(me))
            if self._stop.wait(self.interval):
                return

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak = max(self.peak, tree_rss_bytes(os.getpid()))

    @property
    def peak_mb(self) -> float:
        return self.peak / (1024 * 1024)


# -- warnings -------------------------------------------------------------------


class WarningCounter(logging.Handler):
    """Counts Ray log records that carry one of SCHEMA_WARNINGS."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        try:
            msg = record.getMessage()
        except (TypeError, ValueError):
            return
        if any(w in msg for w in SCHEMA_WARNINGS):
            self.count += 1


# -- spans ------------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent, run id) recorded around
    calls into the program's layers. Disabled tracers record nothing."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    def span(self, name: str, **attrs):
        return _Span(self, name, attrs)

    def self_times(self, name: str) -> list:
        """Duration of each ``name`` span minus the time its direct
        children cover."""
        out = []
        for i, s in enumerate(self.spans):
            if s["name"] != name:
                continue
            child = sum(c["end"] - c["start"] for c in self.spans
                        if c["parent"] == i)
            out.append(s["end"] - s["start"] - child)
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            self.index = len(t.spans)
            t.spans.append({
                "name": self.name, "start": time.perf_counter(), "end": None,
                "parent": t._stack[-1] if t._stack else None,
                "run": t.run_id, **self.attrs,
            })
            t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            t.spans[self.index]["end"] = time.perf_counter()
            t._stack.pop()


# -- the Ray session --------------------------------------------------------------


class RaySession:
    """Starts a local Ray cluster with ``num_cpus`` CPUs whose temp files
    live in ``.pbray/`` under the working directory, counts schema
    warnings, and on close stops every process it started and waits for
    them to end."""

    def __init__(self, repo_root: str, num_cpus: int):
        self.repo_root = repo_root
        self.num_cpus = num_cpus
        self.warnings = WarningCounter()
        self.init = None  # timing sample of ray.init
        # AF_UNIX socket paths are limited to 107 bytes and Ray appends
        # about 70 to its temp dir, so a deep checkout path does not fit;
        # /proc/<pid>/cwd names the same directory in 24 bytes or fewer
        self.tmp_dir = os.path.join(os.getcwd(), ".pbray")
        self.short_tmp = f"/proc/{os.getpid()}/cwd/.pbray"

    def __enter__(self):
        # Ray workers import versa_ray from the checkout
        path = os.environ.get("PYTHONPATH", "")
        os.environ["PYTHONPATH"] = self.repo_root + (os.pathsep + path if path else "")
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        import ray

        os.makedirs(self.tmp_dir, exist_ok=True)
        t0, s0 = time.perf_counter(), host_steal_s()
        ray.init(address="local", num_cpus=self.num_cpus,
                 object_store_memory=512 * 1024 * 1024,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False,
                 # keep idle workers: a worker restarted between two Ray
                 # Data executions costs about a second of imports
                 _system_config={"num_workers_soft_limit": 4,
                                 "idle_worker_killing_time_threshold_ms": 600_000},
                 _temp_dir=self.short_tmp)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        for name in ("ray", "ray.data"):
            logging.getLogger(name).addHandler(self.warnings)
        self.init = {"s": time.perf_counter() - t0, "steal": host_steal_s() - s0}
        return self

    def __exit__(self, *exc):
        import ray

        for name in ("ray", "ray.data"):
            logging.getLogger(name).removeHandler(self.warnings)
        started = descendants(os.getpid())
        ray.shutdown()
        stop_processes(started)
        shutil.rmtree(self.tmp_dir, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def stop_processes(pids: list, timeout: float = 30.0) -> None:
    """Wait for ``pids`` to end; SIGKILL what is left after ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            break
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    for p in pids:
        try:
            os.waitpid(p, os.WNOHANG)  # reap our own children
        except ChildProcessError:
            pass
    deadline = time.monotonic() + 10
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
