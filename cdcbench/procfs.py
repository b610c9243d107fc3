"""Host and process-tree measurements read from ``/proc``.

CPU and peak memory are summed over the driver's whole process tree (the
driver, Ray's GCS, raylet and every worker), because the engine's work
runs in Ray worker processes, not in the driver.
"""

from __future__ import annotations

import os
import platform
import signal
import sys
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may hold spaces: split after its closing paren
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int | None = None) -> list:
    """``root`` and every live descendant, found through ``/proc`` ppids."""
    root = os.getpid() if root is None else root
    children: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is not None:
            children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s(root: int | None = None) -> float:
    """User + system CPU seconds of the process tree, including children
    it has already reaped."""
    total = 0
    for pid in process_tree(root):
        f = _stat_fields(pid)
        if f is not None:
            # fields after the paren start at state (index 0 = field 3):
            # utime, stime, cutime, cstime are fields 14..17
            total += sum(int(x) for x in f[11:15])
    return total / CLK_TCK


def tree_peak_rss_mb(root: int | None = None) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the process tree."""
    kb = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


def steal_s() -> float:
    """Host-wide CPU steal seconds so far (``/proc/stat``)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLK_TCK


class Interval:
    """Wall seconds, process-tree CPU seconds and host steal seconds from
    construction to ``stop()``."""

    def __init__(self):
        self.c0, self.s0 = tree_cpu_s(), steal_s()
        self.t0 = time.perf_counter()

    def stop(self) -> "Interval":
        self.wall = time.perf_counter() - self.t0
        self.cpu = tree_cpu_s() - self.c0
        self.steal = steal_s() - self.s0
        return self

    @property
    def seconds(self) -> float:
        """Wall time with the host's CPU steal taken out. Steal is time the
        hypervisor gave a CPU that had work to another machine; on a
        shared host it comes and goes over minutes and would make runs of
        the same code disagree. The wall time is scaled by the share of
        the busy CPU time that ran: tree CPU / (tree CPU + steal). Steal
        is counted over the whole host, and this machine runs nothing but
        the benchmark."""
        busy = self.cpu + self.steal
        return self.wall * self.cpu / busy if busy > 0 else self.wall


def nproc() -> int:
    """What the ``nproc`` command prints: the CPUs this process may run
    on, capped by ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        try:
            n = min(n, max(1, int(os.environ[var].split(",")[0])))
        except (KeyError, ValueError):
            continue
    return n


def stamp() -> dict:
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "cpus_online": os.cpu_count(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "platform": sys.platform,
    }


def wait_gone(pids, timeout: float = 30.0) -> list:
    """Wait until every pid has exited; SIGKILL what is left at the
    deadline. Returns the pids that had to be killed."""
    me = os.getpid()
    pids = [p for p in pids if p != me]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        if not pids:
            return []
        time.sleep(0.1)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    end = time.monotonic() + 5.0
    while time.monotonic() < end and any(_alive(p) for p in pids):
        time.sleep(0.05)
    return pids


def _alive(pid: int) -> bool:
    f = _stat_fields(pid)
    if f is None or f[0] == "Z":
        # a zombie has ended; reap it if it is ours
        try:
            os.waitpid(pid, os.WNOHANG)
        except OSError:
            pass
        return False
    return True
