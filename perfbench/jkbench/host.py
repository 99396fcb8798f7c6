"""Host facts the benchmark reads from outside the system under test.

Everything here is observation only: a calibration loop for host-speed
drift, the result stamp (commit, Python, nproc), resident memory of the
processes a workload started, and the ``/dev/shm`` listing used by the
leak check.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time

SHM_DIR = "/dev/shm"


def calibration_us(rounds=5):
    """Median CPU time of a fixed pure-Python loop, in microseconds.

    Timed before and after every run: when the two readings, or the
    readings of two runs, disagree, the host moved and not the code.
    Steal by other virtual machines is reported separately
    (:func:`steal_share`).
    """
    samples = []
    for _ in range(rounds):
        start = time.thread_time_ns()
        total = 0
        for index in range(200_000):
            total += index * index & 0xFF
        samples.append((time.thread_time_ns() - start) / 1e3)
        if total < 0:  # keeps the loop's result live
            raise AssertionError
    samples.sort()
    return samples[len(samples) // 2]


def cpu_ticks():
    """(steal, busy) jiffies summed over all CPUs, from /proc/stat;
    busy is every state but idle and iowait, steal included."""
    with open("/proc/stat") as handle:
        # user nice system idle iowait irq softirq steal
        fields = [int(field) for field in handle.readline().split()[1:9]]
    return fields[7], sum(fields) - fields[3] - fields[4]


def steal_share(before, after):
    """Share of the CPU time this guest wanted that the hypervisor gave
    to other guests instead."""
    busy = after[1] - before[1]
    return (after[0] - before[0]) / busy if busy else 0.0


def cpu_ns(pids):
    """Time the threads of ``pids`` spent on a CPU (schedstat), in ns."""
    total = 0
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except OSError:
                continue
    return total


def _commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # git would report an enclosing repository instead
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_digest(src_dir):
    """SHA-256 over the sorted ``src/`` tree: identifies the code under
    test even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def stamp(root):
    """What a result needs beside its numbers to be compared later."""
    return {
        "commit": _commit(root),
        "src_sha256": _source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "unix_time": int(time.time()),
    }


def descendants(pid):
    """``pid`` and every live process below it, from ``/proc``."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(children.get(current, ()))
    return found


def rss_kb(pid):
    """VmRSS of one process in KiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def shm_segments():
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def leaked_segments(before):
    """Segments created since ``before`` that outlive their owner.

    The region pool of this (still running) process keeps revoked
    segments for reuse and unlinks them at exit, so those are not leaks.
    """
    own = f"jkr{os.getpid()}g"
    return sorted(name for name in shm_segments() - before
                  if not name.startswith(own))
