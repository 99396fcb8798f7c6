"""End-to-end runs: the system under test in its own processes, load
and checks from this one.

A run of one workload:

1. generates its inputs from the seed (before any clock starts);
2. sets the system up ``SETUPS`` times, each time from constructing the
   server or coordinator to its first correct reply, and keeps the last
   instance (``setup_s`` is the median);
3. warms up for ``WARMUP_S``, then measures for ``--seconds`` in
   windows of ``WINDOW_S``, reading CPU steal and the system's CPU time
   at each window's edges;
4. checks every reply, reconciles the server's own request count with
   the client's, reads resident memory of the processes the workload
   started, stops them, and checks that no ``/dev/shm`` segment leaked.

Throughput, latency and CPU per operation come from the quietest
quarter of the windows, those in which the hypervisor stole the least
CPU time.  On the shared 2-vCPU reference host steal moved between 0%
and 65% of the CPU time this guest wanted, within minutes and within one
run, and CPU time per operation rose with it (about 50% more at 50%
steal).  A run that averaged over the stolen windows measured the
neighbours.  Every request of every window is still checked and
counted.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import namedtuple

from repro.web import PreforkServer

from . import apps, client, host
from . import inputs as gen

SETUPS = 15
WARMUP_S = 1.0
WINDOW_S = 0.5
QUIET_SHARE = 0.25
REAP_TIMEOUT_S = 5.0

Window = namedtuple("Window", "steal cpu_ns ops elapsed_ns recorder")


class Outcome:
    """Metrics, counts and failure notes of one end-to-end run."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.info = {}

    def check(self, ok, note):
        """One correctness check that is not a request."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def absorb(self, recorder):
        self.attempted += recorder.attempted
        self.failed += recorder.failed
        self.notes.extend(recorder.notes)


def _probe_call(inputs):
    """A read-only request whose reply is known before any write."""
    if inputs.workload == "kv-policy":
        key = next(iter(inputs.initial))
        return gen.http_call("get", "GET", f"/servlet/kv/{key}", key=key)
    return inputs.scripts[0][0]


def _http_app(inputs):
    if inputs.workload == "table5-servlet":
        return apps.table5_app, client.DocumentCheck(inputs.documents)
    if inputs.workload == "oop-servlet":
        return (apps.oop_app(gen.oop_bodies(inputs.seed)),
                client.DocumentCheck(inputs.documents))
    return apps.kv_app(inputs.initial), client.KvModelCheck(inputs.initial)


def _wait_gone(pids):
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while time.monotonic() < deadline:
        if not any(os.path.exists(f"/proc/{pid}") for pid in pids):
            return True
        time.sleep(0.02)
    return False


def _rss_mb(pids):
    return sum(host.rss_kb(pid) for pid in pids) / 1024.0


def _measured(driver, seconds, pids, outcome):
    """The measured phase; returns its recorders, one per window.

    ``pids`` are the processes of the system under test, whose scheduler
    run time gives the CPU time per operation.
    """
    windows = []
    for _ in range(max(2, round(seconds / WINDOW_S))):
        ticks = host.cpu_ticks()
        cpu = host.cpu_ns(pids)
        done = driver.completed
        start = time.perf_counter_ns()
        recorder = driver.run(WINDOW_S, client.Recorder())
        elapsed = time.perf_counter_ns() - start
        windows.append(Window(host.steal_share(ticks, host.cpu_ticks()),
                              host.cpu_ns(pids) - cpu,
                              driver.completed - done, elapsed, recorder))
    quiet = sorted(windows, key=lambda window: window.steal)[
        :max(1, int(len(windows) * QUIET_SHARE))]
    ops = sum(window.ops for window in quiet)
    latencies = sorted(latency for window in quiet
                       for latency in window.recorder.latency_ns)
    samples = len(latencies)
    if not samples:
        raise RuntimeError("no operation succeeded in the measured windows")
    metrics = outcome.metrics
    metrics["ops_per_s"] = {
        "value": ops * 1e9 / sum(window.elapsed_ns for window in quiet),
        "unit": "1/s", "samples": ops}
    metrics["latency_p50_us"] = {"value": latencies[samples // 2] / 1e3,
                                 "unit": "us", "samples": samples}
    metrics["latency_p99_us"] = {
        "value": latencies[min(samples - 1, int(samples * 0.99))] / 1e3,
        "unit": "us", "samples": samples}
    metrics["cpu_us_per_op"] = {
        "value": sum(window.cpu_ns for window in quiet) / ops / 1e3,
        "unit": "us", "samples": ops}
    outcome.info["windows"] = {
        "count": len(windows), "quiet": len(quiet),
        "steal_share": round(statistics.mean(w.steal for w in windows), 4),
        "quiet_steal_share": round(max(w.steal for w in quiet), 4),
        "steal_and_cpu_us_per_op": [
            [round(w.steal, 3), round(w.cpu_ns / max(1, w.ops) / 1e3, 1)]
            for w in windows]}
    return [window.recorder for window in windows]


def run_http(inputs, seconds, outcome):
    app, check = _http_app(inputs)
    probe = _probe_call(inputs)
    probe_check = (client.KvModelCheck(inputs.initial)
                   if inputs.workload == "kv-policy" else check)
    setups = []
    pids = []
    master = None
    try:
        for attempt in range(SETUPS):
            started = time.perf_counter()
            master = PreforkServer(app, workers=1).start()
            # One request on one connection: the deadline has passed, so
            # the driver sends once and collects the reply.
            prober = client.HttpDriver(master.port, [[probe]], probe_check)
            try:
                replied = prober.run(0, client.Recorder())
            finally:
                prober.close()
            setups.append(time.perf_counter() - started)
            outcome.absorb(replied)
            if attempt < SETUPS - 1:
                master.stop()
                master = None
        # The kept instance served one probe; the client counts it.
        client_count = 1
        pids = [pid for worker in master.worker_pids()
                for pid in host.descendants(worker)]
        driver = client.HttpDriver(master.port, inputs.scripts, check)
        try:
            warm = driver.run(WARMUP_S, client.Recorder())
            measured = _measured(driver, seconds, pids, outcome)
        finally:
            driver.close()
        client_count += driver.completed
        for recorder in [warm, *measured]:
            outcome.absorb(recorder)
        report = master.stats()
        served = report["requests_served"]
        server = report["workers"][0].get("server", {})
        outcome.info["cache_hits"] = server.get("cache_hits", 0)
        outcome.info["cache_misses"] = server.get("cache_misses", 0)
        outcome.check(served == client_count,
                      f"server counted {served} requests, "
                      f"client {client_count}")
        rss = _rss_mb(pids)
    finally:
        if master is not None:
            master.stop()
    outcome.check(_wait_gone(pids), f"processes still alive: {pids}")
    outcome.info["processes"] = len(pids)
    outcome.info["response_bytes_per_request"] = round(
        sum(r.response_bytes for r in measured)
        / max(1, sum(r.attempted for r in measured)), 1)
    return setups, rss


def run_fleet(inputs, seconds, outcome):
    setups = []
    pids = []
    coordinator = None
    probe_key = next(iter(inputs.initial))
    try:
        for attempt in range(SETUPS):
            started = time.perf_counter()
            coordinator, tokens = apps.start_fleet(inputs.initial)
            value = coordinator.call(tokens[probe_key[0]], "get",
                                     probe_key[1])
            setups.append(time.perf_counter() - started)
            outcome.check(value == inputs.initial[probe_key],
                          f"setup probe returned {value!r}")
            if attempt < SETUPS - 1:
                coordinator.stop()
                coordinator = None
        pids = [pid for info in coordinator.stats()["hosts"].values()
                for pid in host.descendants(info["pid"])]
        driver = client.FleetDriver(coordinator, tokens, inputs.scripts[0],
                                    inputs.initial)
        warm = driver.run(WARMUP_S, client.Recorder())
        beats_before = coordinator.heartbeats_sent
        # The coordinator runs in this process, beside the caller.
        measured = _measured(driver, seconds, pids + [os.getpid()], outcome)
        beats = coordinator.heartbeats_sent - beats_before
        for recorder in [warm, *measured]:
            outcome.absorb(recorder)
        stats = coordinator.stats()
        outcome.check(not stats["evictions"],
                      f"hosts evicted under load: {stats['evictions']}")
        rss = _rss_mb(pids)
    finally:
        if coordinator is not None:
            coordinator.stop()
    outcome.check(_wait_gone(pids), f"processes still alive: {pids}")
    outcome.info["processes"] = len(pids)
    outcome.info["heartbeats_per_s"] = round(beats / seconds, 2)
    return setups, rss


def run(workload, seed, seconds):
    """One end-to-end run; returns an :class:`Outcome`."""
    inputs = gen.generate(workload, seed)
    outcome = Outcome(workload)
    outcome.info["inputs"] = gen.properties(inputs)
    return measure(inputs, seconds, outcome)


def measure(inputs, seconds, outcome):
    """Run already generated ``inputs`` (tests alter them first)."""
    shm_before = host.shm_segments()
    runner = run_fleet if inputs.workload == "fleet-call" else run_http
    setups, rss = runner(inputs, seconds, outcome)
    leaked = host.leaked_segments(shm_before)
    outcome.check(not leaked, f"leaked /dev/shm segments: {leaked}")
    metrics = outcome.metrics
    metrics["error_rate"] = {
        "value": outcome.failed / max(1, outcome.attempted),
        "unit": "share", "samples": outcome.attempted}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                          "samples": len(setups)}
    metrics["rss_mb"] = {"value": rss, "unit": "MB", "samples": 1}
    return outcome
