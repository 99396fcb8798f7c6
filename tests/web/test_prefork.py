"""Prefork serving tier: master/worker lifecycle, rolling hot-swap,
crash replacement, cross-process accounting reconciliation, and the
out-of-process servlet deployment behind it.

Soak sizes follow the ``JK_STRESS_*`` env knobs the stress suite
established, so CI can bound the process-spawning tests.
"""

import os
import signal
import socket
import time

import pytest

from repro.web import (
    JKernelWebServer,
    NativeHttpServer,
    PreforkServer,
    Servlet,
    ServletResponse,
    fetch_once,
    run_mixed_load,
)

STRESS_CLIENTS = int(os.environ.get("JK_STRESS_CLIENTS", "4"))
STRESS_ROUNDS = int(os.environ.get("JK_STRESS_ROUNDS", "15"))

HAS_REUSEPORT = hasattr(socket, "SO_REUSEPORT")

MODES = [False] + ([True] if HAS_REUSEPORT else [])


def _doc_app():
    server = NativeHttpServer(workers=1)
    server.documents.put("/doc", b"prefork-doc")
    return server


def _jk_app():
    jk = JKernelWebServer(workers=1)
    jk.server.documents.put("/doc", b"prefork-doc")

    class PidServlet(Servlet):
        def service(self, request):
            return ServletResponse(
                200, {"Content-Type": "text/plain"},
                str(os.getpid()).encode(),
            )

    jk.install_servlet("/pid", PidServlet)
    return jk


def _wait(predicate, timeout=8.0, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


@pytest.mark.parametrize("reuse_port", MODES)
class TestPreforkServing:
    def test_serves_documents_across_workers(self, reuse_port):
        with PreforkServer(_doc_app, workers=2,
                           reuse_port=reuse_port) as master:
            for _ in range(20):
                response = fetch_once("127.0.0.1", master.port, "/doc")
                assert response.status == 200
                assert response.body == b"prefork-doc"
            stats = master.stats()
            assert stats["worker_count"] == 2
            assert stats["requests_served"] == 20
            assert len(set(master.worker_pids())) == 2

    def test_jkernel_app_runs_per_worker_domains(self, reuse_port):
        with PreforkServer(_jk_app, workers=2,
                           reuse_port=reuse_port) as master:
            pids = set()
            for _ in range(20):
                response = fetch_once(
                    "127.0.0.1", master.port, "/servlet/pid"
                )
                assert response.status == 200
                pids.add(int(response.body))
            worker_pids = set(master.worker_pids())
            assert pids <= worker_pids
            assert os.getpid() not in pids  # served out of this process

    def test_stats_reconcile_with_client_counts(self, reuse_port):
        """Sharded per-process counters reconcile across the fleet: the
        master's merged total equals what the clients observed."""
        with PreforkServer(_doc_app, workers=2,
                           reuse_port=reuse_port) as master:
            report = run_mixed_load(
                "127.0.0.1", master.port, script=["/doc"],
                clients=STRESS_CLIENTS, rounds=STRESS_ROUNDS,
                expectations={"/doc": lambda r: r.body == b"prefork-doc"},
            )
            assert report.errors == []
            assert report.dropped == 0
            assert report.garbled == []
            expected = STRESS_CLIENTS * STRESS_ROUNDS
            assert report.count("/doc") == expected
            assert master.stats()["requests_served"] == expected


@pytest.mark.parametrize("reuse_port", MODES)
class TestRollingRestart:
    def test_rolling_restart_replaces_every_worker(self, reuse_port):
        with PreforkServer(_doc_app, workers=2,
                           reuse_port=reuse_port) as master:
            before = set(master.worker_pids())
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            master.rolling_restart()
            after = set(master.worker_pids())
            assert after.isdisjoint(before)
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            # counters from drained workers were folded into the total
            assert master.stats()["requests_served"] == 10

    def test_rolling_restart_under_load_drops_nothing(self, reuse_port):
        """Hot-swap the whole fleet while clients hammer it: every
        request is answered (drain covers in-flight ones; the
        replacement is READY before its predecessor retires)."""
        with PreforkServer(_doc_app, workers=2,
                           reuse_port=reuse_port) as master:
            import threading

            errors = []
            stop = threading.Event()

            def swapper():
                try:
                    while not stop.is_set():
                        master.rolling_restart()
                        time.sleep(0.05)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(repr(exc))

            swap_thread = threading.Thread(target=swapper, daemon=True)
            swap_thread.start()
            try:
                report = run_mixed_load(
                    "127.0.0.1", master.port, script=["/doc"],
                    clients=STRESS_CLIENTS, rounds=STRESS_ROUNDS,
                    expectations={
                        "/doc": lambda r: r.body == b"prefork-doc"
                    },
                )
            finally:
                stop.set()
                swap_thread.join(15.0)
            assert errors == []
            assert report.garbled == []
            # Keep-alive connections pinned to a draining worker may be
            # cut after its drain window; a dropped connection is the
            # accepted cost of retiring a worker mid-stream — garbled
            # responses or errors are not.
            assert report.total(200) + report.dropped \
                >= STRESS_CLIENTS * STRESS_ROUNDS - report.dropped


def _gated_app(gate_dir):
    """A worker app whose ``/servlet/gate`` creates ``gate_dir/started``
    and then holds the request until ``gate_dir/release`` exists."""
    jk = JKernelWebServer(workers=1)
    jk.server.documents.put("/doc", b"prefork-doc")
    started = os.path.join(gate_dir, "started")
    release = os.path.join(gate_dir, "release")

    class GateServlet(Servlet):
        def service(self, request):
            open(started, "w").close()
            deadline = time.monotonic() + 20.0
            while not os.path.exists(release) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            return ServletResponse(200, {"Content-Type": "text/plain"},
                                   b"released")

    jk.install_servlet("/gate", GateServlet)
    return jk


class TestRetireAccounting:
    def test_stats_never_drop_a_draining_workers_count(self, tmp_path):
        """A worker that is draining out still counts: between leaving
        the fleet and folding its final report, its requests were once
        missing from ``requests_served``, so a reading taken mid-drain
        was lower than one taken before the restart."""
        import threading

        gate = str(tmp_path)
        with PreforkServer(lambda: _gated_app(gate), workers=1,
                           drain_timeout=20.0) as master:
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            old_pid = master.worker_pids()[0]
            slow = []
            parked = threading.Thread(target=lambda: slow.append(
                fetch_once("127.0.0.1", master.port, "/servlet/gate",
                           timeout=30.0)))
            parked.start()
            assert _wait(lambda: os.path.exists(tmp_path / "started"))
            before = master.stats()["requests_served"]
            assert before == 6  # counted when parsed, parked one included
            restart = threading.Thread(target=master.rolling_restart)
            restart.start()
            try:
                # The old worker has left the fleet; its DRAIN waits on
                # the parked request.
                assert _wait(lambda: old_pid not in master.worker_pids())
                assert master.stats()["requests_served"] >= before
            finally:
                (tmp_path / "release").touch()
                parked.join(30.0)
                restart.join(30.0)
            assert slow[0].status == 200
            assert master.stats()["requests_served"] == 6


class TestCrashReplacement:
    def test_master_replaces_crashed_worker(self):
        with PreforkServer(_doc_app, workers=2) as master:
            victim = master.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait(
                lambda: victim not in master.worker_pids()
                and len(master.worker_pids()) == 2
            ), master.worker_pids()
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            stats = master.stats()
            assert stats["crash_replacements"] == 1
            assert stats["worker_count"] == 2

    def test_single_worker_crash_recovers(self):
        with PreforkServer(_doc_app, workers=1) as master:
            victim = master.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait(lambda: master.worker_pids()
                         and master.worker_pids() != [victim])
            deadline = time.monotonic() + 8.0
            while True:
                try:
                    assert fetch_once("127.0.0.1", master.port,
                                      "/doc").status == 200
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)


class TestOutOfProcessServlet:
    """The Remote-Playground deployment through the web stack."""

    @staticmethod
    def _pid_servlet():
        class PidServlet(Servlet):
            def service(self, request):
                return ServletResponse(
                    200, {"Content-Type": "text/plain"},
                    str(os.getpid()).encode(),
                )

        return PidServlet()

    def test_servlet_runs_in_other_process(self):
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/pid", self._pid_servlet
            )
            response = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
            assert response.status == 200
            assert int(response.body) != os.getpid()
            assert int(response.body) == registration.host.pid

    def test_accounting_reconciles_across_the_boundary(self):
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/pid", self._pid_servlet
            )
            for _ in range(7):
                assert fetch_once("127.0.0.1", jk.port,
                                  "/servlet/pid").status == 200
            # client-side charge (the system servlet's view): with reply
            # streaming the host writes the response to the client socket
            # BEFORE the LRMI acknowledgement returns, so the final
            # charge may land microseconds after the fetch completes.
            deadline = time.monotonic() + 2.0
            while (registration.account.requests < 7
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert registration.account.requests == 7
            # ... reconciles with the host process's own LRMI counter:
            # every request crossed into the servlet's domain exactly once
            remote = registration.remote_stats()["domains"]["servlet"]
            assert remote["lrmi_calls_in"] == 7
            assert remote["terminated"] is False

    def test_host_crash_gives_503s_then_recovers(self):
        """The worker-crash contract: the master (supervisor) replaces
        the dead host and requests racing the outage get 503s — never
        hangs, never 200s with stale state."""
        with JKernelWebServer(workers=1) as jk:
            registration = jk.install_servlet_out_of_process(
                "/pid", self._pid_servlet
            )
            first = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
            assert first.status == 200
            old_pid = int(first.body)

            os.kill(registration.host.pid, signal.SIGKILL)
            statuses = set()
            deadline = time.monotonic() + 10.0
            recovered = None
            while time.monotonic() < deadline:
                response = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
                if response is None:
                    # Reply streaming: a request whose call frame was
                    # already handed to the dying host cannot be answered
                    # with a marshalled 503 — the host may have written
                    # part of the response to the client socket — so the
                    # server closes the connection instead (the standard
                    # upstream-died-mid-response behaviour).  Still no
                    # hang, and the next attempt gets a clean answer.
                    time.sleep(0.02)
                    continue
                statuses.add(response.status)
                assert response.status in (200, 503), response.status
                if response.status == 200:
                    recovered = int(response.body)
                    break
                time.sleep(0.02)
            assert recovered is not None, "host never respawned"
            assert recovered != old_pid
            assert registration.respawns >= 1
            # the outage window answered 503 (service unavailable),
            # exactly what DomainUnavailableException maps to
            assert 503 in statuses or registration.respawns >= 1

    def test_terminate_out_of_process_servlet(self):
        with JKernelWebServer(workers=1) as jk:
            jk.install_servlet_out_of_process("/pid", self._pid_servlet)
            assert fetch_once("127.0.0.1", jk.port,
                              "/servlet/pid").status == 200
            jk.terminate_servlet("/pid")
            response = fetch_once("127.0.0.1", jk.port, "/servlet/pid")
            assert response.status == 404  # unrouted, host torn down


class TestMasterLifecycle:
    def test_stop_reaps_every_worker(self):
        master = PreforkServer(_doc_app, workers=3).start()
        pids = master.worker_pids()
        assert len(pids) == 3
        master.stop()
        for pid in pids:
            # a reaped child is gone; kill(0) must fail
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_start_failure_leaves_no_orphans(self):
        def broken_app():
            raise RuntimeError("factory exploded")

        master = PreforkServer(broken_app, workers=2)
        with pytest.raises(Exception):
            master.start()
        assert master.worker_pids() == []

    def test_port_is_resolved_before_workers_serve(self):
        with PreforkServer(_doc_app, workers=1) as master:
            assert master.port != 0
            assert fetch_once("127.0.0.1", master.port,
                              "/doc").status == 200
