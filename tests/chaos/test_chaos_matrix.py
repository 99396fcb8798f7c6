"""The fault-injection matrix (the robustness acceptance gate).

Every scenario injects a fault into the ipc/prefork layers and asserts
*totality*: the client observes a typed error or a successfully retried
call within its deadline — never a hang — and the fleet's accounting
still reconciles afterwards.

Scenarios:

* worker crash mid-pipeline — a prefork worker dies between receiving a
  control message and acting on it; the master replaces it and serving
  continues;
* host crash mid-LRMI — a domain host dies after executing a call but
  before replying; the caller's bounded retry bridges the restart;
* wire delay beyond the deadline — every framed send stalls; calls end
  in a typed error at the deadline, not a hang;
* send faults (drop / partial write) — transport failures surface as
  the usual typed errors;
* shed under burst — an admission-bounded server answers a burst with
  clean 200s and parse-boundary 503s (Retry-After), nothing garbled;
* quota kill — an over-budget tenant is throttled, then cleanly
  terminated, while its neighbour keeps being served and every request
  remains accounted for.
"""

import threading
import time

import pytest

from repro.core import (
    Capability,
    Domain,
    DomainUnavailableException,
    Remote,
    RevokedException,
    get_accountant,
)
from repro.core.quota import HARD, QuotaSpec
from repro.ipc import DomainHostProcess, connect
from repro.testing.chaos import ChaosConfig, install, uninstall
from repro.web import (
    JKernelWebServer,
    PreforkServer,
    Servlet,
    ServletResponse,
    fetch_once,
)

pytestmark = pytest.mark.timeout(90)


class IEcho(Remote):
    def echo(self, text): ...


class EchoImpl(IEcho):
    def echo(self, text):
        return text


def _echo_setup():
    domain = Domain("chaos-host")
    return {"echo": domain.run(
        lambda: Capability.create(EchoImpl(), label="echo"))}


def _wait(predicate, timeout=8.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


class TestWorkerCrashMidPipeline:
    def test_master_replaces_crashed_workers_and_serving_continues(
            self, chaos):
        def app():
            from repro.web import NativeHttpServer

            server = NativeHttpServer(workers=1)
            server.documents.put("/doc", b"alive")
            return server

        install(ChaosConfig(crash_at=("prefork.worker.message",),
                            scope="child"))
        with PreforkServer(app, workers=2) as master:
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            # A STATS poll walks every worker into the crash point.
            stats = master.stats()
            assert all(report.get("stale") for report in stats["workers"])
            # Future forks must come up clean.
            uninstall()
            assert _wait(lambda: master.stats()["crash_replacements"] >= 2)
            for _ in range(5):
                assert fetch_once("127.0.0.1", master.port,
                                  "/doc").status == 200
            final = master.stats()
            assert final["worker_count"] == 2
            assert not any(r.get("stale") for r in final["workers"])
            # Reconciliation: only post-crash requests are observable
            # live (the crashed workers' last reports were retained),
            # and the total never goes backwards.
            assert final["requests_served"] >= 5


class TestHostCrashMidCall:
    def test_bounded_retry_bridges_a_host_restart(self, chaos):
        install(ChaosConfig(crash_at=("lrmi.host.dispatch",),
                            scope="child"))
        host = DomainHostProcess(_echo_setup, name="crashy").start()
        client = connect(host, retries=40, backoff=0.05,
                         idempotent=("echo",))
        try:
            proxy = client.lookup("echo")

            def respawn():
                _wait(lambda: not host.alive(), timeout=5.0)
                uninstall()     # the replacement forks clean
                host.start()    # restart-in-place on the same path

            spawner = threading.Thread(target=respawn)
            spawner.start()
            # The dispatch executes, then the host dies pre-reply.  The
            # retry loop dials through the outage until it reaches the
            # respawned host — which correctly refuses the old export id
            # (domain death revokes its capabilities) instead of hanging.
            with pytest.raises(RevokedException):
                proxy.echo("survivor")
            spawner.join()
            # A fresh lookup on the restarted host serves again.
            assert client.lookup("echo").echo("second") == "second"
        finally:
            client.close()
            host.stop()

    def test_without_retry_the_crash_is_a_typed_error(self, chaos):
        install(ChaosConfig(crash_at=("lrmi.host.dispatch",),
                            scope="child"))
        host = DomainHostProcess(_echo_setup, name="crashy2").start()
        client = connect(host)
        try:
            proxy = client.lookup("echo")
            start = time.monotonic()
            with pytest.raises(DomainUnavailableException):
                proxy.echo("doomed")
            assert time.monotonic() - start < 5.0
        finally:
            client.close()
            host.stop()


class TestHostCrashMidGrant:
    def test_killed_host_mid_grant_is_typed_and_leaks_no_region(
            self, chaos, monkeypatch):
        """A payload large enough to ride the shared-memory bulk ring is
        granted to a host that dies before replying: the caller gets a
        typed error within its deadline (never a hang), and after the
        client closes, no shared-memory segment survives — both ends
        unlink by name, idempotently, so the survivor reclaims the
        region the dead host can no longer release."""
        import os as _os

        shm_dir = "/dev/shm"
        names_before = (set(_os.listdir(shm_dir))
                        if _os.path.isdir(shm_dir) else None)
        from repro.ipc import lrmi, shm
        monkeypatch.setattr(lrmi, "SHM_THRESHOLD", 2048)  # pre-fork
        install(ChaosConfig(crash_at=("lrmi.host.dispatch",),
                            scope="child"))
        host = DomainHostProcess(_echo_setup, name="grant-crash").start()
        client = connect(host)
        try:
            proxy = client.lookup("echo")
            big = b"g" * 5000  # over SHM_THRESHOLD: travels as a grant
            start = time.monotonic()
            with pytest.raises(DomainUnavailableException):
                proxy.echo(big)
            assert time.monotonic() - start < 5.0
        finally:
            client.close()
            host.stop()
        uninstall()
        assert _wait(lambda: not host.alive(), timeout=5.0)
        if names_before is not None:
            leaked = {name for name in set(_os.listdir(shm_dir)) - names_before
                      if name.startswith(shm.RING_PREFIX)}
            assert not leaked, f"shared-memory segments leaked: {leaked}"


class ISealer(Remote):
    def make_region(self, size): ...


class SealerImpl(ISealer):
    def make_region(self, size):
        from repro.core import seal

        return seal(b"r" * size)


def _sealer_setup():
    domain = Domain("sealer-host")
    return {"sealer": domain.run(
        lambda: Capability.create(SealerImpl(), label="sealer"))}


class TestHostCrashMidSeal:
    def test_sigkill_between_segment_and_grant_leaks_no_region(
            self, chaos):
        """The worst window for region lifecycle discipline: the host
        dies AFTER creating a region segment but BEFORE any grant
        leaves — no peer knows the name, no finalizer will ever run.
        The caller gets a typed error within its deadline, and the
        supervisor's ``purge_pid`` half of the both-end unlink reclaims
        the orphan by its deterministic ``jkr<pid>g<seq>`` name when the
        host is stopped."""
        import os as _os
        import time as _time

        install(ChaosConfig(crash_at=("regions.seal",), scope="child"))
        host = DomainHostProcess(_sealer_setup, name="seal-crash").start()
        client = connect(host)
        host_pid = host.pid
        try:
            proxy = client.lookup("sealer")
            start = _time.monotonic()
            with pytest.raises(DomainUnavailableException):
                proxy.make_region(65536)
            assert _time.monotonic() - start < 5.0
        finally:
            client.close()
            host.stop()  # purges the dead host's regions by name
        uninstall()
        assert _wait(lambda: not host.alive(), timeout=5.0)
        shm_dir = "/dev/shm"
        if _os.path.isdir(shm_dir):
            leaked = [name for name in _os.listdir(shm_dir)
                      if name.startswith(f"jkr{host_pid}g")]
            assert not leaked, f"region segments leaked: {leaked}"


class TestWireDelayBeyondDeadline:
    def test_call_ends_in_typed_error_at_the_deadline(self, chaos):
        host = DomainHostProcess(_echo_setup, name="slowwire").start()
        client = connect(host, call_deadline=0.25)
        try:
            proxy = client.lookup("echo")  # healthy warm-up
            assert proxy.echo("warm") == "warm"
            install(ChaosConfig(wire_delay_s=0.6))
            start = time.monotonic()
            with pytest.raises(DomainUnavailableException):
                proxy.echo("late")
            assert time.monotonic() - start < 5.0
        finally:
            uninstall()
            client.close()
            host.stop()

    @pytest.mark.parametrize("fault", ["drop", "partial"])
    def test_send_faults_surface_as_typed_errors(self, chaos, fault):
        host = DomainHostProcess(_echo_setup, name=f"wire-{fault}").start()
        client = connect(host)
        try:
            proxy = client.lookup("echo")
            assert proxy.echo("warm") == "warm"
            install(ChaosConfig(drop_rate=1.0) if fault == "drop"
                    else ChaosConfig(partial_write=1.0))
            with pytest.raises(DomainUnavailableException):
                proxy.echo("never")
            uninstall()
            # A fresh connection serves again: the failure was contained
            # to the faulted transport, not the client.
            assert proxy.echo("recovered") == "recovered"
        finally:
            uninstall()
            client.close()
            host.stop()


class _SlowServlet(Servlet):
    def service(self, request):
        time.sleep(0.02)
        return ServletResponse(200, {"Content-Type": "text/plain"}, b"ok")


class _QuickServlet(Servlet):
    def service(self, request):
        return ServletResponse(200, {"Content-Type": "text/plain"},
                               b"quick")


class TestShedUnderBurst:
    def test_burst_yields_clean_200s_and_503s_only(self):
        from repro.web.control import AdmissionController

        jk = JKernelWebServer(
            workers=1,
            # Pooled dispatch: the loop keeps admitting while the pool
            # works, so the in-flight gauge actually sees the burst.
            bridge_inline=False,
            admission=AdmissionController(max_inflight=4,
                                          shed_threshold=0.25),
        )
        jk.install_servlet("/slow", _SlowServlet)
        statuses = []
        lock = threading.Lock()

        def hammer():
            for _ in range(10):
                try:
                    response = fetch_once("127.0.0.1", jk.port,
                                          "/servlet/slow/x")
                except OSError:
                    continue
                with lock:
                    statuses.append(
                        (response.status,
                         response.headers.get("retry-after"))
                    )

        with jk:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = jk.stats()
        codes = {status for status, _ in statuses}
        assert codes <= {200, 503}
        assert 200 in codes
        sheds = [s for s in statuses if s[0] == 503]
        assert sheds, "the burst never tripped the shed path"
        assert all(retry == "1" for _, retry in sheds)
        assert stats["admission"]["shed"] >= len(sheds)
        assert stats["admission"]["in_flight"] == 0


class TestQuotaKill:
    def test_over_budget_tenant_is_terminated_neighbour_unharmed(self):
        jk = JKernelWebServer(
            workers=1,
            quotas={"/greedy": QuotaSpec(requests_per_sec=30,
                                         soft_fraction=0.5)},
        )
        jk.install_servlet("/greedy", _QuickServlet)
        jk.install_servlet("/meek", _QuickServlet)
        retired_before = get_accountant().retired_totals()["requests"]

        with jk:
            served = 0
            deadline = time.monotonic() + 10.0
            while not jk.quota_kills and time.monotonic() < deadline:
                response = fetch_once("127.0.0.1", jk.port,
                                      "/servlet/greedy/x")
                if response.status == 200:
                    served += 1
            assert _wait(lambda: jk.quota_kills, timeout=5.0)
            prefix, breached, _at = jk.quota_kills[0]
            assert prefix == "/greedy"
            assert breached[0] == "requests_per_sec"
            assert jk.quota.cell("/greedy").state == HARD
            # Teardown went through the clean path: unrouted, domain
            # terminated, account folded.
            assert _wait(lambda: "/greedy" not in jk.registrations(),
                         timeout=5.0)
            after = fetch_once("127.0.0.1", jk.port, "/servlet/greedy/x")
            assert after.status in (404, 503)
            # The neighbour never noticed.
            meek = fetch_once("127.0.0.1", jk.port, "/servlet/meek/x")
            assert meek.status == 200 and meek.body == b"quick"

        # Accounting reconciles exactly: every 200 the greedy tenant's
        # clients saw is in the retired totals now (its domain died).
        assert _wait(
            lambda: get_accountant().retired_totals()["requests"]
            - retired_before >= served,
            timeout=5.0,
        )

    def test_soft_breach_throttles_before_the_wall(self):
        jk = JKernelWebServer(
            workers=1,
            quotas={"/warm": QuotaSpec(cpu_ticks=10**9,
                                       soft_fraction=1e-9)},
        )
        jk.install_servlet("/warm", _QuickServlet)
        with jk:
            assert fetch_once("127.0.0.1", jk.port,
                              "/servlet/warm/x").status == 200
            # One request's CPU charge crosses the (tiny) soft line.
            assert _wait(
                lambda: jk.quota.admit("/warm") == "soft", timeout=5.0)
            report = jk.stats()["quotas"]
            assert report["/warm"]["state"] == "soft"
            assert "/warm" in jk.quota.throttled_keys()
            # Still served: soft throttling is priority, not a wall.
            assert fetch_once("127.0.0.1", jk.port,
                              "/servlet/warm/x").status == 200
