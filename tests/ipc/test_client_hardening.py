"""DomainClient robustness: pooled-connection health checks on checkout,
per-call deadlines, and bounded retry-with-backoff for idempotent calls.

The regression this pins down: a pooled connection whose peer died while
it sat idle (host crash, host restart) used to be handed straight to the
next caller, which then burned a full transport error on a socket that
was *known* dead.  Checkout now validates with a zero-timeout peek —
evicting EOF'd sockets while keeping ones that merely have a revocation
broadcast queued.
"""

import os
import signal
import time

import pytest

from repro.core import (
    Capability,
    Domain,
    DomainUnavailableException,
    Remote,
    RevokedException,
)
from repro.ipc import (
    DomainHostProcess,
    RpcClient,
    RpcServerProcess,
    RpcTransportError,
    connect,
    pool,
)
from repro.ipc.lrmi import IDEMPOTENT_CONTROL, DomainClient


class IEcho(Remote):
    def echo(self, text): ...
    def nap(self, seconds): ...


class EchoImpl(IEcho):
    def echo(self, text):
        return text

    def nap(self, seconds):
        time.sleep(seconds)
        return "rested"


def _echo_setup():
    domain = Domain("hardening-server")
    cap = domain.run(lambda: Capability.create(EchoImpl(), label="echo"))
    return {"echo": cap, "victim": domain.run(
        lambda: Capability.create(EchoImpl(), label="victim"))}


@pytest.fixture()
def host():
    host = DomainHostProcess(_echo_setup, name="hardening").start()
    yield host
    host.stop()


class TestCheckoutHealthCheck:
    def test_dead_pooled_connections_are_evicted(self, host):
        client = connect(host)
        proxy = client.lookup("echo")
        assert proxy.echo("hi") == "hi"
        assert len(client._free) >= 1
        # Kill the host: every pooled connection is now half-dead.
        os.kill(host.pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while host.alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)  # let the kernel deliver the EOFs
        with pytest.raises(DomainUnavailableException):
            proxy.echo("again")
        # The stale socket was dropped at checkout, not burned mid-call.
        assert client.evicted >= 1
        client.close()

    def test_restarted_host_is_reached_through_fresh_connections(self, host):
        client = connect(host)
        proxy = client.lookup("echo")
        assert proxy.echo("one") == "one"
        os.kill(host.pid, signal.SIGKILL)
        while host.alive():
            time.sleep(0.01)
        time.sleep(0.05)
        host.start()  # restart-in-place: same socket path
        # The pool's stale connection is evicted and a fresh one dialed;
        # the re-looked-up capability works without client surgery.
        fresh = client.lookup("echo")
        assert fresh.echo("two") == "two"
        assert client.evicted >= 1
        client.close()

    def test_pending_broadcast_does_not_evict(self, host):
        """A readable pooled socket holding a revocation broadcast is
        HEALTHY — eviction must key on EOF, not on readability."""
        client = connect(host)
        victim = client.lookup("victim")
        echo = client.lookup("echo")
        assert echo.echo("warm") == "warm"
        evicted_before = client.evicted
        # Revoke server-side: the broadcast lands on the idle pooled
        # connection while nobody is reading it.
        client.control("revoke", victim._export_id)
        time.sleep(0.1)
        assert echo.echo("after") == "after"
        assert client.evicted == evicted_before
        with pytest.raises(RevokedException):
            victim.echo("dead")
        client.close()

    def test_closed_client_refuses_checkout(self, host):
        client = connect(host)
        client.close()
        with pytest.raises(DomainUnavailableException):
            client.stats()


class TestCallDeadlines:
    def test_deadline_bounds_a_slow_call(self, host):
        client = connect(host, call_deadline=0.3)
        proxy = client.lookup("echo")
        start = time.monotonic()
        with pytest.raises(DomainUnavailableException):
            proxy.nap(5.0)
        assert time.monotonic() - start < 2.0
        client.close()

    def test_fast_calls_unaffected_by_deadline(self, host):
        client = connect(host, call_deadline=5.0)
        proxy = client.lookup("echo")
        for _ in range(10):
            assert proxy.echo("quick") == "quick"
        assert client.stats()["pid"] == host.pid
        client.close()


class TestIdempotentRetry:
    def test_control_verbs_are_declared_idempotent(self):
        assert {"lookup", "stats", "ping"} <= IDEMPOTENT_CONTROL
        assert "terminate" not in IDEMPOTENT_CONTROL
        assert "revoke" not in IDEMPOTENT_CONTROL

    def test_lookup_retries_through_a_host_restart(self, host):
        client = connect(host, retries=20, backoff=0.05)
        assert client.lookup("echo").echo("pre") == "pre"
        os.kill(host.pid, signal.SIGKILL)
        while host.alive():
            time.sleep(0.01)

        # Restart the host concurrently with the retrying lookup: the
        # client's backoff loop must bridge the outage window.
        import threading

        def respawn():
            time.sleep(0.2)
            host.start()

        spawner = threading.Thread(target=respawn)
        spawner.start()
        try:
            proxy = client.lookup("echo")
            assert proxy.echo("post") == "post"
        finally:
            spawner.join()
            client.close()

    def test_non_idempotent_methods_do_not_retry(self, host):
        client = connect(host, retries=5, backoff=0.01)
        proxy = client.lookup("echo")
        assert proxy.echo("up") == "up"
        os.kill(host.pid, signal.SIGKILL)
        while host.alive():
            time.sleep(0.01)
        start = time.monotonic()
        with pytest.raises(DomainUnavailableException):
            proxy.echo("down")  # echo not declared idempotent: one shot
        assert time.monotonic() - start < 1.0
        client.close()

    def test_declared_idempotent_methods_retry(self, host):
        client = DomainClient(host.path, retries=3, backoff=0.01,
                              idempotent=("echo",))
        proxy = client.lookup("echo")
        assert proxy.echo("fine") == "fine"  # retry path, healthy host
        client.close()

    def test_retries_stop_at_the_deadline(self, host):
        client = connect(host, retries=50, backoff=0.2, call_deadline=0.5)
        os.kill(host.pid, signal.SIGKILL)
        while host.alive():
            time.sleep(0.01)
        start = time.monotonic()
        with pytest.raises(DomainUnavailableException):
            client.stats()
        assert time.monotonic() - start < 3.0
        client.close()


def _killed(process):
    os.kill(process.pid, signal.SIGKILL)
    while process.alive():
        time.sleep(0.01)


@pytest.mark.parametrize("transport", ["lrmi", "ntrpc"])
def test_backoff_never_sleeps_past_the_deadline(request, transport):
    """Both pooled clients cap each backoff pause at the time left: with
    a 0.4 s first pause and a 0.5 s deadline, a dead server's typed
    error arrives at the deadline, not after the 0.4 + 0.8 s schedule."""
    options = dict(retries=50, backoff=0.4, call_deadline=0.5)
    if transport == "lrmi":
        server = request.getfixturevalue("host")
        client = connect(server, **options)
        call, error = client.stats, DomainUnavailableException
    else:
        server = RpcServerProcess({"echo": lambda p: p}).start()
        request.addfinalizer(server.stop)
        client = RpcClient(server.path, **options)
        call, error = (lambda: client.call("echo")), RpcTransportError
    try:
        call()  # pools a live connection
        _killed(server)
        start = time.monotonic()
        with pytest.raises(error):
            call()
        assert time.monotonic() - start < 0.5 + 0.25
    finally:
        client.close()


class TestPooledSocketToctou:
    """The reused-socket TOCTOU window (ported from ntrpc, PR 7): the
    checkout probe can pass and the host die before the send — the
    probe's answer is stale the moment it returns."""

    def test_blinded_probe_still_recovers_via_fresh_dial(self, host,
                                                         monkeypatch):
        """With the health probe blinded (simulating the probe-then-die
        race exactly), a NON-idempotent call on the stale pooled socket
        must transparently retry once on a freshly dialed connection —
        with ``retries=0``, proving the one-shot fresh-dial retry in
        the pool is independent of the idempotent-retry budget."""
        client = connect(host)
        assert client.retries == 0
        proxy = client.lookup("echo")
        assert proxy.echo("warm") == "warm"  # pools a live connection
        os.kill(host.pid, signal.SIGKILL)
        while host.alive():
            time.sleep(0.01)
        host.start()  # restart-in-place: same socket path, live again
        # Recreate the export in the replacement host through a second
        # client (export ids are assigned at lookup; the fresh kernel
        # hands out the same first id) — the first client's pooled
        # socket stays stale and untouched.
        other = connect(host)
        assert other.lookup("echo")._export_id == proxy._export_id
        other.close()
        # Blind the probe: checkout hands out the dead pooled socket,
        # exactly as if the host had died between probe and send.
        monkeypatch.setattr(pool, "probe",
                            lambda sock, idle_bytes_ok: True)
        evicted_before = client.evicted
        assert proxy.echo("back") == "back"
        # The save came from the fresh-dial retry, not from eviction.
        assert client.evicted == evicted_before
        client.close()

    def test_timed_out_reused_call_never_retries(self, host):
        """The discriminator: a deadline expiry on a reused connection
        must NOT redial — the time is spent, and replaying a
        non-idempotent call after a timeout could execute it twice."""
        client = connect(host, call_deadline=0.4)
        proxy = client.lookup("echo")
        assert proxy.echo("warm") == "warm"
        start = time.monotonic()
        with pytest.raises(DomainUnavailableException):
            proxy.nap(5.0)  # runs past the deadline on a reused socket
        assert time.monotonic() - start < 2.0
        client.close()
