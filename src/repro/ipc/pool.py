"""The pooled call core both cross-process clients share.

:class:`~repro.ipc.ntrpc.RpcClient` and :class:`~repro.ipc.lrmi.DomainClient`
keep only their framing, dispatch and error types.  The discipline
around each round trip lives here once: the checkout probe, the
whole-call deadline, one fresh-dial retry when a reused connection dies
under a call, and bounded backoff retry of idempotent work that never
sleeps past the deadline.  The rules are spelled out in
``docs/robustness-notes.md`` ("Pooled clients").
"""

from __future__ import annotations

import select
import socket
import threading
import time

#: Per-operation socket timeout: generous enough for a loaded host or a
#: slow servlet, small enough that a wedged peer cannot hang its callers.
CALL_TIMEOUT = 30.0

#: A connection released within this many seconds skips the checkout
#: probe: probing a socket that was alive microseconds ago spends a
#: syscall to learn nothing, and the fresh-dial retry covers the window.
PROBE_FRESH_S = 0.005

#: Idle connections kept per client.
POOL_SIZE = 4


def probe(sock, idle_bytes_ok):
    """True when an idle pooled ``sock`` may be reused: nothing to read,
    or (where the transport allows it) data rather than EOF."""
    try:
        if not select.select([sock], [], [], 0)[0]:
            return True
        return idle_bytes_ok and bool(sock.recv(1, socket.MSG_PEEK))
    except (OSError, ValueError):
        return False


def arm(sock, deadline_at):
    """Bound the next blocking operation on ``sock`` by the call deadline
    (a ``time.monotonic`` instant, or None); raises ``socket.timeout``
    once it has passed."""
    if deadline_at is None:
        return
    remaining = deadline_at - time.monotonic()
    if remaining <= 0:
        raise socket.timeout("call deadline exceeded")
    if remaining < CALL_TIMEOUT:
        sock.settimeout(remaining)


class Connection:
    """A pooled socket with no protocol state of its own.  Transports
    may pool any object with ``sock``, ``closed`` and ``close()``."""

    def __init__(self, sock):
        self.sock = sock
        self.closed = False

    def close(self):
        self.closed = True
        self.sock.close()


class PooledClient:
    """Base of the pooled clients: checkout, release, deadline, retry.

    Subclasses set four class constants: ``IDLE_BYTES_OK`` (whether bytes
    waiting on an idle connection are legal or a broken peer),
    ``Unavailable`` and its deadline-expiry subclass ``Deadline`` (the
    transport's typed errors), and ``PEER`` (names the server in dial
    errors).  Each round trip is an ``invoke(connection, deadline_at)``
    callable run by :meth:`_call`; an invoke that fails in transport
    closes its connection and raises ``Unavailable`` (``Deadline`` on
    expiry).
    """

    def __init__(self, path, call_deadline=None, retries=0, backoff=0.05):
        if call_deadline is not None and call_deadline <= 0:
            raise ValueError("call_deadline must be positive or None")
        self.path = path
        self.call_deadline = call_deadline
        self.retries = retries
        self.backoff = backoff
        self._free = []  # (connection, released_at), most recent last
        self._lock = threading.Lock()
        self._closed = False
        self.evicted = 0  # dead pooled connections dropped at checkout

    def _wrap(self, sock):
        return Connection(sock)

    def _dial(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(CALL_TIMEOUT)
        try:
            sock.connect(self.path)
        except OSError as exc:
            sock.close()
            raise self.Unavailable(
                f"cannot reach {self.PEER} at {self.path}: {exc}") from None
        return self._wrap(sock)

    def _checkout(self):
        """``(connection, reused)``; ``reused`` marks a pooled one, whose
        probe answer is only a snapshot."""
        if self._closed:
            raise self.Unavailable(f"{self.PEER} client closed")
        while True:
            with self._lock:
                if not self._free:
                    break
                connection, released_at = self._free.pop()
            if (time.monotonic() - released_at < PROBE_FRESH_S
                    or probe(connection.sock, self.IDLE_BYTES_OK)):
                return connection, True
            with self._lock:
                self.evicted += 1
            connection.close()
        return self._dial(), False

    def _release(self, connection, deadline_at=None):
        if connection.closed:
            return
        if deadline_at is not None:
            connection.sock.settimeout(CALL_TIMEOUT)  # undo arm()
        with self._lock:
            if not self._closed and len(self._free) < POOL_SIZE:
                self._free.append((connection, time.monotonic()))
                return
        connection.close()

    def _deadline_at(self, deadline=None):
        limit = self.call_deadline if deadline is None else deadline
        return None if limit is None else time.monotonic() + limit

    def _call(self, invoke, deadline=None, retry=False):
        """Run ``invoke`` under the whole discipline; ``retry`` marks the
        work idempotent.  Each backoff attempt checks out afresh, so
        retries bridge a server restart."""
        deadline_at = self._deadline_at(deadline)
        if not (retry and self.retries):
            return self._attempt(invoke, deadline_at)
        delay = self.backoff
        for _ in range(self.retries):
            try:
                return self._attempt(invoke, deadline_at)
            except self.Deadline:
                raise
            except self.Unavailable:
                if self._closed:
                    raise
                pause = min(delay, 1.0)
                if deadline_at is not None:
                    pause = min(pause, deadline_at - time.monotonic())
                    if pause <= 0:
                        raise
                time.sleep(pause)
                delay *= 2
        return self._attempt(invoke, deadline_at)

    def _attempt(self, invoke, deadline_at):
        connection, reused = self._checkout()
        try:
            return invoke(connection, deadline_at)
        except self.Deadline:
            raise
        except self.Unavailable:
            # Only a reused connection that the failure killed is the
            # probe's stale snapshot; anything else is current state.
            if not reused or not connection.closed or (
                    deadline_at is not None
                    and time.monotonic() >= deadline_at):
                raise
            connection = self._dial()
            return invoke(connection, deadline_at)
        finally:
            self._release(connection, deadline_at)

    def _drain(self):
        """Close the idle connections."""
        with self._lock:
            free, self._free = self._free, []
        for connection, _ in free:
            connection.close()

    def close(self):
        """Refuse further calls; checked-out connections close on release."""
        self._closed = True
        self._drain()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
