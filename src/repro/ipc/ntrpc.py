"""Local RPC between real OS processes (the NT-RPC analogue, Table 2).

A server process listens on a Unix-domain socket and dispatches framed
requests to registered handlers; a client makes synchronous calls.  Every
call crosses a genuine process boundary twice — the cost the paper's
Table 2 contrasts with in-process calls (a factor of ~3000).

Beyond the Table 2 microbenchmark, this transport is what the fleet
coordinator (``repro.fleet``) speaks to remote hosts, so it carries the
same hardening the cross-process LRMI client grew in PR 6:

* **typed errors** — every failure surfaces as an :class:`RpcError`
  subclass: :class:`RpcTransportError` (dial/framing/connection loss),
  :class:`RpcDeadlineError` (whole-call deadline expiry),
  :class:`RpcMethodNotFound` and :class:`RpcHandlerError` (the remote
  handler raised).  Nothing is silently swallowed: the server counts and
  reports transport failures instead of ``pass``-ing them.
* **per-call deadlines** — ``call_deadline=`` (or a per-call
  ``deadline=``) bounds the whole round trip; expiry raises
  :class:`RpcDeadlineError`, never a hang.
* **checkout health + bounded retry** — the client re-validates its
  pooled socket before each call (EOF or unexpected bytes on an idle
  strict request/reply connection mean the peer died) and, when
  configured, retries transport failures with exponential backoff —
  the same machinery :class:`repro.ipc.lrmi.DomainClient` uses to
  bridge host respawns.
* **heartbeat liveness** — every server answers :data:`PING_METHOD`
  (``__ping__``) from the serve loop itself, so a ping proves the
  dispatch path is alive, not merely that the process holds the socket.
* **graceful stop** — :meth:`RpcServer.stop` closes the listener and
  every live connection, joins the serving threads, and unlinks the
  socket path (binding also unlinks a stale path left by a crashed
  predecessor).
* **one supervisor** — :class:`RpcServerProcess` is a
  :class:`~repro.ipc.child.ChildProcess`: ``start()`` returns once the
  child reports READY on its control channel, a bind failure raises
  :class:`RpcTransportError` carrying the child's error, and the server
  exits when its parent dies (EOF on the channel).

Fault injection: the chaos harness (``repro.testing.chaos``) installs
``_chaos`` here to model network **partitions** between named endpoints
(both directions refused at the calling edge) and **heartbeat loss**
(pings dropped while data calls still flow); see
``ChaosConfig.partition`` / ``JK_CHAOS_PARTITION``.
"""

from __future__ import annotations

import os
import select
import socket
import threading
import time

from .child import ChildProcess, socket_path
from .wire import MAX_FRAME, WireError, recv_exact, recv_frame, send_frame

_OK = 0
_ERR = 1

#: Error kinds carried inside an ``_ERR`` payload as ``kind\x00detail``.
_KIND_APP = b"app"
_KIND_UNKNOWN = b"unknown"

#: Reserved liveness method every :class:`RpcServer` answers itself.
PING_METHOD = "__ping__"

#: Default per-socket-operation timeout: generous enough for a loaded
#: host, small enough that a wedged peer cannot hang its callers.
CALL_TIMEOUT = 30.0

#: Fault-injection hook (``repro.testing.chaos``); None in production.
_chaos = None


class RpcError(Exception):
    """Remote handler raised, or the transport failed (base class)."""


class RpcTransportError(RpcError):
    """The transport failed: dial refused, framing violated, or the
    connection died mid-call.  Retryable when the caller opted in."""


class RpcDeadlineError(RpcTransportError):
    """The whole-call deadline expired.  Never retried internally: the
    deadline bounds the *total* time the caller is willing to wait."""


class RpcMethodNotFound(RpcError):
    """The server has no handler registered under the requested name."""


class RpcHandlerError(RpcError):
    """The remote handler raised; the message carries its ``repr``."""


def _error_frame(kind, detail):
    return bytes([_ERR]) + kind + b"\x00" + detail.encode("utf-8", "replace")


def _recv_request(conn):
    """Receive one framed request, or None on a clean EOF *between*
    frames — a normal disconnect, unlike an EOF mid-frame (WireError)."""
    header = b""
    while len(header) < 4:
        chunk = conn.recv(4 - len(header))
        if not chunk:
            if header:
                raise WireError("connection closed mid-frame")
            return None
        header += chunk
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise WireError(f"frame too large: {length}")
    return recv_exact(conn, length) if length else b""


def _serve_connection(conn, handlers, server=None):
    """Dispatch loop for one accepted connection.

    A transport failure is surfaced to ``server`` (counted and passed to
    its ``on_error`` callback as a typed :class:`RpcTransportError`),
    never silently swallowed; a clean disconnect is not an error.
    """
    try:
        while True:
            frame = _recv_request(conn)
            if frame is None:
                break  # clean disconnect between frames
            sep = frame.index(b"\x00")
            method = frame[:sep].decode("utf-8")
            payload = frame[sep + 1:]
            handler = handlers.get(method)
            if handler is None:
                if method == PING_METHOD:
                    # Liveness built into the serve loop itself: a pong
                    # proves dispatch works, not just that the process
                    # holds the socket open.
                    send_frame(conn, bytes([_OK]) + b"pong")
                    continue
                send_frame(conn, _error_frame(
                    _KIND_UNKNOWN, f"no such method {method}"))
                continue
            try:
                reply = handler(payload)
            except Exception as exc:
                send_frame(conn, _error_frame(_KIND_APP, repr(exc)))
                continue
            send_frame(conn, bytes([_OK]) + (reply or b""))
    except (WireError, OSError) as exc:
        if server is not None and not server.stopping:
            server._note_transport_error(RpcTransportError(
                f"connection failed mid-dispatch: {exc}"))
    finally:
        conn.close()
        if server is not None:
            server._forget_connection(conn)


class RpcServer:
    """A supervised ntrpc server: bind, serve, stop — all explicit.

    ``handlers`` maps method name -> ``fn(bytes) -> bytes``.  Transport
    failures on serving connections are collected in
    :attr:`transport_errors` (bounded) and reported through ``on_error``
    when given; :data:`PING_METHOD` is always answered.
    """

    MAX_RECORDED_ERRORS = 64

    def __init__(self, path=None, handlers=None, *, on_error=None):
        self.path = path or socket_path("rpc")
        self.handlers = dict(handlers or {})
        self.on_error = on_error
        self.stopping = False
        self.transport_errors = []
        self._listener = None
        self._lock = threading.Lock()
        self._conns = set()
        self._threads = []

    def bind(self):
        if os.path.exists(self.path):
            # A crashed predecessor leaves its socket file behind and
            # would make this bind fail (mirror ChildProcess.start).
            try:
                os.unlink(self.path)
            except OSError:
                pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.path)
        except OSError as exc:
            listener.close()
            raise RpcTransportError(
                f"cannot bind {self.path}: {exc}") from None
        listener.listen(16)
        self._listener = listener
        return self

    def serve(self, ready_event=None):
        """Accept loop; returns after :meth:`stop` (or listener death)."""
        if self._listener is None:
            self.bind()
        if ready_event is not None:
            ready_event.set()
        try:
            while not self.stopping:
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    break  # stop() closed the listener under us
                with self._lock:
                    if self.stopping:
                        conn.close()
                        break
                    self._conns.add(conn)
                worker = threading.Thread(
                    target=_serve_connection,
                    args=(conn, self.handlers, self), daemon=True,
                )
                self._threads.append(worker)
                worker.start()
        finally:
            self._cleanup()

    def stop(self, timeout=2.0):
        """Graceful stop: close the listener and every live connection,
        join the serving threads, unlink the socket path."""
        self.stopping = True
        listener = self._listener
        if listener is not None:
            try:
                # close() alone leaves a thread blocked in accept();
                # shutdown() wakes it so serve() returns.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for worker in self._threads:
            worker.join(timeout)
        self._cleanup()

    def _cleanup(self):
        # Unlink on every exit path: a leaked path would break the next
        # bind on the same address.
        if os.path.exists(self.path):
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def _forget_connection(self, conn):
        with self._lock:
            self._conns.discard(conn)

    def _note_transport_error(self, error):
        with self._lock:
            if len(self.transport_errors) < self.MAX_RECORDED_ERRORS:
                self.transport_errors.append(error)
        if self.on_error is not None:
            try:
                self.on_error(error)
            except Exception:
                pass  # a broken observer must not take the server down


class RpcServerProcess(ChildProcess):
    """Forks a child process serving ``handlers`` on a fresh socket path.

    ``handlers`` maps method name -> ``fn(bytes) -> bytes`` and must be
    picklable-free: we fork, so closures are fine.  Supervision —
    readiness, orphan exit, stop and crash-kill — is
    :class:`~repro.ipc.child.ChildProcess`'s.
    """

    error = RpcTransportError

    def __init__(self, handlers):
        super().__init__(label="rpc server", path=socket_path("rpc"))
        self._handlers = handlers

    def main(self, channel):
        server = RpcServer(self.path, self._handlers).bind()
        channel.ready()
        server.serve()


class RpcClient:
    """Synchronous client for one server socket.

    Robustness knobs (all off by default, preserving the Table 2 path):

    * ``call_deadline`` — seconds bounding each whole round trip;
      expiry raises :class:`RpcDeadlineError`.
    * ``retries``/``backoff`` — bounded exponential-backoff retry after
      a transport failure.  ntrpc is strict request/reply, so a retried
      request may execute twice on the server — enable only for
      idempotent method sets (the fleet control verbs are).
    * ``endpoint``/``remote_endpoint`` — names for the chaos harness's
      partition model; unnamed clients are never partitioned.
    """

    def __init__(self, path, *, timeout=CALL_TIMEOUT, call_deadline=None,
                 retries=0, backoff=0.05, endpoint=None,
                 remote_endpoint=None):
        if call_deadline is not None and call_deadline <= 0:
            raise ValueError("call_deadline must be positive or None")
        self.path = path
        self.timeout = timeout
        self.call_deadline = call_deadline
        self.retries = retries
        self.backoff = backoff
        self.endpoint = endpoint
        self.remote_endpoint = remote_endpoint
        self._sock = None
        self._lock = threading.Lock()

    def connect(self):
        self._sock = self._dial()
        return self

    def _dial(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.path)
        except OSError as exc:
            sock.close()
            raise RpcTransportError(
                f"cannot reach rpc server at {self.path}: {exc}"
            ) from None
        return sock

    def _checkout(self):
        """Validate the pooled socket before use (DomainClient-style).

        ntrpc is strict request/reply: an idle connection must have
        nothing to read.  Readable means the peer died (EOF) or broke
        protocol — either way the socket is dropped and redialed.
        Returns ``(sock, reused)``; ``reused`` marks a pooled socket,
        whose validation is only a snapshot (see :meth:`_once`).
        """
        sock = self._sock
        if sock is None:
            sock = self._sock = self._dial()
            return sock, False
        try:
            readable, _, _ = select.select([sock], [], [], 0)
            if readable:
                self._drop()
                return self._checkout()
        except (OSError, ValueError):
            self._drop()
            return self._checkout()
        return sock, True

    def _drop(self):
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _check_chaos(self, method):
        if _chaos is None:
            return
        if self.endpoint is not None and self.remote_endpoint is not None:
            if _chaos.partitioned(self.endpoint, self.remote_endpoint):
                raise RpcTransportError(
                    f"chaos: partition between {self.endpoint} and "
                    f"{self.remote_endpoint}"
                )
            if (method == PING_METHOD
                    and _chaos.heartbeat_lost(self.endpoint,
                                              self.remote_endpoint)):
                raise RpcDeadlineError(
                    f"chaos: heartbeat lost between {self.endpoint} and "
                    f"{self.remote_endpoint}"
                )

    @staticmethod
    def _remaining(deadline_at):
        if deadline_at is None:
            return None
        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            raise RpcDeadlineError("call deadline exceeded")
        return remaining

    def _apply_deadline(self, sock, deadline_at):
        remaining = self._remaining(deadline_at)
        if remaining is None:
            sock.settimeout(self.timeout)
        elif self.timeout is None or remaining < self.timeout:
            sock.settimeout(remaining)
        else:
            sock.settimeout(self.timeout)

    def _once(self, method, payload, deadline_at):
        self._check_chaos(method)
        sock, reused = self._checkout()
        try:
            return self._exchange(sock, method, payload, deadline_at)
        except RpcTransportError:
            if not reused:
                raise
            # The select() probe in _checkout is only a snapshot: a
            # peer that died just before this call can pass it and
            # reset the socket mid-exchange.  Like an HTTP keep-alive
            # client, a request that failed on a REUSED connection is
            # retried once on a fresh dial — independent of the
            # ``retries`` knob, still inside the deadline.
            self._remaining(deadline_at)
            sock, _ = self._checkout()  # _drop() ran: dials fresh
            return self._exchange(sock, method, payload, deadline_at)

    def _exchange(self, sock, method, payload, deadline_at):
        try:
            self._apply_deadline(sock, deadline_at)
            send_frame(sock, method.encode("utf-8") + b"\x00" + payload)
            self._apply_deadline(sock, deadline_at)
            reply = recv_frame(sock)
        except socket.timeout:
            self._drop()
            raise RpcDeadlineError(
                f"call {method!r} exceeded its deadline") from None
        except RpcDeadlineError:
            self._drop()
            raise
        except (OSError, WireError) as exc:
            self._drop()
            raise RpcTransportError(
                f"transport failed calling {method!r}: {exc}") from None
        return self._decode(reply)

    @staticmethod
    def _decode(reply):
        if reply[:1] == bytes([_OK]):
            return reply[1:]
        kind, _, detail = reply[1:].partition(b"\x00")
        text = detail.decode("utf-8", "replace")
        if kind == _KIND_UNKNOWN:
            raise RpcMethodNotFound(text)
        return RpcClient._raise_handler_error(text)

    @staticmethod
    def _raise_handler_error(text):
        raise RpcHandlerError(text)

    def call(self, method, payload=b"", *, deadline=None):
        """One round trip; the reply body on success, typed errors else.

        ``deadline`` (seconds) overrides the client's ``call_deadline``
        for this call.  Transport failures retry up to ``retries`` times
        with exponential backoff — each attempt redials, so retries
        bridge a server restart — but never past the deadline, and a
        deadline expiry itself is terminal.
        """
        limit = deadline if deadline is not None else self.call_deadline
        deadline_at = (time.monotonic() + limit
                       if limit is not None else None)
        delay = self.backoff
        with self._lock:
            for attempt in range(1 + self.retries):
                try:
                    return self._once(method, payload, deadline_at)
                except RpcDeadlineError:
                    raise
                except RpcTransportError:
                    if attempt >= self.retries:
                        raise
                    if deadline_at is not None:
                        remaining = deadline_at - time.monotonic()
                        if remaining <= 0:
                            raise
                        time.sleep(min(delay, remaining, 1.0))
                    else:
                        time.sleep(min(delay, 1.0))
                    delay *= 2

    def ping(self, *, deadline=None):
        """Heartbeat round trip; True when the serve loop answered."""
        return self.call(PING_METHOD, deadline=deadline) == b"pong"

    def close(self):
        self._drop()

    def __enter__(self):
        return self.connect()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


def null_server():
    """An RPC server whose ``null`` method does nothing (Table 2 workload)."""
    return RpcServerProcess({"null": lambda payload: b"",
                             "echo": lambda payload: payload})
