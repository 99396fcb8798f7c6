"""Local RPC between real OS processes (the NT-RPC analogue, Table 2).

A server process listens on a Unix-domain socket and dispatches framed
requests to registered handlers; a client makes synchronous calls.  Every
call crosses a genuine process boundary twice — the cost the paper's
Table 2 contrasts with in-process calls (a factor of ~3000).

Beyond the Table 2 microbenchmark, this transport is what the fleet
coordinator (``repro.fleet``) speaks to remote hosts:

* **typed errors** — every failure surfaces as an :class:`RpcError`
  subclass: :class:`RpcTransportError` (dial/framing/connection loss),
  :class:`RpcDeadlineError` (whole-call deadline expiry),
  :class:`RpcMethodNotFound` and :class:`RpcHandlerError` (the remote
  handler raised).  Nothing is silently swallowed: the server counts and
  reports transport failures instead of ``pass``-ing them.
* **pooled client** — :class:`RpcClient` runs on the call core it shares
  with the cross-process LRMI client (:mod:`repro.ipc.pool`): checkout
  probe, whole-call deadlines, fresh-dial and backoff retry.
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
import socket
import threading

from .child import ChildProcess, socket_path
from .pool import PooledClient, arm
from .wire import MAX_FRAME, WireError, recv_exact, recv_frame, send_frame

_OK = 0
_ERR = 1

#: Error kinds carried inside an ``_ERR`` payload as ``kind\x00detail``.
_KIND_APP = b"app"
_KIND_UNKNOWN = b"unknown"

#: Reserved liveness method every :class:`RpcServer` answers itself.
PING_METHOD = "__ping__"

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


class RpcClient(PooledClient):
    """Synchronous client for one server socket, on the shared pooled
    call core (:mod:`repro.ipc.pool`): checkout probe, whole-call
    ``call_deadline``, fresh-dial retry and ``retries``/``backoff``.

    Every method is treated as idempotent for ``retries``: ntrpc is
    strict request/reply, so a retried request may execute twice on the
    server — enable only for idempotent method sets (the fleet control
    verbs are).  ``endpoint``/``remote_endpoint`` name the two ends for
    the chaos harness's partition model; unnamed clients are never
    partitioned.
    """

    #: Strict request/reply: bytes on an idle connection break protocol.
    IDLE_BYTES_OK = False
    Unavailable = RpcTransportError
    Deadline = RpcDeadlineError
    PEER = "rpc server"

    def __init__(self, path, *, call_deadline=None, retries=0,
                 backoff=0.05, endpoint=None, remote_endpoint=None):
        super().__init__(path, call_deadline, retries, backoff)
        self.endpoint = endpoint
        self.remote_endpoint = remote_endpoint

    def connect(self):
        """Dial eagerly, so an unreachable server fails here."""
        self._release(self._dial())
        return self

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
    def _exchange(connection, deadline_at, method, frame):
        sock = connection.sock
        try:
            arm(sock, deadline_at)
            send_frame(sock, frame)
            arm(sock, deadline_at)
            reply = recv_frame(sock)
        except socket.timeout:
            connection.close()
            raise RpcDeadlineError(
                f"call {method!r} exceeded its deadline") from None
        except (OSError, WireError) as exc:
            connection.close()
            raise RpcTransportError(
                f"transport failed calling {method!r}: {exc}") from None
        if reply[:1] == bytes([_OK]):
            return reply[1:]
        kind, _, detail = reply[1:].partition(b"\x00")
        text = detail.decode("utf-8", "replace")
        if kind == _KIND_UNKNOWN:
            raise RpcMethodNotFound(text)
        raise RpcHandlerError(text)

    def call(self, method, payload=b"", *, deadline=None):
        """One round trip; the reply body on success, typed errors else.

        ``deadline`` (seconds) overrides the client's ``call_deadline``
        for this call.
        """
        frame = method.encode("utf-8") + b"\x00" + payload

        def invoke(connection, deadline_at):
            self._check_chaos(method)
            return self._exchange(connection, deadline_at, method, frame)

        return self._call(invoke, deadline, retry=True)

    def ping(self, *, deadline=None):
        """Heartbeat round trip; True when the serve loop answered."""
        return self.call(PING_METHOD, deadline=deadline) == b"pong"

    def close(self):
        """Drop the pooled connections.  Unlike a closed DomainClient,
        the client stays usable and the next call dials afresh: the
        fleet coordinator still reaches an evicted host through it."""
        self._drain()

    def __enter__(self):
        return self.connect()


def null_server():
    """An RPC server whose ``null`` method does nothing (Table 2 workload)."""
    return RpcServerProcess({"null": lambda payload: b"",
                             "echo": lambda payload: payload})
