"""Closed-loop load from one thread, with every reply checked.

HTTP workloads drive all their keep-alive connections from a single
selector thread.  Two client threads would put CPython's 5ms GIL switch
interval into the *client's* latency; one selector thread driving two
connections does not.  Each connection sends its next request only
after the previous reply's last byte arrived (a closed loop, as the
paper's Table 5 browsers do).  Latency runs from the send call to the
receipt of the reply's last byte.
"""

from __future__ import annotations

import re
import selectors
import socket
import time
from array import array

from .apps import STORED

_LENGTH = re.compile(rb"\r\ncontent-length:[ \t]*(\d+)", re.IGNORECASE)
#: Keep failure descriptions bounded: the count is what is reported.
MAX_FAILURE_NOTES = 8


class Recorder:
    """Latencies and verdicts of one stretch of a run."""

    def __init__(self):
        self.latency_ns = array("q")
        self.attempted = 0
        self.failed = 0
        self.response_bytes = 0
        self.notes = []

    def record(self, latency_ns, note):
        """One operation; ``note`` describes a failure, None is success."""
        self.attempted += 1
        if note is None:
            self.latency_ns.append(latency_ns)
        else:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(note)


# -- reply checks -------------------------------------------------------------

class DocumentCheck:
    """Every reply is 200 with exactly the document the path names."""

    def __init__(self, documents):
        self.documents = documents

    def __call__(self, call, status, body):
        expected = self.documents.get(call.path)
        if status == 200 and body == expected:
            return None
        return f"{call.path}: status {status}, {len(body)}B body"


class KvModelCheck:
    """Each read returns the value its own connection last wrote.

    Keys are partitioned per connection, so the model is exact.  After a
    failed write the store may hold either value; both are accepted on
    the next read, and the failure itself is already counted.
    """

    def __init__(self, initial):
        self.expected = {key: {value} for key, value in initial.items()}

    def __call__(self, call, status, body):
        allowed = self.expected[call.key]
        if call.kind == "put":
            if status == 200 and body == STORED:
                self.expected[call.key] = {call.body}
                return None
            allowed.add(call.body)
            return f"POST {call.key}: status {status}"
        if status == 200 and body in allowed:
            return None
        return f"GET {call.key}: status {status}, stale or wrong value"


# -- the selector driver ------------------------------------------------------

class _Conn:
    __slots__ = ("index", "sock", "script", "pos", "call", "buf", "sent_ns",
                 "head_end", "status", "length")

    def __init__(self, index, sock, script):
        self.index = index
        self.sock = sock
        self.script = script
        self.pos = 0
        self.call = None
        self.buf = bytearray()
        self.sent_ns = 0
        self.head_end = -1
        self.status = 0
        self.length = 0


class HttpDriver:
    """Keep-alive connections to one port, each replaying its script."""

    def __init__(self, port, scripts, check, timeout=10.0):
        self.check = check
        self.completed = 0
        self.selector = selectors.DefaultSelector()
        self.conns = []
        for index, script in enumerate(scripts):
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(index, sock, script)
            self.conns.append(conn)
            self.selector.register(sock, selectors.EVENT_READ, conn)

    def close(self):
        for conn in self.conns:
            self.selector.unregister(conn.sock)
            conn.sock.close()
        self.selector.close()

    def _send(self, conn):
        call = conn.script[conn.pos]
        conn.pos = (conn.pos + 1) % len(conn.script)
        conn.call = call
        conn.buf.clear()
        conn.head_end = -1
        conn.sent_ns = time.perf_counter_ns()
        conn.sock.sendall(call.raw)

    def _parse(self, conn):
        """True once the buffered reply is complete."""
        buf = conn.buf
        if conn.head_end < 0:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return False
            head = bytes(buf[:end])
            conn.head_end = end + 4
            conn.status = int(head[9:12])
            match = _LENGTH.search(head)
            if match is None:
                raise ConnectionError("reply without Content-Length")
            conn.length = int(match.group(1))
        return len(buf) >= conn.head_end + conn.length

    def run(self, seconds, recorder):
        """Drive every connection until ``seconds`` pass, then collect
        the replies still in flight.  Returns the recorder."""
        select = self.selector.select
        check = self.check
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        outstanding = 0
        for conn in self.conns:
            self._send(conn)
            outstanding += 1
        while outstanding:
            events = select(timeout=10.0)
            if not events:
                raise TimeoutError("no reply within 10s")
            for key, _mask in events:
                conn = key.data
                data = conn.sock.recv(262144)
                if not data:
                    raise ConnectionError(
                        f"server closed connection {conn.index}")
                conn.buf += data
                if not self._parse(conn):
                    continue
                now = time.perf_counter_ns()
                body = bytes(conn.buf[conn.head_end:])
                call = conn.call
                note = check(call, conn.status, body)
                if len(body) != conn.length and note is None:
                    note = f"{call.path}: {len(body)}B after a reply"
                recorder.response_bytes += len(conn.buf)
                recorder.record(now - conn.sent_ns, note)
                self.completed += 1
                if now < deadline:
                    self._send(conn)
                else:
                    outstanding -= 1
        return recorder


# -- fleet caller -------------------------------------------------------------

class FleetModelCheck:
    """Each get returns the value last put to that placement and key.

    One caller issues every call, so the model is exact; after a failed
    put either value is accepted, as in :class:`KvModelCheck`.
    """

    def __init__(self, initial):
        self.expected = {key: {value} for key, value in initial.items()}

    def __call__(self, call, result, error=None):
        slot = (call.placement, call.key)
        allowed = self.expected[slot]
        if call.kind == "put":
            if error is None and result is True:
                self.expected[slot] = {call.value}
                return None
            allowed.add(call.value)
        elif error is None and result in allowed:
            return None
        if error is not None:
            return f"{call.kind} {slot}: {type(error).__name__}: {error}"
        return f"{call.kind} {slot}: returned {result!r}"


def fleet_call(coordinator, token, call):
    if call.kind == "put":
        return coordinator.call(token, "put", call.key, call.value)
    return coordinator.call(token, "get", call.key)


class FleetDriver:
    """One closed-loop caller of ``FleetCoordinator.call``."""

    def __init__(self, coordinator, tokens, script, initial):
        self.coordinator = coordinator
        self.tokens = tokens
        self.script = script
        self.pos = 0
        self.completed = 0
        self.check = FleetModelCheck(initial)

    def run(self, seconds, recorder):
        script = self.script
        now = time.perf_counter_ns()
        deadline = now + int(seconds * 1e9)
        while now < deadline:
            call = script[self.pos]
            self.pos = (self.pos + 1) % len(script)
            result = error = None
            sent = time.perf_counter_ns()
            try:
                result = fleet_call(self.coordinator,
                                    self.tokens[call.placement], call)
            except Exception as exc:  # counted as a failure, not raised
                error = exc
            now = time.perf_counter_ns()
            recorder.record(now - sent, self.check(call, result, error))
            self.completed += 1
        return recorder
