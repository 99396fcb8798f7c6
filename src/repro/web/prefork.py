"""Prefork multi-process serving: N reactor workers behind one port.

The PR 4 reactor parallelized I/O across event-loop *threads*, but every
thread shares one GIL — the scaling axis a single CPython process cannot
cross.  This tier forks N worker processes, each running its own full
reactor (built by ``app_factory`` in the child), so request processing
uses real cores.

Socket strategy
---------------

* ``SO_REUSEPORT`` (primary): the master binds once to pick the port,
  then each worker binds its *own* listener with ``SO_REUSEPORT`` — the
  kernel hashes incoming connections across the bound sockets, so there
  is no shared accept lock and no thundering herd.
* inherited-listener fallback: on platforms without the option the
  master keeps its bound listener and every forked worker accepts on the
  inherited fd (the classic prefork accept model).

Control plane
-------------

Each worker is a :class:`~repro.ipc.child.ChildProcess`, so its fork,
readiness, orphan exit and reaping are the same as every other child's:
``start`` returns once the worker reports ``READY`` on its control
channel (an app factory that raises comes back as a
:class:`PreforkError` carrying the error), and a worker whose master
dies exits on EOF of that channel.  Over the same channel the master
sends ``STATS`` polls, ``DRAIN`` for graceful retirement (stop
accepting, let in-flight requests finish, report final counters, exit)
and ``STOP`` for immediate teardown.  The master's monitor thread
replaces workers that ``alive()`` reports dead, and
``rolling_restart()`` hot-swaps the whole fleet one worker at a time —
each replacement is READY before its predecessor starts draining, so
the port is always served.

Accounting
----------

Every worker's counters are :class:`~repro.core.accounting.ShardedCounter`
cells *within* its process; across processes the master reconciles by
summing STATS/DRAINED reports plus the retained totals of retired
workers — ``stats()["requests_served"]`` equals what clients observed,
whichever worker served them.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.ipc.child import ChildProcess

from .httpd import NativeHttpServer, make_listener

#: Fault-injection hook (``repro.testing.chaos``); None in production.
_chaos = None


class PreforkError(Exception):
    """Master/worker orchestration failure (startup, drain, control)."""


class WorkerHandle(ChildProcess):
    """Master-side record of one worker process."""

    error = PreforkError

    def __init__(self, server, generation):
        super().__init__(label=f"prefork worker (generation {generation})")
        self.server = server
        self.generation = generation
        self.last_stats = {}
        self.seq = 0
        self._pipe_lock = threading.Lock()

    def main(self, channel):
        self.server._worker_main(channel)

    def request(self, message, timeout):
        """One sequence-tagged control round trip.

        The control pipe is one-reply-per-request; a reply that missed
        an earlier deadline would otherwise be consumed as the answer to
        the NEXT request (e.g. a stale STATS acknowledged as DRAINED and
        the worker killed mid-drain).  Tagging requests and discarding
        replies with older tags keeps the pipe self-healing, and the
        per-handle lock keeps concurrent callers (a stats() poll racing
        a rolling restart) from interleaving reads of one frame stream.
        """
        with self._pipe_lock:
            channel = self.channel
            if channel is None:
                raise PreforkError("control channel closed")
            self.seq += 1
            channel.send(dict(message, seq=self.seq))
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise PreforkError("control-channel timeout")
                reply = channel.recv(remaining)
                if reply.get("seq") == self.seq:
                    return reply
                # stale reply from a timed-out earlier request: discard

    def __repr__(self):
        return f"<WorkerHandle pid={self.pid} gen={self.generation}>"


class PreforkServer:
    """Master process orchestrating N forked reactor workers.

    ``app_factory`` runs **in each child** after fork and returns the
    server to run there — a :class:`~repro.web.httpd.NativeHttpServer`,
    a :class:`~repro.web.jkweb.JKernelWebServer`, or anything exposing
    ``start(listener)`` / ``drain(timeout)`` / ``live_connections()`` /
    ``requests_served`` / ``stop()``.
    """

    def __init__(self, app_factory=None, *, host="127.0.0.1", port=0,
                 workers=2, reuse_port=None, drain_timeout=5.0,
                 max_respawns=8):
        self.app_factory = app_factory or NativeHttpServer
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        if reuse_port is None:
            reuse_port = hasattr(socket, "SO_REUSEPORT")
        self.reuse_port = reuse_port
        self.drain_timeout = drain_timeout
        self.max_respawns = max_respawns

        self._listener = None
        self._handles = []
        # Workers draining out: no longer in _handles, their count not
        # yet folded into _retired_requests.  stats() counts them from
        # last_stats, so each is counted exactly once at every instant.
        self._retiring = []
        self._lock = threading.RLock()
        self._monitor = None
        self._running = False
        self._generation = 0
        self._retired_requests = 0
        self._crash_replacements = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        if self._running:
            return self
        listener = make_listener(self.host, self.port,
                                 reuse_port=self.reuse_port)
        self.port = listener.getsockname()[1]
        if self.reuse_port:
            # Each worker binds its own SO_REUSEPORT listener; the
            # master's reservation socket must close before workers
            # serve, or the kernel would hash a share of connections
            # into a queue nobody accepts from.
            listener.close()
        else:
            self._listener = listener
        self._running = True
        try:
            with self._lock:
                for _ in range(self.workers):
                    self._handles.append(self._spawn())
        except BaseException:
            self._running = False
            self._teardown_workers(graceful=False)
            if self._listener is not None:
                self._listener.close()
                self._listener = None
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True, name="prefork-monitor"
        )
        self._monitor.start()
        return self

    def stop(self):
        if not self._running:
            return
        self._running = False
        if self._monitor is not None:
            self._monitor.join(2.0)
            self._monitor = None
        self._teardown_workers(graceful=True)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None

    def __del__(self):  # best-effort: tests forgetting stop() leak no forks
        try:
            if self._running:
                self.stop()
        except Exception:
            pass

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- spawning ----------------------------------------------------------
    def _spawn(self):
        """Fork one worker; returns its handle once the worker is READY."""
        self._generation += 1
        return WorkerHandle(self, self._generation).start()

    def _worker_main(self, channel):
        """Child body: build the app, serve, obey the control channel."""
        if self.reuse_port:
            listener = make_listener(self.host, self.port, reuse_port=True)
        else:
            listener = self._listener
        server = self.app_factory()
        server.start(listener)
        channel.ready()
        while True:
            try:
                message = channel.recv()
            except PreforkError:
                # Master died (EOF on the channel): orphaned workers must
                # not linger and keep the port bound.
                server.stop()
                return
            kind = message.get("type")
            seq = message.get("seq")
            if _chaos is not None:
                # Chaos crash points: die between receiving a control
                # message and acting on it (the master must replace the
                # worker and keep its retained counters consistent).
                _chaos.crash_point("prefork.worker.message")
                if kind in ("STATS", "PING"):
                    _chaos.crash_point("prefork.worker.stats")
            if kind in ("STATS", "PING"):
                channel.send(dict(self._worker_stats(server), seq=seq))
            elif kind == "DRAIN":
                server.drain(message.get("timeout", 5.0))
                final = self._worker_stats(server)
                final.update(type="DRAINED", seq=seq)
                server.stop()
                channel.send(final)
                return
            elif kind == "STOP":
                final = self._worker_stats(server)
                final.update(type="STOPPED", seq=seq)
                server.stop()
                channel.send(final)
                return

    @staticmethod
    def _worker_stats(server):
        stats = {
            "type": "STATS",
            "pid": os.getpid(),
            "requests_served": server.requests_served,
            "live_connections": server.live_connections(),
        }
        richer = getattr(server, "stats", None)
        if callable(richer):
            try:
                stats["server"] = richer()
            except Exception:
                pass
        try:
            from repro.core import get_accountant

            stats["accounts"] = get_accountant().report()
        except Exception:
            pass
        return stats

    # -- supervision -------------------------------------------------------
    def _monitor_loop(self):
        while self._running:
            time.sleep(0.05)
            with self._lock:
                for handle in list(self._handles):
                    if handle.alive():
                        continue
                    # Crashed: retain what it last reported, replace it.
                    self._retired_requests += handle.last_stats.get(
                        "requests_served", 0
                    )
                    handle.stop()
                    if (not self._running
                            or self._crash_replacements >= self.max_respawns):
                        self._handles.remove(handle)
                        continue
                    try:
                        replacement = self._spawn()
                    except PreforkError:
                        self._handles.remove(handle)
                        continue
                    # Re-derive the slot NOW: earlier removals in this
                    # same pass shift positions, and a stale snapshot
                    # index would overwrite a live sibling's handle.
                    self._handles[self._handles.index(handle)] = replacement
                    self._crash_replacements += 1

    # -- autoscaling -------------------------------------------------------
    def scale_to(self, target):
        """Resize the fleet to ``target`` workers.

        Scale-up forks through the READY-gated :meth:`_spawn` path;
        scale-down reuses the rolling-restart drain machinery
        (:meth:`_retire`), so in-flight requests on departing workers
        finish and their counters fold into the retained totals.
        Returns the actual worker count afterwards.
        """
        if not self._running:
            raise PreforkError("prefork server is not running")
        target = max(1, int(target))
        while True:
            with self._lock:
                current = len(self._handles)
                if current < target:
                    self._handles.append(self._spawn())
                    continue
                if current > target:
                    # Retire the newest worker.
                    victim = self._handles.pop()
                    self._retiring.append(victim)
                else:
                    self.workers = current
                    return current
            self._retire(victim)

    def autoscale(self, policy=None):
        """Start a :class:`repro.web.control.Autoscaler` driving
        :meth:`scale_to` from this master's shed-rate and p99 signals.
        Returns the (already started) autoscaler; stop it with its
        ``stop()`` before stopping the server."""
        from .control import Autoscaler, AutoscalePolicy

        scaler = Autoscaler(self, policy or AutoscalePolicy())
        scaler.start()
        return scaler

    # -- rolling restart ---------------------------------------------------
    def rolling_restart(self):
        """Hot-swap every worker, one at a time, without dropping the
        port: fork the replacement, wait until it is READY (and, in
        reuse-port mode, bound), then drain and retire the old worker.
        """
        if not self._running:
            raise PreforkError("prefork server is not running")
        with self._lock:
            old_handles = list(self._handles)
        for old in old_handles:
            with self._lock:
                if old not in self._handles:
                    continue  # crashed and replaced mid-rotation
                replacement = self._spawn()
                self._handles[self._handles.index(old)] = replacement
                self._retiring.append(old)
            self._retire(old)
        return self

    def _retire(self, handle, message=None, timeout=None):
        """Graceful retirement of a worker already in ``_retiring``: DRAIN
        (or ``message``), fold its final counters into the retained
        totals, reap the process."""
        if message is None:
            message = {"type": "DRAIN", "timeout": self.drain_timeout}
            timeout = self.drain_timeout + 5.0
        try:
            final = handle.request(message, timeout=timeout)
        except PreforkError:
            final = handle.last_stats
        finally:
            handle.stop()
        with self._lock:
            self._retired_requests += final.get("requests_served", 0)
            self._retiring.remove(handle)

    def _teardown_workers(self, graceful):
        with self._lock:
            handles, self._handles = self._handles, []
            if graceful:
                self._retiring.extend(handles)
        for handle in handles:
            if graceful:
                self._retire(handle, {"type": "STOP"}, timeout=5.0)
            else:
                handle.stop()

    # -- introspection -----------------------------------------------------
    def worker_pids(self):
        with self._lock:
            return [handle.pid for handle in self._handles]

    def stats(self):
        """Cross-process reconciliation: per-worker reports plus retained
        totals of every retired/crashed worker."""
        polled = []
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            try:
                report = handle.request({"type": "STATS"}, timeout=5.0)
                handle.last_stats = report
            except PreforkError:
                report = dict(handle.last_stats)
                report["stale"] = True
            polled.append((handle, report))
        # Sum under the lock, counting only handles STILL in the fleet:
        # the monitor folds a crashed worker's last_stats into
        # _retired_requests and swaps the handle out atomically, so a
        # stale report for a replaced handle would double-count.
        with self._lock:
            reports = [report for handle, report in polled
                       if handle in self._handles]
            retired = self._retired_requests
            draining = sum(handle.last_stats.get("requests_served", 0)
                           for handle in self._retiring)
            crash_replacements = self._crash_replacements
        return {
            "workers": reports,
            "worker_count": len(reports),
            "requests_served": retired + draining + sum(
                report.get("requests_served", 0) for report in reports
            ),
            "retired_requests": retired,
            "crash_replacements": crash_replacements,
            "reuse_port": self.reuse_port,
            "port": self.port,
        }
