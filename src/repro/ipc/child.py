"""One supervised child process: the OS analogue of a domain's lifetime.

In the J-Kernel, terminating a domain is one kernel mechanism.  Every
out-of-process execution site in this repository — an ntrpc server
(:class:`~repro.ipc.ntrpc.RpcServerProcess`), a cross-process LRMI
domain host (:class:`~repro.ipc.lrmi.DomainHostProcess`), a fleet host
agent (:class:`~repro.fleet.host.FleetHostProcess`) and a prefork worker
(:class:`~repro.web.prefork.WorkerHandle`) — is likewise one
:class:`ChildProcess`: a subclass supplies :meth:`ChildProcess.main`,
which runs in the forked child, and the primitive owns the rest.  The
parent and the child share one *control channel*, a ``socketpair``
speaking length-prefixed JSON frames (the ``repro.ipc.wire`` framing).

Four rules hold for every child:

* **Readiness** — the child calls :meth:`Channel.ready` once it is
  listening, which sends a ``READY`` frame; ``start()`` blocks on that
  frame.  Nothing polls the filesystem or makes a probe connection.
* **Orphan exit** — the child exits on EOF of its control channel,
  unlinking its socket path first (a dead parent cannot).  Right after
  fork the child closes every other control end it inherited, parent
  side and child side alike, so the only copy of its parent end lives
  in its parent and EOF stays sound for grandchildren too (an
  out-of-process servlet host forked by a prefork worker).
* **Startup failure** — an exception before ``READY`` is reported in an
  ``ERROR`` frame carrying the exception's type and message; the parent
  reaps the child, unlinks its socket path and raises the owner's typed
  error (:attr:`ChildProcess.error`) with that text.
* **Stop and kill** — :meth:`ChildProcess.stop` closes the channel,
  waits :data:`STOP_GRACE` seconds for the child to exit, then SIGKILLs
  it, and always reaps it and unlinks its socket path.
  :meth:`ChildProcess.kill` is a crash: SIGKILL and reap, leaving the
  socket path behind for the next ``start()`` to unlink.

Linux-specific: exit waits use ``os.pidfd_open``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import tempfile
import threading
import traceback
import uuid

from .wire import WireError, recv_frame, send_frame

#: Seconds ``start()`` waits for the child's READY or ERROR frame.
STARTUP_TIMEOUT = 15.0

#: Seconds ``stop()`` waits for the child to exit before SIGKILL.
STOP_GRACE = 2.0

# Every open control end in this process, parent side and child side.
# Process-wide by necessity: fork copies every fd, whoever created it,
# so the child must close every channel it did not inherit for itself.
# ``_ends_lock`` is held across socketpair() and fork() so no other
# thread is mid-update when the child's copy of the set is taken.
_ends_lock = threading.Lock()
_control_ends = set()


def socket_path(kind):
    """A fresh UNIX-socket path in the temp directory.

    Names stay short (28 bytes for ``fleet-h1``): AF_UNIX paths are
    limited to 107 bytes, temp directory included.
    """
    return os.path.join(tempfile.gettempdir(),
                        f"repro-{kind}-{uuid.uuid4().hex[:8]}.sock")


def _unlink(path):
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _wait_exit(pid, timeout):
    """Reap ``pid`` if it exits within ``timeout``; True once reaped."""
    try:
        pidfd = os.pidfd_open(pid)
    except ProcessLookupError:
        pass  # already reaped by someone else
    else:
        try:
            select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
    try:
        reaped, _status = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return reaped == pid


class Channel:
    """One end of a control socketpair: JSON frames, typed failures.

    Every failure — EOF, timeout, a broken frame — raises ``error``, the
    owning process's typed exception.
    """

    def __init__(self, sock, error, on_eof=None):
        self.sock = sock
        self.error = error
        self.is_ready = False
        self._on_eof = on_eof

    def send(self, message):
        try:
            send_frame(self.sock, json.dumps(message).encode("utf-8"))
        except (OSError, WireError) as exc:
            raise self.error(f"control channel failed: {exc}") from None

    def recv(self, timeout=None):
        """One message; ``timeout=None`` blocks until one arrives."""
        try:
            self.sock.settimeout(timeout)
            return json.loads(recv_frame(self.sock))
        except socket.timeout:
            raise self.error("control-channel timeout") from None
        except (OSError, WireError, ValueError) as exc:
            raise self.error(f"control channel failed: {exc}") from None

    def ready(self):
        """Child side: report READY and start exiting on channel EOF.

        The watcher polls for hang-up only (POLLHUP is reported whatever
        the event mask), so it never consumes a frame the child's own
        loop is waiting for.
        """
        self.send({"type": "READY"})
        self.is_ready = True
        threading.Thread(target=self._exit_on_eof, daemon=True,
                         name="child-orphan-watch").start()

    def _exit_on_eof(self):
        poller = select.poll()
        poller.register(self.sock, 0)
        poller.poll()
        self._on_eof()

    def close(self):
        with _ends_lock:
            _control_ends.discard(self.sock)
            self.sock.close()


def run_child(process, sock, on_eof):
    """The child's life after fork, up to its exit status.

    Runs ``process.main`` over ``sock``.  A failure before READY goes
    back to the parent in an ERROR frame; a failure after READY, or one
    the parent can no longer hear, is printed to stderr.  ``on_eof`` is
    what the orphan watcher does when the parent end closes.
    """
    channel = Channel(sock, process.error, on_eof)
    try:
        process.main(channel)
    except BaseException as exc:
        if not channel.is_ready:
            try:
                channel.send({"type": "ERROR", "error": type(exc).__name__,
                              "message": str(exc)})
                return 1
            except process.error:
                pass  # the parent is gone: stderr is the only witness
        traceback.print_exception(exc)
        return 1
    return 0


class ChildProcess:
    """A forked child supervised over one control channel.

    Subclasses set :attr:`error` and implement :meth:`main`.  ``path``,
    when given, is the UNIX-socket path the child serves on; the
    primitive unlinks a stale one on ``start`` and on ``stop``, never on
    ``kill``.  ``label`` names the child in error messages.
    """

    #: The owner's typed error, raised for every supervision failure.
    error = OSError

    def __init__(self, *, label, path=None):
        self.label = label
        self.path = path
        self.pid = None
        self.channel = None

    def main(self, channel):
        """Runs in the child: set up, ``channel.ready()``, then serve."""
        raise NotImplementedError

    def start(self):
        if self.path is not None:
            # Restart in place after a crash: the dead child's socket
            # file survives it and would make the new bind fail.
            _unlink(self.path)
        with _ends_lock:
            parent_end, child_end = socket.socketpair()
            pid = os.fork()
            if pid == 0:
                self._enter_child(parent_end, child_end)
            _control_ends.add(parent_end)
        child_end.close()
        self.pid = pid
        self.channel = Channel(parent_end, self.error)
        try:
            message = self.channel.recv(STARTUP_TIMEOUT)
        except self.error as exc:  # EOF, or no frame in time
            self.stop()
            raise self.error(
                f"{self.label} did not report READY: {exc}") from None
        if message.get("type") != "READY":
            self.stop()
            raise self.error(
                f"{self.label} failed to start: "
                f"{message.get('error')}: {message.get('message')}")
        return self

    def _enter_child(self, parent_end, child_end):
        """Never returns: the child leaves only through ``os._exit``."""
        global _control_ends
        status = 1
        try:
            # The fork copied _ends_lock held by this very thread; the
            # copy has no other owner, so release it first.
            _ends_lock.release()
            parent_end.close()
            for sock in _control_ends:
                sock.close()
            _control_ends = {child_end}
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            status = run_child(self, child_end, self._exit_on_eof)
        finally:
            os._exit(status)

    def _exit_on_eof(self):
        """Child side: the parent stopped us or died.  A dead parent
        cannot unlink our socket path, so the child does it itself."""
        if self.path is not None:
            _unlink(self.path)
        os._exit(0)

    def alive(self):
        """True while the child runs; reaps it once it has exited."""
        if self.pid is None:
            return False
        try:
            reaped, _status = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:
            reaped = self.pid
        if reaped == 0:
            return True
        self.pid = None
        return False

    def stop(self):
        """Close the channel, wait :data:`STOP_GRACE`, SIGKILL, reap."""
        self._close_channel()
        if self.pid is not None and not _wait_exit(self.pid, STOP_GRACE):
            self.kill()
        self.pid = None
        if self.path is not None:
            _unlink(self.path)

    def kill(self):
        """SIGKILL and reap without unlinking the socket path — a
        crash, not a stop: the stale path is exactly what a restarted
        child must cope with."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped
            self.pid = None
        self._close_channel()

    def _close_channel(self):
        channel, self.channel = self.channel, None
        if channel is not None:
            channel.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
