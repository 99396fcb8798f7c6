"""One supervision contract for every forked child (``repro.ipc.child``).

The four process owners — :class:`RpcServerProcess`,
:class:`DomainHostProcess`, :class:`FleetHostProcess` and a
:class:`PreforkServer` worker — are all :class:`ChildProcess` children,
so each scenario runs once per kind:

* **orphan exit** — a forked intermediate starts the child and is then
  SIGKILLed; the child must be gone within 2s (EOF on its channel),
  its socket path with it;
* **startup failure** — a setup, handler table or app factory that
  raises makes ``start()`` raise the owner's typed error carrying the
  child's exception text, with no child left alive and no socket path
  left behind;
* **kill keeps the path** — ``kill()`` is a crash: the socket path
  survives it and the next ``start()`` on the same object succeeds.

Code that runs only in a forked child is invisible to the coverage
tracer, so :class:`TestChildSideInProcess` drives the child side
(:func:`run_child` and :class:`Channel`) on a thread over a socketpair.
"""

import json
import os
import select
import signal
import socket
import threading
import time
from collections.abc import Mapping

import pytest

from repro.core import Capability, Domain, DomainUnavailableException, Remote
from repro.fleet import FleetHostProcess
from repro.ipc import DomainHostProcess, RpcClient, RpcServerProcess, connect
from repro.ipc import child as child_mod
from repro.ipc.child import Channel, ChildProcess, run_child
from repro.ipc.ntrpc import RpcTransportError
from repro.web import NativeHttpServer, PreforkServer
from repro.web.prefork import PreforkError, WorkerHandle

pytestmark = pytest.mark.timeout(120)


class IEcho(Remote):
    def echo(self, text): ...


class EchoImpl(IEcho):
    def echo(self, text):
        return text


def _echo_setup():
    domain = Domain("child-echo")
    return {"echo": domain.run(lambda: Capability.create(EchoImpl()))}


def _broken_setup():
    raise RuntimeError("setup exploded")


def _broken_app():
    raise RuntimeError("factory exploded")


class _ExplodingHandlers(Mapping):
    """A handler table whose set-up (copying it, in the child) raises."""

    def keys(self):
        raise RuntimeError("handler table exploded")

    __getitem__ = __iter__ = __len__ = keys


def _ping(owner):
    with RpcClient(owner.path) as client:
        return client.ping()


def _lookup_echo(owner):
    client = connect(owner)
    try:
        return client.lookup("echo").echo("hi") == "hi"
    finally:
        client.close()


class Kind:
    """How one owner is built, broken, probed and asked for its pids."""

    def __init__(self, name, make, broken, error, text, pids, probe=None):
        self.name = name
        self.make = make
        self.broken = broken
        self.error = error
        self.text = text
        self.pids = pids
        self.probe = probe


KINDS = [
    Kind("ntrpc",
         lambda: RpcServerProcess({"echo": lambda payload: payload}),
         lambda: RpcServerProcess(_ExplodingHandlers()),
         RpcTransportError, "handler table exploded",
         lambda owner: [owner.pid], _ping),
    Kind("lrmi",
         lambda: DomainHostProcess(_echo_setup, name="child-test"),
         lambda: DomainHostProcess(_broken_setup, name="child-test"),
         DomainUnavailableException, "setup exploded",
         lambda owner: [owner.pid], _lookup_echo),
    Kind("fleet",
         lambda: FleetHostProcess("h1", {}, secret=b"s" * 32),
         lambda: FleetHostProcess("h1", {}, secret="not bytes"),
         DomainUnavailableException, "secret must be bytes",
         lambda owner: [owner.pid], _ping),
    Kind("prefork",
         lambda: PreforkServer(NativeHttpServer, workers=1),
         lambda: PreforkServer(_broken_app, workers=1),
         PreforkError, "factory exploded",
         lambda owner: owner.worker_pids()),
]
PATH_KINDS = [kind for kind in KINDS if kind.probe is not None]


def _ids(kinds):
    return [kind.name for kind in kinds]


def _gone(pid):
    """True once ``pid`` has exited (a zombie awaiting its reaper counts:
    an orphan's new parent may not reap promptly)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _wait_gone(pids, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(_gone(pid) for pid in pids):
            return True
        time.sleep(0.02)
    return all(_gone(pid) for pid in pids)


def _live_children():
    """Pids of this process's children that have not exited."""
    me = str(os.getpid())
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            found.add(int(entry))
    return found


@pytest.mark.parametrize("kind", KINDS, ids=_ids(KINDS))
def test_child_exits_when_its_parent_is_sigkilled(kind):
    read_end, write_end = os.pipe()
    intermediate = os.fork()
    if intermediate == 0:
        try:
            os.close(read_end)
            owner = kind.make().start()
            report = {"pids": kind.pids(owner),
                      "path": getattr(owner, "path", None)}
            os.write(write_end, json.dumps(report).encode())
            time.sleep(60)
        finally:
            os._exit(1)
    os.close(write_end)
    try:
        readable, _, _ = select.select([read_end], [], [], 30.0)
        assert readable, "intermediate never reported its child"
        report = json.loads(os.read(read_end, 4096) or b"{}")
    finally:
        os.close(read_end)
        os.kill(intermediate, signal.SIGKILL)
        os.waitpid(intermediate, 0)
    pids = report.get("pids")
    assert pids and all(pids)
    orphaned = not _wait_gone(pids, 2.0)
    if orphaned:
        for pid in pids:  # never leak a server into the rest of the run
            os.kill(pid, signal.SIGKILL)
    assert not orphaned, f"{kind.name} child outlived its parent: {pids}"
    # Nobody is left to unlink an orphan's socket path but the orphan.
    assert report["path"] is None or not os.path.exists(report["path"])


@pytest.mark.parametrize("kind", KINDS, ids=_ids(KINDS))
def test_startup_failure_raises_typed_error_with_child_text(kind):
    before = _live_children()
    owner = kind.broken()
    with pytest.raises(kind.error) as err:
        owner.start()
    assert kind.text in str(err.value)
    assert _live_children() <= before
    path = getattr(owner, "path", None)
    if path is not None:
        assert owner.pid is None
        assert not os.path.exists(path)
    else:
        assert owner.worker_pids() == []


@pytest.mark.parametrize("kind", PATH_KINDS, ids=_ids(PATH_KINDS))
def test_kill_keeps_the_path_and_restart_succeeds(kind):
    owner = kind.make().start()
    try:
        assert kind.probe(owner)
        first = owner.pid
        owner.kill()
        assert owner.pid is None
        assert _gone(first)
        assert os.path.exists(owner.path)  # a crash leaves its address
        owner.start()
        assert owner.pid != first
        assert kind.probe(owner)
    finally:
        owner.stop()
    assert owner.pid is None
    assert not os.path.exists(owner.path)


def test_prefork_worker_kill_then_restart_in_place():
    """The worker kind has no socket path; its handle still restarts."""
    handle = WorkerHandle(PreforkServer(NativeHttpServer, workers=1), 1)
    handle.start()
    try:
        first = handle.pid
        handle.kill()
        assert handle.pid is None and _gone(first)
        handle.start()
        assert handle.alive()
        reply = handle.request({"type": "STATS"}, timeout=5.0)
        assert reply["pid"] == handle.pid
    finally:
        handle.stop()
    assert handle.pid is None


class _Stubborn(ChildProcess):
    """Reports READY without arming the EOF watcher, then hangs — the
    only way a child can ignore stop()'s channel close."""

    error = RpcTransportError

    def __init__(self):
        super().__init__(label="stubborn child")

    def main(self, channel):
        channel.send({"type": "READY"})
        time.sleep(60)


class _Silent(ChildProcess):
    error = RpcTransportError

    def __init__(self):
        super().__init__(label="silent child")

    def main(self, channel):
        time.sleep(60)


class TestParentSide:
    def test_stop_sigkills_a_child_that_ignores_eof(self, monkeypatch):
        monkeypatch.setattr(child_mod, "STOP_GRACE", 0.2)
        process = _Stubborn().start()
        pid = process.pid
        started = time.monotonic()
        process.stop()
        assert time.monotonic() - started < 5.0
        assert process.pid is None and _gone(pid)

    def test_startup_timeout_reaps_the_child(self, monkeypatch):
        monkeypatch.setattr(child_mod, "STARTUP_TIMEOUT", 0.2)
        monkeypatch.setattr(child_mod, "STOP_GRACE", 0.2)
        before = _live_children()
        with pytest.raises(RpcTransportError, match="did not report READY"):
            _Silent().start()
        assert _live_children() <= before

    def test_base_class_main_is_abstract(self):
        with pytest.raises(OSError, match="NotImplementedError"):
            ChildProcess(label="bare").start()

    def test_stop_and_kill_are_idempotent(self):
        process = RpcServerProcess({})
        process.stop()
        process.kill()
        with process:
            assert process.alive()
        assert not process.alive()
        process.kill()

    def test_alive_reaps_a_child_killed_from_outside(self):
        process = RpcServerProcess({}).start()
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while process.alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert process.pid is None
        assert not os.path.exists(f"/proc/{pid}")  # reaped, not a zombie
        process.stop()
        assert not os.path.exists(process.path)

    def test_sibling_does_not_hold_an_earlier_childs_channel(self):
        """A child closes every control end it inherited: closing the
        first child's channel must not be masked by the second child
        (forked later, so it inherited the first one's parent end)."""
        first = RpcServerProcess({}).start()
        second = RpcServerProcess({}).start()
        try:
            pid = first.pid
            first.channel.close()  # EOF — only if no one else holds it
            first.channel = None
            assert _wait_gone([pid], 2.0)
            assert second.alive()
        finally:
            first.stop()
            second.stop()


    def test_grandchild_exits_when_its_parent_dies(self):
        read_end, write_end = os.pipe()
        try:
            middle = _Nesting(write_end).start()
            grandchild = int(os.read(read_end, 64))
        finally:
            os.close(read_end)
            os.close(write_end)
        try:
            assert not _gone(grandchild)
            middle.kill()
            orphaned = not _wait_gone([grandchild], 2.0)
            if orphaned:
                os.kill(grandchild, signal.SIGKILL)
            assert not orphaned
        finally:
            middle.stop()


class _Nesting(ChildProcess):
    """A child that starts a child of its own (a prefork worker that
    hosts an out-of-process servlet) and reports the grandchild's pid."""

    error = RpcTransportError

    def __init__(self, report_fd):
        super().__init__(label="nesting child")
        self.report_fd = report_fd

    def main(self, channel):
        inner = RpcServerProcess({}).start()
        os.write(self.report_fd, str(inner.pid).encode())
        channel.ready()
        time.sleep(60)


class _InProcess(ChildProcess):
    """A child body driven on a thread (no fork) for coverage."""

    error = RpcTransportError

    def __init__(self, fail_before=None, fail_after=None):
        super().__init__(label="in-process child")
        self.fail_before = fail_before
        self.fail_after = fail_after
        self.release = threading.Event()

    def main(self, channel):
        if self.fail_before is not None:
            raise self.fail_before
        channel.ready()
        message = channel.recv(5.0)
        channel.send({"echo": message})
        self.release.wait(5.0)
        if self.fail_after is not None:
            raise self.fail_after


class TestChildSideInProcess:
    def _run(self, process, on_eof=None):
        parent_end, child_end = socket.socketpair()
        result = {}

        def body():
            result["status"] = run_child(process, child_end,
                                         on_eof or (lambda: None))

        worker = threading.Thread(target=body, daemon=True)
        worker.start()
        return Channel(parent_end, RpcTransportError), worker, result

    def test_ready_then_messages_then_eof(self):
        eof = threading.Event()
        process = _InProcess()
        channel, worker, result = self._run(process, eof.set)
        try:
            assert channel.recv(5.0) == {"type": "READY"}
            channel.send({"type": "PING"})
            assert channel.recv(5.0) == {"echo": {"type": "PING"}}
            process.release.set()
            worker.join(5.0)
            assert not worker.is_alive()
            assert result["status"] == 0
            assert not eof.is_set()
        finally:
            channel.sock.close()
        assert eof.wait(2.0)  # the orphan watcher saw the hang-up

    def test_failure_before_ready_reports_type_and_message(self):
        process = _InProcess(fail_before=ValueError("bind refused"))
        channel, worker, result = self._run(process)
        try:
            assert channel.recv(5.0) == {"type": "ERROR",
                                         "error": "ValueError",
                                         "message": "bind refused"}
            worker.join(5.0)
            assert result["status"] == 1
        finally:
            channel.sock.close()

    def test_failure_after_ready_is_printed(self, capsys):
        process = _InProcess(fail_after=KeyError("late"))
        channel, worker, result = self._run(process)
        try:
            assert channel.recv(5.0)["type"] == "READY"
            channel.send({})
            channel.recv(5.0)
            process.release.set()
            worker.join(5.0)
            assert result["status"] == 1
        finally:
            channel.sock.close()
        assert "KeyError: 'late'" in capsys.readouterr().err

    def test_error_unheard_by_a_dead_parent_is_printed(self, capsys):
        process = _InProcess(fail_before=RuntimeError("nobody listening"))
        parent_end, child_end = socket.socketpair()
        parent_end.close()
        assert run_child(process, child_end, lambda: None) == 1
        child_end.close()
        assert "nobody listening" in capsys.readouterr().err


class TestChannel:
    def test_timeout_eof_and_garbage_raise_the_typed_error(self):
        left, right = socket.socketpair()
        channel = Channel(left, PreforkError)
        try:
            with pytest.raises(PreforkError, match="timeout"):
                channel.recv(0.05)
            right.sendall(b"\x00\x00\x00\x03{x}")
            with pytest.raises(PreforkError, match="control channel"):
                channel.recv(1.0)
            right.close()
            with pytest.raises(PreforkError, match="control channel"):
                channel.recv(1.0)
            with pytest.raises(PreforkError, match="control channel"):
                channel.send({"type": "PING"})
        finally:
            left.close()
