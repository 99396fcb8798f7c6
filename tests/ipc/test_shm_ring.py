"""Shared-memory bulk-ring edges: wrap-around, fallback, stale grants.

The ring is an optimization with sharp failure edges; each gets pinned
here at the level where it lives — the :class:`Segment` primitive under
both the ring and sealed regions, allocator arithmetic on a bare
:class:`BulkRing`, grant validation on a :class:`_Connection`, and the
full client↔host path over a real fork for the behaviour a user
observes (big payloads still round-trip when the ring wraps, overflows,
or cannot exist at all).
"""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Capability, Domain, Remote
from repro.ipc import DomainHostProcess, ProtocolError, connect
from repro.ipc import lrmi
from repro.ipc.lrmi import MF_SHM, _Connection, _Peer
from repro.ipc.shm import (
    GRANT,
    RING_PREFIX,
    SHM_DIR,
    BulkRing,
    RingError,
    Segment,
)


def _fresh_name(tag):
    return f"jktest{os.getpid()}{tag}"


class TestSegment:
    def test_create_attach_share_bytes(self):
        name = _fresh_name("share")
        owner = Segment(name, create=True, size=8192)
        try:
            owner.buf[:5] = b"hello"
            peer = Segment(name)
            try:
                assert peer.size == 8192  # read back with fstat
                assert bytes(peer.buf[:5]) == b"hello"
            finally:
                peer.close()
        finally:
            owner.close()
            owner.unlink()
        assert not os.path.exists(SHM_DIR + name)
        with pytest.raises(FileNotFoundError):
            owner.unlink()

    def test_create_over_existing_name_keeps_the_segment(self):
        name = _fresh_name("exists")
        first = Segment(name, create=True, size=4096)
        try:
            first.buf[:4] = b"keep"
            with pytest.raises(FileExistsError):
                Segment(name, create=True, size=4096)
            survivor = Segment(name)
            try:
                assert survivor.size == 4096
                assert bytes(survivor.buf[:4]) == b"keep"
            finally:
                survivor.close()
        finally:
            first.close()
            first.unlink()

    def test_failed_create_leaves_no_name(self):
        name = _fresh_name("empty")
        with pytest.raises((OSError, ValueError)):
            Segment(name, create=True, size=0)
        assert not os.path.exists(SHM_DIR + name)

    def test_close_with_exported_view_raises_buffer_error(self):
        name = _fresh_name("pinned")
        segment = Segment(name, create=True, size=4096)
        try:
            view = segment.buf[:16]
            with pytest.raises(BufferError):
                segment.close()
            view.release()
            segment.close()
            segment.close()  # idempotent
            assert segment.buf is None
        finally:
            segment.unlink()

    def test_names_with_a_path_are_refused(self):
        with pytest.raises(ValueError):
            Segment("../etc/passwd")
        with pytest.raises(ValueError):
            Segment("")

    def test_ring_names_never_match_region_names(self):
        ring = BulkRing.create(256)
        try:
            assert ring.name.startswith(RING_PREFIX)
            assert not RING_PREFIX.startswith("jkr")
        finally:
            ring.close()


_NO_MULTIPROCESSING = """
import sys
from repro.core import seal
from repro.core.regions import AttachmentCache
from repro.ipc.shm import BulkRing

region = seal(b"s" * 65536)
cache = AttachmentCache()
view = cache.resolve(region.grant_descriptor())
assert view.bytes() == b"s" * 65536
view.revoke()
region.revoke()
assert cache.close() == 0
ring = BulkRing.create(4096)
peer = BulkRing.attach(ring.name, ring.generation)
assert peer.close() == 0 and ring.close() == 0
print("multiprocessing" in sys.modules)
"""


def test_shared_memory_never_imports_multiprocessing():
    """Every forked host inherits its parent's imports, and a cold
    ``multiprocessing`` import costs a servlet host's startup tens of
    milliseconds: sealing, resolving and ringing must not pull it in,
    and must leave no segment behind."""
    src = Path(__file__).resolve().parents[2] / "src"
    ours = (RING_PREFIX, "jkr")
    before = {n for n in os.listdir(SHM_DIR) if n.startswith(ours)}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MULTIPROCESSING],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout.decode()
    assert proc.stdout.decode().strip() == "False"
    after = {n for n in os.listdir(SHM_DIR) if n.startswith(ours)}
    assert after <= before, f"segments left behind: {after - before}"


class TestBulkRingAllocator:
    def test_grant_view_round_trip(self):
        ring = BulkRing.create(4096)
        try:
            grant = ring.grant(b"hello ring")
            generation, offset, length = GRANT.unpack(grant)
            assert generation == ring.generation
            assert bytes(ring.view(generation, offset, length)) \
                == b"hello ring"
        finally:
            ring.close()

    def test_wrap_around_reuses_offset_zero(self):
        """A payload that does not fit the tail wraps to offset 0 — and
        the strictly-nested request/reply protocol means the bytes it
        overwrites are already dead."""
        ring = BulkRing.create(1024)
        try:
            first = ring.grant(b"a" * 700)
            _, offset_a, _ = GRANT.unpack(first)
            assert offset_a == 0
            second = ring.grant(b"b" * 700)  # tail is 324 bytes: wrap
            _, offset_b, length_b = GRANT.unpack(second)
            assert offset_b == 0
            assert bytes(ring.view(ring.generation, offset_b, length_b)) \
                == b"b" * 700
        finally:
            ring.close()

    def test_payload_larger_than_ring_returns_none(self):
        ring = BulkRing.create(256)
        try:
            assert ring.grant(b"x" * 257) is None
            assert ring.grant_parts((b"x" * 200, b"y" * 57)) is None
        finally:
            ring.close()

    def test_grant_parts_scatters_contiguously(self):
        ring = BulkRing.create(1024)
        try:
            grant = ring.grant_parts((b"head-", b"body-", b"tail"))
            generation, offset, length = GRANT.unpack(grant)
            assert bytes(ring.view(generation, offset, length)) \
                == b"head-body-tail"
        finally:
            ring.close()

    def test_stale_generation_refused(self):
        ring = BulkRing.create(256)
        try:
            grant = ring.grant(b"payload")
            generation, offset, length = GRANT.unpack(grant)
            with pytest.raises(RingError, match="generation"):
                ring.view(generation + 1, offset, length)
        finally:
            ring.close()

    def test_out_of_bounds_grant_refused(self):
        ring = BulkRing.create(256)
        try:
            with pytest.raises(RingError, match="exceeds"):
                ring.view(ring.generation, 200, 100)
        finally:
            ring.close()

    def test_close_unlinks_and_is_idempotent(self):
        ring = BulkRing.create(256)
        name = ring.name
        ring.close()
        ring.close()  # second close: no-op, no raise
        with pytest.raises((FileNotFoundError, OSError)):
            BulkRing.attach(name, ring.generation)

    def test_clean_close_counts_zero_swallowed_failures(self):
        ring = BulkRing.create(256)
        assert ring.close() == 0

    def test_leaked_view_export_is_counted_not_silenced(self):
        """A consumer that kept a live ``view`` export past the ring's
        life pins the mapping; ``close`` swallows the ``BufferError``
        (teardown must not fail) but reports it, so connection stats can
        surface the leak instead of hiding it in a bare ``pass``."""
        ring = BulkRing.create(4096)
        grant = ring.grant(b"pinned payload")
        generation, offset, length = GRANT.unpack(grant)
        leaked = ring.view(generation, offset, length)
        try:
            assert ring.close() == 1
        finally:
            leaked.release()


class TestGrantValidation:
    """``_Connection._open`` against hostile or stale grants."""

    def _connection(self):
        left, right = socket.socketpair()
        self._spare = right
        return _Connection(left, _Peer())

    def test_grant_before_announcement_rejected(self):
        conn = self._connection()
        try:
            payload = bytes((MF_SHM,)) + GRANT.pack(1, 0, 16)
            with pytest.raises(ProtocolError, match="before ring"):
                conn._open(payload)
        finally:
            conn.close()
            self._spare.close()

    def test_stale_generation_is_typed_protocol_error(self):
        """A respawned host replaying a grant against the previous
        incarnation's ring must get a typed refusal, never a read of
        unrelated bytes."""
        conn = self._connection()
        ring = BulkRing.create(512)
        try:
            ring.grant(b"live payload")
            conn._peer_ring = BulkRing.attach(ring.name,
                                              ring.generation + 7)
            payload = bytes((MF_SHM,)) + GRANT.pack(ring.generation, 0, 12)
            with pytest.raises(ProtocolError, match="generation"):
                conn._open(payload)
        finally:
            conn.close()  # closes the attached ring too
            ring.close()
            self._spare.close()

    def test_nested_grant_rejected(self):
        conn = self._connection()
        ring = BulkRing.create(512)
        try:
            grant = ring.grant(bytes((MF_SHM,)) + b"inner")
            conn._peer_ring = BulkRing.attach(ring.name, ring.generation)
            payload = bytes((MF_SHM,)) + grant
            with pytest.raises(ProtocolError, match="nested"):
                conn._open(payload)
        finally:
            conn.close()
            ring.close()
            self._spare.close()


class IEcho(Remote):
    def echo(self, value): ...


class EchoImpl(IEcho):
    def echo(self, value):
        return value


def _echo_setup():
    domain = Domain("ring-echo")
    return {"echo": domain.run(
        lambda: Capability.create(EchoImpl(), label="ring-echo")
    )}


@pytest.fixture()
def small_ring(monkeypatch):
    """Shrink the ring and threshold (pre-fork, so the host inherits
    both) to make wrap-around and overflow cheap to reach."""
    monkeypatch.setattr(lrmi, "RING_SIZE", 8192)
    monkeypatch.setattr(lrmi, "SHM_THRESHOLD", 2048)
    return 8192


class TestRingOverTheWire:
    def test_large_payloads_ride_the_ring_and_wrap(self, small_ring):
        """Payloads above SHM_THRESHOLD but below the ring size go via
        shared memory; enough of them in sequence force the bump
        allocator to wrap, and every echo still round-trips intact."""
        host = DomainHostProcess(_echo_setup, name="ring-wrap").start()
        client = connect(host)
        try:
            proxy = client.lookup("echo")
            payloads = [bytes([index]) * 5000 for index in range(6)]
            for payload in payloads:
                assert proxy.echo(payload) == payload
        finally:
            client.close()
            host.stop()

    def test_payload_larger_than_ring_falls_back_inline(self, small_ring):
        """A payload the ring cannot hold at all uses the inline socket
        frame — the ring is an optimization, not a protocol demand."""
        host = DomainHostProcess(_echo_setup, name="ring-over").start()
        client = connect(host)
        try:
            proxy = client.lookup("echo")
            huge = b"z" * (small_ring * 3)
            assert proxy.echo(huge) == huge
            # and the connection still works for ring-sized traffic after
            assert proxy.echo(b"w" * 5000) == b"w" * 5000
        finally:
            client.close()
            host.stop()

    def test_respawn_gets_fresh_ring_generation(self, small_ring):
        """Kill the host mid-conversation: the replacement connection
        negotiates fresh rings (fresh generations), and traffic resumes
        without any stale-grant confusion."""
        host = DomainHostProcess(_echo_setup, name="ring-respawn").start()
        client = connect(host)
        try:
            proxy = client.lookup("echo")
            assert proxy.echo(b"a" * 5000) == b"a" * 5000
            host.stop()
            replacement = DomainHostProcess(
                _echo_setup, name="ring-respawn"
            ).start()
            try:
                fresh_client = connect(replacement)
                try:
                    fresh = fresh_client.lookup("echo")
                    assert fresh.echo(b"b" * 5000) == b"b" * 5000
                finally:
                    fresh_client.close()
            finally:
                replacement.stop()
        finally:
            client.close()
            host.stop()
