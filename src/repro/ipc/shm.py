"""Per-connection shared-memory bulk ring for the cross-process wire.

Payloads above the LRMI inline threshold do not ride the socket: the
sender serializes into a shared-memory :class:`Segment` it
owns and sends a tiny *grant* frame — ``(generation, offset, length)``
— instead.  The receiver maps the same segment (announced once, by
name, over the socket) and deserializes straight out of it.

Why a bump allocator with wrap-around is enough
-----------------------------------------------

The LRMI protocol is strictly nested request/reply on each connection:
a peer fully *consumes* (deserializes, copying every byte into Python
objects) an inbound grant before it sends anything back.  So by the
time the granting side sees any inbound frame, its previous outbound
grant is dead — there is never more than one live grant per direction,
and reusing the region (including wrapping to offset 0 when the tail
is too short) can never overwrite bytes a peer still needs.

Failure handling
----------------

* **generation check** — every grant carries the ring's generation (a
  fresh value per created ring); a grant whose generation does not
  match the announced ring (a respawned host replaying state, a
  desynchronized stream) is refused with a typed error, never read.
* **too large** — a payload that cannot fit the ring at all falls back
  to the inline socket frame; the ring is an optimization, not a
  protocol requirement.
* **crash mid-grant** — both ends unlink the segment on close (POSIX
  ``shm_unlink`` by name is idempotent; the second call is a no-op),
  so whichever side survives a crash reclaims the name and the memory.

Segments are plain files under ``/dev/shm`` (:class:`Segment`: Linux
only, like ``purge_pid`` and ``pidfd_open``).  Ring names carry
:data:`RING_PREFIX`, which never starts with the ``jkr`` of sealed
region names, so ``regions.purge_pid`` never reclaims a live ring.
"""

from __future__ import annotations

import itertools
import os
import struct

GRANT = struct.Struct(">III")  # generation, offset, length

SHM_DIR = "/dev/shm/"

#: Name prefix of every bulk-ring segment (``regions`` names its own
#: segments ``jkr<pid>g<seq>``; the two must never share a prefix).
RING_PREFIX = "jkbulk"

_generation = itertools.count(
    (os.getpid() & 0xFFFF) << 16 | 1
).__next__


class RingError(Exception):
    """A grant that cannot be honored (stale generation, bad bounds)."""


class Segment:
    """A named POSIX shared-memory segment, mapped read-write.

    ``create=True`` makes a new ``/dev/shm/<name>`` of ``size`` bytes
    (``FileExistsError`` if the name is taken; a create that fails after
    the open unlinks the name again); otherwise the segment is attached
    and its size read back with ``fstat``.  ``buf`` is a memoryview of
    the mapping, ``None`` once :meth:`close` ran; ``close`` raises
    ``BufferError`` while a slice of ``buf`` is still exported.
    Lifetime is explicit: nothing unlinks a segment but :meth:`unlink`
    (or ``regions.purge_pid``)."""

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name, create=False, size=0):
        import mmap  # lazily: most forked processes never map a segment

        if not name or "/" in name:
            raise ValueError(f"bad shared-memory segment name {name!r}")
        path = SHM_DIR + name
        flags = os.O_RDWR | os.O_NOFOLLOW
        if create:
            flags |= os.O_CREAT | os.O_EXCL
        fd = os.open(path, flags, 0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)  # dups fd; ours closes below
        except BaseException:
            if create:
                os.unlink(path)
            raise
        finally:
            os.close(fd)
        self.name = name
        self.size = size
        self.buf = memoryview(self._mmap)

    def close(self):
        """Unmap (idempotent); ``BufferError`` while a view is exported."""
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        self._mmap.close()

    def unlink(self):
        """Remove the name; ``FileNotFoundError`` once it is gone."""
        os.unlink(SHM_DIR + self.name)


class BulkRing:
    """One shared-memory segment with a bump allocator (sender side)
    or a validated read window (receiver side)."""

    __slots__ = ("shm", "name", "size", "generation", "_next", "_owner")

    def __init__(self, shm, generation, owner):
        self.shm = shm
        self.name = shm.name
        self.size = shm.size
        self.generation = generation
        self._next = 0
        self._owner = owner

    @classmethod
    def create(cls, size):
        shm = Segment(RING_PREFIX + os.urandom(8).hex(), create=True,
                      size=size)
        return cls(shm, _generation() & 0xFFFFFFFF, owner=True)

    @classmethod
    def attach(cls, name, generation):
        return cls(Segment(name), generation, owner=False)

    # -- sender ------------------------------------------------------------
    def grant(self, payload):
        """Copy ``payload`` into the ring; returns the packed grant
        header, or None when the payload cannot fit at all (caller
        falls back to an inline frame)."""
        length = len(payload)
        if length > self.size:
            return None
        offset = self._next
        if offset + length > self.size:
            offset = 0  # wrap: the tail is too short
        self._next = offset + length
        self.shm.buf[offset:offset + length] = payload
        return GRANT.pack(self.generation, offset, length)

    def grant_parts(self, parts):
        """Like :meth:`grant` but scatters several bytes-likes into one
        contiguous granted region, so callers never concatenate."""
        length = sum(len(part) for part in parts)
        if length > self.size:
            return None
        offset = self._next
        if offset + length > self.size:
            offset = 0  # wrap: the tail is too short
        self._next = offset + length
        cursor = offset
        buf = self.shm.buf
        for part in parts:
            buf[cursor:cursor + len(part)] = part
            cursor += len(part)
        return GRANT.pack(self.generation, offset, length)

    # -- receiver ----------------------------------------------------------
    def view(self, generation, offset, length):
        """The granted bytes as a zero-copy memoryview, after checking
        the grant against this ring's announced generation and bounds."""
        if generation != self.generation:
            raise RingError(
                f"grant generation {generation} does not match ring "
                f"generation {self.generation} (stale ring?)"
            )
        if offset + length > self.size:
            raise RingError(
                f"grant [{offset}:{offset + length}] exceeds ring size "
                f"{self.size}"
            )
        return self.shm.buf[offset:offset + length]

    # -- lifecycle ---------------------------------------------------------
    def close(self):
        """Unmap and unlink; returns the number of *swallowed* failures.

        Both ends call this; unlink-by-name is idempotent, so a crash on
        either side leaves no segment behind as long as the survivor
        closes.  A ``BufferError`` here means a consumer leaked a live
        :meth:`view` export — the mapping stays pinned until GC — so the
        count is surfaced in connection stats rather than silently
        ``pass``-ed.  (Unlink failures are *expected* — the peer usually
        unlinked first — and are not counted.)
        """
        failures = 0
        try:
            self.shm.close()
        except (OSError, BufferError):
            failures += 1
        try:
            self.shm.unlink()
        except OSError:  # includes FileNotFoundError: peer beat us
            pass
        return failures

    def __repr__(self):
        role = "owner" if self._owner else "attached"
        return (f"<BulkRing {self.name} {self.size}B "
                f"gen={self.generation} ({role})>")
