"""Sealed-region lifecycle: seal/grant/revoke, pooling, fail-closed reads.

Single-process coverage of the region kernel — every transition of the
grant state machine that does not need a second OS process (the wire leg
lives in ``tests/ipc/test_regions_xproc.py``, the SIGKILL leg in the
chaos matrix).  The invariant under test throughout: once a region is
revoked — explicitly, by pool recycle, by GC, or by owner death — every
read path raises the typed :class:`RegionRevokedError`, never returns
stale bytes.
"""

import gc
import os

import pytest

from repro.core import RegionRevokedError, SealedRegion, seal, transfer
from repro.core.regions import (
    HEADER_SIZE,
    REVOKED_GENERATION,
    AttachmentCache,
    _segment_name,
    purge_pid,
)
from repro.ipc.shm import Segment


@pytest.fixture()
def cache():
    attachments = AttachmentCache()
    try:
        yield attachments
    finally:
        attachments.close()


class TestSealing:
    def test_round_trip_reads(self):
        payload = bytes(range(256)) * 8
        region = seal(payload)
        try:
            assert len(region) == len(payload)
            assert region.bytes() == payload
            assert bytes(region) == payload
            assert region.owner and not region.revoked
        finally:
            region.revoke()

    def test_view_is_zero_copy_and_read_only(self):
        region = seal(b"immutable")
        try:
            view = region.view()
            assert bytes(view) == b"immutable"
            assert view.readonly
            with pytest.raises(TypeError):
                view[0] = 0
        finally:
            region.revoke()

    def test_seal_of_a_region_is_idempotent(self):
        region = seal(b"once")
        try:
            assert seal(region) is region
            assert SealedRegion.seal(region) is region
        finally:
            region.revoke()

    def test_seal_rejects_non_byteslike(self):
        with pytest.raises(TypeError):
            seal("text is not bytes")
        with pytest.raises(TypeError):
            seal([1, 2, 3])

    def test_equality_with_bytes_and_regions(self):
        region = seal(b"same")
        other = seal(b"same")
        different = seal(b"diff")
        try:
            assert region == b"same"
            assert b"same" == region  # reflected: bytes on the left
            assert region == other
            assert region != different
            assert region != b"nope"
        finally:
            region.revoke()
            other.revoke()
            different.revoke()

    def test_crosses_in_process_by_reference(self):
        region = seal(b"by-reference")
        try:
            assert transfer(region) is region
            copied = transfer([region, region])
            assert copied[0] is region and copied[1] is region
        finally:
            region.revoke()


class TestRevocation:
    def test_revoke_is_idempotent_and_latches(self):
        region = seal(b"short-lived")
        region.revoke()
        region.revoke()  # second revoke: no-op, no error
        assert region.revoked
        with pytest.raises(RegionRevokedError):
            region.bytes()
        with pytest.raises(RegionRevokedError):
            region.view()
        with pytest.raises(RegionRevokedError):
            region.grant_descriptor()

    def test_revoke_releases_issued_views(self):
        region = seal(b"viewed")
        view = region.view()
        region.revoke()
        with pytest.raises(ValueError):
            bytes(view)  # released memoryview: unusable, not stale

    def test_pool_recycle_bumps_generation(self):
        first = seal(b"a" * 64)
        name, generation = first.name, first.generation
        first.revoke()
        second = seal(b"b" * 64)  # same size class: recycled segment
        try:
            assert second.name == name
            assert second.generation > generation
        finally:
            second.revoke()

    def test_gc_of_unrevoked_owner_poisons_not_leaks(self, cache):
        """An owner dropped without revoke() must fail attached readers
        typed — the finalizer poisons the shared header."""
        region = seal(b"dropped on the floor")
        descriptor = region.grant_descriptor()
        view = cache.resolve(descriptor)
        assert view.bytes() == b"dropped on the floor"
        del region
        gc.collect()
        with pytest.raises(RegionRevokedError):
            view.bytes()
        with pytest.raises(RegionRevokedError):
            cache.resolve(descriptor)


class TestGrantDescriptors:
    def test_descriptor_shape(self):
        region = seal(b"d" * 32)
        try:
            kind, name, generation, offset, length = \
                region.grant_descriptor()
            assert kind == "region"
            assert name == region.name
            assert generation == region.generation != REVOKED_GENERATION
            assert offset == HEADER_SIZE
            assert length == 32
        finally:
            region.revoke()

    def test_resolve_round_trip(self, cache):
        region = seal(b"granted payload")
        try:
            view = cache.resolve(region.grant_descriptor())
            assert not view.owner
            assert view.bytes() == b"granted payload"
            assert view == region
        finally:
            region.revoke()

    def test_owner_revocation_reaches_attached_views(self, cache):
        """The shared header is the broadcast channel: no wire frame is
        needed for an attached process to observe the revocation."""
        region = seal(b"broadcast")
        view = cache.resolve(region.grant_descriptor())
        assert view.bytes() == b"broadcast"
        region.revoke()
        with pytest.raises(RegionRevokedError):
            view.bytes()
        assert view.revoked

    def test_stale_generation_refused_after_recycle(self, cache):
        """A descriptor that outlived a pool recycle must not read the
        NEW tenant's bytes."""
        first = seal(b"x" * 128)
        stale = first.grant_descriptor()
        first.revoke()
        second = seal(b"y" * 128)  # recycles the same segment
        try:
            assert second.name == stale[1]
            with pytest.raises(RegionRevokedError):
                cache.resolve(stale)
            # The current grant still resolves fine.
            fresh = cache.resolve(second.grant_descriptor())
            assert fresh.bytes() == b"y" * 128
        finally:
            second.revoke()

    def test_poison_generation_refused_without_attach(self, cache):
        with pytest.raises(RegionRevokedError):
            cache.resolve(("region", "jkr1g1", REVOKED_GENERATION, 16, 1))

    def test_unknown_segment_refused_typed(self, cache):
        with pytest.raises(RegionRevokedError):
            cache.resolve(("region", "jkr999999g999", 7, 16, 1))

    def test_out_of_bounds_grant_refused(self, cache):
        region = seal(b"z" * 16)
        try:
            kind, name, generation, offset, _length = \
                region.grant_descriptor()
            with pytest.raises(RegionRevokedError):
                cache.resolve((kind, name, generation, offset, 10_000))
        finally:
            region.revoke()


class TestOwnerDeath:
    def test_dead_owner_reads_fail_closed_and_purge_reclaims(self, cache):
        """A view whose owner was SIGKILLed must read as revoked (nobody
        can poison the header anymore), and ``purge_pid`` reclaims the
        dead owner's segments by name."""
        read_fd, write_fd = os.pipe()
        child = os.fork()
        if child == 0:  # the owner-to-be, dying without cleanup
            os.close(read_fd)
            region = seal(b"orphaned bytes")
            line = repr(region.grant_descriptor()).encode()
            os.write(write_fd, line)
            os.close(write_fd)
            os._exit(0)  # skips atexit: the segment outlives the owner
        os.close(write_fd)
        payload = os.read(read_fd, 4096)
        os.close(read_fd)
        os.waitpid(child, 0)
        descriptor = eval(payload)  # trusted: our own child wrote it
        assert descriptor[1].startswith(f"jkr{child}g")
        view = cache.resolve(descriptor)
        with pytest.raises(RegionRevokedError):
            view.bytes()
        cache.invalidate(descriptor[1])
        removed = purge_pid(child)
        assert descriptor[1] in removed
        assert purge_pid(child) == []  # idempotent


class TestPurgeAndCacheHygiene:
    def test_purge_pid_targets_only_that_pid(self):
        fake_pid = 4_000_000  # beyond pid_max: never a live process
        name = _segment_name(fake_pid, 1)
        segment = Segment(name, create=True, size=4096)
        segment.close()
        mine = seal(b"still mine")
        try:
            removed = purge_pid(fake_pid)
            assert removed == [name]
            assert mine.bytes() == b"still mine"  # untouched
        finally:
            mine.revoke()

    def test_cache_close_reports_zero_failures_when_clean(self, cache):
        region = seal(b"clean close")
        view = cache.resolve(region.grant_descriptor())
        view.revoke()
        assert cache.close() == 0
        region.revoke()
