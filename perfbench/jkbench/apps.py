"""The systems under test, built only through the repo's public API.

Each ``*_app`` returns an ``app_factory`` for ``PreforkServer``: it runs
in the forked worker, so the closures may capture generated inputs
(nothing is pickled).  The fleet workload builds a ``FleetCoordinator``
in the benchmark process; its hosts are forked agents.
"""

from __future__ import annotations

from repro.bench.workloads import build_iis_jkernel
from repro.core import Capability, Domain, Remote, fast_copy
from repro.fleet import FleetCoordinator
from repro.web import (
    JKernelWebServer,
    NativeHttpServer,
    Servlet,
    ServletResponse,
    error_response,
)

from . import inputs as gen

KV_POLICY = ["kv.read", "kv.write"]
STORED = b"stored"


# -- table5-servlet -----------------------------------------------------------

def table5_app():
    return build_iis_jkernel(workers=1)


# -- oop-servlet --------------------------------------------------------------

class BlobServlet(Servlet):
    """Returns one prebuilt response; bodies over the seal threshold
    become a sealed shared-memory region when the response is built."""

    def __init__(self, body):
        self.response = ServletResponse(
            200, {"Content-Type": "application/octet-stream"}, body)

    def service(self, request):
        return self.response


def oop_app(bodies):
    def app():
        jk = JKernelWebServer(NativeHttpServer(workers=1))
        for size, body in bodies.items():
            jk.install_servlet_out_of_process(
                f"/odoc{size}", lambda body=body: BlobServlet(body))
        return jk
    return app


# -- kv-policy ----------------------------------------------------------------

@fast_copy(fields=("key", "value"))
class KvRecord:
    """The kv-policy carrier: copied by the fast-copy path on every
    crossing into or out of the store domain."""

    def __init__(self, key, value):
        self.key = key
        self.value = value


class KvStore(Remote):
    def read(self, key): ...

    def write(self, record): ...


class KvStoreImpl(KvStore):
    def __init__(self, initial):
        self.data = {key: KvRecord(key, value)
                     for key, value in initial.items()}

    def read(self, key):
        return self.data.get(key)

    def write(self, record):
        self.data[record.key] = record
        return True


def kv_store(initial, guarded=True):
    """The store domain and its read/write capabilities."""
    domain = Domain("kv-store")
    impl = KvStoreImpl(initial)
    read_guard, write_guard = KV_POLICY if guarded else (None, None)
    read_cap = domain.run(lambda: Capability.create(
        impl, guard=read_guard, label="kv-read"))
    write_cap = domain.run(lambda: Capability.create(
        impl, guard=write_guard, label="kv-write"))
    return domain, impl, read_cap, write_cap


class KvServlet(Servlet):
    """GET reads and POST writes one record through guarded
    capabilities; runs in a domain restricted to ``KV_POLICY``."""

    PREFIX = "/kv/"

    def __init__(self, read_cap, write_cap):
        self._read = read_cap
        self._write = write_cap

    def service(self, request):
        key = request.path[len(self.PREFIX):]
        if request.method == "POST":
            self._write.write(KvRecord(key, request.body))
            return ServletResponse(200, {"Content-Type": "text/plain"},
                                   STORED)
        record = self._read.read(key)
        if record is None:
            return error_response(404, f"no key {key}")
        return ServletResponse(
            200, {"Content-Type": "application/octet-stream"}, record.value)


def install_kv(jk, read_cap, write_cap):
    """Route ``/kv`` to a servlet in a domain restricted to KV_POLICY."""
    return jk.install_servlet(
        "/kv", lambda: KvServlet(read_cap, write_cap), policy=KV_POLICY)


def kv_app(initial):
    def app():
        jk = JKernelWebServer(NativeHttpServer(workers=1))
        _domain, _impl, read_cap, write_cap = kv_store(initial)
        install_kv(jk, read_cap, write_cap)
        return jk
    return app


# -- fleet-call ---------------------------------------------------------------

class FleetKv(Remote):
    def get(self, key): ...

    def put(self, key, value): ...


class FleetKvImpl(FleetKv):
    def __init__(self, data):
        self.data = data

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        self.data[key] = value
        return True


def fleet_registry(initial):
    """``{kind: setup}``: one kind per placement, each seeded with its
    own slice of the generated store."""
    def setup_for(placement):
        def setup():
            data = {key: value for (name, key), value in initial.items()
                    if name == placement}
            domain = Domain(f"fleet-{placement}")
            return domain.run(lambda: Capability.create(
                FleetKvImpl(data), label=placement))
        return setup
    return {placement: setup_for(placement)
            for placement, _tenant in gen.FLEET_PLACEMENTS}


def start_fleet(initial):
    """Coordinator plus two forked hosts and four placements.

    Returns ``(coordinator, {placement: token})``; the caller stops the
    coordinator, which stops the hosts it spawned.
    """
    coordinator = FleetCoordinator(fleet_registry(initial)).start()
    try:
        coordinator.spawn_host("h1")
        coordinator.spawn_host("h2")
        tokens = {placement: coordinator.place(placement, placement, tenant)
                  for placement, tenant in gen.FLEET_PLACEMENTS}
    except BaseException:
        coordinator.stop()
        raise
    return coordinator, tokens
