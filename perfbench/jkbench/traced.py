"""The traced run: each layer timed from outside, through its public
entry point.

A traced run first makes the ordinary untraced run of the named
workload, which supplies ``ops_per_s`` and the server's cache counters.
Then every workload's generated inputs are replayed in-process, request
by request, through the chain of public calls that request crosses.  A
span (name, start, end, parent, request id) is recorded around each
call; each request's stage spans hang off one root span.  A layer's
self time is the difference of two such calls, e.g.
``IsapiBridge.handle`` minus the ``SystemServlet.service`` it makes.
Nothing inside ``src/`` is traced.

All four chains are replayed in every traced run, so every per-layer
metric is present in every traced run.  A metric that several chains
exercise is taken from the named workload's chain when it is one of
them, else from the first chain listed for it in :data:`LAYERS`.  Calls
well under a microsecond are timed in batches and divided, so that the
clock read does not dominate them.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.bench.workloads import build_iis_jkernel
from repro.core import Capability, Domain, Remote, seal, transfer
from repro.fleet.proto import decode_request, encode_request
from repro.ipc import DomainHostProcess, RpcClient, connect, null_server
from repro.web import (
    JKernelWebServer,
    NativeHttpServer,
    RequestParser,
    ServletRequest,
    SystemServlet,
)

from . import apps, client, e2e, host
from . import inputs as gen

#: Requests replayed per chain, after ``WARMUP`` unrecorded ones.
REPLAY = 1000
WARMUP = 200
#: Batch size for sub-microsecond calls.
BATCH = 50

T5, OOP, KV, FLEET = gen.WORKLOADS

#: Per-layer metric -> (chains that exercise it, span, span subtracted).
#: The first chain is used when the named workload is not among them.
#: A metric with a subtracted span is the self time of the outer call.
LAYERS = {
    "web.http.parse_us": ((T5, KV, OOP), "web.http.parse", None),
    "web.http.format_us": ((T5, OOP, KV), "web.http.format", None),
    "web.httpd.native_process_us": (
        (T5,), "web.httpd.native_process", None),
    "web.httpd.servlet_process_us": (
        (T5, KV, OOP), "web.httpd.servlet_process", None),
    "web.isapi.bridge_self_us": (
        (T5, KV), "web.isapi.bridge_handle", "web.jkweb.system_service"),
    "web.jkweb.route_self_us": (
        (T5, KV), "web.jkweb.system_service",
        "web.jkweb.capability_service"),
    "core.stubs.crossing_us": (
        (T5,), "core.stubs.twin_capability_service",
        "core.stubs.twin_object_service"),
    "core.stubs.null_lrmi_us": ((T5,), "core.stubs.null_lrmi", None),
    "core.stubs.kv_read_us": ((KV,), "core.stubs.kv_read", None),
    "core.stubs.kv_write_us": ((KV,), "core.stubs.kv_write", None),
    "core.policy.guard_us": (
        (KV,), "core.stubs.kv_read", "core.stubs.kv_read_open"),
    "core.fastcopy.record_us": ((KV,), "core.fastcopy.record", None),
    "ipc.lrmi.null_us": ((OOP,), "ipc.lrmi.null", None),
    "ipc.lrmi.service_us": ((OOP,), "ipc.lrmi.service", None),
    "ipc.lrmi.service_64k_us": ((OOP,), "ipc.lrmi.service_64k", None),
    "core.regions.seal_64k_us": ((OOP,), "core.regions.seal_64k", None),
    "ipc.ntrpc.null_us": ((FLEET,), "ipc.ntrpc.null", None),
    "fleet.tokens.verify_us": ((FLEET,), "fleet.tokens.verify", None),
    "fleet.proto.codec_us": ((FLEET,), "fleet.proto.codec", None),
    "fleet.coordinator.call_self_us": (
        (FLEET,), "fleet.coordinator.call", "ipc.ntrpc.null"),
}

#: The in-process stages whose sum a request of each workload costs;
#: what the client sees beyond them is sockets, reactor and scheduling.
STAGES = {
    T5: ("web.http.parse", "web.httpd.servlet_process", "web.http.format"),
    OOP: ("web.http.parse", "web.httpd.servlet_process", "web.http.format"),
    KV: ("web.http.parse", "web.httpd.servlet_process", "web.http.format"),
    FLEET: ("fleet.coordinator.call",),
}

clock = time.perf_counter_ns


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self):
        self.spans = []
        self.per_op_us = {}

    def add(self, name, start, end, parent=None, rid=None, n=1):
        self.spans.append((name, start, end, parent, rid, n))
        self.per_op_us.setdefault(name, []).append((end - start) / n / 1e3)

    def call(self, name, parent, rid, fn, *args):
        start = clock()
        result = fn(*args)
        self.add(name, start, clock(), parent, rid)
        return result

    def batch(self, name, parent, rid, fn, *args, n=BATCH):
        start = clock()
        for _ in range(n):
            fn(*args)
        self.add(name, start, clock(), parent, rid, n)

    def median(self, name):
        return statistics.median(self.per_op_us[name])

    def write(self, path):
        with open(path, "w") as handle:
            for index, (name, start, end, parent, rid, n) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "rid": rid, "n": n,
                }) + "\n")


class _Scoped:
    """Prefixes span names with the chain, so chains share one tracer."""

    def __init__(self, tracer, chain):
        self.tracer = tracer
        self.prefix = chain + ":"

    def call(self, name, parent, rid, fn, *args):
        return self.tracer.call(self.prefix + name, parent, rid, fn, *args)

    def batch(self, name, parent, rid, fn, *args, n=BATCH):
        self.tracer.batch(self.prefix + name, parent, rid, fn, *args, n=n)


def _replayed(inputs):
    """WARMUP + REPLAY calls, taking the scripts in turn as the
    closed-loop connections would."""
    scripts = inputs.scripts
    calls = []
    for index in range(WARMUP + REPLAY):
        script = scripts[index % len(scripts)]
        calls.append(script[(index // len(scripts)) % len(script)])
    return calls


def _parse(raw):
    parser = RequestParser()
    parser.feed(raw)
    return parser.next_request()


def _servlet_request(request, mount="/servlet"):
    return ServletRequest(request.method, request.path[len(mount):],
                          request.headers, request.body)


def _system_for(jk):
    """A system servlet routing exactly like ``jk``'s own."""
    system = SystemServlet()
    for prefix, registration in jk.registrations().items():
        system.add_route(prefix, registration.capability, registration)
    return system


def _seal_and_revoke(body):
    seal(body).revoke()


def _codec(envelope):
    return decode_request(encode_request(envelope))


class _NullService(Remote):
    def nop(self): ...


class _NullImpl(_NullService):
    def nop(self):
        return None


def _null_setup():
    domain = Domain("perfbench-null")
    return {"null": domain.run(lambda: Capability.create(_NullImpl()))}


class Chains:
    """Builds each chain's fixtures, replays its inputs, checks replies."""

    def __init__(self, seed, outcome):
        self.seed = seed
        self.outcome = outcome
        self.tracer = Tracer()
        self.closers = []
        self.heartbeats_per_s = 0.0

    def close(self):
        while self.closers:
            self.closers.pop()()

    def replay(self, chain, inputs, stages, check):
        """Run ``stages(t, root, rid, call)`` on each replayed call under
        a root span; the first WARMUP calls go to a discarded tracer."""
        scratch = _Scoped(Tracer(), chain)
        scoped = _Scoped(self.tracer, chain)
        for rid, call in enumerate(_replayed(inputs)):
            t = scratch if rid < WARMUP else scoped
            spans = t.tracer.spans
            root = len(spans)
            spans.append(None)  # the root span, filled in below
            start = clock()
            result = stages(t, root, rid, call)
            spans[root] = (t.prefix + "request", start, clock(), None, rid, 1)
            note = check(call, result)
            self.outcome.check(note is None, f"{chain} replay: {note}")

    # -- table5-servlet ------------------------------------------------------
    def table5(self, inputs):
        jk = build_iis_jkernel(workers=1)
        self.closers.append(jk.stop)
        server = jk.server
        system = _system_for(jk)
        registrations = jk.registrations()
        twin_domain = Domain("perfbench-twin")
        null_cap = twin_domain.run(lambda: Capability.create(_NullImpl()))
        prepared = {}
        for call in {call.raw: call for script in inputs.scripts
                     for call in script}.values():
            request = _parse(call.raw)
            sreq = _servlet_request(request)
            twin = apps.BlobServlet(inputs.documents[call.path])
            prepared[call.raw] = (
                request, _parse(call.raw.replace(b"/servlet/", b"/", 1)),
                sreq, registrations[sreq.path].capability, twin,
                twin_domain.run(lambda twin=twin: Capability.create(twin)))

        def stages(t, root, rid, call):
            request, native_request, sreq, cap, twin, twin_cap = \
                prepared[call.raw]
            t.call("web.http.parse", root, rid, _parse, call.raw)
            t.call("web.httpd.native_process", root, rid, server.process,
                   native_request)
            response = t.call("web.httpd.servlet_process", root, rid,
                              server.process, request)
            t.call("web.isapi.bridge_handle", root, rid, jk.bridge.handle,
                   request)
            t.call("web.jkweb.system_service", root, rid, system.service,
                   sreq)
            t.call("web.jkweb.capability_service", root, rid, cap.service,
                   sreq)
            t.batch("core.stubs.twin_capability_service", root, rid,
                    twin_cap.service, sreq)
            t.batch("core.stubs.twin_object_service", root, rid,
                    twin.service, sreq)
            t.batch("core.stubs.null_lrmi", root, rid, null_cap.nop)
            t.call("web.http.format", root, rid, response.wire_bytes,
                   request.version, True)
            return response

        check = client.DocumentCheck(inputs.documents)
        self.replay(T5, inputs, stages,
                    lambda call, response: check(
                        call, response.status, bytes(response.body)))

    # -- kv-policy -----------------------------------------------------------
    def kv(self, inputs):
        jk = JKernelWebServer(NativeHttpServer(workers=1))
        self.closers.append(jk.stop)
        store_domain, impl, read_cap, write_cap = apps.kv_store(
            inputs.initial)
        registration = apps.install_kv(jk, read_cap, write_cap)
        servlet_domain = registration.domain
        server = jk.server
        system = _system_for(jk)
        cap = registration.capability
        open_read = store_domain.run(
            lambda: Capability.create(impl, label="kv-read-open"))
        open_domain = Domain("perfbench-open")
        parsed = {}

        def stages(t, root, rid, call):
            pair = parsed.get(call.raw)
            if pair is None:
                request = _parse(call.raw)
                pair = parsed[call.raw] = (request, _servlet_request(request))
            request, sreq = pair
            t.call("web.http.parse", root, rid, _parse, call.raw)
            response = t.call("web.httpd.servlet_process", root, rid,
                              server.process, request)
            # Each stage below repeats the request; a repeated write
            # stores the same value, so the model stays exact.
            t.call("web.isapi.bridge_handle", root, rid, jk.bridge.handle,
                   request)
            t.call("web.jkweb.system_service", root, rid, system.service,
                   sreq)
            t.call("web.jkweb.capability_service", root, rid, cap.service,
                   sreq)
            t.call("web.http.format", root, rid, response.wire_bytes,
                   request.version, True)
            if call.kind == "put":
                servlet_domain.run(t.call, "core.stubs.kv_write", root, rid,
                                   write_cap.write,
                                   apps.KvRecord(call.key, call.body))
            else:
                servlet_domain.run(t.call, "core.stubs.kv_read", root, rid,
                                   read_cap.read, call.key)
                open_domain.run(t.call, "core.stubs.kv_read_open", root,
                                rid, open_read.read, call.key)
            t.batch("core.fastcopy.record", root, rid, transfer,
                    impl.data[call.key], "fast")
            return response

        check = client.KvModelCheck(inputs.initial)
        self.replay(KV, inputs, stages,
                    lambda call, response: check(
                        call, response.status, bytes(response.body)))

    # -- oop-servlet ---------------------------------------------------------
    def oop(self, inputs):
        jk = JKernelWebServer(NativeHttpServer(workers=1))
        self.closers.append(jk.stop)
        bodies = gen.oop_bodies(self.seed)
        for size, body in bodies.items():
            jk.install_servlet_out_of_process(
                f"/odoc{size}", lambda body=body: apps.BlobServlet(body))
        registrations = jk.registrations()
        null_host = DomainHostProcess(_null_setup,
                                      name="perfbench-null").start()
        self.closers.append(null_host.stop)
        null_client = connect(null_host)
        self.closers.append(null_client.close)
        null_proxy = null_client.lookup("null")
        server = jk.server
        parsed = {}

        def stages(t, root, rid, call):
            pair = parsed.get(call.raw)
            if pair is None:
                request = _parse(call.raw)
                pair = parsed[call.raw] = (request, _servlet_request(request))
            request, sreq = pair
            t.call("web.http.parse", root, rid, _parse, call.raw)
            response = t.call("web.httpd.servlet_process", root, rid,
                              server.process, request)
            t.call("web.http.format", root, rid, response.wire_bytes,
                   request.version, True)
            proxy = registrations[sreq.path].proxy
            if call.size == 65536:
                t.call("ipc.lrmi.service_64k", root, rid, proxy.service,
                       sreq)
                t.call("core.regions.seal_64k", root, rid, _seal_and_revoke,
                       bodies[call.size])
            else:
                t.call("ipc.lrmi.service", root, rid, proxy.service, sreq)
            t.call("ipc.lrmi.null", root, rid, null_proxy.nop)
            return response

        check = client.DocumentCheck(inputs.documents)
        self.replay(OOP, inputs, stages,
                    lambda call, response: check(
                        call, response.status, bytes(response.body)))

    # -- fleet-call ----------------------------------------------------------
    def fleet(self, inputs):
        started = time.monotonic()
        coordinator, tokens = apps.start_fleet(inputs.initial)
        self.closers.append(coordinator.stop)
        rpc_server = null_server().start()
        self.closers.append(rpc_server.stop)
        rpc = RpcClient(rpc_server.path)
        self.closers.append(rpc.close)
        verify = coordinator.tokens.verify

        def stages(t, root, rid, call):
            token = tokens[call.placement]
            args = [call.key, call.value] if call.kind == "put" else \
                [call.key]
            t.call("fleet.proto.codec", root, rid, _codec,
                   {"token": token, "method": call.kind, "args": args})
            t.call("fleet.tokens.verify", root, rid, verify, token)
            t.call("ipc.ntrpc.null", root, rid, rpc.call, "null")
            try:
                return t.call("fleet.coordinator.call", root, rid,
                              client.fleet_call, coordinator, token, call), \
                    None
            except Exception as exc:  # counted by the model check
                return None, exc

        check = client.FleetModelCheck(inputs.initial)
        self.replay(FLEET, inputs, stages,
                    lambda call, outcome: check(call, *outcome))
        self.heartbeats_per_s = (coordinator.heartbeats_sent
                                 / (time.monotonic() - started))

    # -- metrics -------------------------------------------------------------
    def metrics(self, workload, end_to_end):
        tracer = self.tracer

        def stage(chains, name):
            chain = workload if workload in chains else chains[0]
            return tracer.median(f"{chain}:{name}")

        metrics = {}
        for name, (chains, span, inner) in LAYERS.items():
            value = stage(chains, span)
            if inner is not None:
                value -= stage(chains, inner)
            metrics[name] = {"value": value, "unit": "us"}
        metrics["web.jk_over_native_process"] = {
            "value": (stage((T5,), "web.httpd.native_process")
                      / stage((T5,), "web.httpd.servlet_process")),
            "unit": "ratio"}
        metrics["fleet.heartbeats_per_s"] = {
            "value": self.heartbeats_per_s, "unit": "1/s"}
        info = end_to_end.info
        lookups = info.get("cache_hits", 0) + info.get("cache_misses", 0)
        metrics["web.cache_hit_ratio"] = {
            "value": info.get("cache_hits", 0) / lookups if lookups else 0.0,
            "unit": "ratio"}
        metrics["web.cache_lookups"] = {"value": lookups, "unit": "count"}
        per_request_us = 1e6 / end_to_end.metrics["ops_per_s"]["value"]
        staged_us = sum(tracer.median(f"{workload}:{name}")
                        for name in STAGES[workload])
        residual = per_request_us - staged_us
        metrics["web.httpd.residual_us"] = {"value": residual, "unit": "us"}
        metrics["trace.unexplained_share"] = {
            "value": residual / per_request_us, "unit": "share"}
        return metrics


def run(workload, seed, seconds, out_dir):
    """Traced run of ``workload``; spans go to ``out_dir``."""
    calib = host.calibration_us()
    end_to_end = e2e.run(workload, seed, seconds)
    outcome = e2e.Outcome(workload)
    outcome.attempted = end_to_end.attempted
    outcome.failed = end_to_end.failed
    outcome.notes = list(end_to_end.notes)
    outcome.info = dict(end_to_end.info)
    outcome.info["end_to_end"] = {name: metric["value"] for name, metric
                                  in end_to_end.metrics.items()}
    shm_before = host.shm_segments()
    chains = Chains(seed, outcome)
    try:
        chains.table5(gen.generate(T5, seed))
        chains.kv(gen.generate(KV, seed))
        chains.oop(gen.generate(OOP, seed))
        chains.fleet(gen.generate(FLEET, seed))
    finally:
        chains.close()
    leaked = host.leaked_segments(shm_before)
    outcome.check(not leaked, f"trace leaked /dev/shm segments: {leaked}")
    outcome.metrics = chains.metrics(workload, end_to_end)
    outcome.metrics["host.calib_us"] = {"value": calib, "unit": "us"}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    chains.tracer.write(path)
    outcome.info["spans"] = {"file": os.path.relpath(path),
                             "count": len(chains.tracer.spans)}
    return outcome
