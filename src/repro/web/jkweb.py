"""The extensible J-Kernel web server (paper §4).

"The HTTP system servlet forwards each request to the appropriate user
servlet, each of which runs in its own J-Kernel domain."

Structure (the paper's architecture — the bridge reaches the trusted
system servlet by a plain call, the JNI analogue, and the one LRMI per
request is into the user servlet's domain)::

    NativeHttpServer ──(extension hook)── IsapiBridge
        └── trusted call ──> SystemServlet   (kernel code, no domain)
                └── LRMI ──> user servlet (one domain per servlet)

Servlets are installed, replaced and terminated at run time without
restarting the server — the failure-isolation story the CS314 servlets
motivated: a crashing servlet produces a 500 for its own URLs and nothing
else.  Replacement and termination are *graceful* under traffic: the
route swap is atomic (an immutable snapshot), requests already inside the
old servlet drain to completion before its domain is terminated, and a
request that races the drain window is answered 503 rather than crossing
into a dying domain.  Every request a servlet services is charged to its
domain's resource account (``repro.core.accounting``), so per-domain
traffic reconciles against client-side counts.
"""

from __future__ import annotations

import math
import threading
import time

from repro.core import (
    AccessDeniedError,
    Capability,
    Domain,
    DomainUnavailableException,
    RemoteException,
    RevokedException,
    get_accountant,
)
from repro.core.accounting import ShardedCounter
from repro.core.quota import QuotaManager

from . import streaming
from .control import AdmissionController
from .httpd import NativeHttpServer
from .isapi import IsapiBridge
from .servlet import Servlet, ServletResponse, error_response


class _Route:
    """One routing-table entry (immutable once published)."""

    __slots__ = ("prefix", "capability", "registration")

    def __init__(self, prefix, capability, registration):
        self.prefix = prefix
        self.capability = capability
        self.registration = registration


class SystemServlet(Servlet):
    """Routes requests to user-servlet capabilities by URL prefix.

    The routing table is an immutable tuple swapped under a lock on
    mutation and read lock-free on the request path (a single attribute
    load publishes the whole snapshot).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._routes = ()  # _Route entries, longest prefix first
        self._exact = {}   # prefix -> route: exact-path fast lookup

    # -- admin (host-side API, not reachable through capabilities) ---------
    def add_route(self, prefix, capability, registration=None):
        with self._lock:
            entries = [r for r in self._routes if r.prefix != prefix]
            entries.append(_Route(prefix, capability, registration))
            entries.sort(key=lambda route: -len(route.prefix))
            self._routes = tuple(entries)
            self._exact = {route.prefix: route for route in self._routes}

    def remove_route(self, prefix, expected_registration=None):
        """Unroute ``prefix``.  With ``expected_registration`` the route
        is only removed while it still belongs to that registration —
        a terminate racing a fresh install must not unroute the
        replacement."""
        with self._lock:
            matched = [r for r in self._routes if r.prefix == prefix]
            if expected_registration is not None and not any(
                r.registration is expected_registration for r in matched
            ):
                return None
            self._routes = tuple(
                r for r in self._routes if r.prefix != prefix
            )
            self._exact = {route.prefix: route for route in self._routes}
        return matched[0].capability if matched else None

    def routes(self):
        return [route.prefix for route in self._routes]

    # -- the remote method -------------------------------------------------
    def service(self, request):
        path = request.path
        # Exact-prefix hit (one dict probe) before the longest-prefix scan.
        route = self._exact.get(path)
        if route is not None:
            return self._serve(route, request)
        for route in self._routes:
            if path.startswith(route.prefix):
                return self._serve(route, request)
        return error_response(404, f"no servlet for {request.path}")

    @classmethod
    def _serve(cls, route, request):
        registration = route.registration
        if registration is not None and registration.draining:
            return error_response(
                503, f"servlet for {route.prefix} is draining"
            )
        return cls._invoke(route, request)

    @staticmethod
    def _invoke(route, request):
        registration = route.registration
        # Service time is charged as CPU ticks only for quota-armed
        # servlets, so unmetered routes (the Table 5 path) pay nothing.
        timed = (registration is not None
                 and getattr(registration, "quota", None) is not None)
        start = time.perf_counter() if timed else 0.0
        try:
            response = route.capability.service(request)
        except AccessDeniedError as exc:
            # A stack-based permission check failed inside the servlet's
            # restricted domain: the client's request asked for something
            # the operator never granted — Forbidden, not a server error.
            return error_response(403, f"access denied: {exc}")
        except RevokedException:
            return error_response(
                503, f"servlet for {route.prefix} was terminated"
            )
        except DomainUnavailableException as exc:
            # The servlet's host process is (momentarily) gone — a
            # retryable condition, unlike a revoked capability's
            # permanent one: the supervisor is already respawning it.
            # A fleet failover says how long (FleetUnavailableError
            # carries the coordinator's blackout estimate); surface it
            # as Retry-After so clients pace their rebind.  RFC 9110
            # allows only integer delay-seconds, so round up.
            retry_after = getattr(exc, "retry_after", None)
            return error_response(
                503, f"servlet for {route.prefix} is unavailable",
                headers=({"Retry-After":
                          str(max(1, math.ceil(retry_after)))}
                         if retry_after is not None else None),
            )
        except RemoteException as exc:
            return error_response(500, f"servlet failed: {exc}")
        except Exception as exc:
            return error_response(500, f"servlet error: {exc!r}")
        if registration is not None:
            # Charged only when the servlet produced the response itself —
            # exactly the population a well-behaved client can count.
            registration.charge_request()
            if timed:
                registration.charge_cpu(
                    (time.perf_counter() - start) * 1e6
                )
        return response


class ServletRegistration:
    """Book-keeping for one installed servlet: its domain, capability,
    the draining flag used for graceful retirement, and the domain's
    resource account (per-request charges land there).

    In-flight tracking costs nothing on the request path: every LRMI
    into the domain registers a thread segment for its duration (that
    is how ``Domain.terminate`` finds victims), so drain just watches
    ``Domain.in_flight_calls()`` fall to zero.
    """

    #: Consecutive idle observations (at _IDLE_POLL_S spacing) required
    #: before a drain believes the domain is quiescent — together a
    #: ~10 ms continuous-idle window, wider than routine GIL/scheduler
    #: preemption gaps, covering the lag between a request passing the
    #: draining-flag check and its segment registration.
    _IDLE_CONFIRMATIONS = 5
    _IDLE_POLL_S = 0.002

    def __init__(self, prefix, domain, capability):
        self.prefix = prefix
        self.domain = domain
        self.capability = capability
        self.account = get_accountant().account(domain)
        self._draining = False
        # Armed by the web server when the prefix has a QuotaSpec.
        self.quota = None
        self.quota_key = None

    @property
    def in_flight(self):
        """LRMI calls currently executing inside the servlet's domain."""
        return self.domain.in_flight_calls()

    @property
    def draining(self):
        return self._draining

    def charge_request(self):
        self.account.charge_request()
        if self.quota is not None:
            self.quota.charge_request(self.quota_key)

    def charge_cpu(self, ticks):
        if self.quota is not None:
            self.quota.charge_cpu(self.quota_key, ticks)

    def retire(self, timeout=5.0):
        """Full graceful teardown: drain, terminate the domain, close
        its resource account (the charges were this incarnation's; a
        replacement domain starts a fresh account)."""
        drained = self.drain(timeout)
        self.domain.terminate()
        get_accountant().release_domain(self.domain)
        return drained

    def drain(self, timeout=5.0):
        """Stop admitting requests, wait for in-flight ones to finish.

        Returns True when the servlet went idle within the timeout.  A
        request that read the draining flag just before it flipped may
        slip past an idle-looking registry; the consecutive-idle
        confirmation window catches the common interleavings, and the
        residual race resolves through the LRMI revocation check to a
        clean 503 — the window the issue's "new ones get 503" allows —
        never through a dying domain's shared state.
        """
        self._draining = True
        deadline = time.monotonic() + timeout
        idle_streak = 0
        while idle_streak < self._IDLE_CONFIRMATIONS:
            if self.domain.in_flight_calls() == 0:
                idle_streak += 1
            else:
                idle_streak = 0
                if time.monotonic() >= deadline:
                    return False
            time.sleep(self._IDLE_POLL_S)
        return True


class _OutOfProcessGateway:
    """The stable routing target for one out-of-process servlet.

    The routing table holds this object (not the proxy), so a host
    respawn swaps the underlying proxy without republishing the route.
    In-flight tracking mirrors the in-process segment registration: the
    drain logic watches the counter instead of domain segments.
    """

    __slots__ = ("_registration",)

    def __init__(self, registration):
        self._registration = registration

    def service(self, request):
        registration = self._registration
        registration._in_flight.add(1)
        try:
            offer = streaming.claim()
            if offer is not None and registration.stream_proxy is not None:
                return self._stream(registration, offer, request)
            return registration.proxy.service(request)
        finally:
            registration._in_flight.add(-1)

    @staticmethod
    def _stream(registration, offer, request):
        """Reply streaming: grant the client socket's fd to the domain
        host and let it write the HTTP response directly.

        Failure split on the grant boundary: an error *before*
        ``offer.grant`` ran means the fd never left this process — the
        socket is untouched, so the exception propagates into the system
        servlet's ordinary 503/500 path and a marshalled response goes
        out normally.  An error *after* the grant (host died mid-call,
        partial write) leaves the framing unknowable; the offer is
        failed and the reactor closes the connection without appending.
        """
        with registration._lock:
            # One snapshot: a supervisor respawn swaps client and stream
            # proxy together; reading them piecemeal could pair a fresh
            # client with a dead host's export id.
            client = registration.client
            stream = registration.stream_proxy
        if stream is None:
            return registration.proxy.service(request)
        try:
            result = client.call_streamed(
                stream._export_id, "service",
                (request, offer.version, offer.keep_alive),
                offer.fd, on_grant=offer.grant,
            )
        except (DomainUnavailableException, OSError):
            # Transport-level death after the grant: the host may have
            # written part of a response, so the framing is unknowable.
            if not offer.granted:
                raise
            offer.fail()
            return streaming.STREAMED
        except Exception:
            # A typed exception *reply*: the round trip completed and the
            # host's adapter raises strictly before the first byte (write
            # failures come back as ("stream-failed", n) tuples instead),
            # so the connection framing is intact — retract the grant and
            # propagate into the ordinary error path (403/500/503).
            offer.retract()
            raise
        if (isinstance(result, tuple) and len(result) == 2
                and result[0] == "streamed"):
            offer.complete(result[1])
        else:
            offer.fail()
        return streaming.STREAMED


class OutOfProcessRegistration:
    """Book-keeping for one servlet deployed in a separate OS process
    (the Remote-Playground deployment: untrusted code behind a hard
    process boundary, reached through cross-process LRMI).

    Duck-compatible with :class:`ServletRegistration` where the system
    servlet and web server touch it (``capability``/``draining``/
    ``charge_request``/``retire``), plus a supervisor that respawns the
    host process when it dies — in-flight requests during the outage get
    503s (via :class:`DomainUnavailableException`), never hangs.
    """

    _RESPAWN_POLL_S = 0.05

    def __init__(self, prefix, setup, host, client, proxy, *,
                 supervise=True, max_respawns=8):
        from repro.ipc.lrmi import DomainHostProcess

        self.prefix = prefix
        self.name = f"xproc{prefix.replace('/', '-')}"
        self._setup = setup
        self._host_factory = lambda: DomainHostProcess(
            setup, name=self.name
        ).start()
        self.host = host
        self.client = client
        self.proxy = proxy
        # Reply streaming is an optimization the host may decline (an
        # old host image without the __stream__ binding): the gateway
        # falls back to marshalled replies when this stays None.
        self.stream_proxy = self._lookup_stream(client)
        self._stream_armed = self.stream_proxy is not None
        if self._stream_armed:
            streaming.arm()
        self.account = get_accountant().account(self)
        self.respawns = 0
        self.max_respawns = max_respawns
        self._draining = False
        self._in_flight = ShardedCounter()
        self._monitor = None
        self._lock = threading.Lock()
        # Armed by the web server when the prefix has a QuotaSpec.
        self.quota = None
        self.quota_key = None
        self._reconcile_every = 10  # supervisor polls between stats RPCs
        self._poll_count = 0
        if supervise:
            self._monitor = threading.Thread(
                target=self._supervise, daemon=True,
                name=f"{self.name}-supervisor",
            )
            self._monitor.start()

    @staticmethod
    def _lookup_stream(client):
        try:
            return client.lookup("__stream__")
        except Exception:
            return None

    # -- ServletRegistration duck interface --------------------------------
    @property
    def capability(self):
        return _OutOfProcessGateway(self)

    @property
    def draining(self):
        return self._draining

    @property
    def in_flight(self):
        return self._in_flight.value

    def charge_request(self):
        self.account.charge_request()
        if self.quota is not None:
            self.quota.charge_request(self.quota_key)

    def charge_cpu(self, ticks):
        if self.quota is not None:
            self.quota.charge_cpu(self.quota_key, ticks)

    def remote_stats(self):
        """The host process's own accounting report (reconciliation)."""
        return self.client.stats()

    def reconcile_quota(self):
        """Pull the host's accounting report over the control pipe and
        fold it into the tenant's budget position (summed across the
        host's domains — they all belong to this tenant)."""
        if self.quota is None:
            return None
        report = self.client.stats()
        snapshot = {}
        for account in (report.get("accounts") or {}).values():
            for key, value in account.items():
                snapshot[key] = snapshot.get(key, 0) + value
        return self.quota.reconcile(self.quota_key, snapshot)

    def _fold_quota(self):
        """Retire the last live host report (the host died/stopped);
        the replacement reports from zero without resetting usage."""
        if self.quota is None:
            return
        cell = self.quota.cell(self.quota_key)
        if cell is not None:
            cell.fold_external()

    def drain(self, timeout=5.0):
        self._draining = True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._in_flight.value == 0:
                return True
            time.sleep(0.002)
        return self._in_flight.value == 0

    def retire(self, timeout=5.0):
        drained = self.drain(timeout)
        with self._lock:
            host, client = self.host, self.client
            self.host = None
            self.stream_proxy = None
            if self._stream_armed:
                self._stream_armed = False
                streaming.disarm()
        try:
            client.terminate("servlet")
        except Exception:
            pass  # a dead host has terminated already
        client.close()
        if host is not None:
            host.stop()
        self._fold_quota()
        get_accountant().release_domain(self)
        return drained

    # -- supervision -------------------------------------------------------
    def _supervise(self):
        from repro.ipc.lrmi import connect

        while True:
            time.sleep(self._RESPAWN_POLL_S)
            with self._lock:
                host = self.host
                if self._draining or host is None:
                    return
                if host.alive():
                    self._poll_count += 1
                    if (self.quota is not None
                            and self._poll_count % self._reconcile_every
                            == 0):
                        try:
                            self.reconcile_quota()
                        except Exception:
                            pass  # host mid-crash; the death path folds
                    continue
                # Host is dead: retire its last reported usage so the
                # replacement (reporting from zero) cannot reset the
                # tenant's budget position.
                self._fold_quota()
                if self.respawns >= self.max_respawns:
                    self.host = None
                    return
                # Replace the dead worker: fresh fork, fresh connection,
                # proxy swap.  Requests racing the window keep getting
                # DomainUnavailableException -> 503 from the gateway.
                try:
                    replacement = self._host_factory()
                    client = connect(replacement)
                    proxy = client.lookup("servlet")
                except Exception:
                    self.respawns += 1
                    continue
                old_client = self.client
                old_host = host
                self.host = replacement
                self.client = client
                self.proxy = proxy
                # Fresh host, fresh export table: the old stream proxy's
                # export id means nothing to the replacement.
                self.stream_proxy = self._lookup_stream(client)
                armed = self.stream_proxy is not None
                if armed and not self._stream_armed:
                    streaming.arm()
                elif not armed and self._stream_armed:
                    streaming.disarm()
                self._stream_armed = armed
                self.respawns += 1
                old_client.close()
                # The dead host was reaped by alive(); stop() still
                # unlinks its /tmp socket path so crash-looping servlets
                # cannot litter the temp directory.
                old_host.stop()


class JKernelWebServer:
    """IIS + ISAPI bridge + system servlet + per-servlet domains.

    ``bridge_inline`` controls where servlet requests execute: True (the
    default) runs the bridge on the server's event-loop thread — the §4
    arrangement ("the same thread as IIS uses to invoke the bridge") and
    the configuration Table 5 measures; False routes them through the
    server's domain worker pool so a slow servlet cannot stall a loop.

    The bridge reaches the system servlet by a plain call: it is trusted
    kernel code (the paper's JNI analogue), so each request pays exactly
    one LRMI, into the user servlet's domain.

    ``workers`` sizes the underlying reactor's event-loop pool when no
    ``server`` is supplied (``JKernelWebServer(workers=4)``); for
    multi-*process* serving wrap the construction in
    :class:`~repro.web.prefork.PreforkServer`, which forks one of these
    per worker process.
    """

    def __init__(self, server=None, mount="/servlet", *, workers=None,
                 bridge_inline=True, drain_timeout=5.0,
                 quotas=None, admission=None):
        if server is None:
            server = (NativeHttpServer(workers=workers)
                      if workers is not None else NativeHttpServer())
        self.server = server
        self.mount = mount
        self.drain_timeout = drain_timeout
        # -- fleet control plane -------------------------------------------
        # ``quotas`` is {prefix: QuotaSpec} (or a prebuilt QuotaManager):
        # each installed servlet at a quoted prefix gets a budget cell
        # wired to its resource account, with this server's
        # terminate_servlet as the hard-breach kill path.  Supplying
        # quotas (or ``admission``) arms an AdmissionController on the
        # underlying reactor; with neither, behaviour is exactly PR 5's.
        self.quota = None
        self._quota_specs = {}
        if quotas is not None:
            if isinstance(quotas, QuotaManager):
                self.quota = quotas
            else:
                self.quota = QuotaManager()
                self._quota_specs = dict(quotas)
        self.admission = (admission if admission is not None
                          else getattr(server, "admission", None))
        if self.admission is None and self.quota is not None:
            self.admission = AdmissionController(quota_manager=self.quota)
        if self.admission is not None:
            if self.quota is not None:
                self.admission.attach_quota_manager(self.quota)
            if getattr(server, "admission", None) is None:
                server.admission = self.admission
        self._system = SystemServlet()
        self.bridge = IsapiBridge(self._system, strip_prefix=mount)
        self.server.add_extension(mount, self.bridge.handle,
                                  inline=bridge_inline)
        self._registrations = {}
        self._lock = threading.Lock()
        #: (prefix, breached-triple, monotonic) per hard-quota kill.
        self.quota_kills = []

    # -- servlet lifecycle --------------------------------------------------
    def _publish(self, prefix, registration):
        """Swap the new registration in (atomically for new requests),
        then gracefully retire the old one: drain in-flight requests and
        terminate its domain (revoking its capabilities).

        The registration-map and routing-table swaps happen under one
        lock so concurrent installs/replaces on a prefix retire in a
        consistent order — the route a loser publishes can never outlive
        its own drain-and-terminate.  The (potentially slow) drain runs
        outside the lock.
        """
        with self._lock:
            old = self._registrations.get(prefix)
            self._registrations[prefix] = registration
            self._system.add_route(prefix, registration.capability,
                                   registration)
        self._arm_quota(prefix, registration)
        if old is not None:
            old.retire(self.drain_timeout)
        return registration

    def _arm_quota(self, prefix, registration):
        """Give the registration a budget cell when its prefix has a
        spec.  A replacement servlet is a fresh domain with a fresh
        account, so it also starts a fresh budget — mirroring how
        ``release_domain`` closes the old incarnation's account."""
        if self.quota is None:
            return
        spec = self._quota_specs.get(prefix)
        if spec is None:
            cell = self.quota.cell(prefix)
            if cell is None:
                return
            spec = cell.spec
        self.quota.set_quota(prefix, spec, account=registration.account,
                             on_kill=self._quota_kill)
        registration.quota = self.quota
        registration.quota_key = prefix

    def _quota_kill(self, prefix, cell):
        """Hard-breach teardown (runs on the quota reaper thread): the
        same drain → terminate → release path as an administrative
        terminate, so callers see typed errors/503s, never a hang."""
        self.quota_kills.append(
            (prefix, cell.breached, time.monotonic())
        )
        self.terminate_servlet(prefix)

    def set_quota(self, prefix, spec):
        """Set or replace a tenant budget at run time; arms the current
        registration (if any) immediately."""
        if self.quota is None:
            self.quota = QuotaManager()
            if self.admission is None:
                self.admission = AdmissionController(
                    quota_manager=self.quota
                )
                if getattr(self.server, "admission", None) is None:
                    self.server.admission = self.admission
            else:
                self.admission.attach_quota_manager(self.quota)
        self._quota_specs[prefix] = spec
        with self._lock:
            registration = self._registrations.get(prefix)
        if registration is not None:
            self._arm_quota(prefix, registration)
        return self

    def install_servlet(self, prefix, servlet_factory, domain_name=None,
                        copy="auto", policy=None):
        """Create a domain, instantiate the servlet inside it, route it.

        ``policy`` restricts the servlet's domain to a permission set
        (``repro.core.policy``): guarded capabilities it calls — and any
        explicit ``check_permission`` on its call chain — deny with 403
        unless the set implies the demanded permission.  ``None`` (the
        default) leaves the domain unrestricted, exactly as before.
        """
        name = domain_name or f"servlet{prefix.replace('/', '-')}"
        domain = Domain(name)
        if policy is not None:
            domain.set_policy(policy)

        def build():
            servlet = servlet_factory()
            if not isinstance(servlet, Servlet):
                raise TypeError(
                    f"{type(servlet).__name__} does not implement Servlet"
                )
            return Capability.create(servlet, copy=copy, label=name)

        capability = domain.run(build)
        return self._publish(
            prefix, ServletRegistration(prefix, domain, capability)
        )

    def install_source(self, prefix, source, servlet_class_name="servlet",
                       domain_name=None, grants=None, policy=None):
        """Upload servlet *source code* into a fresh domain (the paper's
        "users … dynamically extend the functionality of the server by
        uploading Java programs").

        The source runs in the domain's restricted namespace and must
        define ``servlet_class_name`` (a Servlet subclass or factory).

        ``policy`` restricts the domain like :meth:`install_servlet`;
        the special value ``"generate"`` runs the static policy
        generator (``repro.toolchain.policygen``) over the uploaded
        source and installs the least-privilege proposal — the union of
        the guards on exactly those ``grants`` the source references.
        """
        name = domain_name or f"servlet{prefix.replace('/', '-')}"
        domain = Domain(name)
        if policy == "generate":
            from repro.toolchain.policygen import propose_policy_source

            policy = propose_policy_source(source, grants,
                                           filename=f"upload:{prefix}")
        if policy is not None:
            domain.set_policy(policy)
        resolver = domain.resolver
        resolver.grant("Servlet", Servlet)
        resolver.grant("ServletResponse", ServletResponse)
        for grant_name, value in (grants or {}).items():
            resolver.grant(grant_name, value)
        module = domain.load_module(f"upload:{prefix}", source)
        factory = getattr(module, servlet_class_name)

        def build():
            servlet = factory()
            return Capability.create(servlet, label=name)

        capability = domain.run(build)
        return self._publish(
            prefix, ServletRegistration(prefix, domain, capability)
        )

    def install_servlet_out_of_process(self, prefix, servlet_factory,
                                       domain_name=None, *, supervise=True,
                                       max_respawns=8, policy=None):
        """Deploy a servlet in its own OS *process* (Remote-Playground
        style): the servlet's domain lives in a forked domain host, and
        its capability here is a cross-process LRMI proxy — requests
        marshal through the compiled serializer over a UNIX socket while
        trusted/system crossings stay on the in-process fast path.

        ``servlet_factory`` runs in the child after fork (closures are
        fine).  With ``supervise=True`` a monitor thread respawns the
        host if it dies; requests racing the outage are answered 503.
        ``policy`` restricts the servlet's domain *inside the host
        process* (and again after every respawn) — its restricted
        context rides the LRMI wire, so guarded capabilities back in
        this process still deny; the typed error marshals home as a 403.
        """
        from repro.ipc.lrmi import DomainHostProcess, connect

        name = domain_name or f"servlet{prefix.replace('/', '-')}"

        def setup():
            from .streaming import ReplyStreamAdapter

            domain = Domain(name)
            if policy is not None:
                domain.set_policy(policy)

            def build():
                servlet = servlet_factory()
                if not isinstance(servlet, Servlet):
                    raise TypeError(
                        f"{type(servlet).__name__} does not implement "
                        "Servlet"
                    )
                return Capability.create(servlet, label=name)

            servlet_cap = domain.run(build)
            # Reply-streaming terminus: trusted host plumbing, so its
            # capability lives in the host's *system* domain — each
            # streamed request still crosses into the servlet's domain
            # exactly once (through servlet_cap), keeping the domain's
            # LRMI accounting identical to the marshalled-reply path.
            stream_cap = Capability.create(
                ReplyStreamAdapter(servlet_cap), label=f"{name}-stream"
            )
            return {"servlet": servlet_cap, "__stream__": stream_cap}

        host = DomainHostProcess(setup, name=name).start()
        client = connect(host)
        proxy = client.lookup("servlet")
        registration = OutOfProcessRegistration(
            prefix, setup, host, client, proxy,
            supervise=supervise, max_respawns=max_respawns,
        )
        return self._publish(prefix, registration)

    def replace_servlet(self, prefix, servlet_factory, domain_name=None):
        """Hot-replace: new requests go to the replacement the moment its
        route is published; the old domain drains, then terminates —
        without restarting the server (the chart-component story of §1)."""
        return self.install_servlet(prefix, servlet_factory,
                                    domain_name=domain_name)

    def terminate_servlet(self, prefix):
        """Kill a servlet: unroute it (new arrivals see 404), drain
        in-flight requests, terminate its domain.  The conditional
        remove means a terminate racing a fresh install/replace never
        unroutes the replacement."""
        with self._lock:
            registration = self._registrations.pop(prefix, None)
            self._system.remove_route(
                prefix, expected_registration=registration
            )
        if registration is not None:
            registration.retire(self.drain_timeout)
        return registration

    def registrations(self):
        with self._lock:
            return dict(self._registrations)

    # -- server control ----------------------------------------------------
    def start(self, listener=None):
        self.server.start(listener)
        return self

    def stop_accepting(self):
        """Prefork drain phase 1: delegate to the reactor."""
        self.server.stop_accepting()

    def drain(self, timeout=5.0):
        """Stop accepting and wait for live connections to finish."""
        return self.server.drain(timeout)

    def live_connections(self):
        return self.server.live_connections()

    @property
    def requests_served(self):
        return self.server.requests_served

    @property
    def port(self):
        return self.server.port

    def stats(self):
        snapshot = self.server.stats()
        if self.quota is not None:
            snapshot["quotas"] = self.quota.report()
        return snapshot

    def stop(self):
        self.server.stop()
        with self._lock:
            registrations = list(self._registrations.values())
            self._registrations.clear()
        for registration in registrations:
            registration.retire(self.drain_timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
