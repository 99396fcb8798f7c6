"""The three servers: native (IIS), J-Kernel-extended, and interpreted JWS.

Includes the §4 protection stories: servlet crash isolation, hot
replacement, termination, and source upload.
"""

import pytest

from repro.core import Domain
from repro.web import (
    DocumentStore,
    JKernelWebServer,
    JWSServer,
    NativeHttpServer,
    Request,
    Servlet,
    ServletRequest,
    ServletResponse,
    fetch_once,
    measure_throughput,
    text_response,
)


class HelloServlet(Servlet):
    def service(self, request):
        return text_response(f"hello {request.path}")


class CrashServlet(Servlet):
    def service(self, request):
        raise RuntimeError("chart component failure")


class CounterServlet(Servlet):
    def __init__(self):
        self.count = 0

    def service(self, request):
        self.count += 1
        return text_response(str(self.count))


@pytest.fixture()
def iis():
    server = NativeHttpServer()
    server.documents.put("/index", b"<html>home</html>")
    server.documents.put("/data", b"payload")
    server.start()
    yield server
    server.stop()


class TestNativeServer:
    def test_serves_documents(self, iis):
        response = fetch_once("127.0.0.1", iis.port, "/index")
        assert response.status == 200
        assert response.body == b"<html>home</html>"

    def test_404_for_missing(self, iis):
        assert fetch_once("127.0.0.1", iis.port, "/ghost").status == 404

    def test_keep_alive_connection_reuse(self, iis):
        tput = measure_throughput("127.0.0.1", iis.port, "/data",
                                  clients=2, requests_per_client=10,
                                  warmup=2)
        assert tput > 0

    def test_process_directly(self, iis):
        response = iis.process(Request("GET", "/data"))
        assert response.status == 200
        assert response.body == b"payload"

    def test_extension_hook_intercepts(self, iis):
        def handler(request):
            from repro.web import Response

            return Response(200, {}, b"from extension")

        iis.add_extension("/ext", handler)
        assert iis.process(Request("GET", "/ext/abc")).body == \
            b"from extension"
        assert iis.process(Request("GET", "/data")).body == b"payload"

    def test_extension_error_becomes_500(self, iis):
        def handler(request):
            raise ValueError("extension exploded")

        iis.add_extension("/bad", handler)
        assert iis.process(Request("GET", "/bad/x")).status == 500

    def test_longest_prefix_wins(self, iis):
        from repro.web import Response

        iis.add_extension("/a", lambda r: Response(200, {}, b"short"))
        iis.add_extension("/a/b", lambda r: Response(200, {}, b"long"))
        assert iis.process(Request("GET", "/a/b/c")).body == b"long"
        assert iis.process(Request("GET", "/a/x")).body == b"short"


@pytest.fixture()
def jk(iis):
    server = JKernelWebServer(server=iis, mount="/servlet")
    yield server
    for prefix in list(server.registrations()):
        server.terminate_servlet(prefix)


class TestJKernelWebServer:
    def test_servlet_roundtrip(self, iis, jk):
        jk.install_servlet("/hello", HelloServlet)
        response = fetch_once("127.0.0.1", iis.port, "/servlet/hello/x")
        assert response.status == 200
        assert response.body == b"hello /hello/x"

    def test_servlet_runs_in_own_domain(self, iis, jk):
        class WhoServlet(Servlet):
            def service(self, request):
                return text_response(Domain.current().name)

        jk.install_servlet("/who", WhoServlet, domain_name="who-domain")
        response = fetch_once("127.0.0.1", iis.port, "/servlet/who")
        assert response.body == b"who-domain"

    def test_missing_servlet_404(self, iis, jk):
        assert fetch_once("127.0.0.1", iis.port,
                          "/servlet/nothing").status == 404

    def test_crash_isolated_to_servlet(self, iis, jk):
        """The §1 story: the chart component fails, the word processor
        keeps running."""
        jk.install_servlet("/chart", CrashServlet)
        jk.install_servlet("/doc", HelloServlet)
        crash = fetch_once("127.0.0.1", iis.port, "/servlet/chart")
        assert crash.status == 500
        ok = fetch_once("127.0.0.1", iis.port, "/servlet/doc")
        assert ok.status == 200
        # the native document path is untouched too
        assert fetch_once("127.0.0.1", iis.port, "/index").status == 200

    def test_hot_replacement(self, iis, jk):
        registration = jk.install_servlet("/svc", CrashServlet)
        assert fetch_once("127.0.0.1", iis.port,
                          "/servlet/svc").status == 500
        jk.replace_servlet("/svc", HelloServlet)
        assert fetch_once("127.0.0.1", iis.port,
                          "/servlet/svc").status == 200
        assert registration.domain.terminated  # old domain torn down

    def test_terminate_servlet(self, iis, jk):
        registration = jk.install_servlet("/temp", HelloServlet)
        assert fetch_once("127.0.0.1", iis.port,
                          "/servlet/temp").status == 200
        jk.terminate_servlet("/temp")
        assert registration.domain.terminated
        assert registration.capability.revoked
        assert fetch_once("127.0.0.1", iis.port,
                          "/servlet/temp").status == 404

    def test_stale_route_after_external_termination_is_503(self, iis, jk):
        registration = jk.install_servlet("/stale", HelloServlet)
        registration.domain.terminate()  # domain dies, route remains
        response = fetch_once("127.0.0.1", iis.port, "/servlet/stale")
        assert response.status == 503

    def test_source_upload(self, iis, jk):
        source = (
            "class UploadedServlet(Servlet):\n"
            "    def service(self, request):\n"
            "        println('served ' + request.path)\n"
            "        return ServletResponse(200, {}, b'uploaded!')\n"
            "servlet = UploadedServlet\n"
        )
        registration = jk.install_source("/up", source)
        response = fetch_once("127.0.0.1", iis.port, "/servlet/up")
        assert response.body == b"uploaded!"
        assert registration.domain.output == ["served /up"]

    def test_uploaded_source_cannot_open_files(self, iis, jk):
        source = (
            "class EvilServlet(Servlet):\n"
            "    def service(self, request):\n"
            "        open('/etc/passwd')\n"
            "        return ServletResponse(200, {}, b'got it')\n"
            "servlet = EvilServlet\n"
        )
        jk.install_source("/evil", source)
        response = fetch_once("127.0.0.1", iis.port, "/servlet/evil")
        assert response.status == 500  # NameError, isolated

    def test_servlet_state_persists_across_requests(self, iis, jk):
        jk.install_servlet("/count", CounterServlet)
        bodies = [
            fetch_once("127.0.0.1", iis.port, "/servlet/count").body
            for _ in range(3)
        ]
        assert bodies == [b"1", b"2", b"3"]


class TestJWS:
    @pytest.fixture()
    def jws(self):
        server = JWSServer({"/a": b"alpha", "/bb": b"beta-doc"})
        server.start()
        yield server
        server.stop()

    def test_serves_documents_interpreted(self, jws):
        response = fetch_once("127.0.0.1", jws.port, "/a")
        assert response.status == 200
        assert response.body == b"alpha"
        response = fetch_once("127.0.0.1", jws.port, "/bb")
        assert response.body == b"beta-doc"

    def test_404_path(self, jws):
        assert fetch_once("127.0.0.1", jws.port, "/zz").status == 404

    def test_handle_bytes_direct(self, jws):
        raw = b"GET /a HTTP/1.0\r\n\r\n"
        response = jws.handle_bytes(raw)
        assert response.startswith(b"HTTP/1.0 200")
        assert response.endswith(b"alpha")

    def test_malformed_request_400(self, jws):
        assert jws.handle_bytes(b"NONSENSE\r\n\r\n").startswith(
            b"HTTP/1.0 400"
        )

    def test_counts_requests(self, jws):
        before = jws.requests_served
        jws.handle_bytes(b"GET /a HTTP/1.0\r\n\r\n")
        assert jws.requests_served == before + 1


class TestReactorFeatures:
    """PR 4: event-driven reactor — cache, pool, stats, lifecycle."""

    def test_response_cache_serves_and_invalidates(self):
        server = NativeHttpServer()
        server.documents.put("/cached", b"first")
        server.start()
        try:
            assert fetch_once("127.0.0.1", server.port,
                              "/cached").body == b"first"
            for _ in range(3):
                fetch_once("127.0.0.1", server.port, "/cached")
            stats = server.stats()
            assert stats["cache_hits"] >= 1
            # a put bumps the store generation: stale entries miss
            server.documents.put("/cached", b"second")
            assert fetch_once("127.0.0.1", server.port,
                              "/cached").body == b"second"
        finally:
            server.stop()

    def test_pooled_extension_runs_off_loop(self):
        import threading as _threading

        server = NativeHttpServer()
        seen = {}

        def handler(request):
            seen["thread"] = _threading.current_thread().name
            from repro.web import Response
            return Response(200, {}, b"pooled")

        server.add_extension("/p", handler)  # pooled by default
        server.start()
        try:
            assert fetch_once("127.0.0.1", server.port,
                              "/p/x").body == b"pooled"
            assert seen["thread"].startswith("httpd-pool")
        finally:
            server.stop()

    def test_inline_extension_runs_on_loop(self):
        import threading as _threading

        server = NativeHttpServer()
        seen = {}

        def handler(request):
            seen["thread"] = _threading.current_thread().name
            from repro.web import Response
            return Response(200, {}, b"inline")

        server.add_extension("/i", handler, inline=True)
        server.start()
        try:
            assert fetch_once("127.0.0.1", server.port,
                              "/i/x").body == b"inline"
            assert seen["thread"].startswith("httpd-loop")
        finally:
            server.stop()

    def test_stats_shape(self):
        server = NativeHttpServer()
        server.documents.put("/s", b"s")
        server.start()
        try:
            fetch_once("127.0.0.1", server.port, "/s")
            stats = server.stats()
            for key in ("requests_served", "live_connections",
                        "cache_hits", "cache_misses",
                        "backpressure_pauses", "accept_backpressure",
                        "pool"):
                assert key in stats
            assert stats["requests_served"] >= 1
        finally:
            server.stop()

    def test_document_store_remove(self):
        store = DocumentStore()
        store.put("/a", b"x")
        generation = store.generation
        assert store.remove("/a") is not None
        assert store.generation > generation
        assert store.get("/a") is None
        assert store.remove("/ghost") is None


class TestSealedServletSemantics:
    """PR 4: sealed request/response carriers."""

    def test_servlet_cannot_mutate_request(self, iis, jk):
        class Mutator(Servlet):
            def service(self, request):
                request.path = "/hacked"
                return text_response("never")

        jk.install_servlet("/mut", Mutator)
        response = fetch_once("127.0.0.1", iis.port, "/servlet/mut")
        assert response.status == 500  # AttributeError, isolated

    def test_identical_requests_are_interned(self, iis, jk):
        seen = []

        class Observer(Servlet):
            def service(self, request):
                seen.append(id(request))
                return text_response("ok")

        jk.install_servlet("/obs", Observer)
        from repro.web import fetch_many
        fetch_many("127.0.0.1", iis.port,
                   ["/servlet/obs", "/servlet/obs"])
        assert len(seen) == 2
        assert seen[0] == seen[1]  # sealed request carrier reused

    def test_response_wire_bytes_memoized(self):
        response = text_response("hello")
        first = response.wire_bytes("HTTP/1.1", True)
        second = response.wire_bytes("HTTP/1.1", True)
        assert first is second
        assert first.startswith(b"HTTP/1.1 200")
        close_variant = response.wire_bytes("HTTP/1.0", False)
        assert close_variant is not first
        assert b"Connection: close" in close_variant

    def test_per_domain_request_accounting(self, iis, jk):
        jk.install_servlet("/acct", HelloServlet)
        registration = jk.registrations()["/acct"]
        before = registration.account.requests
        for _ in range(3):
            fetch_once("127.0.0.1", iis.port, "/servlet/acct")
        assert registration.account.requests - before == 3


class TestReviewHardening:
    """PR 4 review fixes: crash containment and sealed-internal safety."""

    def test_unformattable_response_degrades_to_500_not_dead_loop(self):
        server = NativeHttpServer()
        server.documents.put("/alive", b"still here")

        def broken(request):
            from repro.web import Response
            return Response(200, {"X-Note": "café☃"}, b"")

        server.add_extension("/broken", broken, inline=True)
        server.start()
        try:
            assert fetch_once("127.0.0.1", server.port,
                              "/broken/x").status == 500
            # the loop survived: both paths still served
            assert fetch_once("127.0.0.1", server.port,
                              "/alive").body == b"still here"
            assert fetch_once("127.0.0.1", server.port,
                              "/broken/y").status == 500
        finally:
            server.stop()

    def test_broken_pooled_handler_does_not_kill_pool(self):
        server = NativeHttpServer(pool_workers=1)
        server.documents.put("/d", b"d")

        def broken(request):
            from repro.web import Response
            return Response(200, {"X-Bad": "☃"}, b"")

        server.add_extension("/pooled-broken", broken)  # pooled
        server.start()
        try:
            for _ in range(3):
                assert fetch_once("127.0.0.1", server.port,
                                  "/pooled-broken/x").status == 500
            assert fetch_once("127.0.0.1", server.port,
                              "/d").status == 200
        finally:
            server.stop()

    def test_frozen_map_backing_is_read_only(self):
        from repro.core.sealed import FrozenMap

        frozen = FrozenMap({"a": "1"})
        with pytest.raises(TypeError):
            frozen._map["a"] = "poisoned"  # mappingproxy: no item set

    def test_response_wire_memo_not_instance_reachable(self):
        response = text_response("x")
        response.wire_bytes()
        assert not hasattr(response, "_wire")

    def test_document_store_generation_exact_under_threads(self):
        import threading as _threading

        store = DocumentStore()
        rounds = 2_000

        def putter(tag):
            for index in range(rounds):
                store.put(f"/{tag}", f"{index}".encode())

        threads = [_threading.Thread(target=putter, args=(tag,))
                   for tag in ("a", "b", "c", "d")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.generation == 4 * rounds

    def test_domain_in_flight_calls_public_api(self, iis, jk):
        jk.install_servlet("/flight", HelloServlet)
        registration = jk.registrations()["/flight"]
        assert registration.domain.in_flight_calls() == 0
        fetch_once("127.0.0.1", iis.port, "/servlet/flight")
        assert registration.in_flight == 0  # back to quiescent


class TestPerPathInvalidation:
    def test_updating_one_doc_keeps_others_cached(self):
        server = NativeHttpServer()
        server.documents.put("/hot", b"hot-1")
        server.documents.put("/cold", b"cold-1")
        server.start()
        try:
            for _ in range(3):
                fetch_once("127.0.0.1", server.port, "/hot")
            hits_before = server.stats()["cache_hits"]
            server.documents.put("/cold", b"cold-2")  # unrelated mutation
            assert fetch_once("127.0.0.1", server.port,
                              "/hot").body == b"hot-1"
            assert server.stats()["cache_hits"] > hits_before  # still hit
            assert fetch_once("127.0.0.1", server.port,
                              "/cold").body == b"cold-2"
            # and mutating the hot path is visible immediately
            server.documents.put("/hot", b"hot-2")
            assert fetch_once("127.0.0.1", server.port,
                              "/hot").body == b"hot-2"
        finally:
            server.stop()

    def test_removed_document_stops_being_served(self):
        server = NativeHttpServer()
        server.documents.put("/gone", b"here")
        server.start()
        try:
            assert fetch_once("127.0.0.1", server.port,
                              "/gone").status == 200
            server.documents.remove("/gone")
            assert fetch_once("127.0.0.1", server.port,
                              "/gone").status == 404
        finally:
            server.stop()


class TestAccountLifecycle:
    """PR 4: per-incarnation resource accounts."""

    def test_replacement_servlet_gets_fresh_account(self, iis, jk):
        jk.install_servlet("/fresh", HelloServlet)
        first = jk.registrations()["/fresh"]
        for _ in range(3):
            fetch_once("127.0.0.1", iis.port, "/servlet/fresh")
        assert first.account.requests == 3
        jk.replace_servlet("/fresh", HelloServlet)
        second = jk.registrations()["/fresh"]
        assert second.account is not first.account
        assert second.account.requests == 0
        fetch_once("127.0.0.1", iis.port, "/servlet/fresh")
        assert second.account.requests == 1
        assert first.account.requests == 3  # final total preserved

    def test_terminated_servlet_account_released(self, iis, jk):
        from repro.core import get_accountant

        jk.install_servlet("/closed", HelloServlet)
        registration = jk.registrations()["/closed"]
        fetch_once("127.0.0.1", iis.port, "/servlet/closed")
        jk.terminate_servlet("/closed")
        # the accountant no longer tracks the dead domain
        assert registration.domain.name not in get_accountant().report()


class TestWorkersParameterAndListeners:
    """PR 5: reactor sizing + pre-bound listener adoption (the prefork
    tier builds on both)."""

    def test_jkweb_workers_sizes_event_loop_pool(self):
        jk = JKernelWebServer(workers=4)
        assert jk.server.workers == 4
        jk.start()
        try:
            assert len(jk.server._loops) == 4
            jk.server.documents.put("/w", b"workers")
            assert fetch_once("127.0.0.1", jk.port, "/w").status == 200
        finally:
            jk.stop()

    def test_explicit_server_wins_over_workers(self):
        server = NativeHttpServer(workers=1)
        jk = JKernelWebServer(server=server)
        assert jk.server is server

    def test_start_adopts_prebound_listener(self):
        from repro.web import make_listener

        listener = make_listener("127.0.0.1", 0)
        port = listener.getsockname()[1]
        server = NativeHttpServer()
        server.documents.put("/pre", b"bound")
        server.start(listener)
        try:
            assert server.port == port
            assert fetch_once("127.0.0.1", port, "/pre").status == 200
        finally:
            server.stop()

    def test_stop_accepting_keeps_existing_connections(self):
        from repro.web import fetch_many

        server = NativeHttpServer()
        server.documents.put("/d", b"doc")
        server.start()
        try:
            import socket as socket_module

            conn = socket_module.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            try:
                from repro.web import format_request, read_response

                reader = conn.makefile("rb")
                # Complete one request FIRST: that guarantees an event
                # loop adopted the connection (a handshake alone may
                # still sit in the listener backlog, where closing the
                # listener would reset it).
                conn.sendall(format_request("GET", "/d", keep_alive=True))
                assert read_response(reader).status == 200
                server.stop_accepting()
                # the established connection is still served...
                conn.sendall(format_request("GET", "/d", keep_alive=True))
                response = read_response(reader)
                assert response.status == 200
                reader.close()
            finally:
                conn.close()
            # ...but new connections are refused (listener closed)
            with pytest.raises(OSError):
                fetch_many("127.0.0.1", server.port, ["/d"])
        finally:
            server.stop()
