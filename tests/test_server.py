"""Tests for the SPARQL Protocol HTTP endpoint."""

import json
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.server import SparqlServer


@pytest.fixture
def server(social_engine):
    with SparqlServer(social_engine, allow_updates=True) as running:
        yield running


def get(server, path, accept=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        headers={"Accept": accept} if accept else {},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.headers.get_content_type(), (
            response.read().decode("utf-8")
        )


def post(server, path, body, content_type):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body.encode("utf-8"),
        headers={"Content-Type": content_type},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


QUERY = "SELECT ?n WHERE { ?x <http://ex/name> ?n } ORDER BY ?n"


class TestQueryEndpoint:
    def test_get_json(self, server):
        encoded = urllib.parse.quote(QUERY)
        status, content_type, body = get(server, f"/sparql?query={encoded}")
        assert status == 200
        assert content_type == "application/sparql-results+json"
        document = json.loads(body)
        names = [b["n"]["value"] for b in document["results"]["bindings"]]
        assert names == ["Alice", "Bob", "Carol"]

    def test_get_csv_by_accept(self, server):
        encoded = urllib.parse.quote(QUERY)
        status, content_type, body = get(
            server, f"/sparql?query={encoded}", accept="text/csv"
        )
        assert content_type == "text/csv"
        assert "Alice" in body

    def test_post_form_encoded(self, server):
        body = urllib.parse.urlencode({"query": QUERY})
        status, text = post(
            server, "/sparql", body, "application/x-www-form-urlencoded"
        )
        assert status == 200 and "Alice" in text

    def test_post_raw_query(self, server):
        status, text = post(
            server, "/sparql", QUERY, "application/sparql-query"
        )
        assert status == 200 and "Carol" in text

    def test_ask(self, server):
        encoded = urllib.parse.quote(
            "ASK { <http://ex/alice> <http://ex/knows> <http://ex/bob> }"
        )
        _, _, body = get(server, f"/sparql?query={encoded}")
        assert json.loads(body)["boolean"] is True

    def test_construct_returns_ntriples(self, server):
        encoded = urllib.parse.quote(
            "CONSTRUCT { ?x <http://ex/q> ?y } "
            "WHERE { ?x <http://ex/knows> ?y }"
        )
        status, content_type, body = get(server, f"/sparql?query={encoded}")
        assert content_type == "application/n-triples"
        assert body.count("<http://ex/q>") == 4

    def test_missing_query_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/sparql")
        assert err.value.code == 400

    def test_bad_query_is_400(self, server):
        encoded = urllib.parse.quote("SELECT WHERE {")
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, f"/sparql?query={encoded}")
        assert err.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/nope")
        assert err.value.code == 404


class TestUpdateEndpoint:
    def test_update_applies(self, server, social_engine):
        body = urllib.parse.urlencode({
            "update": 'INSERT DATA { <http://ex/dan> <http://ex/name> "Dan" }'
        })
        status, text = post(
            server, "/update", body, "application/x-www-form-urlencoded"
        )
        assert status == 200
        assert json.loads(text)["inserted"] == 1
        assert social_engine.ask(
            'ASK { <http://ex/dan> <http://ex/name> "Dan" }'
        )

    def test_update_disabled_by_default(self, social_engine):
        with SparqlServer(social_engine) as readonly:
            body = urllib.parse.urlencode({
                "update": "INSERT DATA { <http://x/a> <http://x/b> <http://x/c> }"
            })
            with pytest.raises(urllib.error.HTTPError) as err:
                post(readonly, "/update", body,
                     "application/x-www-form-urlencoded")
            assert err.value.code == 403


def post_raw_content_length(port, path, content_length):
    """POST with a hand-set Content-Length header (urllib would fix it)."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/sparql-query")
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


class TestHardening:
    def test_non_integer_content_length_is_400(self, server):
        status, body = post_raw_content_length(server.port, "/sparql", "abc")
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_is_413(self, social_engine):
        with SparqlServer(
            social_engine, allow_updates=True, max_body_bytes=64
        ) as small:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(small, "/sparql", "SELECT * WHERE { ?s ?p ?o }" + " " * 100,
                     "application/sparql-query")
            assert err.value.code == 413

    def test_unsupported_methods_are_405(self, server):
        for method in ("PUT", "DELETE", "PATCH"):
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/sparql",
                data=b"x",
                method=method,
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 405
            assert err.value.headers.get("Allow") == "GET, POST"

    def test_error_bodies_are_json(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/sparql")
        assert json.loads(err.value.read().decode("utf-8"))["error"]


class TestTimeouts:
    @pytest.fixture
    def slow_engine(self):
        from repro.rdf import IRI, Quad
        from repro.sparql import SparqlEngine
        from repro.store import SemanticNetwork

        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", [
            Quad(IRI(f"http://ex/s{i}"), IRI("http://ex/p"),
                 IRI(f"http://ex/o{i % 50}"))
            for i in range(2000)
        ])
        return SparqlEngine(network, default_model="m")

    CARTESIAN = (
        "SELECT (COUNT(*) AS ?c) WHERE { "
        "?a <http://ex/p> ?b . ?c <http://ex/p> ?d . ?e <http://ex/p> ?f }"
    )

    def test_slow_query_gets_503_with_payload(self, slow_engine):
        with SparqlServer(slow_engine, timeout=0.3) as running:
            encoded = urllib.parse.quote(self.CARTESIAN)
            with pytest.raises(urllib.error.HTTPError) as err:
                get(running, f"/sparql?query={encoded}")
            assert err.value.code == 503
            payload = json.loads(err.value.read().decode("utf-8"))
            assert payload["error"] == "QueryTimeout"
            assert payload["timeout"] == 0.3
            assert payload["elapsed"] >= 0.3
            # The endpoint stays usable after a timeout.
            encoded = urllib.parse.quote(
                "SELECT (COUNT(*) AS ?c) WHERE { ?a <http://ex/p> ?b }"
            )
            status, _, body = get(running, f"/sparql?query={encoded}")
            assert status == 200

    CARTESIAN_UPDATE = (
        "INSERT { ?a <http://ex/r> ?f } WHERE { "
        "?a <http://ex/p> ?b . ?c <http://ex/p> ?d . ?e <http://ex/p> ?f }"
    )

    def test_slow_update_gets_503_with_payload(self, slow_engine):
        with SparqlServer(
            slow_engine, allow_updates=True, timeout=0.3
        ) as running:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(running, "/update", self.CARTESIAN_UPDATE,
                     "application/sparql-update")
            assert err.value.code == 503
            payload = json.loads(err.value.read().decode("utf-8"))
            assert payload["error"] == "QueryTimeout"
            # The aborted update applied nothing and the endpoint
            # stays usable.
            status, body = post(
                running, "/update",
                "INSERT DATA { <http://ex/n> <http://ex/p> <http://ex/o> }",
                "application/sparql-update",
            )
            assert status == 200
            assert json.loads(body)["inserted"] == 1


class TestInflightGate:
    def test_excess_requests_get_429(self, social_engine):
        import threading

        with SparqlServer(
            social_engine, max_inflight=1, allow_updates=True
        ) as running:
            encoded = urllib.parse.quote(QUERY)
            # Deterministically occupy the single slot: hold the store's
            # write lock so an *update* request blocks inside the gate.
            # (Queries can no longer be parked this way — MVCC reads
            # never take the lock.)
            social_engine.network.lock.acquire_write()
            first_result = {}

            def first():
                try:
                    first_result["status"] = post(
                        running, "/update",
                        "INSERT DATA { <http://ex/gate> <http://ex/p> "
                        "<http://ex/o> }",
                        "application/sparql-update",
                    )[0]
                except Exception as exc:  # noqa: BLE001
                    first_result["error"] = exc

            gate = running._server.RequestHandlerClass.gate
            thread = threading.Thread(target=first)
            thread.start()
            try:
                # Wait until the first request actually occupies the slot
                # (probing earlier would race it into the gate ourselves).
                deadline = time.monotonic() + 5
                while gate.in_use == 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert gate.in_use == 1, "first request never reached the gate"
                with pytest.raises(urllib.error.HTTPError) as err:
                    get(running, f"/sparql?query={encoded}")
                assert err.value.code == 429
                rejected = json.loads(err.value.read().decode("utf-8"))
                assert "capacity" in rejected["error"]
            finally:
                social_engine.network.lock.release_write()
                thread.join(timeout=10)
            assert first_result.get("status") == 200
            # Slot released: requests succeed again.
            status, _, _ = get(running, f"/sparql?query={encoded}")
            assert status == 200

    def test_zero_inflight_rejected_not_unlimited(self, social_engine):
        # max_inflight=0 must be a loud error, not silently "no gate".
        from repro.server import make_server

        with pytest.raises(ValueError, match="max_inflight"):
            make_server(social_engine, max_inflight=0)


class TestWorkerPool:
    def test_pool_executes_and_returns(self):
        from repro.server import WorkerPool

        pool = WorkerPool(workers=2)
        try:
            jobs = [pool.submit(lambda x: x * x, i) for i in range(4)]
            assert [job.wait() for job in jobs] == [0, 1, 4, 9]
        finally:
            pool.close()

    def test_pool_propagates_exceptions(self):
        from repro.server import WorkerPool

        def boom():
            raise ValueError("exploded in worker")

        pool = WorkerPool(workers=1)
        try:
            with pytest.raises(ValueError, match="exploded in worker"):
                pool.submit(boom).wait()
        finally:
            pool.close()

    def test_pool_saturation_raises(self):
        import threading

        from repro.server import PoolSaturated, WorkerPool

        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            assert release.wait(10)

        pool = WorkerPool(workers=1, max_queue=1)
        try:
            first = pool.submit(block)
            assert started.wait(5)  # worker busy, queue empty
            second = pool.submit(lambda: "queued")  # fills the queue
            with pytest.raises(PoolSaturated):
                pool.submit(lambda: "rejected")
        finally:
            release.set()
        first.wait()
        assert second.wait() == "queued"
        pool.close()

    def test_invalid_sizes_rejected(self):
        from repro.server import WorkerPool

        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)
        with pytest.raises(ValueError, match="max_queue"):
            WorkerPool(workers=1, max_queue=0)

    def test_pool_close_is_idempotent(self):
        from repro.server import WorkerPool

        pool = WorkerPool(workers=2)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(lambda: 1)


class _GateEngine:
    """Engine stub whose query blocks until released — makes worker
    occupancy deterministic for the saturation tests."""

    def __init__(self):
        import threading

        self.started = threading.Event()
        self.release = threading.Event()

    def query(self, text, timeout=None, language="sparql"):
        self.started.set()
        assert self.release.wait(10)
        return True  # an ASK-shaped result


class TestServerWorkerPool:
    def test_queries_answered_through_pool(self, social_engine):
        with SparqlServer(social_engine, workers=2) as running:
            encoded = urllib.parse.quote(QUERY)
            status, _, body = get(running, f"/sparql?query={encoded}")
            assert status == 200
            names = [
                b["n"]["value"]
                for b in json.loads(body)["results"]["bindings"]
            ]
            assert names == ["Alice", "Bob", "Carol"]

    def test_full_queue_answers_429(self):
        import threading

        stub = _GateEngine()
        with SparqlServer(stub, workers=1, max_queue=1) as running:
            results = {}

            def request(key):
                try:
                    results[key] = get(running, "/sparql?query=x")[0]
                except urllib.error.HTTPError as err:
                    results[key] = err.code

            first = threading.Thread(target=request, args=("first",))
            first.start()
            assert stub.started.wait(5), "first request never reached a worker"
            second = threading.Thread(target=request, args=("second",))
            second.start()
            pool = running._server.worker_pool
            deadline = time.monotonic() + 5
            while pool.queue_depth == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert pool.queue_depth == 1, "second request never queued"
            # Worker busy + queue full: immediate backpressure.
            with pytest.raises(urllib.error.HTTPError) as err:
                get(running, "/sparql?query=x")
            assert err.value.code == 429
            assert "capacity" in json.loads(
                err.value.read().decode("utf-8")
            )["error"]
            stub.release.set()
            first.join(timeout=10)
            second.join(timeout=10)
            assert results == {"first": 200, "second": 200}

    def test_metrics_expose_queue_depth_and_snapshot_gauges(
        self, social_engine
    ):
        from repro.obs import metrics as obs_metrics

        obs_metrics.enable()
        try:
            with SparqlServer(social_engine, workers=1) as running:
                encoded = urllib.parse.quote(QUERY)
                status, _, _ = get(running, f"/sparql?query={encoded}")
                assert status == 200
                _, _, body = get(running, "/metrics")
                gauges = json.loads(body)["gauges"]
                assert "server.queue_depth" in gauges
                assert "snapshot.age" in gauges
                assert gauges["snapshot.versions_live"] >= 1
                _, _, prom = get(running, "/metrics", accept="text/plain")
                assert "repro_server_queue_depth" in prom
                assert "repro_snapshot_age" in prom
                assert "repro_snapshot_versions_live" in prom
        finally:
            obs_metrics.disable()

    def test_trace_spans_cross_the_pool(self, social_engine):
        # The request trace opens on the connection thread; the query
        # runs on a worker.  Its spans must land in the same tree.
        with SparqlServer(social_engine, workers=1, trace=True) as running:
            encoded = urllib.parse.quote(QUERY)
            request = urllib.request.Request(
                f"http://127.0.0.1:{running.port}/sparql?query={encoded}"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                trace_id = response.headers.get("X-Trace-Id")
                response.read()
            assert trace_id
            _, _, body = get(running, f"/trace/{trace_id}")
            names = [s["name"] for s in json.loads(body)["spans"]]
            assert "request" in names
            assert "snapshot.pin" in names
            assert "op.IndexScan" in names


class TestServerLifecycle:
    def test_stop_joins_thread(self, social_engine):
        running = SparqlServer(social_engine).start()
        running.stop()
        assert running._thread is None

    def test_start_twice_raises(self, social_engine):
        running = SparqlServer(social_engine).start()
        try:
            with pytest.raises(RuntimeError):
                running.start()
        finally:
            running.stop()

    def test_stop_raises_when_thread_hangs(self, social_engine):
        import threading

        running = SparqlServer(social_engine).start()
        real_thread = running._thread
        hung = threading.Thread(target=time.sleep, args=(30,), daemon=True)
        hung.start()
        running._thread = hung
        with pytest.raises(RuntimeError, match="failed to stop"):
            running.stop(join_timeout=0.1)
        real_thread.join(timeout=5)


class _StubReplication:
    """A minimal stand-in for a ReplicationFollower in healthz tests."""

    def status(self):
        return {
            "role": "follower",
            "epoch": 2,
            "connected": True,
            "lag_frames": 0,
            "lag_seconds": 0.0,
            "applied_seq": 41,
            "leader_seq": 41,
        }


class TestStalenessHeaders:
    def test_every_response_carries_data_version(self, server, social_engine):
        encoded = urllib.parse.quote(QUERY)
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/sparql?query={encoded}"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            version = response.headers.get("X-Data-Version")
            response.read()
        assert version is not None
        assert int(version) == social_engine.network.data_version

    def test_satisfied_min_version_answers_immediately(self, server,
                                                       social_engine):
        token = social_engine.network.data_version
        encoded = urllib.parse.quote(QUERY)
        status, _, body = get(
            server, f"/sparql?query={encoded}&min-version={token}"
        )
        assert status == 200 and "Alice" in body

    def test_min_version_header_equivalent_to_param(self, server,
                                                    social_engine):
        token = social_engine.network.data_version
        encoded = urllib.parse.quote(QUERY)
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/sparql?query={encoded}",
            headers={"X-Min-Version": str(token)},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200

    def test_unreachable_min_version_is_503(self, social_engine):
        with SparqlServer(social_engine, staleness_wait=0.05) as running:
            wanted = social_engine.network.data_version + 10
            encoded = urllib.parse.quote(QUERY)
            with pytest.raises(urllib.error.HTTPError) as err:
                get(running, f"/sparql?query={encoded}&min-version={wanted}")
            assert err.value.code == 503
            payload = json.loads(err.value.read().decode("utf-8"))
            assert payload["error"] == "StaleRead"
            assert payload["min_version"] == wanted

    def test_malformed_min_version_is_400(self, server):
        encoded = urllib.parse.quote(QUERY)
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, f"/sparql?query={encoded}&min-version=soon")
        assert err.value.code == 400

    def test_update_response_reports_data_version(self, server,
                                                  social_engine):
        body = urllib.parse.urlencode({
            "update": 'INSERT DATA { <http://ex/eve> <http://ex/name> "Eve" }'
        })
        _, text = post(
            server, "/update", body, "application/x-www-form-urlencoded"
        )
        document = json.loads(text)
        assert document["data_version"] == (
            social_engine.network.data_version
        )

    def test_healthz_reports_replication_status(self, social_engine):
        with SparqlServer(
            social_engine, replication=_StubReplication()
        ) as running:
            _, _, body = get(running, "/healthz")
            document = json.loads(body)
            assert document["role"] == "follower"
            assert document["applied_data_version"] == (
                social_engine.network.data_version
            )
            replication = document["replication"]
            assert replication["epoch"] == 2
            assert replication["lag_frames"] == 0
            assert replication["connected"] is True

    def test_healthz_without_replication_has_no_role(self, server):
        _, _, body = get(server, "/healthz")
        document = json.loads(body)
        assert "role" not in document
        assert "applied_data_version" in document
