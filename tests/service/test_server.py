"""ServiceServer endpoints, including every failure path the API promises."""

from __future__ import annotations

import json
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceServer
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine


def _payload(benchmark="gcc", instructions=400, **extra) -> dict:
    body = {
        "kind": "run",
        "config": SimulationConfig(
            benchmark=benchmark, n_instructions=instructions
        ).to_dict(),
    }
    body.update(extra)
    return body


@pytest.fixture()
def server(tmp_path):
    engine = SimEngine(fast=True, store=tmp_path / "store")
    with ServiceServer(engine=engine, journal=tmp_path / "wal") as server:
        yield server


def _post(server, body_bytes):
    return server.dispatch("POST", "/v1/jobs", body_bytes)


class TestFailurePaths:
    def test_malformed_json_is_400_not_traceback(self, server):
        status, payload, _ = _post(server, b"{definitely not json")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_empty_body_is_400(self, server):
        status, payload, _ = _post(server, b"")
        assert status == 400

    def test_structurally_broken_job_is_400(self, server):
        status, payload, _ = _post(server, json.dumps({"kind": "zap"}).encode())
        assert status == 400
        assert "unknown job kind" in payload["error"]

    def test_unknown_policy_is_422_with_message(self, server):
        body = _payload()
        body["config"]["dcache"] = {"name": "warp-drive", "params": {}}
        status, payload, _ = _post(server, json.dumps(body).encode())
        assert status == 422
        assert "warp-drive" in payload["error"]

    def test_unknown_benchmark_is_422_with_message(self, server):
        status, payload, _ = _post(
            server, json.dumps(_payload(benchmark="nope")).encode()
        )
        assert status == 422
        assert "unknown benchmark" in payload["error"]

    def test_unknown_job_is_404(self, server):
        status, payload, _ = server.dispatch("GET", "/v1/jobs/job-missing", None)
        assert status == 404

    def test_unknown_result_key_is_404(self, server):
        status, _, _ = server.dispatch("GET", "/v1/results/" + "0" * 32, None)
        assert status == 404

    def test_malformed_result_key_is_404_not_500(self, server):
        for key in ("zz", "DEADBEEF", "a.b", "%2e%2e"):
            status, _, _ = server.dispatch("GET", f"/v1/results/{key}", None)
            assert status == 404, key

    def test_duplicate_job_id_is_409_and_journal_stays_clean(self, server):
        body = json.dumps(_payload(id="job-dup")).encode()
        status, _, _ = _post(server, body)
        assert status == 202
        status, payload, _ = _post(server, body)
        assert status == 409
        assert "duplicate" in payload["error"]
        # The journal must not carry a second submit for the id.
        text = server.journal.path.read_text()
        assert text.count('"job-dup"') <= 2  # one submit + at most one finish

    def test_unroutable_job_id_is_400(self, server):
        status, payload, _ = _post(
            server, json.dumps(_payload(id="my job/../x")).encode()
        )
        assert status == 400
        assert "id must be" in payload["error"]

    def test_unknown_endpoint_is_404(self, server):
        status, _, _ = server.dispatch("GET", "/v2/nothing", None)
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _, headers = server.dispatch("DELETE", "/v1/jobs", None)
        assert status == 405
        assert "Allow" in headers

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        engine = SimEngine(fast=True)
        with ServiceServer(engine=engine, queue_limit=1) as server:
            # Occupy the single slot with a job the scheduler will chew on.
            status, first, _ = _post(
                server, json.dumps(_payload(instructions=200_000)).encode()
            )
            assert status == 202
            status, payload, headers = _post(
                server, json.dumps(_payload(instructions=201_000)).encode()
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "full" in payload["error"]
            server.board.cancel(first["id"])

    def test_rejected_job_does_not_resurrect_after_restart(self, tmp_path):
        engine = SimEngine(fast=True)
        wal = tmp_path / "wal"
        with ServiceServer(engine=engine, queue_limit=1, journal=wal) as server:
            status, first, _ = _post(
                server, json.dumps(_payload(instructions=200_000)).encode()
            )
            assert status == 202
            status, _, _ = _post(
                server, json.dumps(_payload(instructions=201_000)).encode()
            )
            assert status == 429
            server.board.cancel(first["id"])
        from repro.service.journal import JobJournal

        assert JobJournal(wal).replay() == []


class TestHappyPath:
    def test_submit_poll_result_round_trip(self, server):
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202
        job_id = receipt["id"]
        deadline = time.time() + 60
        while time.time() < deadline:
            status, job, _ = server.dispatch("GET", f"/v1/jobs/{job_id}", None)
            assert status == 200
            if job["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.02)
        assert job["status"] == "done"
        (key,) = receipt["units"]
        assert job["results"][key]["benchmark"] == "gcc"
        status, result, _ = server.dispatch("GET", f"/v1/results/{key}", None)
        assert status == 200
        assert result["result"] == job["results"][key]

    def test_jobs_listing(self, server):
        _post(server, json.dumps(_payload()).encode())
        status, payload, _ = server.dispatch("GET", "/v1/jobs", None)
        assert status == 200
        assert len(payload["jobs"]) == 1
        assert payload["jobs"][0]["kind"] == "run"

    def test_policies_endpoint_matches_registry(self, server):
        status, payload, _ = server.dispatch("GET", "/v1/policies", None)
        assert status == 200
        assert payload["policies"]["gated"]["defaults"]["threshold"] == 100

    def test_healthz_and_metrics(self, server):
        status, health, _ = server.dispatch("GET", "/healthz", None)
        assert status == 200 and health["status"] == "ok"
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert status == 200
        for field in (
            "queue_depth",
            "pending_units",
            "jobs_per_s",
            "job_latency_s",
            "engine",
            "coalesce_rate",
        ):
            assert field in metrics

    def test_cancel_endpoint(self, server):
        status, receipt, _ = _post(
            server, json.dumps(_payload(instructions=500_000)).encode()
        )
        job_id = receipt["id"]
        status, payload, _ = server.dispatch(
            "POST", f"/v1/jobs/{job_id}/cancel", None
        )
        assert status == 200
        assert payload["status"] == "cancelled"
        # Idempotent.
        status, payload, _ = server.dispatch(
            "POST", f"/v1/jobs/{job_id}/cancel", None
        )
        assert status == 200 and payload["status"] == "cancelled"

    def test_draining_healthz_is_503(self, tmp_path):
        server = ServiceServer(engine=SimEngine(fast=True))
        server.start()
        server._draining.set()
        status, payload, _ = server.dispatch("GET", "/healthz", None)
        assert status == 503 and payload["status"] == "draining"
        status, _, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 503
        server.stop()


class TestOverHttp:
    def test_real_http_round_trip_and_coalescing(self, server):
        client = ServiceClient(server.url)
        config = SimulationConfig(benchmark="gcc", n_instructions=400)
        first = client.submit_run(config)
        second = client.submit_run(config)
        assert second["coalesced"] + second["cached"] == 1
        job = client.wait(first["id"], timeout=60)
        other = client.wait(second["id"], timeout=60)
        (key,) = first["units"]
        assert job["results"][key] == other["results"][key]

    def test_http_validation_error_carries_server_message(self, server):
        client = ServiceClient(server.url, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(_payload(benchmark="nope"))
        assert excinfo.value.status == 422
        assert "unknown benchmark" in str(excinfo.value)

    def test_oversized_body_is_413(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=b"x",
            method="POST",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413


class TestRobustnessMetrics:
    """Satellite: /v1/metrics surfaces the hardened paths' counters."""

    def _wait_terminal(self, server, job_id, timeout=60.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, job, _ = server.dispatch("GET", f"/v1/jobs/{job_id}", None)
            assert status == 200
            if job["status"] in ("done", "failed", "cancelled", "poisoned"):
                return job
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} not terminal after {timeout}s")

    def test_metrics_expose_robustness_counters(self, server):
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert status == 200
        for field in (
            "retries_total",
            "quarantined_units",
            "pool_rebuilds",
            "store_corrupt_entries",
        ):
            assert metrics[field] == 0

    def test_store_corruption_surfaces_in_metrics(self, server):
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202
        self._wait_terminal(server, receipt["id"])
        (key,) = receipt["units"]
        store = server.engine.store
        store._key_path(key).write_text("{torn", encoding="utf-8")
        assert store.get_payload(key) is None  # quarantined on read
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert metrics["store_corrupt_entries"] == 1

    def test_unit_quarantine_surfaces_in_metrics(self, server):
        def boom(*args, **kwargs):
            raise RuntimeError("executor death")

        server.engine.run_many = boom
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202
        job = self._wait_terminal(server, receipt["id"])
        assert job["status"] == "poisoned"
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert metrics["quarantined_units"] == 1
        # MAX_UNIT_FAILURES=3: two retries absorbed before quarantine.
        assert metrics["retries_total"] >= 2

    def test_new_stats_keys_do_not_skew_cache_hit_rate(self, server):
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202
        self._wait_terminal(server, receipt["id"])
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        engine = metrics["engine"]
        lookups = (
            engine["memory_hits"] + engine["store_hits"] + engine["computed"]
        )
        # One computed lookup, zero hits: the robustness counters must
        # not appear in the hit-rate denominator.
        assert lookups == 1
        assert metrics["engine_cache_hit_rate"] == 0.0

    def test_cache_hit_rate_counts_units_served_at_admission(self, server):
        # The second submission's unit is served from the engine's cache
        # at admission, without a counted engine lookup: one computed
        # unit and one cached unit make a rate of one half.
        for _ in range(2):
            status, receipt, _ = _post(server, json.dumps(_payload()).encode())
            assert status == 202
            self._wait_terminal(server, receipt["id"])
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert metrics["counters"]["units_cached"] == 1
        assert metrics["engine"]["computed"] == 1
        assert metrics["engine_cache_hit_rate"] == 0.5


class TestInjectedServiceFaults:
    """Failpoints at the HTTP boundary and the journal's write path."""

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        from repro import faults

        faults.clear()
        yield
        faults.clear()

    def test_journal_write_failure_rejects_job_with_503(self, server):
        from repro import faults

        faults.install("journal.append=error:n=1")
        status, payload, headers = _post(
            server, json.dumps(_payload()).encode()
        )
        assert status == 503
        assert "not admitted" in payload["error"]
        assert headers.get("Retry-After") == "1"
        faults.clear()
        # The rejected job left no trace: a retry admits cleanly and
        # the journal replays nothing spurious after a restart.
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202

    def test_injected_5xx_responses_are_absorbed_by_client_retries(self, server):
        from repro import faults

        faults.install("server.response=error:n=1")
        client = ServiceClient(server.url, retries=3, backoff=0.01)
        assert client.healthz()["status"] == "ok"

    def test_injected_dropped_connection_is_absorbed_by_client_retries(self, server):
        from repro import faults

        faults.install("server.response=drop:n=1")
        client = ServiceClient(server.url, retries=3, backoff=0.01)
        assert client.healthz()["status"] == "ok"
