"""Client retry discipline: Retry-After on 429, jittered backoff on 5xx."""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service.client import (
    RetryBudgetExceeded,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves a scripted sequence of (status, headers, payload) responses."""

    script = []  # mutated per test
    calls = []

    def _serve(self):
        type(self).calls.append(self.path)
        if self.script:
            status, headers, payload = self.script.pop(0)
        else:
            status, headers, payload = 200, {}, {"ok": True}
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _serve

    def log_message(self, *args):
        pass


@pytest.fixture()
def scripted():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ScriptedHandler.script = []
    _ScriptedHandler.calls = []
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestRetryDiscipline:
    def test_429_honours_retry_after_header(self, scripted):
        _, url = scripted
        sleeps = []
        _ScriptedHandler.script = [
            (429, {"Retry-After": "3"}, {"error": "queue full"}),
            (200, {}, {"ok": True}),
        ]
        client = ServiceClient(
            url, retries=2, backoff=0.01, sleep=sleeps.append, jitter=False
        )
        assert client._request("GET", "/anything") == {"ok": True}
        assert sleeps == [3.0]

    def test_429_jitter_keeps_at_least_half_the_retry_after(self, scripted):
        # Equal jitter: the server's admission hint stays meaningful
        # (floor ra/2) while the herd it turned away decorrelates.
        _, url = scripted
        sleeps = []
        _ScriptedHandler.script = [
            (429, {"Retry-After": "3"}, {"error": "queue full"}),
            (200, {}, {"ok": True}),
        ]
        client = ServiceClient(url, retries=2, backoff=0.01, sleep=sleeps.append)
        assert client._request("GET", "/anything") == {"ok": True}
        assert len(sleeps) == 1
        assert 1.5 <= sleeps[0] <= 3.0

    def test_429_exhausting_retries_raises_service_error(self, scripted):
        _, url = scripted
        _ScriptedHandler.script = [
            (429, {"Retry-After": "1"}, {"error": "queue full"})
        ] * 3
        client = ServiceClient(url, retries=2, backoff=0.01, sleep=lambda s: None)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/anything")
        assert excinfo.value.status == 429

    def test_5xx_retries_with_exponential_backoff(self, scripted):
        _, url = scripted
        sleeps = []
        _ScriptedHandler.script = [
            (500, {}, {"error": "transient"}),
            (500, {}, {"error": "transient"}),
            (200, {}, {"ok": True}),
        ]
        client = ServiceClient(
            url, retries=3, backoff=0.1, sleep=sleeps.append, jitter=False
        )
        assert client._request("GET", "/anything") == {"ok": True}
        assert sleeps == [0.1, 0.2]

    def test_5xx_jittered_backoff_stays_inside_the_nominal_window(self, scripted):
        _, url = scripted
        sleeps = []
        _ScriptedHandler.script = [
            (500, {}, {"error": "transient"}),
            (500, {}, {"error": "transient"}),
            (200, {}, {"ok": True}),
        ]
        client = ServiceClient(url, retries=3, backoff=0.1, sleep=sleeps.append)
        assert client._request("GET", "/anything") == {"ok": True}
        # Full jitter: each sleep is a uniform draw over (floor, nominal].
        assert len(sleeps) == 2
        assert 0.0 < sleeps[0] <= 0.1
        assert 0.0 < sleeps[1] <= 0.2

    def test_jitter_decorrelates_a_thundering_herd(self, scripted):
        # A fleet of clients rejected at the same instant must not come
        # back at the same instant: with jitter their first retry sleeps
        # spread out instead of all landing on the Retry-After figure.
        _, url = scripted
        herd_sleeps = []
        for seed in range(12):
            sleeps = []
            _ScriptedHandler.script = [
                (429, {"Retry-After": "2"}, {"error": "queue full"}),
                (200, {}, {"ok": True}),
            ]
            client = ServiceClient(
                url, retries=1, backoff=0.01, sleep=sleeps.append,
                rng=random.Random(seed),
            )
            assert client._request("GET", "/anything") == {"ok": True}
            herd_sleeps.append(sleeps[0])
        # Everyone honours at least half the server's hint...
        assert all(1.0 <= s <= 2.0 for s in herd_sleeps)
        # ...but the herd is spread, not synchronised on one instant.
        assert len({round(s, 3) for s in herd_sleeps}) > 6
        assert max(herd_sleeps) - min(herd_sleeps) > 0.1

    def test_4xx_never_retries(self, scripted):
        _, url = scripted
        _ScriptedHandler.script = [(422, {}, {"error": "unknown policy"})]
        client = ServiceClient(url, retries=5, backoff=0.01, sleep=lambda s: None)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/anything")
        assert excinfo.value.status == 422
        assert "unknown policy" in excinfo.value.message
        assert len(_ScriptedHandler.calls) == 1

    def test_unreachable_server_raises_service_unavailable(self):
        client = ServiceClient(
            "http://127.0.0.1:9", retries=1, backoff=0.01, sleep=lambda s: None
        )
        with pytest.raises(ServiceUnavailable):
            client._request("GET", "/healthz")

    def test_wait_times_out(self, scripted):
        _, url = scripted
        _ScriptedHandler.script = []
        # Default script returns {"ok": True} with no status field — make
        # the job endpoint return a perpetually running job instead.
        _ScriptedHandler.script = [
            (200, {}, {"id": "job-x", "status": "running"})
        ] * 50
        client = ServiceClient(url, retries=0, sleep=lambda s: None)
        with pytest.raises(TimeoutError):
            client.wait("job-x", poll_s=0.0, timeout=0.0)


class _FakeClock:
    """Monotonic clock the sleep callback advances — no real waiting."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRetryBudget:
    def test_budget_clips_sleeps_then_raises(self, scripted):
        _, url = scripted
        _ScriptedHandler.script = [(500, {}, {"error": "transient"})] * 10
        clock = _FakeClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        client = ServiceClient(
            url, retries=9, backoff=10.0, jitter=False,
            retry_budget_s=15.0, clock=clock, sleep=sleep,
        )
        with pytest.raises(RetryBudgetExceeded) as excinfo:
            client._request("GET", "/anything")
        # First sleep takes the full nominal backoff, the second is
        # clipped to the 5s remaining, the third attempt is refused.
        assert sleeps == [10.0, 5.0]
        assert "15.0s" in str(excinfo.value)
        assert "transient" in str(excinfo.value)  # carries the last failure

    def test_budget_exceeded_is_a_service_unavailable(self, scripted):
        _, url = scripted
        _ScriptedHandler.script = [(503, {}, {"error": "down"})] * 10
        clock = _FakeClock()
        client = ServiceClient(
            url, retries=9, backoff=60.0, jitter=False,
            retry_budget_s=30.0, clock=clock,
            sleep=lambda s: clock.advance(s),
        )
        # Deadline-aware callers can still catch the broad class.
        with pytest.raises(ServiceUnavailable):
            client._request("GET", "/anything")

    def test_budget_bounds_transport_error_retries(self):
        clock = _FakeClock()
        client = ServiceClient(
            "http://127.0.0.1:9", retries=100, backoff=5.0, jitter=False,
            retry_budget_s=12.0, clock=clock,
            sleep=lambda s: clock.advance(s),
        )
        with pytest.raises(RetryBudgetExceeded):
            client._request("GET", "/healthz")
        assert clock.now <= 12.0  # never slept past the deadline

    def test_request_inside_budget_succeeds_unclipped(self, scripted):
        _, url = scripted
        _ScriptedHandler.script = [
            (500, {}, {"error": "transient"}),
            (200, {}, {"ok": True}),
        ]
        clock = _FakeClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        client = ServiceClient(
            url, retries=3, backoff=0.2, jitter=False,
            retry_budget_s=60.0, clock=clock, sleep=sleep,
        )
        assert client._request("GET", "/anything") == {"ok": True}
        assert sleeps == [0.2]

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:9", retry_budget_s=0.0)
