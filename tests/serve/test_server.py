"""HTTP API: submit/status/artifact flows and their failure statuses."""

import http.client
import json
import threading
import time

import pytest

from repro.engine.run_config import RunConfig
from repro.experiments.registry import get_experiment
from repro.serve.cache import canonicalize_artifact, job_payload
from repro.serve.server import ReproServer, http_get_bytes, http_json


def _payload(seed=5, trials=2):
    return job_payload(
        "epidemic_convergence",
        "quick",
        {"ns": [64], "trials": trials},
        RunConfig(seed=seed, engine="counts"),
    )


def _post_with_length(server, content_length, body):
    """POST /jobs with a raw Content-Length header; ``(status, parsed body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _wait_done(url, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = http_json("GET", f"{url}/jobs/{job_id}")
        assert status == 200
        if body["state"] in ("done", "failed"):
            return body
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} never finished")


@pytest.fixture
def server(tmp_path):
    instance = ReproServer(tmp_path / "queue", port=0, workers=2)
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def idle_server(tmp_path):
    """HTTP listener with no workers draining the queue (jobs stay pending)."""
    instance = ReproServer(tmp_path / "queue", port=0, workers=1)
    thread = threading.Thread(target=instance.http.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.http.shutdown()
    thread.join(timeout=10)
    instance.http.server_close()


class TestFlows:
    def test_submit_poll_fetch(self, server):
        payload = _payload()
        status, body = http_json("POST", f"{server.url}/jobs", payload)
        assert status == 200
        assert body["state"] == "pending"
        assert body["cached"] is False
        job_id = body["job_id"]
        assert job_id == body["digest"][:16]

        final = _wait_done(server.url, job_id)
        assert final["state"] == "done"
        assert final["progress"] == {"trials_done": 0, "inflight": 0}

        status, artifact = http_get_bytes(f"{server.url}/jobs/{job_id}/artifact")
        assert status == 200
        direct = get_experiment("epidemic_convergence").run(
            "quick",
            run=RunConfig.from_dict(payload["run_config"]),
            **payload["params"],
        )
        assert artifact == canonicalize_artifact(direct).to_json().encode("utf-8")

    def test_resubmission_reports_cached(self, server):
        payload = _payload()
        status, first = http_json("POST", f"{server.url}/jobs", payload)
        assert status == 200
        _wait_done(server.url, first["job_id"])
        status, second = http_json("POST", f"{server.url}/jobs", payload)
        assert status == 200
        assert second["job_id"] == first["job_id"]
        assert second["cached"] is True

    def test_job_listing(self, server):
        status, body = http_json("POST", f"{server.url}/jobs", _payload())
        assert status == 200
        status, listing = http_json("GET", f"{server.url}/jobs")
        assert status == 200
        assert [job["job_id"] for job in listing["jobs"]] == [body["job_id"]]

    def test_healthz(self, server):
        import repro

        status, body = http_json("GET", f"{server.url}/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["version"] == repro.__version__
        assert body["uptime_seconds"] >= 0.0
        assert body["queue"] == {"pending": 0, "running": 0, "done": 0, "failed": 0}
        assert body["jobs_served"] == {
            "simulated": 0,
            "cache_hits": 0,
            "done": 0,
            "failed": 0,
        }


class TestFailureStatuses:
    def test_unknown_job_is_404(self, server):
        status, body = http_json("GET", f"{server.url}/jobs/nope")
        assert status == 404
        assert "unknown job id" in body["error"]
        status, body = http_json("GET", f"{server.url}/jobs/nope/artifact")
        assert status == 404

    def test_invalid_payload_is_400(self, server):
        status, body = http_json("POST", f"{server.url}/jobs", {"experiment": "nope"})
        assert status == 400
        assert "unknown experiment" in body["error"]

    def test_entropy_seed_is_400(self, server):
        payload = _payload()
        payload["run_config"]["seed"] = None
        status, body = http_json("POST", f"{server.url}/jobs", payload)
        assert status == 400
        assert "integer run_config.seed" in body["error"]

    def test_non_json_body_is_400(self, server):
        import urllib.request

        request = urllib.request.Request(
            f"{server.url}/jobs", data=b"{nope", method="POST"
        )
        try:
            urllib.request.urlopen(request, timeout=30)
            status = 200
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400

    @pytest.mark.parametrize("content_length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, server, content_length):
        status, body = _post_with_length(server, content_length, b"{}")
        assert status == 400
        assert "Content-Length" in body["error"]
        assert http_json("GET", f"{server.url}/healthz")[0] == 200

    def test_oversized_content_length_is_413_without_reading(self, server):
        # The body is 2 bytes, far short of the header: reading it would block.
        status, body = _post_with_length(server, "999999999", b"{}")
        assert status == 413
        assert "limit" in body["error"]
        assert http_json("GET", f"{server.url}/healthz")[0] == 200

    def test_artifact_before_done_is_409(self, idle_server):
        url = f"http://127.0.0.1:{idle_server.port}"
        status, body = http_json("POST", f"{url}/jobs", _payload())
        assert status == 200
        status, body = http_json("GET", f"{url}/jobs/{body['job_id']}/artifact")
        assert status == 409
        assert body["state"] == "pending"
        assert "not done" in body["error"]

    def test_unknown_endpoint_is_404(self, server):
        assert http_json("GET", f"{server.url}/nope")[0] == 404
        assert http_json("POST", f"{server.url}/nope", {})[0] == 404
