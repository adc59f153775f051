"""The HTTP surface: routing, error statuses, and the end-to-end
single-flight acceptance contract over real sockets."""

import threading
import time

import pytest

import repro.service.manager as manager_mod
from repro.errors import ReproError, ServiceError
from repro.eval.parallel import ResultCache
from repro.eval.serialize import canonical_json
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    canonicalize_spec,
    execute_spec,
)
from repro.service.http import split_job_path

SPEC = {"kind": "simulate", "benchmark": "cg", "nodes": 8, "topologies": ["mesh"]}


class TestHttpHelpers:
    def test_split_job_path(self):
        assert split_job_path("/jobs/abc") == ("abc", None)
        assert split_job_path("/jobs/abc/result") == ("abc", "result")
        assert split_job_path("/jobs/") is None
        assert split_job_path("/stats") is None


@pytest.fixture
def instant_service(monkeypatch):
    """A running service whose executor returns instantly."""

    def fake(spec, cache=None, jobs=None, progress=None, obs=None):
        return {"schema": 1, "kind": spec["kind"], "spec": dict(spec), "results": {}}

    monkeypatch.setattr(manager_mod, "execute_spec", fake)
    with ServiceThread(ServiceConfig(port=0, cache_dir=None)) as svc:
        yield ServiceClient(svc.base_url)


class TestRoutes:
    def test_healthz(self, instant_service):
        assert instant_service.healthz() == {"status": "ok"}

    def test_unknown_route_is_404(self, instant_service):
        with pytest.raises(ServiceError, match="404"):
            instant_service._json("GET", "/nope")

    def test_submit_then_status_then_result(self, instant_service):
        receipt = instant_service.submit(SPEC)
        assert receipt["dedupe"] == "miss"
        status = instant_service.wait(receipt["job_id"], timeout=10)
        assert status["state"] == "done"
        assert status["spec"] == canonicalize_spec(SPEC)
        bundle = instant_service.result(receipt["job_id"])
        assert bundle["kind"] == "simulate"

    def test_malformed_spec_is_400(self, instant_service):
        with pytest.raises(ServiceError, match="400"):
            instant_service.submit({"kind": "simulate", "benchmark": "nope"})

    def test_malformed_job_id_is_400(self, instant_service):
        with pytest.raises(ServiceError, match="400"):
            instant_service.status("not-hex")

    def test_unknown_job_is_404(self, instant_service):
        with pytest.raises(ServiceError, match="404"):
            instant_service.status("0" * 64)

    def test_unknown_job_resource_is_404(self, instant_service):
        receipt = instant_service.submit(SPEC)
        with pytest.raises(ServiceError, match="404"):
            instant_service._json("GET", f"/jobs/{receipt['job_id']}/bogus")

    def test_post_on_job_path_is_405(self, instant_service):
        receipt = instant_service.submit(SPEC)
        with pytest.raises(ServiceError, match="405"):
            instant_service._json("POST", f"/jobs/{receipt['job_id']}", {})

    def test_invalid_json_body_is_400(self, instant_service):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{instant_service.base_url}/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 400

    def test_pattern_size_violation_is_400(self, instant_service):
        with pytest.raises(ServiceError) as excinfo:
            instant_service.submit({"kind": "sweep", "pattern": "transpose", "nodes": 8})
        message = str(excinfo.value)
        assert "HTTP 400" in message
        assert "pattern spec 'transpose' requires a square node count" in message
        assert instant_service.stats()["jobs"].get("submitted", 0) == 0

    def test_unknown_pattern_is_400(self, instant_service):
        with pytest.raises(ServiceError, match="HTTP 400.*unknown pattern"):
            instant_service.submit({"kind": "sweep", "pattern": "wormhole"})

    def test_portfolio_with_restarts_is_400(self, instant_service):
        with pytest.raises(ServiceError, match="HTTP 400.*another spelling"):
            instant_service.submit(
                {"kind": "synthesize", "benchmark": "cg", "portfolio": 2, "restarts": 2}
            )
        assert instant_service.stats()["jobs"].get("submitted", 0) == 0

    def test_portfolio_spelling_dedupes_with_restarts(self, instant_service):
        a = instant_service.submit(
            {"kind": "synthesize", "benchmark": "cg", "nodes": 8, "portfolio": 2}
        )
        b = instant_service.submit(
            {"kind": "synthesize", "benchmark": "cg", "nodes": 8, "restarts": 2}
        )
        assert a["job_id"] == b["job_id"]

    def test_stats_document(self, instant_service):
        receipt = instant_service.submit(SPEC)
        instant_service.wait(receipt["job_id"], timeout=10)
        stats = instant_service.stats()
        assert stats["jobs"]["submitted"] >= 1
        assert stats["workers"]["max"] == 2
        assert "cache" not in stats  # cache_dir=None run


class TestResultStatuses:
    def test_result_conflict_while_running(self, monkeypatch):
        release = threading.Event()

        def blocking(spec, cache=None, jobs=None, progress=None, obs=None):
            assert release.wait(10)
            return {"schema": 1, "kind": spec["kind"], "spec": dict(spec)}

        monkeypatch.setattr(manager_mod, "execute_spec", blocking)
        with ServiceThread(ServiceConfig(port=0, cache_dir=None)) as svc:
            client = ServiceClient(svc.base_url)
            receipt = client.submit(SPEC)
            try:
                with pytest.raises(ServiceError, match="409"):
                    client.result_bytes(receipt["job_id"])
            finally:
                release.set()
            client.wait(receipt["job_id"], timeout=10)

    def test_failed_job_result_is_500(self, monkeypatch):
        def exploding(spec, cache=None, jobs=None, progress=None, obs=None):
            raise ReproError("no such design")

        monkeypatch.setattr(manager_mod, "execute_spec", exploding)
        with ServiceThread(ServiceConfig(port=0, cache_dir=None)) as svc:
            client = ServiceClient(svc.base_url)
            receipt = client.submit(SPEC)
            status = client.wait(receipt["job_id"], timeout=10)
            assert status["state"] == "failed"
            with pytest.raises(ServiceError, match="no such design"):
                client.result_bytes(receipt["job_id"])


class TestAcceptance:
    """The PR's headline contract, over real sockets and real synthesis:
    N concurrent identical submissions cost exactly one synthesis and
    every requester reads byte-identical bundles, equal to direct
    (no-HTTP) execution."""

    SPEC = {
        "kind": "synthesize", "benchmark": "cg", "nodes": 8,
        "seed": 0, "restarts": 2,
    }
    CLIENTS = 8

    def test_concurrent_submissions_single_flight(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "cache"))
        receipts = [None] * self.CLIENTS
        bundles = [None] * self.CLIENTS

        with ServiceThread(config) as svc:
            client = ServiceClient(svc.base_url)

            def submit_and_fetch(i):
                receipts[i] = client.submit(self.SPEC)
                status = client.wait(receipts[i]["job_id"], timeout=120)
                assert status["state"] == "done"
                bundles[i] = client.result_bytes(receipts[i]["job_id"])

            threads = [
                threading.Thread(target=submit_and_fetch, args=(i,))
                for i in range(self.CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)

            # Single flight: one content address, one scheduled
            # execution, and one cache miss per restart seed across all
            # eight submissions.
            assert len({r["job_id"] for r in receipts}) == 1
            stats = client.stats()
            assert stats["jobs"]["submitted"] == self.CLIENTS
            assert stats["jobs"]["scheduled"] == 1
            assert stats["jobs"]["executed"] == 1
            assert stats["cells"]["lookups"] == self.SPEC["restarts"]
            assert stats["cells"]["misses"] == self.SPEC["restarts"]

        # Byte identity: all requesters, and direct execution.
        assert len(set(bundles)) == 1
        direct = canonical_json(
            execute_spec(canonicalize_spec(self.SPEC), cache=cache)
        ).encode("utf-8")
        assert bundles[0] == direct

    def test_direct_execution_matches_generate_network(self, tmp_path):
        """The served design is exactly what the library API produces."""
        from repro.eval.serialize import design_to_dict
        from repro.synthesis import DesignConstraints, generate_network
        from repro.workloads import benchmark

        spec = canonicalize_spec(self.SPEC)
        bundle = execute_spec(spec, cache=ResultCache(str(tmp_path / "c")))
        design = generate_network(
            benchmark("cg", 8).pattern,
            constraints=DesignConstraints(max_degree=5),
            seed=0,
            restarts=2,
        )
        assert canonical_json(bundle["design"]) == canonical_json(
            design_to_dict(design)
        )


class TestServiceThreadLifecycle:
    def test_stop_is_idempotent_and_clean(self, monkeypatch):
        def fake(spec, cache=None, jobs=None, progress=None, obs=None):
            return {"schema": 1, "kind": spec["kind"], "spec": dict(spec)}

        monkeypatch.setattr(manager_mod, "execute_spec", fake)
        svc = ServiceThread(ServiceConfig(port=0, cache_dir=None)).start()
        client = ServiceClient(svc.base_url)
        assert client.healthz()["status"] == "ok"
        client.shutdown()
        deadline = time.monotonic() + 10
        while svc._thread.is_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not svc._thread.is_alive()
        svc.stop()  # no-op after the server already exited
