"""Router behaviour: parity, affinity, negotiation, wire edge cases."""

import asyncio
import threading
import time

import pytest

from repro.core.config import SolverConfig, config_fingerprint
from repro.errors import ServerError
from repro.graph.build import from_edge_list
from repro.server import SolveClient, protocol
from repro.service import SolveService

from .conftest import SlowWindowService, free_port, wait_until

TRIANGLE = {"kind": "edges", "edges": [[0, 1], [1, 2], [0, 2], [2, 3]]}


def ring_key(graph, **config_kwargs):
    """The router's placement key for one (graph, config) request."""
    config = SolverConfig(**config_kwargs)
    return f"{graph.fingerprint()}/{config_fingerprint(config)}"


@pytest.fixture(scope="module")
def community():
    from repro.graph import generators as gen

    return gen.caveman_social(6, 40, p_in=0.35, seed=3)


class TestRouting:
    def test_parity_with_local_service(
        self, make_backend, make_router, make_client, community
    ):
        local = SolveService().solve(community)
        router = make_router([make_backend(), make_backend()])
        client = make_client(router)
        reply = client.solve(community)
        record = reply["record"]
        assert record["status"] == "ok"
        assert record["clique_number"] == local.clique_number
        assert record["num_maximum_cliques"] == local.num_maximum_cliques
        assert reply["cliques"] == [
            [int(v) for v in row] for row in local.result.cliques
        ]

    def test_repeat_requests_stay_on_one_backend(
        self, make_backend, make_router, make_client, community
    ):
        """The cache-affinity acceptance test: same graph, same backend,
        warm cache there -- cold everywhere else."""
        b1, b2 = make_backend(), make_backend()
        router = make_router([b1, b2])
        client = make_client(router)
        for _ in range(3):
            reply = client.solve(community)
            assert reply["record"]["status"] == "ok"
        assert reply["record"]["cache_hit"] is True
        stats = client.stats()
        routed = {
            name: backend["routed"]
            for name, backend in stats["backends"].items()
        }
        assert sorted(routed.values()) == [0, 3], routed
        # the owning backend saw 2 cache hits; the other stayed cold
        caches = []
        for handle in (b1, b2):
            with SolveClient(port=handle.port) as direct:
                caches.append(direct.stats()["service"]["cache"])
        hits = sorted(c["hits"] for c in caches)
        sizes = sorted(c["size"] for c in caches)
        assert hits == [0, 2], caches
        assert sizes == [0, 1], caches

    def test_distinct_keys_can_use_distinct_backends(
        self, make_backend, make_router, make_client
    ):
        """Different (graph, config) keys spread over the ring; the
        router's per-backend counters account for every placement."""
        router = make_router([make_backend(), make_backend()])
        client = make_client(router)
        for window in (2, 3, 4, 5, 6, 7, 8):
            reply = client.solve(
                from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)]),
                window_size=window,
            )
            assert reply["record"]["status"] == "ok"
        stats = client.stats()
        total = stats["router"]["routed.total"]
        per_backend = sum(
            backend["routed"] for backend in stats["backends"].values()
        )
        assert total == per_backend == 7

    def test_status_forwarded_to_owning_backend(
        self, make_backend, make_router, raw_conn
    ):
        backend = make_backend(service=SlowWindowService(0.05))
        router = make_router([backend])
        conn = raw_conn(router)
        conn.hello()
        conn.send(
            {"type": "solve", "id": "job", "graph": TRIANGLE,
             "config": {"window_size": 2}}
        )
        conn.send({"type": "status", "id": "job"})
        status = conn.recv()
        assert status["type"] == "status"
        assert status["id"] == "job"
        assert status["state"] in ("queued", "running", "unknown")
        result = conn.recv()
        assert result["type"] == "result" and result["id"] == "job"
        conn.send({"type": "status", "id": "job"})
        assert conn.recv()["state"] in ("done", "unknown")

    def test_no_backend_when_nothing_listens(self, make_router, make_client):
        router = make_router([("127.0.0.1", free_port()),
                              ("127.0.0.1", free_port())])
        client = make_client(router, retries=0)
        with pytest.raises(ServerError) as excinfo:
            client.solve(from_edge_list([(0, 1), (1, 2), (0, 2)]))
        assert excinfo.value.code == "no_backend"
        assert excinfo.value.retriable


class TestHelloNegotiation:
    def test_advertises_backend_intersection(
        self, make_backend, make_router, fake_backend, make_client
    ):
        """Backends advertising different problem lists: the router
        only promises the intersection."""
        fake = fake_backend(problems=["max-clique"])
        router = make_router([make_backend(), ("127.0.0.1", fake.port)])
        client = make_client(router)
        hello = client.connect()
        assert hello["problems"] == ["max-clique"]
        assert hello["protocol"] == protocol.PROTOCOL

    def test_solve_outside_intersection_rejected(
        self, make_backend, make_router, fake_backend, raw_conn
    ):
        fake = fake_backend(problems=["max-clique"])
        router = make_router([make_backend(), ("127.0.0.1", fake.port)])
        conn = raw_conn(router)
        conn.hello()
        conn.send(
            {"type": "solve", "id": "kc", "graph": TRIANGLE,
             "problem": "k-clique-count", "config": {"k": 3}}
        )
        reply = conn.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "unsupported_problem"
        assert reply["retriable"] is False

    def test_matching_backends_advertise_everything(
        self, make_backend, make_router, make_client
    ):
        router = make_router([make_backend(), make_backend()])
        client = make_client(router)
        hello = client.connect()
        assert hello["problems"] == list(protocol.SUPPORTED_PROBLEMS)


class TestDrainingResubmit:
    def test_draining_primary_resubmits_to_replica(
        self, make_backend, make_router, fake_backend, make_client
    ):
        """A backend answering ``draining`` (retriable) must not fail
        the client: the router re-submits to the next backend."""
        fake = fake_backend()  # rejects every solve with draining
        backend = make_backend()
        router = make_router([backend, ("127.0.0.1", fake.port)])
        client = make_client(router)
        # find a config whose primary is the fake, so the re-submit
        # path is guaranteed to be exercised
        graph = from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])
        fake_name = f"127.0.0.1:{fake.port}"
        window = next(
            w for w in range(2, 64)
            if router.router.ring.node_for(
                ring_key(graph, window_size=w)
            ) == fake_name
        )
        reply = client.solve(graph, window_size=window)
        assert reply["record"]["status"] == "ok"
        assert reply["record"]["clique_number"] == 3
        assert router.router.stats.get("resubmits.draining") >= 1
        stats = client.stats()
        assert stats["backends"][fake_name]["routed"] >= 1


class TestWireEdgeCases:
    def test_fragmented_solve_frame_through_router(
        self, make_backend, make_router, raw_conn
    ):
        """A solve frame dribbled in arbitrary chunks must still route."""
        router = make_router([make_backend()])
        conn = raw_conn(router)
        conn.hello()
        data = protocol.encode_frame(
            {"type": "solve", "id": "frag", "graph": TRIANGLE}
        )
        for i in range(0, len(data), 7):
            conn.send_bytes(data[i:i + 7])
            time.sleep(0.001)
        reply = conn.recv()
        assert reply["type"] == "result" and reply["id"] == "frag"
        assert reply["record"]["clique_number"] == 3

    def test_pipelined_frames_in_one_segment(
        self, make_backend, make_router, raw_conn
    ):
        router = make_router([make_backend()])
        conn = raw_conn(router)
        conn.hello()
        burst = (
            protocol.encode_frame(
                {"type": "solve", "id": "a", "graph": TRIANGLE}
            )
            + protocol.encode_frame({"type": "stats"})
        )
        conn.send_bytes(burst)
        frames = [conn.recv(), conn.recv()]
        types = {f["type"] for f in frames}
        assert types == {"result", "stats"}

    def test_oversized_frame_rejected_and_closed(
        self, make_backend, make_router, raw_conn
    ):
        router = make_router([make_backend()], max_frame_bytes=4096)
        conn = raw_conn(router)
        conn.hello()
        conn.send_bytes(b"x" * 8192 + b"\n")
        reply = conn.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "frame_too_large"
        assert conn.recv() is None  # framing is unrecoverable: closed

    def test_bad_json_keeps_connection(
        self, make_backend, make_router, raw_conn
    ):
        router = make_router([make_backend()])
        conn = raw_conn(router)
        conn.hello()
        conn.send_bytes(b"{not json}\n")
        assert conn.recv()["code"] == "bad_frame"
        conn.send({"type": "solve", "id": "ok", "graph": TRIANGLE})
        assert conn.recv()["record"]["clique_number"] == 3

    def test_handshake_required(self, make_backend, make_router, raw_conn):
        router = make_router([make_backend()])
        conn = raw_conn(router)
        conn.send({"type": "stats"})
        assert conn.recv()["code"] == "handshake_required"


class TestStatsFrame:
    def test_router_stats_shape(
        self, make_backend, make_router, make_client, community
    ):
        router = make_router([make_backend(), make_backend()])
        client = make_client(router)
        client.solve(community)
        stats = client.stats()
        assert stats["type"] == "stats"
        router_stats = stats["router"]
        assert router_stats["backends_total"] == 2
        assert router_stats["backends_available"] == 2
        assert router_stats["routed.total"] == 1
        assert "p50_ms" in router_stats["latency"]
        assert "p99_ms" in router_stats["latency"]
        assert len(stats["backends"]) == 2
        for backend in stats["backends"].values():
            assert backend["health"]["state"] == "healthy"
            assert backend["connected"] is True
            assert set(backend) >= {"routed", "failed_over", "rebalanced"}

    def test_probes_drive_health(self, make_backend, make_router):
        backend = make_backend()
        router = make_router([backend])
        wait_until(
            lambda: router.router.stats.get("probes.ok") >= 2,
            message="health probes",
        )
        assert router.router.health[f"127.0.0.1:{backend.port}"].state == (
            "healthy"
        )

    def test_shutdown_frame_drains_router_not_backends(
        self, make_backend, make_router, make_client
    ):
        backend = make_backend()
        router = make_router([backend])
        client = make_client(router)
        bye = client.shutdown()
        assert bye["type"] == "bye"
        wait_until(
            lambda: not router._thread.is_alive(), message="router drain"
        )
        # the backend survives a router drain
        with SolveClient(port=backend.port) as direct:
            assert direct.stats()["server"]["draining"] is False

    def test_drain_outlasts_a_lost_cancel(self, make_backend, make_router):
        """Before Python 3.12, asyncio.wait_for can swallow the cancel
        that ends a probe loop; the router drain must still finish."""
        router = make_router([make_backend()])
        started = threading.Event()

        async def loses_first_cancel():
            started.set()
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                pass  # the cancel a racing wait_for would have eaten
            await asyncio.sleep(3600)

        router.router._loop.call_soon_threadsafe(
            router.router._spawn, loses_first_cancel()
        )
        assert started.wait(5.0)
        router.stop(timeout_s=5.0)
