"""Tests for the Master node (in-process) and its TCP front-end."""

import socket
import threading

import pytest

from repro.core.master import MasterNode, RegionFullError
from repro.core.master_client import MasterClient, MasterRequestError
from repro.core.master_server import MasterServer
from repro.core.protocol import read_message, send_message
from repro.faults import FaultPlan, MasterCrash
from repro.obs import observe


class TestMasterNode:
    def test_register_assigns_slots_in_order(self, grid_16):
        master = MasterNode(grid_16, expected_networks=3)
        a = master.register("op-a")
        b = master.register("op-b")
        assert a.slot == 0
        assert b.slot == 1
        assert a.shift_hz != b.shift_hz

    def test_register_idempotent(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        first = master.register("op-a")
        again = master.register("op-a")
        assert first == again

    def test_region_full(self, grid_16):
        master = MasterNode(grid_16, expected_networks=1)
        master.register("op-a")
        with pytest.raises(RegionFullError):
            master.register("op-b")

    def test_release_recycles_slot(self, grid_16):
        master = MasterNode(grid_16, expected_networks=1)
        a = master.register("op-a")
        assert master.release("op-a")
        b = master.register("op-b")
        assert b.slot == a.slot

    def test_release_unknown(self, grid_16):
        master = MasterNode(grid_16, expected_networks=1)
        assert not master.release("ghost")

    def test_empty_operator_rejected(self, grid_16):
        master = MasterNode(grid_16)
        with pytest.raises(ValueError):
            master.register("")

    def test_status_snapshot(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        master.register("op-a")
        status = master.status()
        assert status["occupied"] == 1
        assert status["free"] == 1
        assert status["operators"] == {"op-a": 0}

    def test_assignment_lookup(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        master.register("op-a")
        assert master.assignment_of("op-a").operator == "op-a"
        assert master.assignment_of("nobody") is None

    def test_thread_safe_registration(self, grid_16):
        master = MasterNode(grid_16, expected_networks=6)
        results = []

        def worker(name):
            results.append(master.register(name))

        threads = [
            threading.Thread(target=worker, args=(f"op-{i}",)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        slots = sorted(a.slot for a in results)
        assert slots == list(range(6))


class TestMasterOverTcp:
    def test_register_roundtrip(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                assignment = client.register("op-1")
                assert assignment.operator == "op-1"
                assert assignment.slot == 0
                assert len(assignment.channels()) == 8
                assert client.last_rtt_s is not None

    def test_two_clients_distinct_slots(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master) as server:
            with MasterClient(server.address) as c1, MasterClient(
                server.address
            ) as c2:
                a1 = c1.register("op-1")
                a2 = c2.register("op-2")
                assert {a1.slot, a2.slot} == {0, 1}

    def test_region_full_surfaces_as_error(self, grid_16):
        master = MasterNode(grid_16, expected_networks=1)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                client.register("op-1")
                with pytest.raises(MasterRequestError):
                    client.register("op-2")

    def test_release_over_tcp(self, grid_16):
        master = MasterNode(grid_16, expected_networks=1)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                client.register("op-1")
                assert client.release("op-1") is True
                assert client.release("op-1") is False

    def test_status_over_tcp(self, grid_16):
        master = MasterNode(grid_16, expected_networks=3)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                client.register("op-1")
                status = client.status()
                assert status["occupied"] == 1
                assert status["slots"] == 3

    def test_assignment_survives_wire_roundtrip(self, grid_16):
        master = MasterNode(grid_16, expected_networks=4)
        direct = master.register("op-x")
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                wired = client.register("op-x")  # idempotent
        assert wired.slot == direct.slot
        assert wired.shift_hz == pytest.approx(direct.shift_hz)
        assert [c.center_hz for c in wired.channels()] == pytest.approx(
            [c.center_hz for c in direct.channels()]
        )

    def test_server_close_is_clean(self, grid_16):
        master = MasterNode(grid_16)
        server = MasterServer(master).start()
        server.close()  # no exception, socket released

    def test_close_severs_an_idle_connection(self, grid_16):
        # The handler of an idle connection sits in recv(); close() must
        # still end the connection, so the client reads EOF at once.
        server = MasterServer(MasterNode(grid_16)).start()
        try:
            with socket.create_connection(server.address, timeout=2.0) as conn:
                send_message(conn, {"type": "status"})
                assert read_message(conn)["type"] == "status_ok"
                server.close()
                try:
                    data = conn.recv(1)
                except socket.timeout:
                    pytest.fail("no EOF within 2 s of close()")
                except OSError:
                    data = b""
                assert data == b""
        finally:
            server.close()

    def test_port_is_free_once_a_crashed_masters_client_reads_eof(
        self, grid_16
    ):
        # The crash fault closes the server from a handler thread.  A
        # client that sees its connection die may restart a Master on
        # the same port at once, so the listening socket must be gone
        # by then.  The race is narrow: repeat it.
        plan = FaultPlan(master_crashes=(MasterCrash(at_request=1),))
        for _ in range(400):
            server = MasterServer(MasterNode(grid_16), fault_plan=plan).start()
            host, port = server.address
            try:
                with socket.create_connection((host, port), timeout=5.0) as conn:
                    send_message(conn, {"type": "status"})
                    assert read_message(conn) is None  # died before replying
                    MasterServer(MasterNode(grid_16), host=host, port=port).close()
            finally:
                server.close()


class TestResumeOverTcp:
    def test_resume_revalidates_lease(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                granted = client.register("op-1")
                assert granted.lease  # wire carries the lease token
                resumed = client.resume("op-1", granted.lease)
                assert resumed.slot == granted.slot
                assert resumed.epoch == granted.epoch

    def test_resume_with_forged_lease_rejected(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                client.register("op-1")
                with pytest.raises(MasterRequestError) as excinfo:
                    client.resume("op-1", "forged")
                assert excinfo.value.code == "lease_stale"

    def test_resume_unknown_operator_rejected(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                with pytest.raises(MasterRequestError) as excinfo:
                    client.resume("ghost", "any")
                assert excinfo.value.code == "unknown_operator"


class TestErrorCodes:
    def test_region_full_code(self, grid_16):
        master = MasterNode(grid_16, expected_networks=1)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                client.register("op-1")
                with pytest.raises(MasterRequestError) as excinfo:
                    client.register("op-2")
                assert excinfo.value.code == "region_full"

    def test_degraded_code_when_read_only(self, grid_16):
        from repro.core.journal import FailingJournal

        master = MasterNode(grid_16, expected_networks=2)
        master.journal = FailingJournal()
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                with pytest.raises(MasterRequestError) as excinfo:
                    client.register("op-1")
                assert excinfo.value.code == "degraded"
                # Reads keep working in degraded mode.
                assert client.status()["read_only"] is True

    def test_bad_request_code(self, grid_16):
        master = MasterNode(grid_16)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                with pytest.raises(MasterRequestError) as excinfo:
                    client.register("")
                assert excinfo.value.code == "bad_request"

    def test_unknown_type_code(self, grid_16):
        import socket

        from repro.core.protocol import read_message, send_message

        master = MasterNode(grid_16)
        with MasterServer(master) as server:
            sock = socket.create_connection(server.address, timeout=1.0)
            try:
                send_message(sock, {"type": "dance"})
                response = read_message(sock)
                assert response["code"] == "unknown_type"
            finally:
                sock.close()


class TestRecvTimeout:
    def test_silent_connection_is_reaped(self, grid_16):
        import socket
        import time

        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master, recv_timeout_s=0.1) as server:
            idler = socket.create_connection(server.address, timeout=1.0)
            try:
                deadline = time.monotonic() + 2.0
                while (
                    server.reaped_connections == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert server.reaped_connections == 1
                # The reaped socket is dead: the server closed it.
                idler.settimeout(1.0)
                try:
                    data = idler.recv(1)
                except OSError:
                    data = b""
                assert data == b""
            finally:
                idler.close()
            # Active clients within the deadline are unaffected.
            with MasterClient(server.address) as client:
                assert client.register("op-1").slot == 0

    def test_no_timeout_means_no_reaping(self, grid_16):
        master = MasterNode(grid_16)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                client.register("op-1")
            assert server.reaped_connections == 0

    def test_counters_are_lock_protected(self, grid_16):
        """dropped/reaped/seen counters share one lock (no lost updates)."""
        master = MasterNode(grid_16, expected_networks=6)
        with MasterServer(master) as server:
            clients = [MasterClient(server.address) for _ in range(6)]
            threads = [
                threading.Thread(target=c.register, args=(f"op-{i}",))
                for i, c in enumerate(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for c in clients:
                c.close()
            assert server.requests_seen == 6


class TestServerRobustness:
    def test_garbage_bytes_do_not_kill_server(self, grid_16):
        import socket
        import struct

        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master) as server:
            # A client that speaks garbage: oversized frame header.
            rogue = socket.create_connection(server.address, timeout=1.0)
            rogue.sendall(struct.pack(">I", 1 << 30))
            rogue.close()
            # A client sending a truncated frame.
            rogue = socket.create_connection(server.address, timeout=1.0)
            rogue.sendall(b"\x00\x00\x00\x10abc")
            rogue.close()
            # The server must still serve well-formed clients.
            with MasterClient(server.address) as client:
                assert client.register("op-1").slot == 0

    def test_unknown_message_type_answered_with_error(self, grid_16):
        import socket

        from repro.core.protocol import read_message, send_message

        master = MasterNode(grid_16)
        with MasterServer(master) as server:
            sock = socket.create_connection(server.address, timeout=1.0)
            try:
                send_message(sock, {"type": "dance"})
                response = read_message(sock)
                assert response["type"] == "error"
            finally:
                sock.close()

    @pytest.mark.parametrize(
        "ctx",
        [
            None,
            {"run": "worker", "trace": "6f1c0e5d2a9b8c47",
             "span": "b3a1d9e07c5f2468", "parent": "0d4e8a7c61b25f93",
             "lam": 500},
            ["not", "a", "dict"],
        ],
        ids=["no-ctx", "v2-ctx", "garbage-ctx"],
    )
    def test_ctx_of_older_clients_is_ignored(self, grid_16, ctx):
        # Clients before trace schema v3 may send a causal "ctx" key.
        message = {"type": "status"}
        if ctx is not None:
            message["ctx"] = ctx
        master = MasterNode(grid_16, expected_networks=2)
        with observe(trace=True, metrics=False):
            with MasterServer(master) as server:
                sock = socket.create_connection(server.address, timeout=1.0)
                try:
                    send_message(sock, message)
                    response = read_message(sock)
                finally:
                    sock.close()
        assert response["type"] == "status_ok"
        assert "ctx" not in response
