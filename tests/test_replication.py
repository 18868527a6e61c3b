"""Tests for WAL-shipping replication: protocol, convergence, failover.

The chaos schedules (wire faults, kill/restart loops) live in
``test_replication_chaos.py`` under ``-m chaos``; this file covers the
protocol layer, leader/follower convergence, the staleness contract,
sequence-number fail-stop, promote, and the crash-at-every-frame /
linearizability property tests.
"""

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rdf import IRI, Quad
from repro.sparql import SparqlEngine
from repro.server import SparqlServer
from repro.store.durable import (
    DurableNetwork,
    ReplicationSequenceError,
    open_durable,
)
from repro.store.replication import (
    MessageStream,
    ProtocolError,
    ReplicationFollower,
    ReplicationLeader,
    RoleError,
    promote,
    read_replication_state,
    state_digest,
    write_replication_state,
)
from repro.store.replication import protocol as proto
from repro.testing.faults import SimulatedCrash, torn_file_factory

EX = "http://ex/"


def ex(name):
    return IRI(EX + name)


def quad(n):
    return Quad(ex(f"s{n}"), ex("p"), ex(f"o{n}"))


def converge(leader_net, follower_net, timeout=10.0):
    """Wait until the follower reaches the leader's version; assert it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (
            follower_net.data_version >= leader_net.data_version
            and follower_net.applied_seq >= leader_net.applied_seq
        ):
            break
        time.sleep(0.01)
    assert follower_net.data_version == leader_net.data_version, (
        f"follower at v{follower_net.data_version}, "
        f"leader at v{leader_net.data_version}"
    )
    assert state_digest(follower_net.snapshot()) == state_digest(
        leader_net.snapshot()
    )


@pytest.fixture
def leader_pair(tmp_path):
    """(leader_network, leader) with a model created, torn down after."""
    network = open_durable(str(tmp_path / "leader"))
    network.create_model("m")
    leader = ReplicationLeader(network, heartbeat_interval=0.1).start()
    try:
        yield network, leader
    finally:
        leader.stop()
        network.close()


def start_follower(tmp_path, leader, name="follower"):
    network = open_durable(str(tmp_path / name))
    follower = ReplicationFollower(network, *leader.address).start()
    return network, follower


# ----------------------------------------------------------------------
# Protocol layer
# ----------------------------------------------------------------------


class TestProtocol:
    def socketpair_streams(self):
        a, b = socket.socketpair()
        return MessageStream(a), MessageStream(b)

    def test_message_roundtrip(self):
        a, b = self.socketpair_streams()
        message = proto.frame_message({"op": "insert", "seq": 7, "v": 3})
        a.send(message)
        assert b.recv() == message
        a.close()
        b.close()

    def test_magic_exchange(self):
        a, b = self.socketpair_streams()
        a.send_magic()
        b.expect_magic()
        a.close()
        b.close()

    def test_bad_magic_rejected(self):
        a, b = self.socketpair_streams()
        a._sock.sendall(b"NOTMAGIC")
        with pytest.raises(ProtocolError, match="magic"):
            b.expect_magic()
        a.close()
        b.close()

    def test_corrupt_frame_is_protocol_error(self):
        import struct
        import zlib

        a, b = self.socketpair_streams()
        payload = json.dumps({"type": "heartbeat"}).encode()
        bad_crc = zlib.crc32(payload) ^ 0xFFFF
        a._sock.sendall(struct.pack("<II", len(payload), bad_crc) + payload)
        with pytest.raises(ProtocolError, match="checksum"):
            b.recv()
        a.close()
        b.close()

    def test_torn_frame_is_protocol_error(self):
        import struct
        import zlib

        a, b = self.socketpair_streams()
        payload = json.dumps({"type": "heartbeat"}).encode()
        frame = struct.pack(
            "<II", len(payload), zlib.crc32(payload)
        ) + payload
        a._sock.sendall(frame[: len(frame) - 4])
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            b.recv()
        b.close()

    def test_oversized_length_rejected_without_allocation(self):
        import struct

        a, b = self.socketpair_streams()
        a._sock.sendall(struct.pack("<II", 2**31, 0))
        with pytest.raises(ProtocolError, match="limit"):
            b.recv()
        a.close()
        b.close()

    def test_untyped_message_rejected(self):
        a, b = self.socketpair_streams()
        a.send({"type": "x"})  # fine
        b.recv()
        import struct
        import zlib

        payload = b"[1,2,3]"
        a._sock.sendall(
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(ProtocolError, match="typed"):
            b.recv()
        a.close()
        b.close()


# ----------------------------------------------------------------------
# Sequence stamping and recovery metadata (the durable-store substrate)
# ----------------------------------------------------------------------


class TestSeqStamping:
    def test_records_are_seq_and_version_stamped(self, tmp_path):
        from repro.store.wal import read_wal

        network = open_durable(str(tmp_path / "d"))
        network.create_model("m")
        network.insert("m", quad(1))
        with network.write_batch():
            network.insert("m", quad(2))
            network.insert("m", quad(3))
        records, _ = read_wal(network.wal_path)
        network.close()
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        # A fresh store opens at v1; create_model commits v2, the
        # single insert v3, and the two batched inserts share v4.
        assert [r["v"] for r in records] == [2, 3, 4, 4]

    def test_noop_journaled_for_recordless_batch(self, tmp_path):
        from repro.store.wal import read_wal

        network = open_durable(str(tmp_path / "d"))
        network.create_model("m")
        network.insert("m", quad(1))
        network.insert("m", quad(1))  # duplicate: no data record
        records, _ = read_wal(network.wal_path)
        network.close()
        assert [r["op"] for r in records] == [
            "create_model", "insert", "noop"
        ]
        # The noop still advances seq and carries the committed version.
        assert records[-1]["seq"] == 3
        assert records[-1]["v"] == network.data_version

    def test_version_survives_restart(self, tmp_path):
        network = open_durable(str(tmp_path / "d"))
        network.create_model("m")
        network.insert("m", quad(1))
        version, seq = network.data_version, network.applied_seq
        network.close()
        reopened = open_durable(str(tmp_path / "d"))
        assert reopened.data_version == version
        assert reopened.applied_seq == seq
        reopened.close()

    def test_version_survives_checkpoint_and_restart(self, tmp_path):
        network = open_durable(str(tmp_path / "d"))
        network.create_model("m")
        network.insert("m", quad(1))
        network.checkpoint()
        network.insert("m", quad(2))
        version, seq = network.data_version, network.applied_seq
        network.close()
        reopened = open_durable(str(tmp_path / "d"))
        assert reopened.data_version == version
        assert reopened.applied_seq == seq
        assert reopened.recovery_stats.base_seq > 0
        reopened.close()

    def test_checkpoint_bumps_generation(self, tmp_path):
        network = open_durable(str(tmp_path / "d"))
        network.create_model("m")
        generation = network.wal_generation
        network.checkpoint()
        assert network.wal_generation == generation + 1
        assert network.wal_base_seq == network.applied_seq
        network.close()


class TestApplyReplicated:
    def make_pair(self, tmp_path):
        source = open_durable(str(tmp_path / "src"))
        target = open_durable(str(tmp_path / "dst"))
        return source, target

    def records_of(self, network):
        from repro.store.wal import read_wal

        records, _ = read_wal(network.wal_path)
        return records

    def group_by_version(self, records):
        groups = {}
        for record in records:
            groups.setdefault(record["v"], []).append(record)
        return [groups[v] for v in sorted(groups)]

    def test_apply_groups_reaches_identical_state(self, tmp_path):
        source, target = self.make_pair(tmp_path)
        source.create_model("m")
        source.insert("m", quad(1))
        with source.write_batch():
            source.insert("m", quad(2))
            source.insert("m", quad(3))
        for group in self.group_by_version(self.records_of(source)):
            target.apply_replicated(group, group[0]["v"])
        assert target.data_version == source.data_version
        assert target.applied_seq == source.applied_seq
        assert state_digest(target.snapshot()) == state_digest(
            source.snapshot()
        )
        # The follower's WAL holds the records verbatim.
        assert self.records_of(target) == self.records_of(source)
        source.close()
        target.close()

    def test_duplicate_group_is_skipped_exactly(self, tmp_path):
        source, target = self.make_pair(tmp_path)
        source.create_model("m")
        source.insert("m", quad(1))
        groups = self.group_by_version(self.records_of(source))
        for group in groups:
            target.apply_replicated(group, group[0]["v"])
        before = state_digest(target.snapshot())
        version_before = target.data_version
        # Redelivery of every group: all duplicates, all skipped.
        for group in groups:
            assert target.apply_replicated(group, group[0]["v"]) == 0
        assert target.data_version == version_before
        assert state_digest(target.snapshot()) == before
        source.close()
        target.close()

    def test_sequence_gap_is_fail_stop(self, tmp_path):
        source, target = self.make_pair(tmp_path)
        source.create_model("m")
        source.insert("m", quad(1))
        source.insert("m", quad(2))
        groups = self.group_by_version(self.records_of(source))
        target.apply_replicated(groups[0], groups[0][0]["v"])
        # Skip group 2, deliver group 3: a gap — never applied silently.
        with pytest.raises(ReplicationSequenceError):
            target.apply_replicated(groups[2], groups[2][0]["v"])
        source.close()
        target.close()

    def test_failed_group_journals_nothing_of_its_own(self, tmp_path):
        # A group that breaks off midway (raw wire duplication can
        # repeat a record inside a group) keeps what it applied, and
        # the follower journals no record of its own: the leader's next
        # record is still applied on redelivery.
        source, target = self.make_pair(tmp_path)
        source.create_model("m")
        for n in (1, 2, 3):
            source.insert("m", quad(n))
        records = self.records_of(source)
        *head, last = records
        with pytest.raises(ReplicationSequenceError):
            target.apply_replicated(head + head[-1:], head[-1]["v"])
        assert target.applied_seq == head[-1]["seq"]
        assert target.apply_replicated([last], last["v"]) == 1
        assert state_digest(target.snapshot()) == state_digest(
            source.snapshot()
        )
        source.close()
        target.close()

    def test_empty_group_rejected(self, tmp_path):
        _, target = self.make_pair(tmp_path)
        with pytest.raises(ReplicationSequenceError):
            target.apply_replicated([], 1)
        target.close()


# ----------------------------------------------------------------------
# End-to-end: leader + followers over real sockets
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_two_followers_converge_on_write_storm(
        self, tmp_path, leader_pair
    ):
        leader_net, leader = leader_pair
        f1_net, f1 = start_follower(tmp_path, leader, "f1")
        f2_net, f2 = start_follower(tmp_path, leader, "f2")
        try:
            for n in range(60):
                leader_net.insert("m", quad(n))
            converge(leader_net, f1_net)
            converge(leader_net, f2_net)
            assert f1.status()["lag_frames"] == 0
        finally:
            f1.stop()
            f2.stop()
            f1_net.close()
            f2_net.close()

    def test_late_follower_bootstraps_after_checkpoint(
        self, tmp_path, leader_pair
    ):
        leader_net, leader = leader_pair
        for n in range(20):
            leader_net.insert("m", quad(n))
        leader_net.checkpoint()  # WAL empty: a new follower must resync
        f_net, follower = start_follower(tmp_path, leader)
        try:
            converge(leader_net, f_net)
            assert follower.bootstraps == 1
            # Streaming continues after the bootstrap.
            leader_net.insert("m", quad(99))
            converge(leader_net, f_net)
        finally:
            follower.stop()
            f_net.close()

    def test_late_follower_replays_backlog_without_resync(
        self, tmp_path, leader_pair
    ):
        # No checkpoint: the whole backlog is still in the leader's WAL,
        # so a cold follower catches up by replay, never by bootstrap.
        leader_net, leader = leader_pair
        for n in range(300):
            leader_net.insert("m", quad(n))
        f_net, follower = start_follower(tmp_path, leader)
        try:
            converge(leader_net, f_net, timeout=60.0)
            assert follower.bootstraps == 0
        finally:
            follower.stop()
            f_net.close()

    def test_follower_restart_resumes_from_durable_cursor(
        self, tmp_path, leader_pair
    ):
        leader_net, leader = leader_pair
        f_net, follower = start_follower(tmp_path, leader)
        for n in range(10):
            leader_net.insert("m", quad(n))
        converge(leader_net, f_net)
        follower.stop()
        f_net.close()
        for n in range(10, 20):
            leader_net.insert("m", quad(n))
        f_net = open_durable(str(tmp_path / "follower"))
        follower = ReplicationFollower(f_net, *leader.address).start()
        try:
            converge(leader_net, f_net)
            assert follower.bootstraps == 0  # resumed, not resynced
        finally:
            follower.stop()
            f_net.close()

    def test_follower_survives_leader_checkpoint_mid_stream(
        self, tmp_path, leader_pair
    ):
        leader_net, leader = leader_pair
        f_net, follower = start_follower(tmp_path, leader)
        try:
            for n in range(10):
                leader_net.insert("m", quad(n))
            converge(leader_net, f_net)
            leader_net.checkpoint()
            for n in range(10, 20):
                leader_net.insert("m", quad(n))
            converge(leader_net, f_net)
        finally:
            follower.stop()
            f_net.close()

    def test_leader_crash_between_append_and_send(self, tmp_path):
        """Records fsynced but never shipped survive a leader restart
        and reach the follower afterwards — acknowledged writes are
        never lost."""
        leader_dir = str(tmp_path / "leader")
        leader_net = open_durable(leader_dir)
        leader_net.create_model("m")
        leader = ReplicationLeader(leader_net, heartbeat_interval=0.1).start()
        f_net, follower = start_follower(tmp_path, leader)
        try:
            leader_net.insert("m", quad(1))
            converge(leader_net, f_net)
            # "Crash": stop the sender before it ships the next write.
            leader.stop()
            leader_net.insert("m", quad(2))  # acknowledged (fsynced)
            leader_net.close()  # no checkpoint — the WAL is the truth
            leader_net = open_durable(leader_dir)
            leader = ReplicationLeader(
                leader_net,
                port=leader.port,
                heartbeat_interval=0.1,
            ).start()
            converge(leader_net, f_net, timeout=15.0)
            assert f_net.contains("m", quad(2))
        finally:
            follower.stop()
            f_net.close()
            leader.stop()
            leader_net.close()


# ----------------------------------------------------------------------
# Staleness contract over HTTP
# ----------------------------------------------------------------------


def http_get(port, path, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers or {}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), (
            response.read().decode("utf-8")
        )


class TestStopIsPrompt:
    """``stop()`` wakes the thread blocked in ``accept()`` instead of
    waiting out its join timeout and leaving the thread behind."""

    @staticmethod
    def _stop_after_follower_left(tmp_path, stoppable, address, threads):
        follower_net = open_durable(str(tmp_path / "follower"))
        follower = ReplicationFollower(follower_net, *address).start()
        assert follower.wait_connected(5.0)
        follower.stop()
        follower_net.close()
        started = time.monotonic()
        stoppable.stop()
        assert time.monotonic() - started < 1.0
        assert not [t.name for t in threads() if t.is_alive()]

    def test_leader_stop_after_follower_left(self, tmp_path, leader_pair):
        _, leader = leader_pair
        self._stop_after_follower_left(
            tmp_path, leader, leader.address,
            lambda: [leader._accept_thread, *leader._threads],
        )

    def test_wire_proxy_stop_after_follower_left(self, tmp_path, leader_pair):
        from repro.testing.faults import ChaosProxy

        _, leader = leader_pair
        proxy = ChaosProxy(leader.address).start()
        self._stop_after_follower_left(
            tmp_path, proxy, proxy.address,
            lambda: [proxy._accept_thread, *proxy._threads],
        )


class TestStalenessContract:
    def test_read_your_writes_with_min_version_token(
        self, tmp_path, leader_pair
    ):
        leader_net, leader = leader_pair
        f_net, follower = start_follower(tmp_path, leader)
        engine = SparqlEngine(f_net, default_model="m")
        server = SparqlServer(
            engine, replication=follower, staleness_wait=5.0
        ).start()
        try:
            leader_net.insert("m", quad(7))
            token = leader_net.data_version  # the write's version token
            query = urllib.parse.quote(
                "SELECT ?o WHERE { <http://ex/s7> <http://ex/p> ?o }"
            )
            status, headers, body = http_get(
                server.port, f"/sparql?query={query}&min-version={token}"
            )
            assert status == 200
            assert int(headers["X-Data-Version"]) >= token
            assert "http://ex/o7" in body
        finally:
            server.stop()
            follower.stop()
            f_net.close()

    def test_unreachable_min_version_is_503_stale_read(
        self, tmp_path, leader_pair
    ):
        leader_net, leader = leader_pair
        f_net, follower = start_follower(tmp_path, leader)
        engine = SparqlEngine(f_net, default_model="m")
        server = SparqlServer(
            engine, replication=follower, staleness_wait=0.1
        ).start()
        try:
            wanted = leader_net.data_version + 1000
            query = urllib.parse.quote("SELECT ?s WHERE { ?s ?p ?o }")
            with pytest.raises(urllib.error.HTTPError) as info:
                http_get(
                    server.port,
                    f"/sparql?query={query}&min-version={wanted}",
                )
            assert info.value.code == 503
            payload = json.loads(info.value.read().decode("utf-8"))
            assert payload["error"] == "StaleRead"
            assert payload["min_version"] == wanted
            assert payload["data_version"] < wanted
        finally:
            server.stop()
            follower.stop()
            f_net.close()

    def test_healthz_reports_role_and_lag(self, tmp_path, leader_pair):
        leader_net, leader = leader_pair
        f_net, follower = start_follower(tmp_path, leader)
        engine = SparqlEngine(f_net, default_model="m")
        server = SparqlServer(engine, replication=follower).start()
        try:
            leader_net.insert("m", quad(1))
            converge(leader_net, f_net)
            status, _, body = http_get(server.port, "/healthz")
            assert status == 200
            document = json.loads(body)
            assert document["role"] == "follower"
            assert document["applied_data_version"] == (
                leader_net.data_version
            )
            assert document["replication"]["lag_frames"] == 0
            assert document["replication"]["connected"] is True
        finally:
            server.stop()
            follower.stop()
            f_net.close()

    def test_leader_healthz_reports_followers(self, tmp_path, leader_pair):
        leader_net, leader = leader_pair
        f_net, follower = start_follower(tmp_path, leader)
        engine = SparqlEngine(leader_net, default_model="m")
        server = SparqlServer(engine, replication=leader).start()
        try:
            assert follower.wait_connected(5.0)
            status, _, body = http_get(server.port, "/healthz")
            document = json.loads(body)
            assert document["role"] == "leader"
            assert document["replication"]["epoch"] == 0
        finally:
            server.stop()
            follower.stop()
            f_net.close()


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------


class TestFailover:
    def test_promote_preserves_every_acknowledged_write(
        self, tmp_path, leader_pair
    ):
        leader_net, leader = leader_pair
        f_net, follower = start_follower(tmp_path, leader)
        acked = []
        for n in range(25):
            leader_net.insert("m", quad(n))
            acked.append(n)
        converge(leader_net, f_net)
        leader_digest = state_digest(leader_net.snapshot())
        # Leader dies; follower is promoted.
        follower.stop()
        f_net.close()
        summary = promote(str(tmp_path / "follower"))
        assert summary["role"] == "leader"
        assert summary["epoch"] == 1
        promoted = open_durable(str(tmp_path / "follower"))
        try:
            assert state_digest(promoted.snapshot()) == leader_digest
            for n in acked:
                assert promoted.contains("m", quad(n))
            # The new leader serves writes.
            promoted.insert("m", quad(1000))
            assert promoted.contains("m", quad(1000))
        finally:
            promoted.close()

    def test_promoted_directory_refuses_to_follow(self, tmp_path):
        directory = str(tmp_path / "d")
        network = open_durable(directory)
        network.create_model("m")
        network.close()
        promote(directory)
        network = open_durable(directory)
        with pytest.raises(RoleError):
            ReplicationFollower(network, "127.0.0.1", 1)
        network.close()

    def test_promote_twice_is_an_error(self, tmp_path):
        directory = str(tmp_path / "d")
        open_durable(directory).close()
        promote(directory)
        with pytest.raises(RoleError):
            promote(directory)

    def test_old_leader_fences_on_higher_epoch_hello(
        self, tmp_path, leader_pair
    ):
        leader_net, leader = leader_pair
        f_dir = str(tmp_path / "f")
        f_net = open_durable(f_dir)
        write_replication_state(f_dir, "follower", leader.epoch + 1)
        follower = ReplicationFollower(f_net, *leader.address).start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not leader.fenced:
                time.sleep(0.01)
            assert leader.fenced
            assert leader.status()["role"] == "fenced"
            # The follower learned it too (terminal, no reconnect loop).
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not follower.fenced:
                time.sleep(0.01)
            assert follower.fenced
        finally:
            follower.stop()
            f_net.close()

    def test_replication_state_roundtrip(self, tmp_path):
        directory = str(tmp_path / "d")
        assert read_replication_state(directory) == {
            "role": None, "epoch": 0
        }
        write_replication_state(directory, "follower", 3)
        assert read_replication_state(directory) == {
            "role": "follower", "epoch": 3
        }


# ----------------------------------------------------------------------
# Property tests: crash-at-every-frame, linearizability
# ----------------------------------------------------------------------


def leader_groups(tmp_path, operations):
    """Build a leader log from ops; return its commit groups + digest."""
    source = open_durable(str(tmp_path / "property-src"))
    source.create_model("m")
    for op, n in operations:
        if op == "insert":
            source.insert("m", quad(n))
        else:
            source.delete("m", quad(n))
    from repro.store.wal import read_wal

    records, _ = read_wal(source.wal_path)
    groups = {}
    for record in records:
        groups.setdefault(record["v"], []).append(record)
    ordered = [groups[v] for v in sorted(groups)]
    digest = state_digest(source.snapshot())
    final_version = source.data_version
    source.close()
    return ordered, digest, final_version


class TestCrashAtEveryFrame:
    def test_follower_crash_at_every_byte_offset_converges(self, tmp_path):
        """Mirror of the leader-side crash-at-every-WAL-offset suite:
        tear the follower's local WAL at every byte budget while it
        applies replicated groups; recovery + redelivery must always
        converge to the leader's digest, never diverge."""
        operations = [("insert", n) for n in range(6)] + [
            ("delete", 2), ("insert", 7)
        ]
        groups, want_digest, want_version = leader_groups(
            tmp_path, operations
        )
        offset = 8  # start past the magic header
        crashes = 0
        while True:
            directory = str(tmp_path / f"crash-{offset}")
            network = DurableNetwork(
                directory, file_factory=torn_file_factory(offset)
            )
            crashed = False
            try:
                for group in groups:
                    network.apply_replicated(group, group[0]["v"])
            except SimulatedCrash:
                crashed = True
                crashes += 1
            finally:
                try:
                    network.close()
                except SimulatedCrash:
                    crashed = True
            if not crashed:
                # The budget outgrew the whole log: final iteration.
                reopened = open_durable(directory)
                assert state_digest(reopened.snapshot()) == want_digest
                reopened.close()
                break
            # Recover on the torn prefix, then redeliver everything:
            # duplicates are skipped by sequence, the tail is applied.
            reopened = open_durable(directory)
            for group in groups:
                reopened.apply_replicated(group, group[0]["v"])
            assert reopened.data_version == want_version
            assert state_digest(reopened.snapshot()) == want_digest
            reopened.close()
            offset += 7  # sweep offsets (stride keeps runtime sane)
        assert crashes > 5  # the sweep exercised real torn states


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=0, max_value=9),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_follower_reads_at_version_v_equal_leader_snapshot_at_v(
    tmp_path_factory, operations
):
    """Linearizability: for every version the follower publishes, its
    state digest equals the leader's digest at that same version —
    version tokens mean the same thing on both sides."""
    tmp_path = tmp_path_factory.mktemp("linearizability")
    source = open_durable(str(tmp_path / "src"))
    source.create_model("m")
    leader_history = {source.data_version: state_digest(source.snapshot())}
    for op, n in operations:
        if op == "insert":
            source.insert("m", quad(n))
        else:
            source.delete("m", quad(n))
        leader_history[source.data_version] = state_digest(source.snapshot())
    from repro.store.wal import read_wal

    records, _ = read_wal(source.wal_path)
    groups = {}
    for record in records:
        groups.setdefault(record["v"], []).append(record)

    target = open_durable(str(tmp_path / "dst"))
    follower_history = {}
    for version in sorted(groups):
        target.apply_replicated(groups[version], version)
        follower_history[target.data_version] = state_digest(
            target.snapshot()
        )
    for version, digest in follower_history.items():
        assert leader_history[version] == digest, (
            f"divergence at version {version}"
        )
    source.close()
    target.close()
