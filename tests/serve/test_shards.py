"""Sharded hosting: attach routing, federation, live drain.

The router's one promise is that sharding is invisible: a session
behaves identically whichever shard serves it, ``srv/sessions`` spans
every shard, and a drain — even one racing an in-flight write — moves
the session without losing a record.  A drain is hibernate-and-move,
so on a replicated router the drained session must also leave the
source's standby: after the source fails over it is still held on
exactly one shard.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.fs.errors import Closed, NotFound
from repro.fs.mux import MuxClient
from repro.serve import ReplicaStandby, ShardRouter, input_line
from repro.tools.scenarios import session_ns


def _attach(router, aname):
    client = MuxClient(router.pipe(), aname=aname)
    ns = session_ns(client)
    return client, ns


def _newwin(tag, body):
    return input_line("newwin", ("-", "-", "-", tag, body))


def _two_names_on_different_shards(router):
    """Two attach names the hash sends to different shards."""
    first = "u0"
    for i in range(1, 64):
        if router.shard_for(f"u{i}") != router.shard_for(first):
            return first, f"u{i}"
    raise AssertionError("crc32 never split 64 names across shards")


class TestPlacement:
    def test_hash_is_deterministic_and_spreads(self):
        with ShardRouter(shards=4) as router:
            home = router.shard_for("alice")
            assert all(router.shard_for("alice") == home
                       for _ in range(8))
            spread = {router.shard_for(f"user{i}") for i in range(64)}
            assert spread == {0, 1, 2, 3}

    def test_anonymous_attaches_round_robin(self):
        with ShardRouter(shards=3) as router:
            assert [router.shard_for("") for _ in range(6)] == \
                [0, 1, 2, 0, 1, 2]

    def test_draining_shard_is_excluded(self):
        with ShardRouter(shards=3) as router:
            home = router.shard_for("alice")
            router.drain_shard(home)  # empty shard: nothing to migrate
            assert router.shard_for("alice") != home
            assert home not in {router.shard_for("") for _ in range(9)}


class TestFederation:
    def test_control_file_spans_shards(self):
        router = ShardRouter(shards=2)
        try:
            a_name, b_name = _two_names_on_different_shards(router)
            _a, a_ns = _attach(router, a_name)
            b_client, b_ns = _attach(router, b_name)
            # the listing read through either shard names both sessions
            ids = [line.split("\t")[0]
                   for line in a_ns.read("/s/srv/sessions").splitlines()]
            assert sorted(ids) == sorted([a_name, b_name])
            # stat reaches across shards and names the owner
            session = router.hosts[0].control_file().open("rw")
            session.write(f"stat {b_name}\n")
            stat = session.read()
            session.close()
            assert f"id {b_name}\n" in stat
            assert f"shard {router.shard_for(b_name)}\n" in stat
            # evict reaches across shards too
            a_ns.append("/s/srv/sessions", f"evict {b_name}\n")
            with pytest.raises(Closed):
                b_ns.read("/s/screen")
            with pytest.raises(NotFound):
                a_ns.append("/s/srv/sessions", f"evict {b_name}\n")
        finally:
            router.close()
        assert router.audit() == []

    def test_anonymous_ids_carry_the_shard_prefix(self):
        router = ShardRouter(shards=2)
        try:
            _a, a_ns = _attach(router, "")
            _b, b_ns = _attach(router, "")
            a_id = a_ns.read("/s/id").strip()
            b_id = b_ns.read("/s/id").strip()
            assert a_id != b_id
            assert a_id.startswith("sh") and b_id.startswith("sh")
        finally:
            router.close()


class TestDrain:
    def test_drain_migrates_screen_byte_identically(self):
        router = ShardRouter(shards=2)
        try:
            _client, ns = _attach(router, "mover")
            home = router.shard_for("mover")
            ns.append("/s/input", _newwin("/tmp/note", "carried text\n"))
            before = ns.read("/s/screen")
            assert router.drain_shard(home) == ["mover"]
            with pytest.raises(Closed):
                ns.read("/s/screen")  # the old shard's session is gone
            _client2, ns2 = _attach(router, "mover")
            assert router.shard_for("mover") != home
            assert ns2.read("/s/screen") == before
        finally:
            router.close()
        assert router.audit() == []
        opened, closed = router.session_ledger()
        assert opened == closed
        assert router.metrics.counter("router.sessions.migrated") == 1

    def test_drain_relocates_hibernated_sessions_as_files(self):
        """A drained shard's nominal users move too: the snapshot file
        changes spools without the world ever becoming resident, and
        the next attach wakes it on the new shard byte-identically."""
        router = ShardRouter(shards=2, max_live=4)
        try:
            client, ns = _attach(router, "dormant")
            home = router.shard_for("dormant")
            ns.append("/s/input", _newwin("/tmp/note", "parked text\n"))
            before = ns.read("/s/screen")
            router.hibernate("dormant")
            assert "dormant" in router.hosts[home].hibernated
            assert "state hibernated" in router._stat_text("dormant")

            migrated = router.drain_shard(home)
            assert migrated == ["dormant"]
            target = 1 - home
            assert "dormant" in router.hosts[target].hibernated
            assert not router.hosts[home].hibernated
            assert router.hosts[target].metrics.counter(
                "host.sessions.hib.in") == 1
            assert router.metrics.counter("router.sessions.relocated") == 1

            _client2, ns2 = _attach(router, "dormant")
            assert ns2.read("/s/screen") == before
            assert router.hosts[target].metrics.counter(
                "host.sessions.woken") == 1
            client.close()
        finally:
            router.close()
        assert router.audit() == []

    def test_drain_during_in_flight_write_keeps_the_write(self, monkeypatch):
        """Migration takes the session's oplock, so a write racing the
        drain lands in the journal before the snapshot is taken — the
        migrated session must show its effect."""
        import repro.serve.host as host_mod
        real = host_mod.apply_record
        started = threading.Event()
        release = threading.Event()

        def gated(help_obj, record):
            started.set()
            assert release.wait(5)
            return real(help_obj, record)

        monkeypatch.setattr(host_mod, "apply_record", gated)
        router = ShardRouter(shards=2)
        try:
            _client, ns = _attach(router, "mover")
            home = router.shard_for("mover")
            result = {}

            def write():
                try:
                    ns.append("/s/input",
                              _newwin("/tmp/note", "survived the drain\n"))
                    result["ok"] = True
                except Closed as exc:
                    # the reply can race the post-migration teardown;
                    # the *write itself* already landed
                    result["error"] = exc

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            assert started.wait(5)
            drained = {}
            drainer = threading.Thread(
                target=lambda: drained.update(ids=router.drain_shard(home)),
                daemon=True)
            drainer.start()
            time.sleep(0.2)
            # the drain is parked on the session's oplock: the in-flight
            # write still owns it
            assert "ids" not in drained
            release.set()
            writer.join(5)
            drainer.join(5)
            assert drained.get("ids") == ["mover"]
            assert result, "writer never finished"
            # reattach on the new shard: the racing write is there
            _client2, ns2 = _attach(router, "mover")
            screen = ns2.read("/s/screen")
            assert "/tmp/note" in screen
            assert "survived the drain" in screen
        finally:
            router.close()
        assert router.audit() == []

    def test_drain_of_an_unjournalled_session_places_a_fresh_world(self):
        """A ``record=False`` session cannot hibernate: the drain
        retires it on the source, places it on the target and counts
        it migrated, and the next attach builds a fresh world there."""
        router = ShardRouter(shards=2, record=False)
        try:
            _client, ns = _attach(router, "plain")
            home = router.shard_for("plain")
            ns.append("/s/input", _newwin("/tmp/note", "not journalled\n"))
            assert router.drain_shard(home) == ["plain"]
            with pytest.raises(Closed):
                ns.read("/s/screen")
            target = router.shard_for("plain")
            assert target != home
            _client2, ns2 = _attach(router, "plain")
            assert "plain" in router.hosts[target].sessions
            assert "not journalled" not in ns2.read("/s/screen")
            assert router.metrics.counter("router.sessions.migrated") == 1
            assert router.metrics.counter("router.sessions.relocated") == 0
        finally:
            router.close()
        assert router.audit() == []
        opened, closed = router.session_ledger()
        assert opened == closed

    def test_second_drain_moves_a_drained_session_again(self):
        """A placement override pointing at a draining shard is void:
        draining a session's new home moves it on to a third shard
        instead of back onto the shard being drained."""
        router = ShardRouter(shards=3)
        try:
            _client, ns = _attach(router, "nomad")
            ns.append("/s/input", _newwin("/tmp/note", "still here\n"))
            before = ns.read("/s/screen")
            first = router.shard_for("nomad")
            assert router.drain_shard(first) == ["nomad"]
            _client2, ns2 = _attach(router, "nomad")
            second = router.shard_for("nomad")
            assert ns2.read("/s/screen") == before
            assert router.drain_shard(second) == ["nomad"]
            third = router.shard_for("nomad")
            assert third not in (first, second)
            _client3, ns3 = _attach(router, "nomad")
            assert "nomad" in router.hosts[third].sessions
            assert ns3.read("/s/screen") == before
        finally:
            router.close()
        assert router.audit() == []


def _rows(router, session_id):
    """The srv/sessions rows naming *session_id*, across every shard."""
    return [line for line in router._list_text().splitlines()
            if line.split("\t")[0] == session_id]


class TestDrainReplicated:
    """A drain on a replicated router, then the source shard fails."""

    @pytest.mark.parametrize("residency", ["live", "hibernated"])
    def test_drained_session_is_held_once_across_failover(self, residency):
        router = ShardRouter(shards=2, max_live=4, replicate=True)
        try:
            client, ns = _attach(router, "dormant")
            home = router.shard_for("dormant")
            ns.append("/s/input", _newwin("/tmp/note", "parked text\n"))
            before = ns.read("/s/screen")
            if residency == "hibernated":
                router.hibernate("dormant")
            assert router.drain_shard(home) == ["dormant"]
            # sync shipping: the drop is on the standby once drain returns
            assert "dormant" not in router.pairs[home].standby.tracked()
            assert len(_rows(router, "dormant")) == 1
            assert router.audit() == []

            router.kill_shard(home)
            router.promote_shard(home)
            rows = _rows(router, "dormant")
            assert len(rows) == 1 and "\thibernated\t" in rows[0]
            assert router.audit() == []

            _client2, ns2 = _attach(router, "dormant")
            assert ns2.read("/s/screen") == before
            assert len(_rows(router, "dormant")) == 1
        finally:
            router.close()
        assert router.audit() == []
        opened, closed = router.session_ledger()
        assert opened == closed

    def test_audit_counts_a_session_held_on_two_shards(self, monkeypatch):
        """Drops are best-effort: a source standby that misses one
        resurrects the drained session when the source fails over.
        The audit must see two shards holding it, though one copy is
        only a hibernated snapshot."""
        real = ReplicaStandby._apply_ship

        def lose_drops(self, msg):
            return msg.seq if msg.verb == "drop" else real(self, msg)

        monkeypatch.setattr(ReplicaStandby, "_apply_ship", lose_drops)
        router = ShardRouter(shards=2, max_live=4, replicate=True)
        try:
            client, ns = _attach(router, "dormant")
            home = router.shard_for("dormant")
            ns.append("/s/input", _newwin("/tmp/note", "parked text\n"))
            router.hibernate("dormant")
            router.drain_shard(home)
            router.kill_shard(home)
            router.promote_shard(home)
            assert len(_rows(router, "dormant")) == 2
            before = router.metrics.counter("router.sessions.dup")
            problems = router.audit()
            assert any("'dormant' held on shard" in p for p in problems)
            assert router.metrics.counter("router.sessions.dup") \
                == before + 1
        finally:
            router.close()
