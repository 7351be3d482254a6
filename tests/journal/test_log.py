"""The write-ahead log: durability, flush points, compaction ledger."""

from repro.fs import VFS, Namespace
from repro.journal import FORMAT, Journal, scan_text

PATH = "/tmp/test.journal"


def fresh_ns():
    ns = Namespace(VFS())
    ns.mkdir("/tmp", parents=True)
    return ns


class TestDurableJournal:
    def test_create_writes_header_only(self):
        ns = fresh_ns()
        Journal.create(ns, PATH)
        assert ns.read(PATH) == FORMAT + "\n"

    def test_append_is_buffered_until_flush(self):
        ns = fresh_ns()
        journal = Journal.create(ns, PATH)
        journal.append("type", ("hello",))
        assert ns.read(PATH) == FORMAT + "\n"  # not yet durable
        assert journal.flush() == 1
        assert len(scan_text(ns.read(PATH)).records) == 1

    def test_flush_batches_pending_in_one_append(self, metrics):
        ns = fresh_ns()
        journal = Journal.create(ns, PATH)
        for i in range(5):
            journal.append("type", (f"t{i}",))
        assert journal.flush() == 5
        assert metrics.counter("journal.fsync.count") == 1
        assert metrics.counter("journal.fsync.records") == 5
        assert journal.flush() == 0  # nothing pending: no second fsync
        assert metrics.counter("journal.fsync.count") == 1

    def test_sequence_is_monotonic(self):
        ns = fresh_ns()
        journal = Journal.create(ns, PATH)
        seqs = [journal.append("type", (str(i),)).seq for i in range(4)]
        assert seqs == [1, 2, 3, 4]

    def test_append_counters_by_class(self, metrics):
        ns = fresh_ns()
        journal = Journal.create(ns, PATH)
        journal.append("type", ("x",))
        journal.append("+cmd", ("/tmp", "ls"))
        journal.append("genesis", ())
        # append bookkeeping is buffered with the records and lands at
        # the flush point, one counter update per class
        assert metrics.counter("journal.append.records") == 0
        journal.flush()
        assert metrics.counter("journal.append.records") == 3
        assert metrics.counter("journal.append.input") == 1
        assert metrics.counter("journal.append.trace") == 1
        assert metrics.counter("journal.append.mark") == 1


class TestShadowJournal:
    def test_no_sink_no_durable_ledger(self, metrics):
        journal = Journal()
        journal.append("type", ("x",))
        assert metrics.counter("journal.shadow.records") == 1
        assert metrics.counter("journal.append.records") == 0
        assert journal.flush() == 0
        assert metrics.counter("journal.fsync.count") == 0

    def test_records_still_accumulate(self):
        journal = Journal()
        for i in range(3):
            journal.append("type", (str(i),))
        assert [r.seq for r in journal.records] == [1, 2, 3]


class TestCompaction:
    def compacted(self, before=4, keep_kind="snapshot"):
        ns = fresh_ns()
        journal = Journal.create(ns, PATH)
        for i in range(before):
            journal.append("type", (f"t{i}",))
        journal.flush()
        keep = [journal.append(keep_kind, ("dump",))]
        journal.compact(keep)
        return ns, journal

    def test_sink_truncated_to_header_plus_keep(self):
        ns, journal = self.compacted()
        scan = scan_text(ns.read(PATH))
        assert [r.kind for r in scan.records] == ["snapshot"]
        assert not scan.torn

    def test_sequence_continues_across_compaction(self):
        ns, journal = self.compacted(before=4)
        record = journal.append("type", ("after",))
        assert record.seq == 6  # 4 inputs + snapshot + this one
        journal.flush()
        assert [r.seq for r in scan_text(ns.read(PATH)).records] == [5, 6]

    def test_dropped_records_are_accounted(self, metrics):
        self.compacted(before=4)
        # 4 flushed records vanished; the keep group was never durable
        # before the compact, so it is not part of the drop
        assert metrics.counter("journal.compact.dropped") == 4
        assert metrics.counter("journal.compact.count") == 1

    def test_ledger_balances_after_compaction(self, metrics):
        ns, journal = self.compacted(before=4)
        journal.append("type", ("suffix",))
        journal.flush()
        scan_text(ns.read(PATH))
        appended = metrics.counter("journal.append.records")
        assert appended == (metrics.counter("journal.replay.records")
                            + metrics.counter("journal.compact.dropped"))

    def test_unflushed_pre_snapshot_records_are_subsumed(self, metrics):
        # a record still pending when the snapshot lands is older than
        # the snapshot: flushing it afterwards would write a sequence
        # regression, so compact discards it (and accounts for it)
        ns = fresh_ns()
        journal = Journal.create(ns, PATH)
        journal.append("type", ("flushed",))
        journal.flush()
        journal.append("type", ("pending",))
        keep = [journal.append("snapshot", ("dump",))]
        journal.compact(keep)
        journal.flush()
        scan = scan_text(ns.read(PATH))
        assert [(r.kind, r.fields()) for r in scan.records] == \
            [("snapshot", ["dump"])]
        assert not scan.torn
        assert metrics.counter("journal.compact.dropped") == 2
