"""Crash recovery: snapshot restore, renumbering, torn-tail replay."""

import pytest

from repro import build_system, render_screen
from repro.journal import Journal, attach
from repro.journal.record import FORMAT, scan_text
from repro.journal.recorder import ReplayError
from repro.journal.recovery import recover

PATH = "/usr/rob/help.journal"


def drive(snapshot_every=None):
    system = build_system(width=120, height=40)
    journal = Journal.create(system.ns, PATH)
    recorder = attach(system.help, journal, ns=system.ns,
                      snapshot_every=snapshot_every)
    h = system.help
    h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
    h.open_path("/usr/rob/lib/profile")
    w = h.open_path("/usr/rob/src/help/exec.c", line=30)
    h.select(w, 0, 5)
    journal.flush()
    return system, recorder


def reserialize(records):
    return FORMAT + "\n" + "".join(r.line() + "\n" for r in records)


class TestRecoverWithoutSnapshot:
    def test_full_replay_from_genesis(self, metrics):
        system, _ = drive()
        text = system.ns.read(PATH)
        fresh = build_system(width=120, height=40)
        report = recover(fresh.help, text)
        assert report.snapshot_seq is None
        assert report.applied == 4
        assert not report.torn
        assert render_screen(fresh.help) == render_screen(system.help)
        assert metrics.counter("journal.recover.count") == 1
        assert metrics.counter("journal.recover.torn") == 0


class TestRecoverFromSnapshot:
    def test_snapshot_shortcuts_the_prefix(self):
        system, recorder = drive(snapshot_every=3)
        text = system.ns.read(PATH)
        fresh = build_system(width=120, height=40)
        report = recover(fresh.help, text)
        assert report.snapshot_seq is not None
        assert report.applied < 4  # the snapshot subsumed the rest
        assert render_screen(fresh.help, full=True) \
            == render_screen(system.help, full=True)

    def test_window_ids_survive(self):
        system, recorder = drive()
        recorder.compact()
        text = system.ns.read(PATH)
        fresh = build_system(width=120, height=40)
        recover(fresh.help, text)
        assert sorted(fresh.help.windows) == sorted(system.help.windows)
        assert fresh.help._next_id == system.help._next_id

    def test_selection_and_state_survive(self):
        system, recorder = drive()
        system.help.snarf = "stashed text"
        recorder.compact()
        fresh = build_system(width=120, height=40)
        recover(fresh.help, system.ns.read(PATH))
        assert fresh.help.snarf == "stashed text"
        cur, sys_cur = fresh.help.current, system.help.current
        assert (cur[0].id, cur[1]) == (sys_cur[0].id, sys_cur[1])
        sel = cur[0].selection(cur[1])
        assert (sel.q0, sel.q1) == (0, 5)

    def test_no_current_selection_recovers(self):
        system = build_system(width=120, height=40)
        journal = Journal.create(system.ns, PATH)
        recorder = attach(system.help, journal, ns=system.ns)
        recorder.compact()
        fresh = build_system(width=120, height=40)
        recover(fresh.help, system.ns.read(PATH))
        assert fresh.help.current is None


class TestTornJournal:
    def test_torn_tail_recovers_to_last_applied_input(self, metrics):
        system, _ = drive()
        text = system.ns.read(PATH)
        complete = build_system(width=120, height=40)
        recover(complete.help, text)
        # tear the final record (the select): the write-ahead rule says
        # it may or may not have been applied, but the recovered state
        # must match the journal's intact prefix exactly
        torn = text[:-4]
        fresh = build_system(width=120, height=40)
        report = recover(fresh.help, torn)
        assert report.torn
        assert report.dropped == 1
        assert report.applied == 3
        assert metrics.counter("journal.recover.torn") == 1
        assert fresh.help.current != complete.help.current

    def test_incomplete_snapshot_group_is_skipped(self):
        system, recorder = drive()
        recorder.compact()
        records = scan_text(system.ns.read(PATH)).records
        assert [r.kind for r in records][:3] == ["snapshot", "wids", "state"]
        # crash between wids and state: the group is unusable, and with
        # the pre-snapshot prefix compacted away there is nothing to
        # replay — recovery must fail loudly, not half-restore
        fresh = build_system(width=120, height=40)
        report = recover(fresh.help, reserialize(records[:2]))
        assert report.snapshot_seq is None
        assert report.applied == 0

    def test_wids_mismatch_is_an_error(self):
        system, recorder = drive()
        recorder.compact()
        records = scan_text(system.ns.read(PATH)).records
        wids = records[1]
        fields = wids.fields()
        from repro.journal.record import make_record
        tampered = make_record(wids.seq, "wids", fields[:-1])  # one id short
        fresh = build_system(width=120, height=40)
        with pytest.raises(ReplayError, match="wids record names"):
            recover(fresh.help, reserialize([records[0], tampered,
                                             records[2]]))


class TestRecoveryEdgeCases:
    """The journals a crash (or an empty spool slot) actually leaves."""

    def test_zero_length_journal_recovers_to_fresh_boot(self):
        # a spool file created but never written: recovery must land on
        # the freshly booted world, reporting the damage, not crash
        fresh = build_system(width=120, height=40)
        baseline = render_screen(fresh.help)
        report = recover(fresh.help, "")
        assert report.torn
        assert report.applied == 0
        assert report.inputs == 0
        assert report.snapshot_seq is None
        assert any("header" in p for p in report.problems)
        assert render_screen(fresh.help) == baseline

    def test_snapshot_group_with_empty_suffix(self):
        # a hibernation wake's text: header + group, nothing to replay —
        # the "inputs" mark alone must carry the resume index
        system, recorder = drive()
        recorder.compact()
        text = system.ns.read(PATH)
        fresh = build_system(width=120, height=40)
        report = recover(fresh.help, text)
        assert report.snapshot_seq is not None
        assert report.applied == 0
        assert report.inputs == recorder.inputs_recorded == 4
        assert not report.torn
        assert render_screen(fresh.help, full=True) \
            == render_screen(system.help, full=True)

    def test_torn_write_inside_snapshot_group(self):
        # crash mid-compaction: the state record is half-written.  The
        # group is unusable and must be skipped whole — no half-restore
        # of a snapshot whose companions are gone
        system, recorder = drive()
        recorder.compact()
        text = system.ns.read(PATH)
        lines = text.splitlines(keepends=True)
        assert [l.split(" ", 3)[2] for l in lines[1:4]] \
            == ["snapshot", "wids", "state"]
        torn = "".join(lines[:3]) + lines[3][:len(lines[3]) // 2]
        fresh = build_system(width=120, height=40)
        baseline = render_screen(fresh.help)
        report = recover(fresh.help, torn)
        assert report.torn
        assert report.snapshot_seq is None
        assert report.applied == 0
        assert render_screen(fresh.help) == baseline
