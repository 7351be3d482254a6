"""The session recorder: write-ahead tee, nesting, replay, divergence."""

import pytest

from repro import build_system, render_screen
from repro.journal import Journal, attach, scan_text
from repro.journal.recorder import ReplayError, divergence, replay
from repro.journal.record import make_record

PATH = "/usr/rob/help.journal"


def recorded_system(**kwargs):
    system = build_system(width=120, height=40)
    journal = Journal.create(system.ns, PATH)
    recorder = attach(system.help, journal, ns=system.ns, **kwargs)
    return system, journal, recorder


def kinds(journal):
    return [r.kind for r in journal.records]


class TestAttach:
    def test_genesis_is_durable_immediately(self):
        system, journal, _ = recorded_system()
        scan = scan_text(system.ns.read(PATH))
        assert [r.kind for r in scan.records] == ["genesis"]
        width, height, ncols, next_id = scan.records[0].fields()
        assert (width, height) == ("120", "40")
        assert int(next_id) == system.help._next_id

    def test_recorder_installed_on_help(self):
        system, _, recorder = recorded_system()
        assert system.help.journal is recorder


class TestWriteAhead:
    def test_input_is_durable_before_application(self):
        system, journal, recorder = recorded_system()
        with pytest.raises(RuntimeError, match="mid-application crash"):
            with recorder.recording("type", ("doomed",)):
                # the write-ahead guarantee: the record is already in
                # the file while the event is still being applied
                assert "doomed" in system.ns.read(PATH)
                raise RuntimeError("mid-application crash")

    def test_nested_entry_points_become_traces(self):
        _, journal, recorder = recorded_system()
        with recorder.recording("exec", ("1", "body", "headers")):
            with recorder.recording("newwin", ("-", "-", "-", "/x", "")):
                pass
        assert kinds(journal) == ["genesis", "exec", "+newwin"]

    def test_real_session_records_inputs_and_traces(self):
        system, journal, _ = recorded_system()
        h = system.help
        h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
        assert "exec" in kinds(journal)
        assert any(k.startswith("+") for k in kinds(journal))
        # everything flushed by the end of the top-level input
        assert len(scan_text(system.ns.read(PATH)).records) \
            == len(journal.records)


class TestTraceHooks:
    def test_shell_commands_are_traced(self):
        system, journal, _ = recorded_system()
        system.shell("/usr/rob").run("echo hi >/tmp/out")
        cmd = [r for r in journal.records if r.kind == "+cmd"]
        assert cmd and cmd[0].fields()[0] == "/usr/rob"
        assert "echo" in cmd[0].fields()

    def test_fs_mutations_are_traced(self):
        system, journal, _ = recorded_system()
        system.ns.write("/tmp/newfile", "x\n")
        fs = [r.fields() for r in journal.records if r.kind == "+fs"]
        assert ["write", "/tmp/newfile"] in fs

    def test_journals_own_file_is_not_traced(self):
        system, journal, _ = recorded_system()
        system.help.type_text("a")  # flushes to the journal file
        fs = [r.fields() for r in journal.records if r.kind == "+fs"]
        assert not any(path == PATH for _, path in fs)

    def test_screen_traces_when_asked(self):
        system, journal, _ = recorded_system(trace_screens=True)
        system.help.type_text("a")
        screens = [r for r in journal.records if r.kind == "+screen"]
        assert len(screens) == 1
        assert len(screens[0].fields()[0]) == 8  # a crc32, not a grid


class TestReplay:
    def test_round_trip_reproduces_the_screen(self, metrics):
        system, journal, _ = recorded_system()
        h = system.help
        h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
        scan = scan_text(system.ns.read(PATH))
        fresh = build_system(width=120, height=40)
        applied = replay(fresh.help, scan.records)
        assert applied == 1
        assert render_screen(fresh.help) == render_screen(h)
        assert metrics.counter("journal.replay.applied") == 1
        assert metrics.histograms("replay.apply_us")

    def test_derived_records_are_not_reapplied(self):
        system, journal, _ = recorded_system()
        h = system.help
        h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
        scan = scan_text(system.ns.read(PATH))
        fresh = build_system(width=120, height=40)
        before = len(fresh.help.windows)
        replay(fresh.help, scan.records)
        # the exec created its window by itself; had the +newwin trace
        # also been applied, there would be one window too many
        assert len(fresh.help.windows) \
            == before + (len(h.windows) - before)

    def test_genesis_mismatch_is_an_error(self):
        system, _, _ = recorded_system()
        scan = scan_text(system.ns.read(PATH))
        other = build_system(width=80, height=24)
        with pytest.raises(ReplayError, match="genesis"):
            replay(other.help, scan.records)

    def test_unknown_kind_is_an_error(self):
        fresh = build_system(width=120, height=40)
        with pytest.raises(ReplayError, match="unknown input kind"):
            replay(fresh.help, [make_record(1, "warp", ("9",))])


class TestDivergence:
    def test_identical_streams_agree(self):
        a = [make_record(1, "type", ("x",)), make_record(2, "+cmd", ("ls",))]
        assert divergence(a, a) is None

    def test_marks_are_ignored(self):
        a = [make_record(1, "type", ("x",)),
             make_record(2, "snapshot", ("dump",))]
        b = [make_record(1, "type", ("x",))]
        assert divergence(a, b) is None

    def test_first_divergent_seq_reported(self):
        a = [make_record(1, "type", ("x",)), make_record(5, "+cmd", ("ls",))]
        b = [make_record(1, "type", ("x",)), make_record(2, "+cmd", ("rm",))]
        seq, why = divergence(a, b)
        assert seq == 5
        assert "ls" in why and "rm" in why

    def test_length_mismatch_reported(self):
        a = [make_record(1, "type", ("x",)), make_record(2, "type", ("y",))]
        seq, why = divergence(a, a[:1])
        assert seq == 2
        assert "2 records" in why
