"""Unit tests for the deterministic fault-injection harness."""

import pytest

from repro.fs import VFS, Namespace
from repro.fs.errors import Crashed, IOFault, Permission
from repro.fs.faults import Fault, FaultPlan, wrap


def make_tree():
    vfs = VFS()
    ns = Namespace(vfs)
    ns.mkdir("/data/sub", parents=True)
    ns.write("/data/a", "alpha\n")
    ns.write("/data/sub/b", "bravo\n")
    return vfs, ns


def faulted_ns(*faults):
    vfs, ns = make_tree()
    plan = FaultPlan(*faults)
    faulty = wrap(ns.walk("/data"), plan, base="/data")
    ns.mount(faulty, "/data")
    return ns, plan


class TestFaultRules:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown faultable op"):
            Fault(op="truncate")

    def test_nth_open_fails(self):
        ns, plan = faulted_ns(Fault(op="open", path="/data/a", at=2))
        ns.open("/data/a").close()  # first open fine
        with pytest.raises(IOFault) as err:
            ns.open("/data/a")
        assert err.value.path == "/data/a"
        assert err.value.op == "open"
        ns.open("/data/a").close()  # third open fine again
        assert plan.fired == [1]

    def test_at_zero_fails_every_time(self):
        ns, plan = faulted_ns(Fault(op="open", path="/data/a", at=0))
        for _ in range(3):
            with pytest.raises(IOFault):
                ns.open("/data/a")
        assert plan.fired == [3]

    def test_path_pattern_scopes_the_fault(self):
        ns, _ = faulted_ns(Fault(op="open", path="/data/sub/*", at=1))
        assert ns.read("/data/a") == "alpha\n"  # unmatched path untouched
        with pytest.raises(IOFault):
            ns.open("/data/sub/b")

    def test_short_read_truncates_instead_of_raising(self):
        ns, plan = faulted_ns(Fault(op="read", path="/data/a", at=1, short=3))
        with ns.open("/data/a") as f:
            assert f.read() == "alp"
        assert plan.injected == 1

    def test_write_fault_carries_kind_override(self):
        ns, _ = faulted_ns(
            Fault(op="write", path="/data/a", at=1, kind=Permission,
                  message="'/data/a' write refused"))
        handle = ns.open("/data/a", "w")
        with pytest.raises(Permission, match="write refused"):
            handle.write("x")

    def test_close_fault_still_closes_inner_handle(self):
        ns, _ = faulted_ns(Fault(op="close", path="/data/a", at=1))
        handle = ns.open("/data/a", "w")
        handle.write("gamma\n")
        with pytest.raises(IOFault):
            handle.close()
        assert handle.closed  # the underlying handle did close...
        assert ns.read("/data/a") == "gamma\n"  # ...and the data landed

    def test_close_fault_fires_once_per_session(self):
        ns, plan = faulted_ns(Fault(op="close", path="/data/a", at=0))
        handle = ns.open("/data/a")
        with pytest.raises(IOFault):
            handle.close()
        handle.close()  # second close is a no-op, not a second fault
        assert plan.fired == [1]

    def test_injection_counter_tracks_plan(self, metrics):
        metrics.reset_counters("fs.fault.")
        ns, plan = faulted_ns(Fault(op="open", path="/data/*", at=0))
        for _ in range(2):
            with pytest.raises(IOFault):
                ns.open("/data/a")
        assert metrics.counter("fs.fault.injected") == 2
        assert plan.injected == 2

    def test_reset_replays_the_schedule(self):
        ns, plan = faulted_ns(Fault(op="open", path="/data/a", at=1))
        with pytest.raises(IOFault):
            ns.open("/data/a")
        ns.open("/data/a").close()
        plan.reset()
        with pytest.raises(IOFault):
            ns.open("/data/a")
        assert plan.fired == [1]


class TestCrashFaults:
    def test_crashing_write_tears_and_raises(self):
        ns, plan = faulted_ns(Fault(op="write", path="/data/a", crash=True))
        handle = ns.open("/data/a", "w")
        with pytest.raises(Crashed, match="crashed"):
            handle.write("0123456789")
        handle.close()
        ns.unmount("/data")
        assert ns.read("/data/a") == "01234"  # half landed, torn

    def test_short_controls_the_torn_length(self):
        ns, _ = faulted_ns(
            Fault(op="write", path="/data/a", crash=True, short=3))
        handle = ns.open("/data/a", "w")
        with pytest.raises(Crashed):
            handle.write("0123456789")
        ns.unmount("/data")
        assert ns.read("/data/a") == "012"

    def test_dead_plan_refuses_every_later_op(self):
        ns, plan = faulted_ns(Fault(op="write", path="/data/a", crash=True))
        handle = ns.open("/data/a", "w")
        with pytest.raises(Crashed):
            handle.write("x")
        assert plan.dead
        with pytest.raises(Crashed):
            ns.open("/data/sub/b")  # any path, any op: the process died
        with pytest.raises(Crashed):
            handle.write("again")

    def test_close_of_a_dead_process_is_a_noop(self):
        # raising from close would mask the original crash when the
        # handle is closed by a with-block's __exit__
        ns, _ = faulted_ns(Fault(op="write", path="/data/a", crash=True))
        with pytest.raises(Crashed) as err:
            with ns.open("/data/a", "w") as handle:
                handle.write("x")
        assert err.value.op == "write"  # the crash, not a close error

    def test_crash_on_read_raises_without_data(self):
        ns, _ = faulted_ns(Fault(op="read", path="/data/a", crash=True))
        handle = ns.open("/data/a")
        with pytest.raises(Crashed):
            handle.read()

    def test_reset_revives_the_process(self):
        ns, plan = faulted_ns(Fault(op="write", path="/data/a", crash=True))
        with pytest.raises(Crashed):
            ns.open("/data/a", "w").write("x")
        plan.reset()
        handle = ns.open("/data/a", "w")
        with pytest.raises(Crashed):  # the schedule replays: crash at 1
            handle.write("x")

    def test_crash_counts_as_injection(self, metrics):
        metrics.reset_counters("fs.fault.")
        ns, plan = faulted_ns(Fault(op="write", path="/data/a", crash=True))
        with pytest.raises(Crashed):
            ns.open("/data/a", "w").write("x")
        assert plan.injected == 1
        assert metrics.counter("fs.fault.injected") == 1
        # post-crash refusals are the dead process, not new injections
        with pytest.raises(Crashed):
            ns.open("/data/a")
        assert metrics.counter("fs.fault.injected") == 1


class TestWrappedTree:
    def test_paths_reported_under_base(self):
        ns, _ = faulted_ns(Fault(op="open", path="*", at=0))
        with pytest.raises(IOFault) as err:
            ns.open("/data/sub/b")
        assert err.value.path == "/data/sub/b"

    def test_listing_and_stat_pass_through(self):
        ns, _ = faulted_ns()
        assert sorted(ns.listdir("/data")) == ["a", "sub"]
        assert ns.isdir("/data/sub")
        assert not ns.isdir("/data/a")

    def test_underlying_tree_untouched_after_unmount(self):
        ns, _ = faulted_ns(Fault(op="open", path="*", at=0))
        with pytest.raises(IOFault):
            ns.open("/data/a")
        ns.unmount("/data")
        assert ns.read("/data/a") == "alpha\n"

    def test_wrap_synthetic_server_tree(self):
        from repro.fs import SynthDir, SynthFile
        lines = []
        root = SynthDir("srv", list_fn=lambda: [
            SynthFile("ctl", write_fn=lines.append),
            SynthFile("body", read_fn=lambda: "text\n"),
        ])
        vfs = VFS()
        ns = Namespace(vfs)
        ns.mkdir("/mnt/srv", parents=True)
        plan = FaultPlan(Fault(op="write", path="/mnt/srv/ctl", at=2))
        ns.mount(wrap(root, plan, base="/mnt/srv"), "/mnt/srv")
        assert ns.read("/mnt/srv/body") == "text\n"
        handle = ns.open("/mnt/srv/ctl", "w")
        handle.write("first\n")
        with pytest.raises(IOFault):
            handle.write("second\n")
        handle.close()
        assert lines == ["first\n"]
