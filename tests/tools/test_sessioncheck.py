"""sessioncheck: the K-concurrent-sessions golden gate, as a test."""

from __future__ import annotations

from repro.tools import sessioncheck
from repro.tools.scenarios import FIGURES


def test_concurrent_sessions_match_goldens_over_pipes():
    """Two concurrent sessions, every figure, byte-identical, isolated."""
    assert sessioncheck.run(2, ["pipe"]) == []


def test_concurrent_sessions_match_goldens_across_shards():
    """The same gate with attaches hashed over a 2-shard router: the
    sharding must be invisible — screens, journals, ledgers identical."""
    assert sessioncheck.run(2, ["pipe"], shards=2) == []


def test_recorded_scripts_cover_every_figure():
    scripts = sessioncheck.record_figures()
    assert set(scripts) == {name for name, _, _ in FIGURES}
    for script in scripts.values():
        assert script["input"]  # every figure drives at least one record
        assert script["screen"]


def test_ledger_parse_drops_unstable_entries():
    text = ("fs.read 7\nwire.bytes.in 123\nmux.inflight 1\n"
            "session.input.applied 4\n")
    assert sessioncheck._ledger_of(text) == {"fs.read": 7,
                                             "session.input.applied": 4}


def test_main_usage_error(capsys):
    assert sessioncheck.main(["--bogus"]) == 2
    assert "usage:" in capsys.readouterr().err
    # the budget pass runs one pipe host: a flag it would ignore is refused
    assert sessioncheck.main(["--budget", "3", "--shards", "4"]) == 2
    assert "usage:" in capsys.readouterr().err
