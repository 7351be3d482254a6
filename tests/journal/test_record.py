"""The record format: codec, checksums, and intact-prefix scanning."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.journal.record import (
    APPLY_KINDS,
    FORMAT,
    MARK_KINDS,
    BadChecksum,
    BadRecord,
    Record,
    checksum,
    dec,
    enc,
    make_record,
    parse_line,
    scan_text,
)


def journal_text(*records):
    return FORMAT + "\n" + "".join(r.line() + "\n" for r in records)


class TestCodec:
    def test_plain_token_unchanged(self):
        assert enc("headers") == "headers"

    def test_whitespace_never_survives_encoding(self):
        for raw in ("a b", "a\tb", "a\nb", "a\rb", " lead", "trail "):
            encoded = enc(raw)
            assert " " not in encoded
            assert "\n" not in encoded
            assert dec(encoded) == raw

    def test_empty_token_representable(self):
        assert enc("") == "\\e"
        assert dec("\\e") == ""

    def test_backslash_escapes_itself(self):
        assert dec(enc("back\\slash")) == "back\\slash"
        # a literal backslash-e is not the empty sentinel
        assert dec(enc("\\e")) == "\\e"

    @given(st.text(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_identity(self, s):
        assert dec(enc(s)) == s

    @given(st.lists(st.text(max_size=40), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_fields_survive_a_record_line(self, fields):
        record = make_record(1, "type", fields)
        assert parse_line(record.line()).fields() == [str(f) for f in fields]


class TestRecord:
    def test_line_layout(self):
        record = make_record(7, "exec", ("3", "body", "headers"))
        seq, crc, kind, payload = record.line().split(" ", 3)
        assert (seq, kind, payload) == ("7", "exec", "3 body headers")
        assert crc == checksum(7, "exec", "3 body headers")

    def test_payloadless_line(self):
        record = Record(1, "genesis")
        assert record.line() == f"1 {checksum(1, 'genesis', '')} genesis"
        assert record.fields() == []

    def test_classes_are_disjoint(self):
        assert not APPLY_KINDS & MARK_KINDS
        assert Record(1, "+cmd").derived
        assert not Record(1, "+cmd").applies
        assert Record(1, "type").applies
        assert not Record(1, "snapshot").applies

    def test_parse_rejects_short_line(self):
        with pytest.raises(BadRecord, match="short record"):
            parse_line("1 abcd")

    def test_parse_rejects_bad_seq(self):
        with pytest.raises(BadRecord, match="sequence"):
            parse_line("one 00000000 type x")

    def test_parse_rejects_corrupt_payload(self):
        line = make_record(3, "type", ("hello",)).line()
        with pytest.raises(BadChecksum, match="seq 3"):
            parse_line(line.replace("hello", "hellp"))


class TestScan:
    def records(self, n=4):
        return [make_record(i, "type", (f"t{i}",)) for i in range(1, n + 1)]

    def test_clean_journal(self, metrics):
        scan = scan_text(journal_text(*self.records()))
        assert [r.seq for r in scan.records] == [1, 2, 3, 4]
        assert not scan.torn
        assert scan.dropped == 0
        assert metrics.counter("journal.replay.records") == 4
        assert metrics.counter("journal.checksum.failed") == 0

    def test_torn_tail_keeps_intact_prefix(self, metrics):
        text = journal_text(*self.records())
        torn = text[:-3]  # tear the last record mid-payload
        scan = scan_text(torn)
        assert [r.seq for r in scan.records] == [1, 2, 3]
        assert scan.torn
        assert scan.dropped == 1
        assert metrics.counter("journal.checksum.failed") == 1

    def test_tear_mid_checksum_is_structural_damage(self, metrics):
        text = journal_text(*self.records())
        torn = text[:-10]  # leaves "4 ff28a64": too short to parse
        scan = scan_text(torn)
        assert [r.seq for r in scan.records] == [1, 2, 3]
        assert scan.torn
        assert metrics.counter("journal.checksum.failed") == 0

    def test_damage_ends_the_prefix_even_with_good_lines_after(self):
        good = self.records()
        lines = journal_text(*good).split("\n")
        lines[2] = "garbage"  # seq 2 damaged, seq 3-4 still well-formed
        scan = scan_text("\n".join(lines))
        assert [r.seq for r in scan.records] == [1]
        assert scan.dropped == 3

    def test_sequence_regression_is_damage(self):
        a, b = make_record(5, "type", ("x",)), make_record(4, "type", ("y",))
        scan = scan_text(journal_text(a, b))
        assert [r.seq for r in scan.records] == [5]
        assert scan.torn
        assert "sequence 4 after 5" in scan.problems[0]

    def test_missing_header(self):
        scan = scan_text("not a journal\n1 00000000 type x\n")
        assert scan.torn
        assert scan.records == []
        assert "header" in scan.problems[0]

    def test_blank_lines_are_not_damage(self):
        scan = scan_text(journal_text(*self.records()) + "\n\n")
        assert len(scan.records) == 4
        assert not scan.torn
