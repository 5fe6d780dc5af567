import codecs
import csv
import hashlib
import io
import itertools
import json
import logging
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volatix import _chunked, ingest
from volatix.errors import InvalidAggregateError, MalformedRowError
from volatix.ingest import (
    AGGREGATE_HEADER,
    PAPER_HEADER,
    CleaningLog,
    _parse_count,
    dedupe_and_filter,
    load_corpus,
    parse_aggregate,
    parse_paper_level,
    sniff_schema,
    write_journals_csv,
)
from volatix.metrics import MAX_CITATIONS, JournalAggregate


def papers_csv(rows):
    lines = ["journal_id,journal_name,paper_id,item_type,citations"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return io.BytesIO(("\n".join(lines) + "\n").encode())


def journals_csv(rows):
    lines = ["journal_id,journal_name,total_citations,n_2y,top_paper_citations"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return io.BytesIO(("\n".join(lines) + "\n").encode())


BASIC_ROWS = [
    ("J", "Journal J", "p1", "article", 4),
    ("J", "Journal J", "p2", "article", 1),
    ("J", "Journal J", "p3", "article", 0),
]


class TestParsePaperLevel:
    def test_direct_aggregation(self):
        corpus, log = parse_paper_level(papers_csv(BASIC_ROWS))
        agg = corpus.journals["J"]
        assert (agg.total_citations, agg.n_2y, agg.top_cited) == (5, 3, 4)
        assert log.rows_read == 3
        assert log.journals_kept == 1

    def test_front_matter_excluded_from_counts(self):
        rows = BASIC_ROWS + [("J", "Journal J", "e1", "front_matter", 100)]
        corpus, log = parse_paper_level(papers_csv(rows))
        base, _ = parse_paper_level(papers_csv(BASIC_ROWS))
        assert corpus.journals == base.journals
        assert log.citations_read == 105
        assert log.citations_removed == 100

    def test_malformed_arity_raises_with_line(self):
        stream = io.BytesIO(
            b"journal_id,journal_name,paper_id,item_type,citations\nJ,Journal J,p1,article\n"
        )
        with pytest.raises(MalformedRowError) as exc:
            parse_paper_level(stream)
        assert exc.value.line == 2

    def test_unparseable_citations_raises_with_column(self):
        rows = [("J", "Journal J", "p1", "article", "many")]
        with pytest.raises(MalformedRowError) as exc:
            parse_paper_level(papers_csv(rows))
        assert exc.value.column == "citations"

    @pytest.mark.parametrize("text", ["1_0", " +3 ", "+3", "\u0663", "3.0", "", "-", "--3"])
    @pytest.mark.parametrize("every_row", [False, True])
    def test_citations_must_be_ascii_digits(self, text, every_row, monkeypatch):
        # the bad line reaches csv through the handoff, or csv reads every row
        if every_row:
            read_every_row_with_csv(monkeypatch)
        rows = BASIC_ROWS + [("J", "Journal J", "p4", "article", text)]
        with pytest.raises(MalformedRowError) as exc:
            parse_paper_level(papers_csv(rows))
        assert (exc.value.line, exc.value.column) == (5, "citations")

    def test_negative_citations_rejected_not_fatal(self):
        rows = BASIC_ROWS + [("J", "Journal J", "p4", "article", -3)]
        corpus, log = parse_paper_level(papers_csv(rows))
        assert corpus.journals["J"].total_citations == 5
        assert log.rows_rejected == 1

    def test_unknown_item_type_rejected(self):
        rows = BASIC_ROWS + [("J", "Journal J", "p4", "poster", 9)]
        corpus, log = parse_paper_level(papers_csv(rows))
        assert corpus.journals["J"].n_2y == 3
        assert log.rows_rejected == 1

    def test_citations_above_cap_rejected(self):
        rows = BASIC_ROWS + [("J", "Journal J", "p4", "article", 2**31)]
        corpus, log = parse_paper_level(papers_csv(rows))
        assert corpus.journals["J"].total_citations == 5
        assert log.rows_rejected == 1

    def test_zero_cited_journal_removed(self):
        rows = BASIC_ROWS + [
            ("Z", "Journal Z", "z1", "article", 0),
            ("Z", "Journal Z", "z2", "article", 0),
        ]
        corpus, log = parse_paper_level(papers_csv(rows))
        assert "Z" not in corpus.journals
        assert log.zero_or_na_removed == 1

    def test_front_matter_only_journal_removed_as_na(self):
        rows = BASIC_ROWS + [("E", "Editorials Only", "e1", "front_matter", 50)]
        corpus, log = parse_paper_level(papers_csv(rows))
        assert "E" not in corpus.journals
        assert log.zero_or_na_removed == 1

    def test_singleton_kept_and_counted(self):
        rows = BASIC_ROWS + [("S", "Single", "s1", "article", 7)]
        corpus, log = parse_paper_level(papers_csv(rows))
        assert corpus.journals["S"].n_2y == 1
        assert corpus.journals["S"].top_cited == 7
        assert log.singletons_excluded == 1

    def test_order_independence(self):
        rows = BASIC_ROWS + [
            ("K", "Journal K", "k1", "article", 9),
            ("K", "Journal K", "k2", "review", 2),
            ("J", "Journal J", "e1", "front_matter", 8),
        ]
        base_corpus, base_log = parse_paper_level(papers_csv(rows))
        rng = random.Random(1)
        for _ in range(5):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            corpus, log = parse_paper_level(papers_csv(shuffled))
            assert corpus.journals == base_corpus.journals
            assert log == base_log

    def test_streaming_equals_in_memory_reference(self):
        rng = random.Random(42)
        rows = []
        for j in range(50):
            for p in range(rng.randint(1, 40)):
                kind = rng.choice(["article", "review", "front_matter"])
                rows.append((f"J{j:03d}", f"Journal {j}", f"p{p}", kind, rng.randint(0, 50)))
        corpus, log = parse_paper_level(papers_csv(rows))

        # non-streaming reference aggregation over the same rows
        reference = {}
        for jid, _, _, kind, c in rows:
            if kind in ("article", "review"):
                entry = reference.setdefault(jid, [0, 0, 0])
                entry[0] += c
                entry[1] = max(entry[1], c)
                entry[2] += 1
        expected = {
            jid: (total, top, n)
            for jid, (total, top, n) in reference.items()
            if n > 0 and total > 0
        }
        got = {
            jid: (a.total_citations, a.top_cited, a.n_2y)
            for jid, a in corpus.journals.items()
        }
        assert got == expected

    def test_conservation_identity(self):
        rows = BASIC_ROWS + [
            ("J", "Journal J", "e1", "front_matter", 100),
            ("J", "Journal J", "bad", "poster", 9),
            ("J", "Journal J", "neg", "article", -1),
            ("Z", "Journal Z", "z1", "article", 0),
            ("Z", "Journal Z", "z2", "article", 0),
        ]
        corpus, log = parse_paper_level(papers_csv(rows))
        assert log.citations_read == 5 + 100 + 9
        assert log.citations_kept == sum(
            a.total_citations for a in corpus.journals.values()
        )
        assert log.citations_read == log.citations_kept + log.citations_removed


KINDS = ("article", "review", "front_matter")


def filler_rows(min_bytes, name="Journal {}", seed=0):
    """Plain Schema-A rows in journal runs, more than ``min_bytes`` as lines."""
    rng = random.Random(seed)
    rows, size, j = [], 0, 0
    while size <= min_bytes:
        j += 1
        for p in range(rng.randint(1, 30)):
            row = (f"J{j:04d}", name.format(j), f"p{p}", rng.choice(KINDS), str(rng.randint(0, 50)))
            rows.append(row)
            size += len(",".join(row).encode()) + 1
    return rows


# Schema-A header lines that csv reads as PAPER_HEADER: exact, with every
# field quoted, and with only the first quoted
HEADER_LINES = [
    ",".join(PAPER_HEADER),
    ",".join(f'"{column}"' for column in PAPER_HEADER),
    '"journal_id",' + ",".join(PAPER_HEADER[1:]),
]


def schema_a(lines, *, eol="\n", bom=False, final_eol=True, header=HEADER_LINES[0]):
    text = eol.join([header] + lines) + (eol if final_eol else "")
    return (codecs.BOM_UTF8 if bom else b"") + text.encode()


def read_every_row_with_csv(patch):
    """Make ``patch`` (a MonkeyPatch) replace the chunked stage with the csv
    row loop alone: csv reads every row after the header."""

    def parse_rows(src, log):
        table = _chunked._Slots()
        rows = csv.reader(src.lines())
        try:
            ingest._parse_paper_rows(rows, 1, table, log)
        except csv.Error as exc:
            raise ingest._csv_error(exc, rows, 1) from None
        return table.journals()

    patch.setattr(_chunked, "_parse_chunked", parse_rows)


def csv_only(raw):
    """What parse_outcome(raw) gives when csv reads every row: the reference
    for the chunked stage."""
    with pytest.MonkeyPatch.context() as patch:
        read_every_row_with_csv(patch)
        return parse_outcome(raw)


def reference_parse(rows):
    """Schema-A semantics over all rows at once, as documented: returns
    (journals, CleaningLog, warned line numbers).  Rows start at line 2 and
    citations parse with ``int``; a row with an unknown item type or an empty
    journal_id is rejected."""
    log = CleaningLog()
    acc, warned = {}, []
    for line, (jid, name, _, kind, text) in enumerate(rows, start=2):
        citations = int(text)
        log.rows_read += 1
        if not 0 <= citations <= MAX_CITATIONS:
            log.rows_rejected += 1
            warned.append(line)
            continue
        log.citations_read += citations
        if kind not in KINDS or not jid:
            log.rows_rejected += 1
            log.citations_removed += citations
            warned.append(line)
            continue
        entry = acc.setdefault(jid, [name, 0, 0, 0])
        if kind == "front_matter":
            log.citations_removed += citations
            continue
        entry[1] += citations
        entry[2] = max(entry[2], citations)
        entry[3] += 1
    journals = {}
    for jid, (name, total, top, n) in acc.items():
        if n == 0 or total == 0:
            log.zero_or_na_removed += 1
            log.citations_removed += total
            continue
        if n == 1:
            log.singletons_excluded += 1
        journals[jid] = JournalAggregate(jid, name, total, n, top)
        log.citations_kept += total
    log.journals_kept = len(journals)
    return journals, log, warned


def warned_lines(caplog):
    return [
        int(re.match(r"line (\d+):", r.getMessage()).group(1))
        for r in caplog.records
        if r.levelno == logging.WARNING
    ]


def assert_matches_reference(raw, rows, caplog):
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="volatix.ingest"):
        corpus, log = parse_paper_level(io.BytesIO(raw))
    journals, expected_log, warned = reference_parse(rows)
    assert list(corpus.journals.items()) == list(journals.items())
    assert log == expected_log
    assert corpus.provenance.digest == hashlib.sha256(raw).hexdigest()
    assert warned_lines(caplog) == warned


class TestChunkedHandoff:
    """The first line the chunked parse cannot take comes after at least one
    full chunk; ``csv`` parses it with the same state, and the lines after it
    parse as they would from ``csv`` alone."""

    # rows after the odd line: a journal from before it under another name,
    # the journal just before it, and a new one
    TAIL = [
        ("J0001", "Renamed", "t1", "article", "7"),
        ("LAST", "Last", "t2", "review", "4"),
        ("NEW", "New", "t3", "article", "2"),
        ("NEW", "New", "t4", "article", "9"),
    ]

    def rows_with(self, odd_row):
        filler = filler_rows(ingest._CHUNK_BYTES)
        filler += [("LAST", "Last", "l1", "article", "3")]
        return filler, filler + [odd_row] + self.TAIL

    @pytest.mark.parametrize(
        "odd_row, odd_line, malformed",
        [
            (("Q1", "Quoted, Journal", "q1", "article", "5"), 'Q1,"Quoted, Journal",q1,article,5', False),
            (("LAST", "Last", "x1", "article", "+3"), "LAST,Last,x1,article,+3", True),
            (("", "Empty", "e1", "article", "5"), ",Empty,e1,article,5", False),
        ],
        ids=["quoted-name", "plus-sign", "empty-id"],
    )
    def test_csv_continues_after_handoff(self, odd_row, odd_line, malformed, caplog):
        filler, rows = self.rows_with(odd_row)
        lines = [",".join(r) for r in filler] + [odd_line] + [",".join(r) for r in self.TAIL]
        if not malformed:
            assert_matches_reference(schema_a(lines), rows, caplog)
            return
        with pytest.raises(MalformedRowError) as exc:  # counts are ASCII digits only
            parse_paper_level(io.BytesIO(schema_a(lines)))
        assert (exc.value.line, exc.value.column) == (len(filler) + 2, "citations")

    @pytest.mark.parametrize(
        "odd_line", ["", "LAST,Last,x1,article"], ids=["blank-line", "wrong-arity"]
    )
    def test_malformed_line_after_handoff(self, odd_line, caplog):
        filler, _ = self.rows_with(None)
        lines = [",".join(r) for r in filler] + [odd_line] + [",".join(r) for r in self.TAIL]
        with caplog.at_level(logging.INFO, logger="volatix.ingest"):
            with pytest.raises(MalformedRowError) as exc:
                parse_paper_level(io.BytesIO(schema_a(lines)))
        assert exc.value.line == len(filler) + 2
        assert warned_lines(caplog) == []

    @pytest.mark.parametrize(
        "first, second", [("-3", "aaaaaaa"), ("aaaaaaa", "-3")], ids=["negative-first", "type-first"]
    )
    def test_rejected_rows_warn_with_line_numbers(self, first, second, caplog):
        def odd(value, pid):
            if value == "aaaaaaa":  # same first byte and length as "article"
                return ("LAST", "Last", pid, "aaaaaaa", "6")
            return ("LAST", "Last", pid, "article", value)

        filler, rows = self.rows_with(odd(first, "x1"))
        rows += [odd(second, "x2")] + self.TAIL
        lines = [",".join(r) for r in rows]
        assert_matches_reference(schema_a(lines), rows, caplog)

    @pytest.mark.parametrize("last", ["plain", "rejected"])
    def test_multibyte_name_across_chunk_boundary(self, last, caplog):
        # with a BOM, CRLF endings and no final newline
        filler = filler_rows(ingest._CHUNK_BYTES // 2)
        name_start = len(schema_a([",".join(r) for r in filler], eol="\r\n", bom=True))
        name_start += len("EURO,")
        for pad in range(3):
            name = "x" * pad + "€" * ((ingest._CHUNK_BYTES - name_start) // 3 + 2)
            rows = filler + [("EURO", name, "e1", "article", "11")]
            raw = schema_a([",".join(r) for r in rows], eol="\r\n", bom=True)
            if raw[ingest._CHUNK_BYTES] & 0xC0 == 0x80:  # "€" straddles the chunk end
                break
        else:
            pytest.fail("no padding puts a multibyte character across the chunk end")
        rows += [("EURO", name, "e2", "review", "4")]
        rows += [("EURO", name, "e3", "article", "-1" if last == "rejected" else "8")]
        lines = [",".join(r) for r in rows]
        raw = schema_a(lines, eol="\r\n", bom=True, final_eol=False)
        assert_matches_reference(raw, rows, caplog)

    @pytest.mark.parametrize("where", ["plain-line", "after-handoff"])
    def test_decode_error_matches_a_csv_read(self, where):
        # An invalid byte in a line the chunked parse would otherwise take, or
        # after the handoff: either must raise what a read with csv alone
        # raises, after the same warnings, wherever the byte falls among
        # multibyte characters and reads.
        filler = filler_rows(ingest._CHUNK_BYTES, name="Revue n°{} ½")
        odd = ["LAST,Last,x1,article,-1"] if where == "after-handoff" else []
        for pad in range(4):
            lines = [",".join(r) for r in filler[: len(filler) - pad]]
            raw = schema_a(lines + odd + lines[-1000:])
            raw = raw[:-20000] + b"\xff" + raw[-20000:]
            offset = raw.index(b"\xff")
            line = raw.count(b"\n", 0, offset) + 1
            error = (f"invalid UTF-8 byte 0xff at offset {offset} (line {line})", line)
            warned = [f"line {len(lines) + 2}: citations -1 out of range, row rejected"] if odd else []
            assert parse_outcome(raw) == csv_only(raw) == (error, warned)

    @pytest.mark.parametrize("chunk", [32, 64, 100])
    def test_rows_before_an_invalid_byte_come_first(self, monkeypatch, chunk):
        # Whatever the read sizes, every row before an invalid byte is parsed
        # first; here a malformed one, which must raise rather than the byte.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        lines = [",".join(r) for r in filler_rows(300)]
        raw = schema_a(lines[:5] + ["LAST,Last,x1,article"] + lines[5:])
        end = raw.index(b"\n", raw.index(b"LAST")) + 1
        for at in range(end, len(raw) + 1):
            bad = raw[:at] + b"\xff" + raw[at:]
            outcome = parse_outcome(bad)
            assert outcome == csv_only(bad)
            assert outcome == (("expected 5 fields, got 4 (line 7)", 7), [])

    def test_byte_order_mark_inside_data_is_kept(self, caplog):
        # The handoff line starts with U+FEFF, which only the first bytes of
        # the input may drop, at a multiple of 8192 bytes, the size of a text
        # decoder's reads.
        filler = filler_rows(ingest._CHUNK_BYTES)
        size = len(schema_a([",".join(r) for r in filler]))
        pad = -(size + len("PAD,,p,article,1\n")) % 8192
        rows = filler + [("PAD", "x" * pad, "p", "article", "1")]
        rows += [("\ufeffJ", "Quoted, name", "q", "article", "5")]
        lines = [",".join(r) for r in rows[:-1]] + ['\ufeffJ,"Quoted, name",q,article,5']
        raw = schema_a(lines)
        assert raw.index("\ufeffJ".encode()) % 8192 == 0
        assert_matches_reference(raw, rows, caplog)

    def test_path_and_stream_agree(self, tmp_path):
        rows = filler_rows(3 * ingest._CHUNK_BYTES)
        raw = schema_a([",".join(r) for r in rows])
        path = tmp_path / "papers.csv"
        path.write_bytes(raw)
        from_path = parse_paper_level(path)
        from_stream = parse_paper_level(io.BytesIO(raw))
        assert list(from_path[0].journals.items()) == list(from_stream[0].journals.items())
        assert from_path[1] == from_stream[1]
        assert from_path[0].provenance == from_stream[0].provenance
        journals, log, _ = reference_parse(rows)
        assert from_path[0].journals == journals
        assert from_path[1] == log


class ListHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def parse_outcome(raw):
    """What parse_paper_level makes of ``raw``: the corpus items in order and
    the log, or the error's message and line; and the warnings, in order."""
    handler = ListHandler()
    ingest.logger.addHandler(handler)
    try:
        corpus, log = parse_paper_level(io.BytesIO(raw))
        assert corpus.provenance.digest == hashlib.sha256(raw).hexdigest()
        outcome = (list(corpus.journals.items()), log)
    except MalformedRowError as exc:
        outcome = (str(exc), exc.line)
    finally:
        ingest.logger.removeHandler(handler)
    return outcome, handler.messages


# journal ids: non-ASCII, 8 and 9 bytes, as long as a key may be and one
# byte longer, and "AB" next to "AB\0", which only csv may read
JOURNAL_IDS = ["AB", "AB\0", "J", "Zé", "ABCDEFGH", "ABCDEFGHI", "Ünïcødé-ID-42", "K" * 64, "L" * 65, ""]
RECORDS = {
    "plain": "{id},Name {n},p{n},{kind},{c}",
    "quoted-name": '{id},"Name, {n}, Série",p{n},{kind},{c}',
    # every field quoted, as by csv.QUOTE_ALL, or every string, as by
    # csv.QUOTE_NONNUMERIC
    "quote-all": '"{id}","Name, {n}","p{n}","{kind}","{c}"',
    "quote-nonnumeric": '"{id}","Name {n}","p{n}","{kind}",{c}',
    "quoted-id": '"{id}",Name {n},p{n},{kind},{c}',
    "quoted-paper-id": '{id},Name {n},"p{n}",{kind},{c}',
    "quoted-type": '{id},Name {n},p{n},"{kind}",{c}',
    "quoted-citations": '{id},Name {n},p{n},{kind},"{c}"',
    "quoted-id-with-comma": '"{id},{n}",Name {n},p{n},{kind},{c}',
    "half-quoted-paper-id": '{id},Name {n},"p"{n},{kind},{c}',
    "empty-quoted-fields": '{id},"","",{kind},{c}',
    "empty-quoted-type": '{id},Name {n},p{n},"",{c}',
    "empty-quoted-citations": '{id},Name {n},p{n},{kind},""',
    "empty-quoted-name": '{id},"",p{n},{kind},{c}',
    "escaped-quote": '{id},"Name ""{n}""",p{n},{kind},{c}',
    "spans-two-lines": '{id},"Name{eol}{n}",p{n},{kind},{c}',
    "lookalike": '{id},",p{n},{kind},{c}"',
    "lookalike-in-paper-id": '{id},",p"{n},{kind},{c}',
    "negative": "{id},Name {n},p{n},{kind},-{c}",
    "above-cap": "{id},Name {n},p{n},{kind},2147483648",
    "unknown-type": "{id},Name {n},p{n},poster,{c}",
    "wrong-arity": "{id},Name {n},{kind},{c}",
    "plus-sign": "{id},Name {n},p{n},{kind},+{c}",
    "blank": "",
    "bare-cr": "{id},Name {n},p{n},{kind},{c}\r{id},Name,q{n},{kind},{c}",
}
COMMON = ["plain", "plain", "plain", "quoted-name", "quoted-name", "quote-all", "quote-nonnumeric", "quoted-id"]


@st.composite
def schema_a_files(draw):
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = draw(st.sampled_from(HEADER_LINES))
    kinds = st.sampled_from(COMMON * 8 + list(RECORDS))
    records = draw(
        st.lists(
            st.tuples(kinds, st.sampled_from(JOURNAL_IDS), st.sampled_from(KINDS), st.integers(0, 99)),
            max_size=60,
        )
    )
    if draw(st.booleans()):  # in journal runs, else in the order drawn
        records.sort(key=lambda r: r[1])
    lines = [
        RECORDS[record].format(id=jid, n=n, kind=kind, c=c, eol=eol)
        for n, (record, jid, kind, c) in enumerate(records)
    ]
    bom, final_eol = draw(st.booleans()), draw(st.booleans())
    return schema_a(lines, eol=eol, bom=bom, final_eol=final_eol, header=header)


class TestChunkedAgainstCsv:
    """The chunked parse gives what csv gives reading every row (csv_only)."""

    # csv reads the header over as many reads as it takes, so any size works.
    @settings(max_examples=300, deadline=None)
    @given(raw=schema_a_files(), tiny=st.integers(1, 64))
    def test_chunked_parse_equals_a_csv_read(self, raw, tiny):
        expected = csv_only(raw)
        for chunk in (ingest._CHUNK_BYTES, tiny):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ingest, "_CHUNK_BYTES", chunk)
                assert parse_outcome(raw) == expected

    @pytest.mark.parametrize(
        "lines, first_name",
        [
            (['J,"Two\nLines",p1,article,5', "A,Alpha,p2,article,2",
              "J,Plain Name,p3,article,3", "J,Plain Name,p4,review,7"], "Two\nLines"),
            (["J,Plain Name,p1,article,3", "A,Alpha,p2,article,2",
              'J,"Two\nLines",p3,article,5', 'J,"Two\nLines",p4,review,7'], "Plain Name"),
        ],
        ids=["csv-read-first", "plain-first"],
    )
    @pytest.mark.parametrize("chunk", [16, 64])
    def test_a_journal_keeps_its_first_place_and_name_across_stages(self, lines, first_name, chunk):
        # J's first row is read by csv (its name spans two lines) and its
        # later rows are plain lines in later chunks, under another name, or
        # the other way round: J stays first, under its first row's name.
        # A chunk of a few bytes would send every line to csv.
        raw = schema_a(lines)
        expected = csv_only(raw)
        journals = expected[0][0]
        assert [(journal_id, agg.name) for journal_id, agg in journals] == [("J", first_name), ("A", "Alpha")]
        assert (journals[0][1].total_citations, journals[0][1].n_2y, journals[0][1].top_cited) == (15, 3, 7)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_BYTES", chunk)
            assert parse_outcome(raw) == expected

    @staticmethod
    def assert_csv_reads_only_the_rejected_rows(monkeypatch, raw, middle):
        """The parse of ``raw`` equals csv_only(raw), and the csv row loop
        reads only the two rows named Rejected, at lines middle + 2 and 3."""
        expected = csv_only(raw)
        read = []
        parse_rows = ingest._parse_paper_rows

        class CountingRows:
            def __init__(self, rows):
                self.rows = rows

            def __iter__(self):
                for row in self.rows:
                    read.append(row)
                    yield row

            @property
            def line_num(self):
                return self.rows.line_num

        monkeypatch.setattr(
            ingest, "_parse_paper_rows", lambda rows, *args: parse_rows(CountingRows(rows), *args)
        )
        assert parse_outcome(raw) == expected
        assert [row[1] for row in read] == ["Rejected", "Rejected"]
        assert [message.split(":")[0] for message in expected[1]] == [f"line {middle + 2}", f"line {middle + 3}"]

    def test_csv_reads_only_the_records_that_are_not_plain(self, monkeypatch):
        # a papers-mixed-shaped file: quoted names, shuffled rows, CRLF, and
        # two rejected rows in the middle
        rng = random.Random(7)
        lines = [
            f'M{j:03d},"Annales de Física, Série {j}",M{j:03d}-{p},{rng.choice(KINDS)},{rng.randint(0, 40)}'
            for j in range(300)
            for p in range(rng.randint(2, 12))
        ]
        rng.shuffle(lines)
        middle = len(lines) // 2
        lines[middle:middle] = ["M007,Rejected,M007-X1,article,-3", "M011,Rejected,M011-X2,editorial,4"]
        self.assert_csv_reads_only_the_rejected_rows(monkeypatch, schema_a(lines, eol="\r\n"), middle)

    @pytest.mark.parametrize(
        "quoting", [csv.QUOTE_ALL, csv.QUOTE_NONNUMERIC], ids=["quote-all", "quote-nonnumeric"]
    )
    def test_csv_reads_only_the_rejected_rows_of_a_quoted_export(self, monkeypatch, quoting):
        # as csv.writer writes every field or every string quoted, the header
        # included, with CRLF; two rejected rows in the middle
        rng = random.Random(11)
        rows = [
            [f"Q{j:03d}", f"Revue, {j}", f"Q{j:03d}-{p}", rng.choice(KINDS), rng.randint(0, 40)]
            for j in range(300)
            for p in range(rng.randint(2, 12))
        ]
        rng.shuffle(rows)
        middle = len(rows) // 2
        rows[middle:middle] = [["Q007", "Rejected", "Q007-X1", "article", -3], ["Q011", "Rejected", "Q011-X2", "editorial", 4]]
        out = io.StringIO()
        csv.writer(out, quoting=quoting, lineterminator="\r\n").writerows([PAPER_HEADER] + rows)
        raw = out.getvalue().encode()
        assert raw.startswith(b'"journal_id","journal_name",')
        self.assert_csv_reads_only_the_rejected_rows(monkeypatch, raw, middle)

    def test_csv_reads_a_buffer_of_cr_lines_at_once(self, monkeypatch):
        # After an LF header, rows that end in a bare "\r" hold no "\n", so
        # every buffer is one line longer than a chunk to the chunked stage.
        # csv must read all of a buffer's records per call: one call per
        # record splits the rest of the buffer again for each, which is
        # quadratic in the buffer size.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1024)
        rows = filler_rows(40 * 1024)
        raw = schema_a([",".join(row) for row in rows], eol="\r")
        raw = raw.replace(b"\r", b"\n", 1)
        expected = csv_only(raw)
        reads, calls = [], []
        more, csv_records = ingest._InputReader.more, _chunked._csv_records

        def counting_more(self, size):
            reads.append(size)
            return more(self, size)

        def counting_csv_records(*args):
            calls.append(args)
            return csv_records(*args)

        monkeypatch.setattr(ingest._InputReader, "more", counting_more)
        monkeypatch.setattr(_chunked, "_csv_records", counting_csv_records)
        assert parse_outcome(raw) == expected
        assert len(reads) >= 30 and len(rows) > 1000
        assert len(calls) <= 2 * len(reads)

    def test_chunk_size_is_the_one_in_ingest(self, monkeypatch):
        # The tests above set ingest._CHUNK_BYTES for the chunked stage; a
        # copy of it in _chunked would leave them parsing 128 KiB chunks.
        assert not hasattr(_chunked, "_CHUNK_BYTES")
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1024)
        rows = filler_rows(40 * 1024)
        raw = schema_a([",".join(row) for row in rows])
        chunks = []
        chunk = _chunked._Chunk

        def recording_chunk(data, table):
            chunks.append(len(data))
            return chunk(data, table)

        monkeypatch.setattr(_chunked, "_Chunk", recording_chunk)
        assert parse_outcome(raw) == csv_only(raw)
        assert len(chunks) >= 30 and max(chunks) <= 2 * 1024


# text pieces: line ends, multibyte characters and a BOM that is data, not
# a byte order mark
READER_PIECES = ["a,b", '"q\nr"', "x", "\n", "\r\n", "\r", "é", "€", "𝄞", "\ufeff"]
# an invalid byte, a stray continuation byte and cut-off sequences
INVALID = [b"\xff", b"\x80", b"\xe2\x82", b"\xc3"]


@st.composite
def reader_inputs(draw):
    """Bytes with a leading BOM or not, and at most one invalid sequence,
    whose offset is given (None for none)."""
    pieces = [piece.encode() for piece in draw(st.lists(st.sampled_from(READER_PIECES), max_size=40))]
    bad = None
    if draw(st.booleans()):
        at = draw(st.integers(0, len(pieces)))
        bad = len(b"".join(pieces[:at]))
        pieces.insert(at, draw(st.sampled_from(INVALID)))
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + b"".join(pieces), None if bad is None else len(bom) + bad


def text_stream_lines(data, bad):
    """The lines a ``newline=""`` text stream reads from ``data``, up to the
    invalid byte at ``bad`` if there is one, and the error that byte raises.

    A line is given before the invalid byte only if it ends in ``\\n``: a
    line that does not may go on after it, and ``\\r`` may start ``\\r\\n``.
    """
    end = len(data) if bad is None else bad
    lines = list(io.TextIOWrapper(io.BytesIO(data[:end]), encoding="utf-8-sig", newline=""))
    if bad is None:
        return lines, None
    if lines and not lines[-1].endswith("\n"):
        lines.pop()
    line = data.count(b"\n", 0, bad) + 1
    return lines, (f"invalid UTF-8 byte 0x{data[bad]:02x} at offset {bad} (line {line})", line)


def reader_lines(data, serve):
    """The lines that ``serve(reader, lines)`` appends to ``lines`` from an
    _InputReader over ``data``, and the error the reader raises if any."""
    reader = ingest._InputReader(io.BytesIO(data))
    lines = []
    try:
        serve(reader, lines)
    except MalformedRowError as exc:
        return lines, (str(exc), exc.line)
    assert reader.hasher.hexdigest() == hashlib.sha256(data).hexdigest()
    return lines, None


class TestInputReader:
    """The reader splits lines as a text stream opened with ``newline=""``
    does, which csv needs, at any read size."""

    @settings(max_examples=500, deadline=None)
    @given(found=reader_inputs(), chunk=st.integers(1, 64), switch=st.integers(0, 50))
    def test_lines_equal_a_text_stream(self, found, chunk, switch):
        data, bad = found
        expected = text_stream_lines(data, bad)

        def one_generator(reader, lines):
            lines.extend(reader.lines())

        def fresh_generator(reader, lines):
            lines.extend(itertools.islice(reader.lines(), switch))
            lines.extend(reader.lines())

        def stop_then_past_it(reader, lines):
            # a stop at the switch-th line end in the buffer, then on past it
            reader.more(chunk)
            ends = [at + 1 for at, byte in enumerate(reader.data) if byte == ord("\n")]
            stop = ends[switch % len(ends)] if ends else None
            served = reader.lines(stop)
            if stop is not None:
                before = io.TextIOWrapper(io.BytesIO(reader.data[:stop]), encoding="utf-8", newline="")
                lines.extend(itertools.islice(served, len(list(before))))
                assert reader.pos == stop
            lines.extend(served)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_BYTES", chunk)
            for serve in (one_generator, fresh_generator, stop_then_past_it):
                assert reader_lines(data, serve) == expected, serve.__name__


class TestParseAggregate:
    def test_fixture_file(self, absolute_fixture):
        corpus, log = parse_aggregate(absolute_fixture)
        assert len(corpus.journals) == 10
        assert log.journals_kept == 10
        assert log.rows_read == 10
        agg = corpus.journals["LIVING REV RELATIV"]
        assert (agg.total_citations, agg.n_2y, agg.top_cited) == (112, 6, 87)

    def test_invariant_violation_rejected(self):
        rows = [("J", "Journal J", 5, 3, 6)]  # top > total
        corpus, log = parse_aggregate(journals_csv(rows))
        assert len(corpus.journals) == 0
        assert log.rows_rejected == 1

    def test_top_paper_below_average_rejected(self, caplog):
        rows = [("J1", "A", 100, 10, 2), ("K", "Kappa", 14, 2, 11)]  # J1: 10 * 2 < 100
        with caplog.at_level(logging.WARNING, logger="volatix.ingest"):
            corpus, log = parse_aggregate(journals_csv(rows))
        assert list(corpus.journals) == ["K"]
        assert (log.rows_read, log.rows_rejected, log.citations_removed) == (2, 1, 100)
        assert [r.getMessage() for r in caplog.records] == [
            "line 2: journal 'J1': top_cited 2 below the average 100/10, row rejected"
        ]

    def test_empty_file(self):
        corpus, log = parse_aggregate(io.BytesIO(b""))
        assert len(corpus.journals) == 0
        assert log == CleaningLog()
        corpus, log = parse_paper_level(io.BytesIO(b""))
        assert (len(corpus), log, corpus.provenance.schema) == (0, CleaningLog(), "papers")

    def test_header_only(self):
        corpus, log = parse_aggregate(journals_csv([]))
        assert len(corpus.journals) == 0
        assert log.rows_read == 0

    def test_duplicate_journal_first_wins(self):
        rows = [
            ("J", "First", 10, 4, 6),
            ("J", "Second", 99, 9, 50),
        ]
        corpus, log = parse_aggregate(journals_csv(rows))
        assert corpus.journals["J"].name == "First"
        assert log.duplicates_removed == 1

    @pytest.mark.parametrize("text", ["1_0", " +3 ", "\u0663"])
    def test_counts_must_be_ascii_digits(self, text):
        with pytest.raises(MalformedRowError) as exc:
            parse_aggregate(journals_csv([("J", "Journal J", 10, 5, 6), ("K", "K", 9, text, 4)]))
        assert (exc.value.line, exc.value.column) == (3, "n_2y")

    def test_wrong_header_raises(self):
        with pytest.raises(MalformedRowError):
            parse_aggregate(io.BytesIO(b"a,b,c\n1,2,3\n"))

    @pytest.mark.parametrize("n_2y", [MAX_CITATIONS + 1, 10**2999], ids=["cap+1", "3000-digits"])
    def test_n_2y_above_cap_rejected(self, n_2y, caplog):
        rows = [("J", "Journal J", 10, 5, 6), ("B", "Big", 7, n_2y, 4), ("K", "K", 9, MAX_CITATIONS, 4)]
        with caplog.at_level(logging.WARNING, logger="volatix.ingest"):
            corpus, log = parse_aggregate(journals_csv(rows))
        assert list(corpus.journals) == ["J", "K"]
        assert (log.rows_read, log.rows_rejected) == (3, 1)
        assert [r.getMessage() for r in caplog.records] == ["line 3: n_2y out of range, row rejected"]
        assert log.citations_read == log.citations_kept + log.citations_removed == 19


def reference_aggregate_parse(raw: bytes):
    """Schema-B rows the two-step way: a generator of checked aggregates, each
    built with its checks and any fault raised and caught, then the cleaning
    rules one aggregate at a time.  This is the row loop the one-pass loop of
    ingest replaced, plus the rule that an empty journal_id is a rejected row.
    Returns (journals, CleaningLog)."""
    log = CleaningLog()

    def aggregate_rows(rows):
        for row in rows:
            line = rows.line_num  # the header is line 1
            if len(row) != 5:
                raise MalformedRowError(f"expected 5 fields, got {len(row)}", line)
            journal_id, name, total_text, n_text, top_text = row
            total = _parse_count(total_text, line, "total_citations")
            n_2y = _parse_count(n_text, line, "n_2y")
            top = _parse_count(top_text, line, "top_paper_citations")
            log.rows_read += 1
            bad_citations = not (0 <= total <= MAX_CITATIONS and 0 <= top <= MAX_CITATIONS)
            if bad_citations or n_2y > MAX_CITATIONS:
                log.rows_rejected += 1
                field = "citation count" if bad_citations else "n_2y"
                ingest.logger.warning("line %d: %s out of range, row rejected", line, field)
                continue
            log.citations_read += total
            try:
                if not journal_id:
                    raise InvalidAggregateError("empty journal_id")
                yield JournalAggregate(journal_id, name, total, n_2y, top)
            except InvalidAggregateError as exc:
                log.rows_rejected += 1
                log.citations_removed += total
                ingest.logger.warning("line %d: %s, row rejected", line, exc)

    def clean_into(journals, seen, agg):
        if agg.journal_id in seen:
            log.duplicates_removed += 1
            log.citations_removed += agg.total_citations
            ingest.logger.info("journal %r: duplicate entry dropped", agg.journal_id)
            return
        seen.add(agg.journal_id)
        if agg.total_citations == 0:
            log.zero_or_na_removed += 1
            ingest.logger.info("journal %r removed: zero citations", agg.journal_id)
            return
        if agg.n_2y == 1:
            log.singletons_excluded += 1
        journals[agg.journal_id] = agg
        log.citations_kept += agg.total_citations

    text = raw.decode("utf-8")
    rows = csv.reader(io.StringIO(text, newline=""))
    assert next(rows) == AGGREGATE_HEADER
    journals, seen = {}, set()
    for agg in aggregate_rows(rows):
        clean_into(journals, seen, agg)
    log.journals_kept = len(journals)
    return journals, log


# count texts: in range, out of range, signed, odd (refused), long, and too
# long for int()
GOOD_COUNTS = st.integers(0, 12).map(str)
ODD_COUNTS = st.sampled_from(
    ["-1", "-0", "007", "2147483647", "2147483648", "9" * 31, "1" + "0" * 2999, "1" * 5000,
     "", "1_0", " 3", "+3", "\u0663", "3.0", "x"]
)
SCHEMA_B_IDS = ["A", "B", "Zé", "", " ", "a,b"]


@st.composite
def schema_b_rows(draw):
    """Schema-B rows over a few ids, so that duplicates are common and follow
    rejected rows and zero rows; most counts are small and in range, which
    makes invariant violations and zero totals common too."""
    count = st.one_of(GOOD_COUNTS, GOOD_COUNTS, GOOD_COUNTS, ODD_COUNTS)
    row = st.tuples(st.sampled_from(SCHEMA_B_IDS), st.sampled_from(["N", "Nom, é"]), count, count, count)
    rows = [list(r) for r in draw(st.lists(row, max_size=25))]
    if rows and draw(st.integers(0, 9)) == 0:  # one row of the wrong arity
        rows[draw(st.integers(0, len(rows) - 1))].pop()
    return rows


def aggregate_outcome(parse, raw):
    """The corpus items and log that ``parse`` makes of ``raw``, or the
    error's message, line and column; and its INFO-or-above messages."""
    handler = ListHandler()
    handler.setLevel(logging.INFO)
    ingest.logger.addHandler(handler)
    level = ingest.logger.level
    ingest.logger.setLevel(logging.INFO)
    try:
        journals, log = parse(raw)
        outcome = (list(journals.items()), log)
    except MalformedRowError as exc:
        outcome = (str(exc), exc.line, exc.column)
    finally:
        ingest.logger.setLevel(level)
        ingest.logger.removeHandler(handler)
    return outcome, handler.messages


def one_pass_parse(raw: bytes):
    corpus, log = parse_aggregate(io.BytesIO(raw))
    assert corpus.provenance.digest == hashlib.sha256(raw).hexdigest()
    return corpus.journals, log


class TestOnePassAggregateRows:
    """The one-pass Schema-B loop against the two-step reference."""

    @settings(max_examples=400, deadline=None)
    @given(rows=schema_b_rows(), eol=st.sampled_from(["\n", "\r\n"]))
    @example(rows=[["A", "N", "0", "2", "0"], ["A", "N", "9", "3", "5"]], eol="\n")  # after a zero row
    @example(rows=[["A", "N", "9", "3", "1"], ["A", "N", "9", "3", "5"], ["A", "N", "9", "3", "4"]], eol="\n")
    @example(rows=[["", "N", "4", "2", "3"], ["A", "N", "4", "1", "3"], ["A", "N", "9", "0", "0"]], eol="\n")
    def test_one_pass_equals_the_reference(self, rows, eol):
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator=eol).writerows([AGGREGATE_HEADER] + rows)
        raw = buf.getvalue().encode("utf-8")
        found = aggregate_outcome(one_pass_parse, raw)
        assert found == aggregate_outcome(reference_aggregate_parse, raw)
        outcome, _ = found
        if len(outcome) == 2:  # parsed, not refused
            journals, log = outcome
            assert log.citations_read == log.citations_kept + log.citations_removed
            assert log.citations_kept == sum(agg.total_citations for _, agg in journals)


class TestEmptyJournalIds:
    """An empty journal_id is a rejected row, in either schema and stage."""

    @pytest.mark.parametrize("stage", ["chunked", "csv"])
    def test_schema_a_rows_are_rejected(self, stage, caplog, monkeypatch):
        raw = schema_a([",,p1,article,3", "J,Jay,p2,article,4", ",,p3,article,1", "J,Jay,p4,review,2"])
        if stage == "csv":  # the row loop alone, as reference
            read_every_row_with_csv(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="volatix.ingest"):
            corpus, log = parse_paper_level(io.BytesIO(raw))
        assert list(corpus.journals) == ["J"]
        assert (log.rows_read, log.rows_rejected, log.journals_kept) == (4, 2, 1)
        assert (log.citations_read, log.citations_kept, log.citations_removed) == (10, 6, 4)
        assert [r.getMessage() for r in caplog.records] == [
            "line 2: empty journal_id, row rejected",
            "line 4: empty journal_id, row rejected",
        ]

    def test_schema_b_row_is_rejected(self, caplog):
        rows = [("", "", 4, 2, 3), ("K", "Kappa", 14, 2, 11), ("", "Again", 5, 5, 1)]
        with caplog.at_level(logging.WARNING, logger="volatix.ingest"):
            corpus, log = parse_aggregate(journals_csv(rows))
        assert list(corpus.journals) == ["K"]
        assert (log.rows_read, log.rows_rejected, log.duplicates_removed) == (3, 2, 0)
        assert (log.citations_read, log.citations_kept, log.citations_removed) == (23, 14, 9)
        assert [r.getMessage() for r in caplog.records] == [
            "line 2: empty journal_id, row rejected",
            "line 4: empty journal_id, row rejected",
        ]


    def test_dedupe_rejects_an_empty_id(self, caplog):
        aggs = [
            JournalAggregate("", "", 4, 2, 3),
            JournalAggregate("A", "A", 4, 2, 3),
            JournalAggregate("", "Again", 6, 3, 2),
        ]
        with caplog.at_level(logging.WARNING, logger="volatix.ingest"):
            corpus, log = dedupe_and_filter(aggs)
        assert list(corpus.journals) == ["A"]
        assert (log.rows_read, log.rows_rejected, log.journals_kept) == (3, 2, 1)
        assert (log.citations_read, log.citations_kept, log.citations_removed) == (14, 4, 10)
        assert log.duplicates_removed == log.zero_or_na_removed == 0
        assert [r.getMessage() for r in caplog.records] == [
            "row 1: empty journal_id, row rejected",
            "row 3: empty journal_id, row rejected",
        ]


class TestHeapTrim:
    def test_each_chunked_parse_trims_the_heap_once(self, monkeypatch, papers_sample):
        calls = []

        class FakeLibc:
            def malloc_trim(self, pad):
                calls.append(pad)

        monkeypatch.setattr(_chunked, "_GLIBC", FakeLibc())
        load_corpus(papers_sample)
        assert calls == [0]
        parse_aggregate(journals_csv([("J", "J", 5, 2, 3)]))
        assert calls == [0]  # Schema B does not trim
        parse_paper_level(io.BytesIO(schema_a(["J,Jay,p1,article,4"], header=HEADER_LINES[1])))
        assert calls == [0, 0]  # every Schema-A parse does, whatever its header
        monkeypatch.setattr(_chunked, "_GLIBC", None)  # off glibc: nothing to call
        corpus, _ = load_corpus(papers_sample)
        assert corpus.journals


class TestDedupeAndFilter:
    def agg(self, jid, total, n=5, top=None):
        top = total if top is None else top
        if n == 1:
            top = total
        return JournalAggregate(jid, jid, total, n, min(top, total))

    def test_duplicate_collapsed(self):
        corpus, log = dedupe_and_filter([self.agg("A", 10), self.agg("A", 20)])
        assert corpus.journals["A"].total_citations == 10
        assert log.duplicates_removed == 1

    def test_zero_citation_journal_removed(self):
        corpus, log = dedupe_and_filter([self.agg("A", 10), self.agg("Z", 0)])
        assert "Z" not in corpus.journals
        assert log.zero_or_na_removed == 1

    def test_zero_first_occurrence_still_shadows_duplicates(self):
        corpus, log = dedupe_and_filter([self.agg("A", 0), self.agg("A", 20)])
        assert "A" not in corpus.journals
        assert log.duplicates_removed == 1
        assert log.zero_or_na_removed == 1

    def test_clean_corpus_untouched(self):
        aggs = [self.agg(f"J{i}", 10 + i) for i in range(100)]
        corpus, log = dedupe_and_filter(aggs)
        assert len(corpus.journals) == 100
        assert log.duplicates_removed == 0
        assert log.zero_or_na_removed == 0
        assert log.rows_read == 100
        assert log.journals_kept == 100

    def test_idempotent(self):
        aggs = [self.agg("A", 10), self.agg("A", 20), self.agg("Z", 0), self.agg("S", 4, n=1)]
        once, _ = dedupe_and_filter(aggs)
        twice, log2 = dedupe_and_filter(once)
        assert twice.journals == once.journals
        assert log2.duplicates_removed == 0
        assert log2.zero_or_na_removed == 0

    def test_provenance_kept_from_a_corpus_only(self, absolute_fixture):
        parsed, _ = parse_aggregate(absolute_fixture)
        cleaned, _ = dedupe_and_filter(parsed)
        assert cleaned.provenance is parsed.provenance
        assert cleaned.journals == parsed.journals
        bare, _ = dedupe_and_filter(parsed.journals.values())
        assert bare.provenance is None
        assert bare.journals == parsed.journals

    def test_exact_accounting(self):
        aggs = [self.agg("A", 10), self.agg("A", 20), self.agg("Z", 0), self.agg("B", 7)]
        corpus, log = dedupe_and_filter(aggs)
        assert log.rows_read == log.journals_kept + log.duplicates_removed + log.zero_or_na_removed
        assert log.citations_read == log.citations_kept + log.citations_removed

    @given(
        totals=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 100)), min_size=0, max_size=40
        )
    )
    def test_accounting_holds_for_arbitrary_input(self, totals):
        aggs = [self.agg(f"J{jid}", total) for jid, total in totals]
        corpus, log = dedupe_and_filter(aggs)
        assert log.rows_read == len(aggs)
        assert log.rows_read == log.journals_kept + log.duplicates_removed + log.zero_or_na_removed
        assert log.citations_read == log.citations_kept + log.citations_removed
        assert log.citations_kept == sum(a.total_citations for a in corpus.journals.values())


class TestSerialization:
    def test_cleaning_log_json_has_exactly_five_fields(self):
        log = CleaningLog(rows_read=7, journals_kept=3, citations_read=55)
        data = json.loads(log.to_json())
        assert sorted(data) == [
            "duplicates_removed",
            "journals_kept",
            "rows_read",
            "singletons_excluded",
            "zero_or_na_removed",
        ]
        assert data["rows_read"] == 7

    def test_write_then_parse_round_trip(self, absolute_fixture, tmp_path):
        corpus, _ = parse_aggregate(absolute_fixture)
        out = tmp_path / "journals.csv"
        write_journals_csv(corpus, out)
        reparsed, _ = parse_aggregate(out)
        assert reparsed.journals == corpus.journals

    def test_provenance_digest_and_schema(self, absolute_fixture):
        corpus, _ = parse_aggregate(absolute_fixture)
        expected = hashlib.sha256(absolute_fixture.read_bytes()).hexdigest()
        assert corpus.provenance.digest == expected
        assert corpus.provenance.schema == "journals"

    def test_sniff_schema(self, absolute_fixture, papers_sample, tmp_path):
        assert sniff_schema(absolute_fixture) == "journals"
        assert sniff_schema(papers_sample) == "papers"
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n")
        with pytest.raises(MalformedRowError):
            sniff_schema(bad)
        # load_corpus decides the same way: an empty file or an invalid byte in
        # the header raises what sniff_schema raises
        for raw, message in [
            (b"", "unrecognized header None"),
            (b"journal_id,journal_n\xe4me,n_2y\n", "invalid UTF-8 byte 0xe4 at offset 20"),
        ]:
            bad.write_bytes(raw)
            for read in (sniff_schema, load_corpus):
                with pytest.raises(MalformedRowError) as exc:
                    read(bad)
                assert (str(exc.value), exc.value.line) == (f"{message} (line 1)", 1)

    def test_load_corpus_both_schemas(self, absolute_fixture, papers_sample):
        agg_corpus, _ = load_corpus(absolute_fixture)
        paper_corpus, _ = load_corpus(papers_sample)
        assert agg_corpus.provenance.schema == "journals"
        assert paper_corpus.provenance.schema == "papers"
        assert paper_corpus.journals["QJ-A"].total_citations == 5
        # a named schema refuses the other's header, a plain Schema-A one included
        for parse, path, header, expected in [
            (parse_aggregate, papers_sample, PAPER_HEADER, AGGREGATE_HEADER),
            (parse_paper_level, absolute_fixture, AGGREGATE_HEADER, PAPER_HEADER),
        ]:
            with pytest.raises(MalformedRowError) as exc:
                parse(path)
            assert str(exc.value) == f"bad header {header!r}, expected {expected!r} (line 1)"

    @pytest.mark.parametrize("fixture", ["absolute_fixture", "papers_sample"])
    def test_load_corpus_opens_its_input_once(self, fixture, request, monkeypatch, tmp_path):
        opened, readers, sources = [], [], []
        csv_reader = ingest.csv.reader

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        class CountingReader(ingest._InputReader):
            def __init__(self, raw):
                readers.append(self)
                super().__init__(raw)

        def recording_csv_reader(lines, *args, **kwargs):
            # csv reads only the lines generator of a reader
            assert lines.gi_code is ingest._InputReader.lines.__code__
            sources.append(lines.gi_frame.f_locals["self"])
            return csv_reader(lines, *args, **kwargs)

        monkeypatch.setattr(ingest, "open", counting_open, raising=False)
        monkeypatch.setattr(ingest, "_InputReader", CountingReader)
        path = request.getfixturevalue(fixture)
        corpus, _ = load_corpus(path)
        assert (opened, len(readers)) == ([path], 1)
        assert corpus.provenance.digest == hashlib.sha256(path.read_bytes()).hexdigest()
        # sniff_schema, and a read after a quoted header (Schema B or Schema A
        # by the fixture): one reader each, that csv reads from
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(b'"journal_id"' + path.read_bytes()[len(b"journal_id") :])
        monkeypatch.setattr(ingest.csv, "reader", recording_csv_reader)
        for read, source in [(load_corpus, path), (sniff_schema, path), (load_corpus, quoted)]:
            del opened[:], readers[:], sources[:]
            read(source)
            assert (opened, len(readers)) == ([source], 1)
            assert sources and all(lines_of is readers[0] for lines_of in sources)


class TestAtomicOut:
    """A path given to the writers is replaced only once every row is written."""

    @staticmethod
    def failing_rows(exc):
        yield ["a", 1]
        raise exc

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt()])
    def test_failed_write_keeps_the_old_file(self, tmp_path, exc):
        out = tmp_path / "out.csv"
        out.write_bytes(b"old bytes\n")
        with pytest.raises(type(exc)):
            ingest.write_csv(out, ["h", "n"], self.failing_rows(exc))
        assert out.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_write_leaves_no_new_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            ingest.write_csv(tmp_path / "new.csv", ["h", "n"], self.failing_rows(RuntimeError()))
        assert os.listdir(tmp_path) == []

    def test_modes(self, tmp_path):
        old = tmp_path / "old.csv"
        old.write_bytes(b"old\n")
        old.chmod(0o640)
        umask = os.umask(0o027)
        try:
            ingest.write_csv(old, ["h"], [[1]])
            ingest.write_csv(tmp_path / "new.csv", ["h"], [[1]])
        finally:
            os.umask(umask)
        assert old.read_bytes() == b"h\n1\n"
        assert old.stat().st_mode & 0o777 == 0o640
        assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "target.csv"
        target.write_bytes(b"old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        ingest.write_json(link, {"a": 1})
        assert link.is_symlink()
        assert target.read_bytes() == b'{\n  "a": 1\n}\n'
        assert sorted(os.listdir(tmp_path / "data")) == ["target.csv"]

    def test_dev_stdout_is_written_in_place(self, absolute_fixture, tmp_path):
        argv = [sys.executable, "-m", "volatix", "rank", str(absolute_fixture)]
        expected = subprocess.run(argv, capture_output=True, check=True).stdout
        argv += ["--out", "/dev/stdout"]
        assert subprocess.run(argv, capture_output=True, check=True).stdout == expected
        # stdout redirected to a regular file: that file, not a replacement
        path = tmp_path / "stdout.csv"
        with open(path, "wb") as stdout:
            inode = os.fstat(stdout.fileno()).st_ino
            subprocess.run(argv, stdout=stdout, check=True)
        assert (path.stat().st_ino, path.read_bytes()) == (inode, expected)

