"""Streaming ingest and cleaning of journal citation-report CSV files.

Two canonical schemas are accepted (UTF-8, comma-separated, double-quote
escaping, mandatory header, LF or CRLF):

* Schema A, per-paper (``papers.csv``)::

      journal_id,journal_name,paper_id,item_type,citations

  with ``item_type`` one of ``article``, ``review``, ``front_matter``.
  Only articles and reviews count toward a journal's C and N_2Y.

* Schema B, aggregate (``journals.csv``)::

      journal_id,journal_name,total_citations,n_2y,top_paper_citations

The header decides the schema.  :func:`load_corpus` and the two parsers share
one entry that opens the input once and reads it once: a header that names a
schema other than the one asked for raises ``bad header``, one of neither
schema raises ``unrecognized header``, and an empty input is an empty corpus
when a schema is named.

Parsing is a single pass with memory proportional to the number of journals,
never the number of rows.  Cleaning mirrors the usual report hygiene:
duplicate journal ids are collapsed (first occurrence wins), journals with
zero or unavailable citation output are dropped, and single-paper journals
are kept but flagged, since their top-paper decomposition is undefined.
Nothing is dropped silently: every removal lands in the CleaningLog, and the
citation totals reconcile exactly (``citations_read == citations_kept +
citations_removed``).

Structurally unreadable rows (wrong arity, counts that are not ASCII digits
with an optional leading ``-``, a field over ``csv.field_size_limit()``) raise
:class:`~volatix.errors.MalformedRowError` with the line number; rows that are
readable but invalid (negative counts, counts or an ``n_2y`` above
MAX_CITATIONS, unknown item types, violated count invariants) are rejected and
logged instead.

Every byte of an input file is read once, through one reader and its one
buffer.  The reader hashes each byte for the provenance digest, checks that
it is UTF-8 and drops a BOM at the start; it splits lines for ``csv`` itself,
at ``\\n``, ``\\r\\n`` or a bare ``\\r``, as a text stream opened with
``newline=""`` does, with one ``bytes.splitlines`` of each buffer for every
``csv`` read.  Every row wholly before the first invalid byte is parsed, and
then the parse raises
``MalformedRowError("invalid UTF-8 byte 0xe9 at offset 73", line=2)``, with
the byte's 0-based offset in the file.  ``csv`` reads the header line of
either schema.

Schema A is parsed in two stages, and only the input picks between them.
After a header spelled exactly as PAPER_HEADER, the input is read in chunks
of about 128 KiB, and numpy parses the lines of each.  A plain line (five
fields, a journal_id of at most 64 bytes, an item type spelled exactly, 1-10
ASCII digits of in-range citations, and no quote but an optional pair around
the whole name) is added
into per-journal numpy arrays, so Python work is per new journal rather than
per row.  Any other record (a blank line, a bad field, a rejected row, a
quote elsewhere, a quoted field spanning lines) goes through the ``csv`` row
loop on its own, in line order, with the same counters and line numbers, so
every error and warning comes from that loop; then the chunked stage goes on
after it.  A header that only ``csv`` reads (a quoted one, say) sends the
whole file there.  The acceptance gate times this parse of a million rows
with ``tracemalloc`` on, which charges every Python object, so the chunked
stage is what keeps it within its bound.
"""

from __future__ import annotations

import bisect
import codecs
import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import numpy as np

from .errors import InvalidAggregateError, MalformedRowError
from .metrics import MAX_CITATIONS, ItemType, JournalAggregate, PaperRecord

logger = logging.getLogger(__name__)

PAPER_HEADER = ["journal_id", "journal_name", "paper_id", "item_type", "citations"]
AGGREGATE_HEADER = [
    "journal_id",
    "journal_name",
    "total_citations",
    "n_2y",
    "top_paper_citations",
]
_HEADERS = {"papers": PAPER_HEADER, "journals": AGGREGATE_HEADER}

Source = Union[str, Path, BinaryIO]


@dataclass
class CleaningLog:
    """Audit counters for one ingest pass.

    The five core counters are the serialized interface (see
    :meth:`as_json_dict`).  The citation totals are kept alongside so the
    conservation identity can be checked exactly:

        citations_read == citations_kept + citations_removed

    where "read" covers every row whose counts parsed to in-range
    non-negative integers, "kept" is the sum over journals in the returned
    corpus, and "removed" accounts for front-matter rows, rejected rows,
    collapsed duplicates and filtered journals.  Rows with a count out of
    range (a negative citation count, or a citation count or ``n_2y`` above
    the 2^31 - 1 cap) appear only in ``rows_rejected``.
    """

    duplicates_removed: int = 0
    zero_or_na_removed: int = 0
    singletons_excluded: int = 0
    rows_read: int = 0
    journals_kept: int = 0
    # extra accounting, not part of the serialized form
    rows_rejected: int = 0
    citations_read: int = 0
    citations_kept: int = 0
    citations_removed: int = 0

    def as_json_dict(self) -> dict:
        return {
            "duplicates_removed": self.duplicates_removed,
            "zero_or_na_removed": self.zero_or_na_removed,
            "singletons_excluded": self.singletons_excluded,
            "rows_read": self.rows_read,
            "journals_kept": self.journals_kept,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_json_dict(), sort_keys=True)


@dataclass(frozen=True)
class Provenance:
    """Where a corpus came from: SHA-256 of the source bytes plus schema tag."""

    digest: str
    schema: str


@dataclass
class Corpus:
    """Cleaned journal aggregates, optionally with the raw per-paper records."""

    journals: dict[str, JournalAggregate]
    papers: Optional[list[PaperRecord]] = None
    provenance: Optional[Provenance] = None

    def __len__(self) -> int:
        return len(self.journals)


class _InputReader:
    """The one reader of an input file: a buffer, ``data``, read at ``pos``.

    :meth:`more` reads the next bytes from ``raw``.  It hashes each byte once,
    into ``hasher``, drops a BOM at the start of the input and keeps only
    valid UTF-8: a character split by a read waits for its last byte, and at
    the first invalid sequence only the bytes before it are kept.  The read
    after those raises MalformedRowError with the byte's 0-based offset in
    the file and its line, counted in LF line breaks.

    :meth:`lines` serves csv the lines from ``pos`` on, splitting each
    buffer once for every csv read.  A line ends at ``\\n``, ``\\r\\n`` or a
    bare ``\\r``, as in a text stream opened with ``newline=""``, so csv reads
    the lines a read of the whole input gives it.
    """

    def __init__(self, raw):
        self._raw = raw
        self.hasher = hashlib.sha256()
        self.data, self.pos = b"", 0
        self._split = b""  # the start of a character split by the last read
        self._offset = 0  # file offset of self._split
        self._lines = 1  # line of self._split
        self._error = None

    def more(self, size: int) -> bool:
        """Read up to ``size`` more bytes, dropping those before ``pos``; False,
        with ``data`` as it was, at the end of the input."""
        while True:
            if self._error is not None:
                raise self._error
            block = self._raw.read(size)
            self.hasher.update(block)
            data = self._split + block
            if not data:
                return False
            if data.isascii():
                valid = len(data)
            else:
                try:
                    valid = codecs.utf_8_decode(data, "strict", not block)[1]
                except UnicodeDecodeError as exc:
                    valid = exc.start
                    self._error = MalformedRowError(
                        f"invalid UTF-8 byte 0x{data[valid]:02x} "
                        f"at offset {self._offset + valid}",
                        line=self._lines + data.count(b"\n", 0, valid),
                    )
            self._split = data[valid:]
            if valid:
                bom = self._offset == 0 and data.startswith(codecs.BOM_UTF8)
                self._offset += valid
                self._lines += data.count(b"\n", 0, valid)
                self.data, self.pos = self.data[self.pos :] + data[len(codecs.BOM_UTF8) * bom : valid], 0
                return True

    def lines(self, stop: Optional[int] = None) -> Iterator[str]:
        """The lines from ``pos`` on, to the end of the input, moving ``pos``
        past each line served.  ``data[pos:stop]`` is split once, then the
        rest of the buffer and each later read once each; the last line of a
        split waits for the next unless it ends in ``\\n``, since a ``\\r`` may
        start ``\\r\\n``."""
        while True:
            lines = self.data[self.pos : stop].splitlines(keepends=True)
            if lines and not lines[-1].endswith(b"\n"):
                lines.pop()
            for line in lines:
                self.pos += len(line)
                yield line.decode("utf-8")
            if stop is not None and stop < len(self.data):
                stop = None
            elif not self.more(max(_CHUNK_BYTES, len(self.data) - self.pos)):
                break
        if self.pos < len(self.data):
            line, self.pos = self.data[self.pos :].decode("utf-8"), len(self.data)
            yield line


def _csv_error(exc: csv.Error, rows, first_line: int) -> MalformedRowError:
    """A csv.Error (a field over csv.field_size_limit(), or a NUL on Python
    3.10) from the csv.reader ``rows`` as MalformedRowError at its line;
    ``first_line`` lines precede those ``rows`` reads."""
    return MalformedRowError(str(exc), first_line + rows.line_num)


def _header(src: _InputReader, expected: Optional[str] = None) -> tuple[str, bool]:
    """Read the header line of ``src`` with csv and return its schema,
    'papers' or 'journals', and whether its bytes are a PAPER_HEADER line
    spelled exactly, which the chunked stage reads after.

    With ``expected`` named, any other header raises ``bad header``, and an
    empty input is that schema with no rows; otherwise a header of neither
    schema, or none, raises ``unrecognized header``.
    """
    # The first read is two chunks.  glibc's malloc keeps freed heap for reuse
    # up to a size it raises to twice the largest block freed so far.  After a
    # first parse of only one chunk's lines that size stays small, and each
    # later chunk's numpy temporaries go back to the OS and are faulted in
    # again: 5e4 more page faults and about 0.15 s per 1e6 rows.
    src.more(2 * _CHUNK_BYTES)
    rows = csv.reader(src.lines())
    try:
        header = next(rows, None)
    except csv.Error as exc:
        raise _csv_error(exc, rows, 0) from None
    found = next((name for name, cols in _HEADERS.items() if header == cols), None)
    if expected is None and found is None:
        raise MalformedRowError(f"unrecognized header {header!r}", line=1)
    if expected is not None and header is not None and found != expected:
        raise MalformedRowError(
            f"bad header {header!r}, expected {_HEADERS[expected]!r}", line=1
        )
    return found or expected, src.data[: src.pos] in _PAPER_HEADER_LINES


def _parse_count(value: str, line: int, column: str) -> int:
    """ASCII digits with an optional leading ``-``; anything else, such as
    ``1_0``, `` +3 `` or non-ASCII digits, raises MalformedRowError."""
    if value.isascii() and (value.isdigit() or value[:1] == "-" and value[1:].isdigit()):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise MalformedRowError(
        f"cannot parse {column} value {value!r} as integer", line, column
    )


# Bytes per read of the chunked Schema-A parse.  Its numpy temporaries are a
# few times this, so it is kept small next to the CLI's resident memory.
_CHUNK_BYTES = 128 * 1024
# The longest journal_id of a plain line, so that no key is wider.
_MAX_ID_BYTES = 64
_PAPER_HEADER_LINES = tuple(
    ",".join(PAPER_HEADER).encode("ascii") + end for end in (b"\n", b"\r\n")
)
_ITEM_TYPES = tuple((kind.value.encode("ascii"), kind.citable) for kind in ItemType)
_MAX_DIGITS = len(str(MAX_CITATIONS))
_DIGIT_WEIGHTS = 10 ** np.arange(_MAX_DIGITS - 1, -1, -1, dtype=np.int64)
_LF, _CR, _COMMA, _QUOTE, _ZERO = b'\n\r,"0'
_KEY_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype="<u8")  # the first n bytes
_ITEM_KINDS = {kind.value: kind for kind in ItemType}


class _Records:
    """The records of the csv.reader ``rows`` over ``src`` that start before
    offset ``end`` of its buffer, as a csv.reader.  A read into a new buffer
    (see _InputReader.more) moves the offsets, and ends the records too."""

    def __init__(self, rows, src: _InputReader, end: int):
        self._rows, self._src, self._data, self._end = rows, src, src.data, end

    def __iter__(self):
        while self._src.data is self._data and self._src.pos < self._end:
            row = next(self._rows, None)
            if row is None:
                return
            yield row

    @property
    def line_num(self) -> int:
        return self._rows.line_num


def _csv_records(src: _InputReader, end: int, first_line: int, acc: dict, log) -> int:
    """Parse the records of ``src`` from ``pos`` that start before offset
    ``end`` of its buffer with the csv row loop; ``first_line`` lines precede
    them.  Returns the lines csv read."""
    rows = csv.reader(src.lines(end))
    try:
        _parse_paper_rows(_Records(rows, src, end), first_line, acc, log)
    except csv.Error as exc:
        raise _csv_error(exc, rows, first_line) from None
    return rows.line_num


class _Slots:
    """Citable totals, tops and counts of the lines the chunked stage takes,
    in int64 arrays indexed by journal slot.

    A sorted index per key type (see _id_keys) maps keys to slots.  A key not
    in it costs Python work once: :meth:`slot` gives its journal_id's slot,
    or a new one.  A new journal enters ``acc``, the row loop's journal_id ->
    [name, total, top, n_citable], unless the row loop put it there first;
    :meth:`fold` adds the arrays into ``acc`` at the end.
    """

    def __init__(self, acc: dict):
        self.acc = acc
        self.slots: dict[str, int] = {}  # journal_id -> slot
        # key dtype kind -> (sorted keys, their slots)
        self.index = {np.dtype(t).kind: (np.zeros(0, t), np.zeros(0, np.intp)) for t in ("<u8", "S1")}
        self.sums = np.zeros((3, 64), dtype=np.int64)  # total, top, n_citable

    def lookup(self, keys):
        """The slot of each key, -1 for a key not in the index."""
        known, slots = self.index[keys.dtype.kind]
        at = np.searchsorted(known, keys)
        found = at < len(known)
        found[found] = known[at[found]] == keys[found]
        out = np.full(len(keys), -1, dtype=np.intp)
        out[found] = slots[at[found]]
        return out

    def insert(self, keys, slots) -> None:
        """Index ``keys``, sorted and new to the index, at ``slots``."""
        known, known_slots = self.index[keys.dtype.kind]
        at = np.searchsorted(known, keys)
        known = known.astype(np.promote_types(known.dtype, keys.dtype), copy=False)
        self.index[keys.dtype.kind] = np.insert(known, at, keys), np.insert(known_slots, at, slots)

    def slot(self, journal_id: str, name: str) -> int:
        """The slot of ``journal_id``; a new journal is named ``name``."""
        slot = self.slots.get(journal_id)
        if slot is None:
            slot = self.slots[journal_id] = len(self.slots)
            self.acc.setdefault(journal_id, [name, 0, 0, 0])
            if slot == self.sums.shape[1]:
                self.sums = np.concatenate((self.sums, np.zeros_like(self.sums)), axis=1)
        return slot

    def add(self, slots, heads, citations, citable, log: CleaningLog) -> None:
        """Add lines that come in runs of one slot each, starting at ``heads``."""
        kept = np.where(citable, citations, 0)
        read = int(citations.sum())
        log.rows_read += len(citations)
        log.citations_read += read
        log.citations_removed += read - int(kept.sum())
        np.add.at(self.sums[0], slots, np.add.reduceat(kept, heads))
        np.maximum.at(self.sums[1], slots, np.maximum.reduceat(kept, heads))
        np.add.at(self.sums[2], slots, np.add.reduceat(citable, heads, dtype=np.int64))

    def fold(self) -> None:
        """Add the arrays into ``acc``."""
        for journal_id, total, top, n in zip(self.slots, *self.sums.tolist()):
            entry = self.acc[journal_id]
            entry[1] += total
            entry[2] = max(entry[2], top)
            entry[3] += n


# The chunked parse is split into small functions on purpose: under
# tracemalloc each allocation looks up its line number by scanning the line
# table of the function it happens in, so allocating late in a long function
# costs more.


class _Chunk:
    """Whole Schema-A lines, each ending in ``\\n``, parsed with numpy.

    A plain line is one that csv and the row loop of :func:`_parse_paper_rows`
    take the same way, without a warning (see _five_fields).  The chunk keeps
    where each line ends, and for its plain lines, in runs of one key, their
    counts and journal slots, found in the index or still to be given.
    """

    def __init__(self, data: bytes, table: _Slots):
        self.data = data
        b = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(b == _LF) + 1  # one past each line's end
        starts = np.concatenate(([0], ends[:-1]))
        lines, fields, quoted, self.citations, self.citable = _plain_lines(data, b, starts, ends)
        self.lines, self.n_lines = lines, len(ends)
        self.odd_runs = _odd_runs(lines, starts, ends)
        keys = _id_keys(b, starts[lines], fields[:, 0])
        run_start = np.ones(len(keys), dtype=bool)
        run_start[1:] = keys[1:] != keys[:-1]
        self.heads = np.flatnonzero(run_start)
        self.slots = table.lookup(keys[self.heads])
        # The runs whose key is not in the index; register finds their slots.
        self.unknown = np.flatnonzero(self.slots < 0)  # into heads
        at = self.heads[self.unknown]  # into lines
        self.unknown_keys, self.unknown_lines = keys[at], lines[at].tolist()
        id_end, quoted = fields[at, 0], quoted[at]
        bounds = (starts[lines[at]], id_end, id_end + 1 + quoted, fields[at, 1] - quoted)
        self.unknown_bounds = np.stack(bounds, axis=1).tolist()
        self.unknown_slots: list[int] = []

    def register(self, table: _Slots, before: int) -> None:
        """Find the slots, in line order, of the runs whose key is not in the
        index and that start before line ``before``."""
        stop = bisect.bisect_left(self.unknown_lines, before)
        for start, id_end, name_start, name_end in self.unknown_bounds[len(self.unknown_slots) : stop]:
            journal_id = self.data[start:id_end].decode("utf-8")
            name = self.data[name_start:name_end].decode("utf-8")
            self.unknown_slots.append(table.slot(journal_id, name))

    def add(self, table: _Slots, before: int, log: CleaningLog) -> int:
        """Add the plain lines before line ``before`` into ``table``; returns
        how many there are."""
        self.register(table, before)
        n = int(np.searchsorted(self.lines, before))
        if n == 0:
            return 0
        if self.unknown_slots:
            found = len(self.unknown_slots)
            self.slots[self.unknown[:found]] = self.unknown_slots
            keys, first = np.unique(self.unknown_keys[:found], return_index=True)
            table.insert(keys, self.slots[self.unknown[first]])
        runs = int(np.searchsorted(self.heads, n))
        table.add(self.slots[:runs], self.heads[:runs], self.citations[:n], self.citable[:n], log)
        return n


def _odd_runs(lines, starts, ends) -> list:
    """The runs of lines not in ``lines``: the first line of each, the offsets
    where it starts and ends, and the number of ``lines`` before it."""
    if len(lines) == len(ends):
        return []
    odd = np.ones(len(ends), dtype=bool)
    odd[lines] = False
    odd = np.flatnonzero(odd)
    run = np.flatnonzero(np.diff(odd, prepend=-2) != 1)  # into odd
    first, last = odd[run], odd[np.flatnonzero(np.diff(odd, append=len(ends) + 1) != 1)]
    return list(zip(first.tolist(), starts[first].tolist(), ends[last].tolist(), (first - run).tolist()))


def _plain_lines(data: bytes, b, starts, ends):
    """The plain lines among those from ``starts`` to just before ``ends``:
    their indices, fields and quoted flags (see _five_fields), citations and
    citable flags."""
    stops = ends - 1 - (b[ends - 2] == _CR)  # without the line break
    lines, fields, quoted, plain = _five_fields(data, b, starts, ends, stops)
    citations, citable, ok = _citations_and_types(b, fields, stops[lines])
    found = lines, fields, quoted, citations, citable
    ok &= plain
    return found if ok.all() else tuple(array[ok] for array in found)


def _five_fields(data: bytes, b, starts, ends, stops):
    """The lines that have five fields at their first and last three commas:
    their indices, those commas (shape (n, 4)), whether the name is quoted
    and whether csv splits the line there too.

    Such a line has no NUL or bare ``\\r``, is not blank and is no longer than
    csv's field size limit.  csv splits it there, and it is kept, if it has a
    journal_id of at most _MAX_ID_BYTES and either has four commas and no
    ``"``, or its only two ``"`` quote the name: one is right after the first
    comma and one right before the third-from-last comma, which is not the
    first, so a comma in the name is part of it.
    """
    commas = np.flatnonzero(b == _COMMA)
    last = np.searchsorted(commas, ends)
    first = np.concatenate(([0], last[:-1]))
    lengths = stops - starts
    ok = (last - first >= 4) & (lengths > 0) & (lengths <= csv.field_size_limit())
    cr = np.flatnonzero(b == _CR)
    ok[np.searchsorted(ends, cr[b[cr + 1] != _LF], side="right")] = False
    if b"\0" in data:
        ok[np.searchsorted(ends, np.flatnonzero(b == 0), side="right")] = False
    lines = np.flatnonzero(ok)
    first, last = first[lines], last[lines]
    fields = commas[np.stack((first, last - 3, last - 2, last - 1), axis=1)]
    plain = last - first == 4
    quoted = np.zeros(len(lines), dtype=bool)
    if b'"' in data:
        quotes = np.diff(np.searchsorted(np.flatnonzero(b == _QUOTE), ends), prepend=0)[lines]
        opening, closing = fields[:, 0] + 1, fields[:, 1] - 1
        quoted = (quotes == 2) & (closing > opening)
        quoted &= (b[opening] == _QUOTE) & (b[closing] == _QUOTE)
        plain = quoted | plain & (quotes == 0)
    plain &= fields[:, 0] - starts[lines] <= _MAX_ID_BYTES
    return lines, fields, quoted, plain


def _citations_and_types(b, fields, stops):
    """Citations and citable flags of lines split at ``fields``, and which of
    them have an item type spelled exactly and 1-10 ASCII digits of citations
    in range."""
    n = len(fields)
    # Item types: the length picks the candidate, then every byte must match.
    type_start = fields[:, 2] + 1
    type_len = fields[:, 3] - type_start
    known = np.zeros(n, dtype=bool)
    citable = np.zeros(n, dtype=bool)
    for token, is_citable in _ITEM_TYPES:
        rows = np.flatnonzero(type_len == len(token))
        spelled = b[type_start[rows, None] + np.arange(len(token))]
        rows = rows[(spelled == np.frombuffer(token, dtype=np.uint8)).all(axis=1)]
        known[rows] = True
        citable[rows] = is_citable
    # Citations: the last _MAX_DIGITS bytes of each line, right-aligned.
    digit_pos = stops[:, None] + np.arange(-_MAX_DIGITS, 0)
    in_field = digit_pos > fields[:, 3:4]
    digits = np.where(in_field, b[np.maximum(digit_pos, 0)] - _ZERO, 0)
    n_digits = stops - fields[:, 3] - 1
    citations = digits @ _DIGIT_WEIGHTS
    ok = (
        known
        & (n_digits >= 1)
        & (n_digits <= _MAX_DIGITS)
        & (digits <= 9).all(axis=1)
        & (citations <= MAX_CITATIONS)
    )
    return citations, citable, ok


def _id_keys(b, starts, ends):
    """A key for each journal_id ``b[start:end]``: a uint64 if none is longer
    than 8 bytes, else fixed-width ``S`` bytes.  Plain lines hold no NUL and
    go on for at least 8 bytes from their start, so zeroing the bytes past
    the id keeps the keys of different ids apart."""
    lengths = ends - starts
    width = int(lengths.max(initial=0))
    if width <= 8:
        return b[starts[:, None] + np.arange(8)].view("<u8")[:, 0] & _KEY_MASKS[lengths]
    ids = b[np.minimum(starts[:, None] + np.arange(width), len(b) - 1)]
    ids[np.arange(width) >= lengths[:, None]] = 0
    return ids.view(f"S{width}")[:, 0]


def _take_lines(src: _InputReader, cut: int, taken: int, table: _Slots, log) -> int:
    """Take the lines of ``src.data[src.pos:cut]`` in order: plain ones into
    ``table``, and each run of other lines through the csv row loop.

    ``taken`` lines were taken before; returns that count now.  If a quoted
    field goes on past a run, csv reads the rest of the lines too, and
    ``src.pos`` ends past them, in ``src.data`` as it is then.
    """
    base, data = src.pos, src.data
    chunk = _Chunk(data[base:cut], table)
    read = 0  # lines csv read
    for first, start, end, plain_before in chunk.odd_runs:
        chunk.register(table, before=first)
        src.pos = base + start
        read += _csv_records(src, base + end, taken + plain_before + read, table.acc, log)
        if src.data is not data or src.pos > base + end:
            if src.data is data:  # else the field went on past the lines too
                read += _csv_records(src, cut, taken + plain_before + read, table.acc, log)
            return taken + chunk.add(table, first, log) + read
    src.pos = cut
    return taken + chunk.add(table, chunk.n_lines, log) + read


def _parse_chunked(src: _InputReader, acc: dict, log: CleaningLog) -> None:
    """Parse the input as Schema A in chunks, from ``src.pos``, just after a
    header spelled exactly as PAPER_HEADER.

    A chunk is read only once every whole line read before it is taken, so a
    line before an invalid byte is parsed before the byte raises.
    """
    table = _Slots(acc)
    taken = 1  # lines taken, the header included
    while True:
        cut = src.data.rfind(b"\n") + 1
        if cut > src.pos:
            taken = _take_lines(src, cut, taken, table, log)
        elif len(src.data) - src.pos >= _CHUNK_BYTES:  # a line longer than a chunk
            taken += _csv_records(src, len(src.data), taken, acc, log)
        elif not src.more(_CHUNK_BYTES):
            break
    # What is left has no newline: a last line, or records that end at "\r".
    _csv_records(src, len(src.data), taken, acc, log)
    table.fold()


def _parse_paper_rows(rows, first_line: int, acc: dict, log: CleaningLog) -> None:
    """The csv row loop; ``first_line`` lines precede the rows ``rows`` reads."""
    for row in rows:
        line = first_line + rows.line_num
        if len(row) != 5:
            raise MalformedRowError(f"expected 5 fields, got {len(row)}", line)
        journal_id, name, _, item_type, citations_text = row
        citations = _parse_count(citations_text, line, "citations")
        log.rows_read += 1
        if not 0 <= citations <= MAX_CITATIONS:
            log.rows_rejected += 1
            logger.warning(
                "line %d: citations %d out of range, row rejected",
                line,
                citations,
            )
            continue
        kind = _ITEM_KINDS.get(item_type)
        if kind is None:
            log.rows_rejected += 1
            log.citations_read += citations
            log.citations_removed += citations
            logger.warning(
                "line %d: unknown item_type %r, row rejected", line, item_type
            )
            continue
        log.citations_read += citations
        entry = acc.get(journal_id)
        if entry is None:
            entry = acc[journal_id] = [name, 0, 0, 0]
        if kind.citable:
            entry[1] += citations
            if citations > entry[2]:
                entry[2] = citations
            entry[3] += 1
        else:
            log.citations_removed += citations


def parse_paper_level(source: Source):
    """Stream a Schema-A file into per-journal aggregates.

    Returns ``(Corpus, CleaningLog)``.  Aggregation is one pass and
    order-independent: C, N_2Y and c* are a sum, a count and a max over the
    journal's citable rows, so any permutation of the input yields the same
    corpus.  Front-matter rows are counted as read and removed but never touch
    C or N_2Y.

    The input picks the stage: after an exact plain header, plain lines are
    parsed in numpy chunks and every other record by ``csv``, one at a time,
    in line order; after any other header (a quoted one, say) ``csv`` reads
    every row (see the module docstring).  Both stages read the input's one
    reader, so results, errors and warnings are the same either way.
    """
    return _parse(source, "papers")


def _iter_aggregate_rows(rows, log: CleaningLog) -> Iterator[JournalAggregate]:
    """Yield validated aggregates from the Schema-B rows after the header
    line, rejecting violations."""
    for row in rows:
        line = 1 + rows.line_num
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
            logger.warning("line %d: %s out of range, row rejected", line, field)
            continue
        log.citations_read += total
        try:
            yield JournalAggregate(journal_id, name, total, n_2y, top)
        except InvalidAggregateError as exc:
            log.rows_rejected += 1
            log.citations_removed += total
            logger.warning("line %d: %s, row rejected", line, exc)


def parse_aggregate(source: Source):
    """Stream a Schema-B file into a cleaned corpus.

    Returns ``(Corpus, CleaningLog)``.  Rows violating the count invariants
    (e.g. top_paper_citations > total_citations) are rejected with a reason;
    duplicate journal ids and zero-citation journals are then removed exactly
    as :func:`dedupe_and_filter` does.
    """
    return _parse(source, "journals")


def _parse(source: Source, schema: Optional[str] = None):
    """Parse ``source`` as ``schema``, or as its header says when ``schema``
    is None; returns ``(Corpus, CleaningLog)``.

    The input is opened once and read once, through one _InputReader, whose
    header :func:`_header` reads.  After an exact plain Schema-A header the
    chunked stage reads the rows; after any other, ``csv`` reads them from
    ``_InputReader.lines``.
    """
    log = CleaningLog()
    journals: dict[str, JournalAggregate] = {}
    acc: dict[str, list] = {}  # Schema A: journal_id -> [name, total, top, n_citable]
    is_path = isinstance(source, (str, Path))
    with open(source, "rb") if is_path else contextlib.nullcontext(source) as raw:
        src = _InputReader(raw)
        schema, exact = _header(src, schema)
        if exact:
            _parse_chunked(src, acc, log)
        else:
            rows = csv.reader(src.lines())
            try:
                if schema == "papers":
                    _parse_paper_rows(rows, 1, acc, log)
                else:
                    seen: set[str] = set()
                    for agg in _iter_aggregate_rows(rows, log):
                        _clean_into(journals, seen, agg, log)
            except csv.Error as exc:
                raise _csv_error(exc, rows, 1) from None
    for journal_id, (name, total, top, n) in acc.items():
        if total == 0:
            # no citable output (n == 0), or none of it cited: the zero/NA analogue
            log.zero_or_na_removed += 1
            logger.info("journal %r removed: zero or no citable output", journal_id)
            continue
        if n == 1:
            log.singletons_excluded += 1
        journals[journal_id] = JournalAggregate(journal_id, name, total, n, top)
        log.citations_kept += total
    log.journals_kept = len(journals)
    provenance = Provenance(src.hasher.hexdigest(), schema)
    return Corpus(journals=journals, provenance=provenance), log


def _clean_into(
    journals: dict[str, JournalAggregate],
    seen: set[str],
    agg: JournalAggregate,
    log: CleaningLog,
) -> None:
    """Apply the duplicate / zero-or-NA / singleton rules to one aggregate.

    Dedupe runs before the zero filter, so a zero-citation first occurrence
    still shadows every later row with the same id.
    """
    if agg.journal_id in seen:
        log.duplicates_removed += 1
        log.citations_removed += agg.total_citations
        logger.info("journal %r: duplicate entry dropped", agg.journal_id)
        return
    seen.add(agg.journal_id)
    if agg.total_citations == 0:
        log.zero_or_na_removed += 1
        logger.info("journal %r removed: zero citations", agg.journal_id)
        return
    if agg.n_2y == 1:
        log.singletons_excluded += 1
    journals[agg.journal_id] = agg
    log.citations_kept += agg.total_citations


def dedupe_and_filter(raw: Union[Corpus, Iterable[JournalAggregate]]):
    """Collapse duplicate journal ids (first wins) and drop zero-cited journals.

    Accepts a Corpus or any iterable of aggregates and returns
    ``(Corpus, CleaningLog)``.  Idempotent: running it on its own output is an
    identity apart from the counters.  All anomalies are logged, never fatal.
    """
    if isinstance(raw, Corpus):
        aggregates: Iterable[JournalAggregate] = raw.journals.values()
        papers = raw.papers
        provenance = raw.provenance
    else:
        aggregates = raw
        papers = None
        provenance = None
    log = CleaningLog()
    journals: dict[str, JournalAggregate] = {}
    seen: set[str] = set()
    for agg in aggregates:
        log.rows_read += 1
        log.citations_read += agg.total_citations
        _clean_into(journals, seen, agg, log)
    log.journals_kept = len(journals)
    return Corpus(journals=journals, papers=papers, provenance=provenance), log


def _create_temp(target: str, dest) -> tuple[int, str]:
    """Create a new file beside ``target`` and return its descriptor and
    name; its mode is 0o666 less the umask.  An error names ``dest``."""
    directory, name = os.path.split(target)
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temp
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(dest)) from None


@contextlib.contextmanager
def _open_out(dest: Union[str, Path, io.TextIOBase]):
    """Yield a text stream for ``dest``: a stream is used as it is, a path is
    written as UTF-8 with no newline translation.

    A path is written atomically.  The text goes to a temporary file beside
    the file the path names (a symlink is followed), which replaces that file
    only once all is written and is deleted on any exception, interrupts
    included.  A new file gets mode 0o666 less the umask; an existing one
    keeps its mode.  An existing file that is not a regular file (a device, a
    FIFO) and any existing path under /dev or /proc, such as /dev/stdout, are
    written in place.
    """
    if not isinstance(dest, (str, Path)):
        yield dest
        return
    try:
        mode = os.stat(dest).st_mode
    except OSError:
        mode = None
    if mode is not None and (
        not stat.S_ISREG(mode) or os.path.abspath(dest).startswith(("/dev/", "/proc/"))
    ):
        with open(dest, "w", encoding="utf-8", newline="") as out:
            yield out
        return
    target = os.path.realpath(dest)
    fd, temp = _create_temp(target, dest)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as out:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            yield out
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def write_csv(dest: Union[str, Path, io.TextIOBase], header: list, rows: Iterable) -> None:
    """Write ``header`` and then ``rows`` as CSV with LF endings to a path or a
    text stream, all rows in one ``csv.writer.writerows`` call."""
    with _open_out(dest) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(dest: Union[str, Path, io.TextIOBase], payload) -> None:
    """Write ``payload`` as JSON indented by two spaces, plus a final newline."""
    with _open_out(dest) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")


def write_journals_csv(corpus: Corpus, dest: Union[str, Path, io.TextIOBase]) -> None:
    """Write a corpus as Schema B, rows sorted by journal_id, LF endings."""
    aggs = (corpus.journals[journal_id] for journal_id in sorted(corpus.journals))
    rows = ([a.journal_id, a.name, a.total_citations, a.n_2y, a.top_cited] for a in aggs)
    write_csv(dest, AGGREGATE_HEADER, rows)


def sniff_schema(path: Union[str, Path]) -> str:
    """Return 'papers' or 'journals' from a file's header line."""
    with open(path, "rb") as fh:
        return _header(_InputReader(fh))[0]


def load_corpus(path: Union[str, Path]):
    """Parse either schema by sniffing the header; returns (Corpus, CleaningLog)."""
    return _parse(path)
