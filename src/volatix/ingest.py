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

Every byte of an input file is read once, through one reader that hashes it
for the provenance digest and checks that it is UTF-8.  Every row wholly
before the first invalid byte is parsed, and then the parse raises
``MalformedRowError("invalid UTF-8 byte 0xe9 at offset 73", line=2)``, with
the byte's 0-based offset in the file.

Schema A is parsed in two stages, and only the input picks between them.
After a header spelled exactly as PAPER_HEADER, plain lines (unquoted, five
fields, an exactly spelled item type and 1-10 ASCII digits of in-range
citations) are parsed with numpy in chunks of about 128 KiB, with Python work
per run of lines sharing a ``journal_id`` rather than per row.  From the
first line that is not plain (a quote, a blank line, a bad field, a rejected
row, anything else) the ``csv`` module takes the rest of the file, continuing
the same counters, hash and line numbers, so every error and warning comes
from the ``csv`` row loop.  The handoff happens once; quoted input goes
through ``csv`` from its first quoted line, and a header that only ``csv``
reads (a quoted one, say) sends the whole file there.  The acceptance gate
times this parse of a million rows with ``tracemalloc`` on, which charges
every Python object, so the chunked stage is what keeps it within its bound.
"""

from __future__ import annotations

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


class _InputReader(io.RawIOBase):
    """Binary reader that every read of an input file goes through.

    It hashes each byte read from ``raw`` once, into ``hasher``, and serves
    only valid UTF-8: a character split by a read is held back until its
    last byte is read, and at the first invalid sequence only the bytes
    before it are served.  The read after those raises MalformedRowError
    with the byte's 0-based offset in the file and its line, counted in LF
    line breaks.  ``unread`` gives bytes back, to be served first.
    """

    def __init__(self, raw):
        self._raw = raw
        self.hasher = hashlib.sha256()
        self._pending = b""  # checked, not yet served
        self._split = b""  # the start of a character split by the last read
        self._offset = 0  # file offset of self._split
        self._lines = 1  # line of self._split
        self._error = None

    def readable(self) -> bool:
        return True

    def unread(self, data: bytes) -> None:
        self._pending = data + self._pending

    def read(self, size: int) -> bytes:
        """Up to ``size`` bytes; ``b""`` at the end of the input."""
        while not self._pending:
            if self._error is not None:
                raise self._error
            if not self._fill(size):
                return b""
        data, self._pending = self._pending[:size], self._pending[size:]
        return data

    def _fill(self, size: int) -> bool:
        """Read up to ``size`` bytes into _pending; False at the end of input."""
        block = self._raw.read(size)
        self.hasher.update(block)
        data = self._split + block
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
        self._pending, self._split = data[:valid], data[valid:]
        self._offset += valid
        self._lines += self._pending.count(b"\n")
        return bool(data)


def _csv_rows(reader: _InputReader, at_start: bool = True):
    """A csv.reader over what ``reader`` serves; a BOM is dropped only at the
    start of the input."""
    text = io.TextIOWrapper(
        reader, encoding="utf-8-sig" if at_start else "utf-8", newline=""
    )
    return csv.reader(text)


@contextlib.contextmanager
def _csv_errors(rows, first_line: int = 0):
    """Raise a csv.Error (a field over csv.field_size_limit(), or a NUL on
    Python 3.10) from ``rows`` as MalformedRowError at its line."""
    try:
        yield
    except csv.Error as exc:
        raise MalformedRowError(str(exc), first_line + rows.line_num) from None


def _read_schema(rows, expected: Optional[str] = None) -> str:
    """Read the header row and return its schema, 'papers' or 'journals'.

    With ``expected`` named, any other header raises ``bad header``, and an
    empty input is that schema with no rows; otherwise a header of neither
    schema, or none, raises ``unrecognized header``.
    """
    header = next(rows, None)
    found = next((name for name, cols in _HEADERS.items() if header == cols), None)
    if expected is None and found is None:
        raise MalformedRowError(f"unrecognized header {header!r}", line=1)
    if expected is not None and header is not None and found != expected:
        raise MalformedRowError(
            f"bad header {header!r}, expected {_HEADERS[expected]!r}", line=1
        )
    return found or expected


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
_PAPER_HEADER_LINES = tuple(
    ",".join(PAPER_HEADER).encode("ascii") + end for end in (b"\n", b"\r\n")
)
_ITEM_TYPES = tuple((kind.value.encode("ascii"), kind.citable) for kind in ItemType)
_MAX_DIGITS = len(str(MAX_CITATIONS))
_DIGIT_WEIGHTS = 10 ** np.arange(_MAX_DIGITS - 1, -1, -1, dtype=np.int64)
_LF, _CR, _COMMA, _ZERO = b"\n\r,0"


def _first(mask) -> int:
    """Index of the first True in ``mask``, or its length if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


# The chunked parse is split into small functions on purpose: under
# tracemalloc each allocation looks up its line number by scanning the line
# table of the function it happens in, so allocating late in a long function
# costs more.


def _take_plain_lines(data: bytes, acc: dict, log: CleaningLog) -> tuple[int, int]:
    """Aggregate the leading plain Schema-A lines of ``data`` into ``acc``.

    ``data`` is whole lines of valid UTF-8, each ending in ``\\n``.  A plain
    line has no ``"``, NUL or bare ``\\r``, is no longer than csv's field size
    limit, and has five fields, an item type spelled exactly and 1-10 ASCII
    digits of citations no larger than MAX_CITATIONS: a line that csv and the
    row loop of :func:`_parse_paper_rows` take the same way, without a warning.
    Stops before the first other line and returns the number of lines and of
    bytes taken.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b == _LF)
    starts = np.concatenate(([0], ends[:-1] + 1))
    stops = ends - (b[ends - 1] == _CR)
    fields = _five_field_lines(data, b, ends, starts, stops)
    citations, citable = _citations_and_types(b, fields, stops)
    n = len(citations)
    if n == 0:
        return 0, 0
    starts, fields = starts[:n], fields[:n]
    kept = np.where(citable, citations, 0)
    read = int(citations.sum())
    log.rows_read += n
    log.citations_read += read
    log.citations_removed += read - int(kept.sum())
    run = _journal_runs(b, starts, fields[:, 0])
    _add_runs(
        data,
        acc,
        starts[run].tolist(),
        fields[run, 0].tolist(),
        fields[run, 1].tolist(),
        np.add.reduceat(kept, run).tolist(),
        np.maximum.reduceat(kept, run).tolist(),
        np.add.reduceat(citable, run, dtype=np.int64).tolist(),
    )
    return n, int(ends[n - 1]) + 1


def _five_field_lines(data: bytes, b, ends, starts, stops):
    """Comma positions, shape (n, 4), of the leading lines of ``data`` that
    are free of ``"``, NUL and bare ``\\r``, not blank, within csv's field
    size limit and split into exactly five fields."""
    cr = np.flatnonzero(b == _CR)
    bare_cr = cr[b[cr + 1] != _LF]
    first_bad = min(
        (i for i in (data.find(b'"'), data.find(b"\0")) if i >= 0), default=len(data)
    )
    if bare_cr.size:
        first_bad = min(first_bad, int(bare_cr[0]))
    commas = np.flatnonzero(b == _COMMA)
    per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
    lengths = stops - starts
    n = min(
        int(np.searchsorted(ends, first_bad)),
        _first((per_line != 4) | (lengths == 0) | (lengths > csv.field_size_limit())),
    )
    return commas[: 4 * n].reshape(n, 4)


def _citations_and_types(b, fields, stops):
    """Citations and citable flags of the leading lines whose item type is
    spelled exactly and whose citations are 1-10 ASCII digits in range."""
    n = len(fields)
    stops = stops[:n]
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
    plain = (
        known
        & (n_digits >= 1)
        & (n_digits <= _MAX_DIGITS)
        & (digits <= 9).all(axis=1)
        & (citations <= MAX_CITATIONS)
    )
    n = _first(~plain)
    return citations[:n], citable[:n]


def _journal_runs(b, starts, id_ends):
    """Indices of the lines whose journal_id bytes differ from the line
    before's; the first line always starts a run."""
    id_len = id_ends - starts
    cand = np.flatnonzero(id_len[1:] == id_len[:-1]) + 1
    lens = id_len[cand]
    offsets = np.cumsum(lens) - lens
    flat = np.arange(int(lens.sum()))
    here = np.repeat(starts[cand] - offsets, lens) + flat
    before = np.repeat(starts[cand - 1] - offsets, lens) + flat
    same = np.zeros(len(starts), dtype=bool)
    same[cand] = True
    same[np.repeat(cand, lens)[b[here] != b[before]]] = False
    return np.flatnonzero(~same)


def _add_runs(data: bytes, acc: dict, starts, id_ends, name_ends, totals, tops, counts):
    """Fold per-run citable sums, maxima and counts into ``acc``; a journal
    first seen here takes the name on its run's first line."""
    for start, id_end, name_end, total, top, count in zip(
        starts, id_ends, name_ends, totals, tops, counts
    ):
        journal_id = data[start:id_end].decode("utf-8")
        entry = acc.get(journal_id)
        if entry is None:
            name = data[id_end + 1 : name_end].decode("utf-8")
            entry = acc[journal_id] = [name, 0, 0, 0]
        entry[1] += total
        if top > entry[2]:
            entry[2] = top
        entry[3] += count


def _parse_plain_prefix(reader: _InputReader, acc: dict, log: CleaningLog):
    """Read the input in chunks and take its leading plain lines.

    Returns a csv.reader over the rest of the input and the number of lines
    taken, header included.  No line is taken unless the header is exactly
    PAPER_HEADER.  A chunk is read only once every whole line read before it
    is taken, so a line before an invalid byte is parsed before the byte
    raises.
    """
    # The first read is two chunks.  glibc's malloc keeps freed heap for reuse
    # up to a size it raises to twice the largest block freed so far.  After a
    # first parse of only one chunk's lines that size stays small, and each
    # later chunk's numpy temporaries go back to the OS and are faulted in
    # again: 5e4 more page faults and about 0.15 s per 1e6 rows.
    data = reader.read(2 * _CHUNK_BYTES)
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    header = next((h for h in _PAPER_HEADER_LINES if data.startswith(h, bom)), None)
    if header is None:
        reader.unread(data)
        return _csv_rows(reader), 0
    pos, lines = bom + len(header), 1  # data[pos:] is read, not yet taken
    while True:
        cut = data.rfind(b"\n") + 1
        if cut > pos:
            taken, size = _take_plain_lines(data[pos:cut], acc, log)
            lines += taken
            pos += size
            if pos < cut:
                break
        elif len(data) - pos >= _CHUNK_BYTES:  # a line longer than a chunk
            break
        block = reader.read(_CHUNK_BYTES)
        if not block:  # the last line may lack its newline
            if pos < len(data) and _take_plain_lines(data[pos:] + b"\n", acc, log)[0]:
                pos, lines = len(data), lines + 1
            break
        data, pos = data[pos:] + block, 0
    reader.unread(data[pos:])
    return _csv_rows(reader, at_start=False), lines


def _parse_paper_rows(rows, first_line: int, acc: dict, log: CleaningLog) -> None:
    """The csv row loop; ``first_line`` lines precede the rows ``rows`` reads."""
    valid_types = {t.value: t for t in ItemType}
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
        kind = valid_types.get(item_type)
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
    parsed in numpy chunks until the first line that is not plain, and
    ``csv`` parses the rest; any other header (a quoted one, say) is read by
    ``csv`` from line 1 (see the module docstring).  Results, errors and
    warnings are the same either way.
    """
    return _parse(source, "papers")


def _iter_aggregate_rows(rows, log: CleaningLog) -> Iterator[JournalAggregate]:
    """Yield validated aggregates from Schema-B rows, rejecting violations."""
    for row in rows:
        line = rows.line_num
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

    The input is opened once and read once, through one _InputReader.  An
    exact plain Schema-A header sends it to the chunked stage, unless
    ``schema`` is 'journals'; ``csv`` reads any other header, and the rows
    after it, from line 1.
    """
    log = CleaningLog()
    journals: dict[str, JournalAggregate] = {}
    acc: dict[str, list] = {}  # Schema A: journal_id -> [name, total, top, n_citable]
    is_path = isinstance(source, (str, Path))
    with open(source, "rb") if is_path else contextlib.nullcontext(source) as raw:
        reader = _InputReader(raw)
        if schema == "journals":
            rows, lines = _csv_rows(reader), 0
        else:
            rows, lines = _parse_plain_prefix(reader, acc, log)
        with _csv_errors(rows, lines):
            schema = "papers" if lines else _read_schema(rows, schema)
            if schema == "papers":
                _parse_paper_rows(rows, lines, acc, log)
            else:
                seen: set[str] = set()
                for agg in _iter_aggregate_rows(rows, log):
                    _clean_into(journals, seen, agg, log)
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
    provenance = Provenance(reader.hasher.hexdigest(), schema)
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
        rows = _csv_rows(_InputReader(fh))
        with _csv_errors(rows):
            return _read_schema(rows)


def load_corpus(path: Union[str, Path]):
    """Parse either schema by sniffing the header; returns (Corpus, CleaningLog)."""
    return _parse(path)
