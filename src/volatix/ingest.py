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
Schema-B rows that repeat a journal id are collapsed (first occurrence wins),
journals with zero or unavailable citation output are dropped, and
single-paper journals are kept but flagged, since their top-paper
decomposition is undefined.  Schema A does not check repeats: a repeated
paper_id is summed twice, and a journal_id keeps its first journal_name.
Nothing is dropped silently.  Every removal goes through one of two
functions, which count it in the CleaningLog: :func:`_keep`, the one loop
that keeps journals, in both parsers and :func:`dedupe_and_filter`, and
:func:`_reject`, which counts and warns each rejected row.  The citation
totals reconcile exactly (``citations_read == citations_kept +
citations_removed``).

Structurally unreadable rows (wrong arity, counts that are not ASCII digits
with an optional leading ``-``, a field over ``csv.field_size_limit()``) raise
:class:`~volatix.errors.MalformedRowError` with the line number; rows that are
readable but invalid (negative counts, counts or an ``n_2y`` above
MAX_CITATIONS, unknown item types, violated count invariants, an empty
journal_id) are rejected and logged instead.

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

Schema A has one parse path.  After any header that ``csv`` reads as
PAPER_HEADER, quoted or not, the chunked stage of :mod:`volatix._chunked`
parses plain lines with numpy and sends every other record through the
``csv`` row loop here, in line order.  That module, and numpy with it, is
imported only for Schema A.
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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Union

from .errors import MalformedRowError
from .metrics import (
    MAX_CITATIONS,
    ItemType,
    JournalAggregate,
    _aggregate_fault,
    _checked_aggregate,
)

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

    The row loops count the rows and citations read, and the citations of
    front-matter rows as removed.  The rest is counted in two places:
    :func:`_reject` counts rejected rows, and :func:`_keep` the duplicates,
    the zero/NA and singleton journals, the kept citations and
    ``journals_kept``.
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
        """The five core counters, which are the first five fields."""
        return {field.name: getattr(self, field.name) for field in fields(self)[:5]}

    def to_json(self) -> str:
        return json.dumps(self.as_json_dict(), sort_keys=True)


@dataclass(frozen=True)
class Provenance:
    """Where a corpus came from: SHA-256 of the source bytes plus schema tag."""

    digest: str
    schema: str


@dataclass
class Corpus:
    """Cleaned journal aggregates and their provenance; no per-paper records."""

    journals: dict[str, JournalAggregate]
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


def _header(src: _InputReader, expected: Optional[str] = None) -> str:
    """Read the header line of ``src`` with csv and return its schema,
    'papers' or 'journals'.

    With ``expected`` named, any other header raises ``bad header``, and an
    empty input is that schema with no rows; otherwise a header of neither
    schema, or none, raises ``unrecognized header``.
    """
    src.more(_CHUNK_BYTES)
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


def _reject(log: CleaningLog, where: str, fault: str, citations: int = 0) -> None:
    """Count a rejected row, with the ``citations`` it read as removed, and
    warn ``<where>: <fault>, row rejected``.  Every rejected row, in either
    parser and in :func:`dedupe_and_filter`, is counted and warned here."""
    log.rows_rejected += 1
    log.citations_removed += citations
    logger.warning("%s: %s, row rejected", where, fault)


# Bytes per read of the input reader and of the chunked Schema-A stage (see
# volatix._chunked).  Its numpy temporaries are a few times this, so it is
# kept small next to the CLI's resident memory.
_CHUNK_BYTES = 128 * 1024
_ITEM_KINDS = {kind.value: kind for kind in ItemType}


def _parse_paper_rows(rows, first_line: int, table, log: CleaningLog) -> None:
    """The csv row loop; ``first_line`` lines precede the rows ``rows`` reads.

    A kept row's journal gets its slot in ``table``, the parse's one journal
    table (see volatix._chunked._Slots), at the first row csv reads of it,
    and the row is summed in ``table.csv_sums``."""
    sums = table.csv_sums
    for row in rows:
        line = first_line + rows.line_num
        if len(row) != 5:
            raise MalformedRowError(f"expected 5 fields, got {len(row)}", line)
        journal_id, name, _, item_type, citations_text = row
        citations = _parse_count(citations_text, line, "citations")
        log.rows_read += 1
        if not 0 <= citations <= MAX_CITATIONS:
            _reject(log, f"line {line}", f"citations {citations} out of range")
            continue
        log.citations_read += citations
        kind = _ITEM_KINDS.get(item_type)
        if kind is None or not journal_id:
            fault = f"unknown item_type {item_type!r}" if journal_id else "empty journal_id"
            _reject(log, f"line {line}", fault, citations)
            continue
        entry = sums.get(journal_id)
        if entry is None:
            entry = sums[journal_id] = [table.slot(journal_id, name), 0, 0, 0]
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

    Plain lines, whose fields are bare or wholly quoted, are parsed in numpy
    chunks and every other record by ``csv``, in line order, through the
    input's one reader (see :mod:`volatix._chunked`), so results, errors and
    warnings are those of ``csv`` reading every row.
    """
    return _parse(source, "papers")


def _parse_aggregate_rows(src: _InputReader, log: CleaningLog) -> Iterator[tuple]:
    """The Schema-B row loop, over the rows ``csv`` reads after the header
    line: yield the ``(journal_id, name, total, top, n_2y)`` of each row that
    a journal can have, as the chunked Schema-A stage yields its journals,
    and reject any other row, such as one with an empty journal_id.  Its
    rows are cleaned by :func:`_keep` as they come, so the messages of every
    row come in row order."""
    rows = csv.reader(src.lines())
    try:
        for row in rows:
            if len(row) != 5:
                raise MalformedRowError(f"expected 5 fields, got {len(row)}", 1 + rows.line_num)
            journal_id, name, total_text, n_text, top_text = row
            counts = total_text + n_text + top_text
            # three short counts of ASCII digits; int() refuses over 4300 digits
            short_digits = counts.isdigit() and counts.isascii() and len(counts) <= 30
            if short_digits and total_text and n_text and top_text:
                total, n_2y, top = int(total_text), int(n_text), int(top_text)
            else:  # a sign, an empty field, a long or odd count: parsed, or refused, one at a time
                line = 1 + rows.line_num
                total = _parse_count(total_text, line, "total_citations")
                n_2y = _parse_count(n_text, line, "n_2y")
                top = _parse_count(top_text, line, "top_paper_citations")
            log.rows_read += 1
            bad_citations = not (0 <= total <= MAX_CITATIONS and 0 <= top <= MAX_CITATIONS)
            if bad_citations or n_2y > MAX_CITATIONS:
                field = "citation count" if bad_citations else "n_2y"
                _reject(log, f"line {1 + rows.line_num}", f"{field} out of range")
                continue
            log.citations_read += total
            fault = _aggregate_fault(journal_id, total, n_2y, top) if journal_id else "empty journal_id"
            if fault is None:
                yield journal_id, name, total, top, n_2y
            else:
                _reject(log, f"line {1 + rows.line_num}", fault, total)
    except csv.Error as exc:
        raise _csv_error(exc, rows, 1) from None


def parse_aggregate(source: Source):
    """Stream a Schema-B file into a cleaned corpus.

    Returns ``(Corpus, CleaningLog)``.  Rows violating the count invariants
    (e.g. top_paper_citations > total_citations) are rejected with a reason;
    duplicate journal ids and zero-citation journals are then removed exactly
    as :func:`dedupe_and_filter` does.
    """
    return _parse(source, "journals")


def _parse(source: Source, schema: Optional[str] = None, make=_checked_aggregate):
    """Parse ``source`` as ``schema``, or as its header says when ``schema``
    is None; returns ``(Corpus, CleaningLog)``.

    The input is opened once and read once, through one _InputReader, whose
    header :func:`_header` reads.  Either schema's rows then come as
    ``(journal_id, name, total, top, n_2y)`` to :func:`_keep`, which cleans
    and builds them one at a time, with no list of its own per journal.  The
    chunked stage reads Schema-A rows into its one journal table, then
    yields each journal's sums from it, in order of first appearance;
    :func:`_parse_aggregate_rows` yields each checked Schema-B row as ``csv``
    reads it from ``_InputReader.lines``.

    Each kept journal, singletons included, is stored in the corpus as
    ``make(journal_id, name, total, n_2y, top)`` of counts that
    :func:`_aggregate_fault` passes: a ``JournalAggregate`` by default, for
    the public parsers, or whatever the caller needs of those counts (the
    CLI's reading commands make a report and drop the name).  The cleaning
    log, the warnings and the provenance do not depend on ``make``.
    """
    log = CleaningLog()
    is_path = isinstance(source, (str, Path))
    with open(source, "rb") if is_path else contextlib.nullcontext(source) as raw:
        src = _InputReader(raw)
        schema = _header(src, schema)
        if schema == "papers":
            from ._chunked import _parse_chunked  # it imports numpy, which Schema B does without

            # sums valid by construction: top <= total <= n * top, as a max and a sum of n counts
            rows = _parse_chunked(src, log)
        else:
            rows = _parse_aggregate_rows(src, log)
        journals = _keep(rows, make, log)
    return Corpus(journals, Provenance(src.hasher.hexdigest(), schema)), log


def _keep(rows: Iterable[tuple], make, log: CleaningLog) -> dict:
    """The kept journals of ``rows`` of ``(journal_id, name, total, top,
    n_2y)``, each stored as ``make(journal_id, name, total, n_2y, top)``.
    Both parsers and :func:`dedupe_and_filter` keep journals only through
    this one loop, which applies the cleaning rules in this order:

    * a journal_id seen before is a duplicate: the first occurrence wins;
    * a journal with zero citations is dropped (in Schema A, a journal with
      no citable output, or none of it cited: the zero/NA analogue);
    * a single-paper journal is kept, and counted as a singleton.

    An id seen before is either kept, so in the dict, or was dropped by the
    zero filter, so in ``dropped``: only the dropped ids are remembered, not
    every id.  Dedupe runs before the zero filter, so a zero-citation first
    occurrence still shadows every later row with the same id.  Schema A
    sums each id's rows first, so there only the zero and singleton rules
    apply.
    """
    journals: dict = {}
    dropped: set[str] = set()
    for journal_id, name, total, top, n_2y in rows:
        if journal_id in journals or journal_id in dropped:
            log.duplicates_removed += 1
            log.citations_removed += total
            logger.info("journal %r: duplicate entry dropped", journal_id)
        elif total == 0:
            dropped.add(journal_id)
            log.zero_or_na_removed += 1
            logger.info("journal %r removed: zero citations", journal_id)
        else:
            if n_2y == 1:
                log.singletons_excluded += 1
            log.citations_kept += total
            journals[journal_id] = make(journal_id, name, total, n_2y, top)
    log.journals_kept = len(journals)
    return journals


def dedupe_and_filter(raw: Union[Corpus, Iterable[JournalAggregate]]):
    """Collapse duplicate journal ids (first wins) and drop zero-cited journals.

    Accepts a Corpus or any iterable of aggregates and returns
    ``(Corpus, CleaningLog)``.  Idempotent: running it on its own output is an
    identity apart from the counters.  All anomalies are logged, never fatal.
    An aggregate with an empty journal_id is a rejected row, as in the
    parsers, warned with its 1-based position in the input.
    """
    aggregates, provenance = raw, None
    if isinstance(raw, Corpus):
        aggregates, provenance = raw.journals.values(), raw.provenance
    log = CleaningLog()

    def rows():
        for agg in aggregates:
            log.rows_read += 1
            log.citations_read += agg.total_citations
            if agg.journal_id:
                yield agg.journal_id, agg, agg.total_citations, agg.top_cited, agg.n_2y
            else:
                _reject(log, f"row {log.rows_read}", "empty journal_id", agg.total_citations)

    # each aggregate rides in its name's place, so a kept one is stored as it came
    journals = _keep(rows(), lambda journal_id, agg, *counts: agg, log)
    return Corpus(journals=journals, provenance=provenance), log


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
        return _header(_InputReader(fh))


def load_corpus(path: Union[str, Path]):
    """Parse either schema by sniffing the header; returns (Corpus, CleaningLog)."""
    return _parse(path)
