"""The chunked Schema-A stage: plain lines parsed with numpy, in chunks.

:func:`volatix.ingest._parse` imports this module, and with it numpy, only
after a Schema-A header, so the other commands run without numpy.  The
input is then read in chunks of about ``_CHUNK_BYTES`` (128 KiB), and numpy
parses the lines of each.  A plain line (five fields, each bare or quoted
from its first byte to its last with no other quote, a journal_id of 1-64
bytes, an item type spelled exactly, 1-10 ASCII digits of in-range
citations, and commas in a quoted name only) is added into numpy arrays
indexed by journal slot, so Python work is per new journal rather than per
row.  Any other record (a blank line, a bad field, a rejected row, a stray
quote, a quoted field spanning lines) goes through the ``csv`` row loop on
its own, in line order, with the same counters and line numbers, so every
error and warning comes from that loop; then the chunked stage goes on after
it.  So a file parses as it would if ``csv`` read every row.  The acceptance
gate times this parse of a million rows with ``tracemalloc`` on, which
charges every Python object, so the chunked stage is what keeps it within
its bound.

Both stages keep each journal once, in one table (:class:`_Slots`): its
journal_id, its first name and its sums, at a slot given in order of first
appearance.  The row loop gets a journal's slot from the table too, and
sums the rows ``csv`` reads in Python, per journal, which go into the arrays
once, at the end.  The parse then drops the table's lookups and yields the
journals in slot order, as ``(journal_id, name, total, top, n_2y)``, which
:func:`volatix.ingest._keep` cleans and builds as they come.

``_CHUNK_BYTES``, the input reader and the Schema-A row loop
(``_parse_paper_rows``) stay in :mod:`volatix.ingest`.  The Schema-B parse
shares the reader and the chunk size with this stage, and the shape of what
it yields: its own row loop, ``_parse_aggregate_rows``, yields each checked
row in that shape to ``_keep`` too.  This module looks the chunk size and
the row loop up in :mod:`volatix.ingest` on each call, so there is one of
each.

Importing this module sets two of glibc's malloc thresholds for the
importing process: blocks under 4 MiB come from the heap rather than
``mmap``, and up to 8 MiB of free memory at the top of the heap is kept
rather than returned.  By default glibc raises both as large blocks are
freed, so whether each chunk's numpy temporaries stayed in the heap, or went
back to the OS and were faulted in again, hung on the size of the first chunk
and on whatever was allocated before it: between 7e3 and 4e4 page faults
for one parse of 1e6 plain rows.  The free heap they keep is handed back
once per parse, with ``malloc_trim(0)``, after the table's lookups are
dropped and before the kept journals are built.  Off Linux with glibc,
nothing is set or trimmed.
"""

from __future__ import annotations

import bisect
import csv
import os

import numpy as np

from . import ingest
from .ingest import CleaningLog, _csv_error, _InputReader
from .metrics import MAX_CITATIONS, ItemType

# Journals whose sums one step of _Slots.journals turns into ints
_BLOCK = 4096
# The longest journal_id of a plain line, so that no key is wider.
_MAX_ID_BYTES = 64
_ITEM_TYPES = tuple((kind.value.encode("ascii"), kind.citable) for kind in ItemType)
_MAX_DIGITS = len(str(MAX_CITATIONS))
_DIGIT_WEIGHTS = 10 ** np.arange(_MAX_DIGITS - 1, -1, -1, dtype=np.int64)
_LF, _CR, _COMMA, _QUOTE, _ZERO = b'\n\r,"0'
_KEY_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype="<u8")  # the first n bytes
# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _glibc():
    """The C library, as a ctypes handle, on Linux with glibc; else None."""
    try:  # off glibc, confstr does not know the name, or there is no confstr
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return None
        import ctypes

        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    except (AttributeError, ImportError, OSError, ValueError):  # not glibc, or no ctypes
        return None
    return libc


_GLIBC = _glibc()
if _GLIBC is not None:  # pinned, which also stops glibc from moving them
    _GLIBC.mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    _GLIBC.mallopt(_M_TRIM_THRESHOLD, 8 << 20)


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


def _csv_records(src: _InputReader, end: int, first_line: int, table: "_Slots", log) -> int:
    """Parse the records of ``src`` from ``pos`` that start before offset
    ``end`` of its buffer with the csv row loop, into ``table``;
    ``first_line`` lines precede them.  Returns the lines csv read."""
    rows = csv.reader(src.lines(end))
    try:
        ingest._parse_paper_rows(_Records(rows, src, end), first_line, table, log)
    except csv.Error as exc:
        raise _csv_error(exc, rows, first_line) from None
    return rows.line_num


class _Slots:
    """The journals of one Schema-A parse, each held once, at a slot given in
    order of first appearance: its journal_id as a key of ``slots``, which
    keeps that order, its first name in ``names`` and the citable total, top
    and count of its rows in the int64 arrays ``sums``, indexed by slot.

    :meth:`slot` gives a journal_id's slot, or a new one, to the chunked
    stage and the csv row loop alike.  The chunked stage adds its plain lines
    into the arrays; a sorted index per key type (see _id_keys) maps their
    keys to slots, so a key not in it costs Python work once.  The row loop
    sums the rows csv reads in ``csv_sums``, per journal, and
    :meth:`journals` adds those into the arrays once, at the end.
    """

    def __init__(self):
        self.slots: dict[str, int] = {}  # journal_id -> slot, in slot order
        self.names: list[str] = []  # by slot: the name of the journal's first row
        # key dtype kind -> (sorted keys, their slots)
        self.index = {np.dtype(t).kind: (np.zeros(0, t), np.zeros(0, np.intp)) for t in ("<u8", "S1")}
        self.sums = np.zeros((3, 64), dtype=np.int64)  # total, top, n_citable
        # journal_id -> [slot, total, top, n_citable] of the rows csv reads
        self.csv_sums: dict[str, list] = {}

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
            self.names.append(name)
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

    def journals(self):
        """Yield ``(journal_id, name, total, top, n_citable)`` of each journal,
        in slot order, once the row loop's sums are in the arrays.

        The lookups are dropped, and the free heap handed back to the OS,
        before the first journal; the sums are turned into ints a block at a
        time.  The table is of no use after this."""
        slots, totals, tops, counts = np.array([*self.csv_sums.values()], np.int64).reshape(-1, 4).T
        self.sums[0, slots] += totals  # no slot repeats: a journal has one
        self.sums[1, slots] = np.maximum(self.sums[1, slots], tops)
        self.sums[2, slots] += counts
        ids = list(self.slots)
        self.slots = self.index = self.csv_sums = None
        if _GLIBC is not None:  # the last large free before the kept journals are built
            _GLIBC.malloc_trim(0)
        for start in range(0, len(ids), _BLOCK):
            stop = start + _BLOCK
            yield from zip(ids[start:stop], self.names[start:stop], *self.sums[:, start:stop].tolist())


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
        lines, inner_start, inner_end, self.citations, self.citable = _plain_lines(data, b, starts, ends)
        self.lines, self.n_lines = lines, len(ends)
        self.odd_runs = _odd_runs(lines, starts, ends)
        keys = _id_keys(b, inner_start[0], inner_end[0])
        run_start = np.ones(len(keys), dtype=bool)
        run_start[1:] = keys[1:] != keys[:-1]
        self.heads = np.flatnonzero(run_start)
        self.slots = table.lookup(keys[self.heads])
        # The runs whose key is not in the index; register finds their slots.
        self.unknown = np.flatnonzero(self.slots < 0)  # into heads
        at = self.heads[self.unknown]  # into lines
        self.unknown_keys, self.unknown_lines = keys[at], lines[at].tolist()
        bounds = (inner_start[0, at], inner_end[0, at], inner_start[1, at], inner_end[1, at])
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
    their indices, the inner starts and ends of their journal_ids and names
    (each of shape (2, n); see _five_fields), citations and citable flags."""
    stops = ends - 1 - (b[ends - 2] == _CR)  # without the line break
    lines, inner_start, inner_end, plain = _five_fields(data, b, starts, ends, stops)
    citations, citable, ok = _citations_and_types(b, inner_start[3:], inner_end[3:])
    found = lines, inner_start[:2], inner_end[:2], citations, citable
    ok &= plain
    return found if ok.all() else tuple(array[..., ok] for array in found)


def _five_fields(data: bytes, b, starts, ends, stops):
    """The lines that have five fields at their first and last three commas:
    their indices, the inner start and end of each field (two arrays of
    shape (5, n), a row per field: journal_id, name, paper_id, item type and
    citations) and whether csv reads the line as those five fields, with the
    same inner bytes.

    Such a line has no NUL or bare ``\\r``, is not blank and is no longer than
    csv's field size limit.  csv reads it so, and it is kept, if each field is
    bare, with no ``"``, or quoted from its first byte to its last (its inner
    bytes go from the byte after one ``"`` to the byte before the other),
    with no other ``"`` in the line: so the line holds two ``"`` for each
    quoted field.  Only a quoted name may hold a comma, which is then part of
    it.  The journal_id must have 1 to _MAX_ID_BYTES inner bytes (the row
    loop rejects an empty one).
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
    plain = last - first == 4
    inner_end = np.vstack((commas[np.stack((first, last - 3, last - 2, last - 1))], stops[lines]))
    inner_start = np.vstack((starts[lines], inner_end[:4] + 1))
    if b'"' in data:
        quoted = (b[inner_start] == _QUOTE) & (b[inner_end - 1] == _QUOTE)
        quoted &= inner_end - inner_start >= 2
        inner_start += quoted
        inner_end -= quoted
        plain |= quoted[1]  # a quoted name may hold commas
        # A line holds at least two quotes per quoted field, so if the chunk
        # holds just that many, so does every line.
        quote = b == _QUOTE
        if np.count_nonzero(quote) != 2 * np.count_nonzero(quoted):
            quotes = np.diff(np.searchsorted(np.flatnonzero(quote), ends), prepend=0)[lines]
            plain &= quotes == 2 * quoted.sum(axis=0)
    id_bytes = inner_end[0] - inner_start[0]
    plain &= (id_bytes > 0) & (id_bytes <= _MAX_ID_BYTES)
    return lines, inner_start, inner_end, plain


def _citations_and_types(b, inner_start, inner_end):
    """Citations and citable flags of lines whose item types (row 0) and
    citations (row 1) are the inner bytes from ``inner_start`` to just before
    ``inner_end``, and which of them have an item type spelled exactly and
    1-10 ASCII digits of citations in range."""
    (type_start, digits_start), (type_end, digits_end) = inner_start, inner_end
    n = len(type_start)
    # Item types: the length picks the candidate, then every byte must match.
    type_len = type_end - type_start
    known = np.zeros(n, dtype=bool)
    citable = np.zeros(n, dtype=bool)
    for token, is_citable in _ITEM_TYPES:
        rows = np.flatnonzero(type_len == len(token))
        spelled = b[type_start[rows, None] + np.arange(len(token))]
        rows = rows[(spelled == np.frombuffer(token, dtype=np.uint8)).all(axis=1)]
        known[rows] = True
        citable[rows] = is_citable
    # Citations: the last _MAX_DIGITS bytes of each field, right-aligned.
    # digit_pos, the parse's largest temporary, is clamped in place and freed
    # before the product below casts the digits to int64.
    digit_pos = digits_end[:, None] + np.arange(-_MAX_DIGITS, 0)
    in_field = digit_pos >= digits_start[:, None]
    digits = np.where(in_field, b[np.maximum(digit_pos, 0, out=digit_pos)] - _ZERO, 0)
    del digit_pos, in_field
    n_digits = digits_end - digits_start
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
    """A key for each journal_id ``b[start:end]``, its inner bytes: a uint64
    if none is longer than 8 bytes, else fixed-width ``S`` bytes.  Plain lines
    hold no NUL and go on for at least 8 bytes from the inner start of their
    id (a 1-byte id, four commas, a 6-byte item type, a digit and ``\\n``), so
    zeroing the bytes past the id keeps the keys of different ids apart, and
    a quoted id and a bare one with the same inner bytes have one key."""
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
        read += _csv_records(src, base + end, taken + plain_before + read, table, log)
        if src.data is not data or src.pos > base + end:
            if src.data is data:  # else the field went on past the lines too
                read += _csv_records(src, cut, taken + plain_before + read, table, log)
            return taken + chunk.add(table, first, log) + read
    src.pos = cut
    return taken + chunk.add(table, chunk.n_lines, log) + read


def _parse_chunked(src: _InputReader, log: CleaningLog):
    """Parse the input as Schema A in chunks, from ``src.pos``, just after
    its header line; returns its journals, as :meth:`_Slots.journals` does.

    A chunk is read only once every whole line read before it is taken, so a
    line before an invalid byte is parsed before the byte raises.
    """
    table = _Slots()
    taken = 1  # lines taken, the header included
    while True:
        cut = src.data.rfind(b"\n") + 1
        if cut > src.pos:
            taken = _take_lines(src, cut, taken, table, log)
        elif len(src.data) - src.pos >= ingest._CHUNK_BYTES:  # a line longer than a chunk
            taken += _csv_records(src, len(src.data), taken, table, log)
        elif not src.more(ingest._CHUNK_BYTES):
            break
    # What is left has no newline: a last line, or records that end at "\r".
    _csv_records(src, len(src.data), taken, table, log)
    return table.journals()
