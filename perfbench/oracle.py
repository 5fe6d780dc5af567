"""Independent checks of every command's output file.

The oracle knows only the raw counts the workload generator drew (per
journal: name, C, N_2Y and c*) and recomputes each product from the integer
closed forms of the top-paper decomposition:

    delta_f     = (N*c* - C) / (N*(N - 1))
    delta_f_rel = (N*c* - C) / (N*(C - c*))      undefined when C == c*

Orderings and threshold memberships compare these pairs by cross
multiplication, so no ``Fraction`` and no float enters a decision.  It reads
only the files a command wrote, never its stderr.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
from functools import cmp_to_key
from pathlib import Path

from workloads import Inputs

TOP_K = 10
# The CLI's preset cuts as (numerator, denominator); relative cuts in percent.
ABS_CUTS = ((1, 10), (1, 4), (1, 2), (3, 4), (1, 1), (3, 2), (2, 1), (3, 1), (4, 1),
            (5, 1), (10, 1), (50, 1))
ABS_LABELS = ("0.1", "0.25", "0.5", "0.75", "1", "1.5", "2", "3", "4", "5", "10", "50")
REL_CUTS = tuple((p, 100) for p in (10, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100, 300))
REL_LABELS = tuple(f"{p}%" for p, _ in REL_CUTS)
REPORT_HEADER = ["journal_id", "f", "f_star", "c_star", "delta_f", "delta_f_rel", "n_2y"]


def _half_up(num: int, den: int, places: int) -> str:
    """num/den rounded half away from zero to ``places`` decimals."""
    scale = 10**places
    q, r = divmod(abs(num) * scale, den)
    if 2 * r >= den:
        q += 1
    sign = "-" if num < 0 and q else ""
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


class Oracle:
    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        # (journal_id, C, N, c*, delta_f pair, delta_f_rel pair or None), by id
        self.reports = []
        for jid in sorted(inputs.journals):
            _, total, n, top = inputs.journals[jid]
            if n < 2:
                continue
            gain = n * top - total
            rel = None if total == top else (gain, n * (total - top))
            self.reports.append((jid, total, n, top, (gain, n * (n - 1)), rel))
        self._cache = {}
        self.sha256 = {}  # command name -> digest of its first output

    # -- expected products ---------------------------------------------------

    def _expect_top(self, key: str) -> list[tuple]:
        idx = 4 if key == "abs" else 5

        def better_first(a, b):
            for i in (idx, 4):  # the key, then delta_f, both descending
                (an, ad), (bn, bd) = a[i], b[i]
                if an * bd != bn * ad:
                    return -1 if an * bd > bn * ad else 1
            return -1 if a[0] < b[0] else 1  # then journal_id ascending

        eligible = [r for r in self.reports if r[idx] is not None]
        return heapq.nsmallest(TOP_K, eligible, key=cmp_to_key(better_first))

    def _expect_counts(self, key: str) -> list[int]:
        idx, cuts = (4, ABS_CUTS) if key == "abs" else (5, REL_CUTS)
        values = [r[idx] for r in self.reports if r[idx] is not None]
        return [sum(1 for n, d in values if n * q > p * d) for p, q in cuts]

    def _expect_scatter(self, _: str) -> list[tuple]:
        return sorted(self.reports, key=lambda r: (r[2], r[0]))

    def _expect_ingest(self, _: str) -> list[list[str]]:
        j = self.inputs.journals
        return [[jid, j[jid][0], str(j[jid][1]), str(j[jid][2]), str(j[jid][3])]
                for jid in sorted(j)]

    def expected(self, what: str):
        """``top_abs``, ``counts_rel``, ``scatter``, ...: computed once per run."""
        if what not in self._cache:
            kind, _, key = what.partition("_")
            self._cache[what] = getattr(self, "_expect_" + kind)(key)
        return self._cache[what]

    # -- checks ----------------------------------------------------------------

    def check(self, name: str, path: Path) -> list[str]:
        """Problems found in the output ``name`` wrote to ``path`` (empty: ok).

        Also records the output's sha256 and flags a command whose bytes
        differ from its first output in this run.
        """
        try:
            data = path.read_bytes()
        except OSError as exc:
            return [f"{name}: no output ({exc})"]
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        first = self.sha256.setdefault(name, digest)
        if first != digest:
            problems.append(f"{name}: output bytes differ from the first run's")
        try:
            text = data.decode("utf-8")
            problems += getattr(self, "_check_" + name.split("_")[0])(name, text)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            problems.append(f"{name}: unreadable output ({type(exc).__name__}: {exc})")
        return problems

    def _check_synth(self, name: str, text: str) -> list[str]:
        # Its content is checked through the ingest output it feeds.
        rows = text.count("\n") - 1
        if rows != self.inputs.rows["papers"]:
            return [f"synth: {rows} rows, expected {self.inputs.rows['papers']}"]
        return []

    def _check_ingest(self, name: str, text: str) -> list[str]:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        problems = []
        if rows[0] != ["journal_id", "journal_name", "total_citations", "n_2y",
                       "top_paper_citations"]:
            problems.append(f"ingest: bad header {rows[0]}")
        got = rows[1:]
        want = self.expected("ingest")
        if len(got) != len(want):
            problems.append(f"ingest: {len(got)} journals, expected {len(want)}")
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        if bad is not None:
            problems.append(f"ingest: row {bad + 2} is {got[bad]}, expected {want[bad]}")
        kept = sum(int(r[2]) for r in got)
        if kept != self.inputs.citations_kept:
            problems.append(
                f"ingest: {kept} citations kept, generator put {self.inputs.citations_kept}"
                " in surviving journals"
            )
        return problems

    def _check_rank(self, name: str, text: str) -> list[str]:
        key = name.split("_")[1]
        rows = list(csv.reader(io.StringIO(text, newline="")))
        want = self.expected("top_" + key)
        problems = []
        if rows[0] != ["rank"] + REPORT_HEADER:
            problems.append(f"{name}: bad header {rows[0]}")
        if len(rows) - 1 != len(want):
            problems.append(f"{name}: {len(rows) - 1} rows, expected {len(want)}")
        for i, (row, (jid, total, n, top, gain, rel)) in enumerate(zip(rows[1:], want), 1):
            expect = [
                str(i),
                jid,
                _half_up(total, n, 2),
                _half_up(total - top, n - 1, 2),
                str(top),
                _half_up(*gain, 2),
                "" if rel is None else _half_up(rel[0] * 100, rel[1], 0) + "%",
                str(n),
            ]
            if row != expect:
                problems.append(f"{name}: rank {i} is {row}, expected {expect}")
                break
        return problems

    def _check_thresholds(self, name: str, text: str) -> list[str]:
        key = name.split("_")[1]
        rows = list(csv.reader(io.StringIO(text, newline="")))
        labels = ABS_LABELS if key == "abs" else REL_LABELS
        want = [[label, str(count)] for label, count in zip(labels, self.expected("counts_" + key))]
        got = [row[:2] for row in rows[1:]]
        if rows[0] != ["threshold", "count", "percent"] or got != want:
            return [f"{name}: table {got}, expected {want}"]
        return []

    def _check_report(self, name: str, text: str) -> list[str]:
        if name == "report_json":
            ids = [obj["journal_id"] for obj in json.loads(text)]
        else:
            rows = list(csv.reader(io.StringIO(text, newline="")))
            if rows[0] != REPORT_HEADER:
                return [f"{name}: bad header {rows[0]}"]
            ids = [row[0] for row in rows[1:]]
        want = [r[0] for r in self.reports]
        if ids != want:
            return [f"{name}: {len(ids)} report rows, expected {len(want)} in journal order"]
        return []

    def _check_scatter(self, name: str, text: str) -> list[str]:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        want = [
            [str(n), repr(gain[0] / gain[1]), "" if rel is None else repr(rel[0] / rel[1])]
            for _, _, n, _, gain, rel in self.expected("scatter")
        ]
        if rows[0] != ["n_2y", "delta_f", "delta_f_rel"]:
            return [f"scatter: bad header {rows[0]}"]
        if len(rows) - 1 != len(want):
            return [f"scatter: {len(rows) - 1} points, expected {len(want)}"]
        bad = next((i for i, (g, w) in enumerate(zip(rows[1:], want)) if g != w), None)
        if bad is not None:
            return [f"scatter: row {bad + 2} is {rows[bad + 1]}, expected {want[bad]}"]
        return []
