"""Corpus-level volatility products: rankings, threshold tables, scatter data.

All computation is a pure map over journals, run in one thread, then a heap
top-k over the exact key, or threshold counts from one pass that bisects each
report's value into the cuts and keeps only a histogram.  Both read each
report's values as integer numerators and denominators and compare them by
cross-multiplying, and the writers render the same integers, so no
``Fraction`` is made per report except for the public points of
:func:`scatter_data`.  Identical corpora serialize to identical bytes on every
run.  Journals that cannot be ranked (single-paper journals, or undefined
relative volatility) go to a sidecar exclusion list, never dropped silently.
"""

from __future__ import annotations

import enum
import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .display import (
    exact_str,
    plain_number_str,
    ratio_decimal_str,
    ratio_exact_str,
    ratio_percent_str,
    sig2_percent_str,
)
from .errors import InvalidThresholdsError
from .ingest import Corpus, _open_out, write_csv, write_json
from .metrics import REPORT_FIELDS, VolatilityReport, top_paper_volatility

#: Threshold presets mirroring the customary report cuts.
DEFAULT_ABSOLUTE_CUTS = tuple(
    Fraction(s) for s in ("0.1", "0.25", "0.5", "0.75", "1", "1.5", "2", "3", "4", "5", "10", "50")
)
DEFAULT_RELATIVE_CUTS = tuple(
    Fraction(p, 100) for p in (10, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100, 300)
)


class RankKey(enum.Enum):
    """Which volatility column a table is ordered or thresholded by."""

    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass(frozen=True)
class Exclusion:
    """A journal left out of a ranking, and why."""

    journal_id: str
    reason: str


@dataclass(frozen=True)
class RankedTable:
    key: RankKey
    rows: tuple[VolatilityReport, ...]
    k: int
    excluded: tuple[Exclusion, ...] = ()


@dataclass(frozen=True)
class ThresholdRow:
    threshold: Fraction
    count: int
    percent: Fraction


@dataclass(frozen=True)
class ThresholdTable:
    key: RankKey
    rows: tuple[ThresholdRow, ...]
    journals_ranked: int


@dataclass(frozen=True)
class CorpusSummary:
    journals: int
    papers: int
    citations: int


def volatility_reports(
    corpus: Corpus, *, max_workers: int = 1
) -> tuple[list[VolatilityReport], list[Exclusion]]:
    """Top-paper volatility for every journal in a corpus.

    Returns reports sorted by journal_id plus the exclusion sidecar
    (single-paper journals, whose decomposition is undefined).  Each report
    holds its journal's counts, and no ``Fraction`` is made.  ``max_workers``
    is accepted for compatibility and ignored: the work runs in one thread.
    """
    ranked, excluded = _split_singletons(corpus.journals)
    return [top_paper_volatility(a) for a in ranked], excluded


def _split_singletons(journals: dict) -> tuple[list, list[Exclusion]]:
    """The values of ``journals``, aggregates or reports of counts keyed by
    journal_id, that have ``n_2y >= 2``, and a ``singleton_journal``
    exclusion for each of the rest, both in journal_id order."""
    ranked, excluded = [], []
    for journal_id in sorted(journals):
        journal = journals[journal_id]
        if journal.n_2y < 2:
            excluded.append(Exclusion(journal.journal_id, "singleton_journal"))
        else:
            ranked.append(journal)
    return ranked, excluded


def _key_index(key: RankKey) -> int:
    """Position of the key's numerator in :meth:`VolatilityReport._pairs`;
    its denominator follows it."""
    return 4 if key is RankKey.ABSOLUTE else 6


def _compare(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as ``a`` ranks below, with or above ``b``, where each is
    ``(key num, key den, delta_f num, delta_f den)`` with positive
    denominators: the keys are compared by cross-multiplying, then, on a tie,
    the ``delta_f``s."""
    an, ad, a_dn, a_dd = a
    bn, bd, b_dn, b_dd = b
    left, right = an * bd, bn * ad
    if left == right:
        left, right = a_dn * b_dd, b_dn * a_dd
    return (left > right) - (left < right)


_rank_order = cmp_to_key(_compare)


def rank_by_volatility(
    reports: Iterable[VolatilityReport], key: RankKey, k: int
) -> RankedTable:
    """Top-k journals under the chosen key, exact-rational descending order.

    Ties break by delta_f descending, then journal_id ascending.  For the
    relative key, reports with undefined relative volatility move to the
    exclusion sidecar.  The result has the prefix property: the top-k table is
    the first k rows of the top-(k+1) table.
    """
    if k < 0:
        raise InvalidThresholdsError(f"table length k must be >= 0, got {k}")
    index = _key_index(key)
    eligible = []
    excluded = []
    for report in reports:
        if report._pairs()[index + 1]:
            eligible.append(report)
        else:
            excluded.append(Exclusion(report.journal_id, "undefined_relative"))

    # The order keys are made inside nlargest, which frees all but k of them
    # at once: kept for every report, they cost the garbage collector more
    # than reading _pairs() twice.
    def order(report: VolatilityReport):
        v = report._pairs()
        return _rank_order((v[index], v[index + 1], v[4], v[5]))

    eligible.sort(key=lambda r: r.journal_id)
    # nlargest is sorted(..., reverse=True)[:k], stable on ties like that sort
    rows = heapq.nlargest(k, eligible, key=order)
    return RankedTable(key=key, rows=tuple(rows), k=k, excluded=tuple(excluded))


def threshold_table(
    reports: Iterable[VolatilityReport],
    key: RankKey,
    thresholds: Sequence[Fraction],
) -> ThresholdTable:
    """How many journals exceed each cut, with the share of ranked journals.

    Membership is strict (value > cut p/q, tested as q * num > p * den).
    Thresholds must be strictly increasing, so counts are non-increasing.

    One pass over the reports, holding nothing per report: the cuts a value
    exceeds are a prefix of them, so a bisection finds how many, and a
    histogram of those numbers gives each cut's count as a suffix sum.
    """
    cuts = [Fraction(t) for t in thresholds]
    for lo, hi in zip(cuts, cuts[1:]):
        if lo >= hi:
            raise InvalidThresholdsError(
                f"thresholds must be strictly increasing, got {lo} before {hi}"
            )
    pairs = [(cut.numerator, cut.denominator) for cut in cuts]
    index = _key_index(key)
    exceeded = [0] * (len(cuts) + 1)  # exceeded[i]: values above exactly i cuts
    for report in reports:
        v = report._pairs()
        num, den = v[index], v[index + 1]
        if den:
            lo, hi = 0, len(pairs)
            while lo < hi:
                mid = (lo + hi) // 2
                p, q = pairs[mid]
                if q * num > p * den:
                    lo = mid + 1
                else:
                    hi = mid
            exceeded[lo] += 1
    total = count = sum(exceeded)
    rows = []
    for cut, below in zip(cuts, exceeded):
        count -= below  # the values above cut i are those above more than i cuts
        percent = Fraction(count, total) if total else Fraction(0)
        rows.append(ThresholdRow(cut, count, percent))
    return ThresholdTable(key=key, rows=tuple(rows), journals_ranked=total)


def _scatter_points(reports: Iterable[VolatilityReport], value) -> Iterator[tuple]:
    """The (n_2y, delta_f, delta_f_rel) point of each report, sorted by n_2y
    then journal_id, with each value ``value(num, den)`` of its integer pair
    and an undefined ``delta_f_rel`` None.

    With ``int.__truediv__`` the values are the floats that
    :func:`write_scatter_csv` makes of ``Fraction`` points, with no
    ``Fraction`` made: ``float(Fraction(n, d))`` divides its reduced pair, and
    int true division rounds the exact quotient, reduced or not, correctly.

    Two stable sorts, by journal_id then by n_2y, give the order of the key
    ``(n_2y, journal_id)`` without a tuple per report."""
    ordered = sorted(reports, key=attrgetter("journal_id"))
    ordered.sort(key=attrgetter("n_2y"))
    for r in ordered:
        *_, dn, dd, rn, rd = r._pairs()
        yield r.n_2y, value(dn, dd), value(rn, rd) if rd else None


def scatter_data(
    reports: Iterable[VolatilityReport],
) -> list[tuple[int, Fraction, Optional[Fraction]]]:
    """Plot-ready (n_2y, delta_f, delta_f_rel) points, one per ranked journal,
    sorted by n_2y then journal_id."""
    return list(_scatter_points(reports, Fraction))


def dataset_summary(corpus: Corpus) -> CorpusSummary:
    """Exact corpus totals; singleton journals count here even though they
    cannot be ranked."""
    journals = len(corpus.journals)
    papers = sum(agg.n_2y for agg in corpus.journals.values())
    citations = sum(agg.total_citations for agg in corpus.journals.values())
    return CorpusSummary(journals=journals, papers=papers, citations=citations)


# --- serialization ---------------------------------------------------------


def report_row(report: VolatilityReport, *, exact: bool = False) -> list:
    """A report's CSV cells; an undefined ``delta_f_rel`` is the empty string."""
    fn, fd, sn, sd, dn, dd, rn, rd = report._pairs()
    if exact:
        avg = rel_cell = ratio_exact_str
    else:
        avg, rel_cell = ratio_decimal_str, ratio_percent_str
    return [
        report.journal_id,
        avg(fn, fd),
        avg(sn, sd),
        report.c_star,
        avg(dn, dd),
        rel_cell(rn, rd) if rd else "",
        report.n_2y,
    ]


def report_obj(report: VolatilityReport, *, exact: bool = False) -> dict:
    obj = dict(zip(REPORT_FIELDS, report_row(report, exact=exact)))
    if obj["delta_f_rel"] == "":  # a defined value never renders empty
        obj["delta_f_rel"] = None
    obj["c_star"], obj["n_2y"] = _json_count(report.c_star), _json_count(report.n_2y)
    return obj


def _json_count(value):
    """``value``, or ``int(value)`` if it is not an int: json.dump writes an
    int, a bool or an int subclass as it is, and refuses another integer,
    such as a numpy one."""
    return value if isinstance(value, int) else int(value)


def write_reports_csv(reports, dest, *, exact: bool = False) -> None:
    write_csv(dest, REPORT_FIELDS, (report_row(r, exact=exact) for r in reports))


# One report object of write_reports_json, as json.dump(..., indent=2) lays
# it out in a list: each field's '    "key": ' prefix is built once.
_REPORT_JSON = "  {\n%s\n  }" % ",\n".join(
    f"    {encode_basestring_ascii(name)}: %s" for name in REPORT_FIELDS
)
# Reports per write of write_reports_json, so that only so many are held as text.
_JSON_BLOCK = 1024


def _json_value(value) -> str:
    """``value`` as json.dump writes it: a string through the C escaper that
    ``ensure_ascii=True`` uses, an int with ``int.__repr__``."""
    if value.__class__ is str:
        return encode_basestring_ascii(value)
    if value.__class__ is int:
        return int.__repr__(value)
    return json.dumps(value)


def _report_json(report: VolatilityReport, exact: bool) -> str:
    """The JSON text of :func:`report_obj`, laid out as in write_reports_json.
    The rendered values are strings, and only ``delta_f_rel`` can be empty."""
    journal_id, f, f_star, c_star, delta_f, rel, n_2y = report_row(report, exact=exact)
    enc = encode_basestring_ascii
    if journal_id.__class__ is str and c_star.__class__ is int and n_2y.__class__ is int:
        journal_id = enc(journal_id)  # "%s" writes an int as int.__repr__ does
    else:  # other values, which the public constructor can be given
        c_star, n_2y = _json_count(c_star), _json_count(n_2y)
        journal_id, c_star, n_2y = _json_value(journal_id), _json_value(c_star), _json_value(n_2y)
    rel = enc(rel) if rel else "null"
    return _REPORT_JSON % (journal_id, enc(f), enc(f_star), c_star, enc(delta_f), rel, n_2y)


def write_reports_json(reports, dest, *, exact: bool = False) -> None:
    """The bytes of ``write_json`` of the reports' :func:`report_obj` list,
    written in blocks of _JSON_BLOCK reports with no list of dicts."""
    reports = iter(reports)
    with _open_out(dest) as out:
        start = "[\n"
        while block := [_report_json(r, exact) for r in islice(reports, _JSON_BLOCK)]:
            out.write(start + ",\n".join(block))
            start = ",\n"
        out.write("[]\n" if start == "[\n" else "\n]\n")


def write_ranked_csv(table: RankedTable, dest, *, exact: bool = False) -> None:
    rows = ([i] + report_row(r, exact=exact) for i, r in enumerate(table.rows, start=1))
    write_csv(dest, ["rank", *REPORT_FIELDS], rows)


def write_ranked_json(table: RankedTable, dest, *, exact: bool = False) -> None:
    write_json(
        dest,
        {
            "key": table.key.value,
            "k": table.k,
            "rows": [report_obj(r, exact=exact) for r in table.rows],
            "excluded": [
                {"journal_id": e.journal_id, "reason": e.reason} for e in table.excluded
            ],
        },
    )


def _threshold_label(cut: Fraction, key: RankKey, exact: bool) -> str:
    if exact:
        return exact_str(cut)
    if key is RankKey.RELATIVE:
        return plain_number_str(cut * 100) + "%"
    return plain_number_str(cut)


def threshold_rows(table: ThresholdTable, *, exact: bool = False) -> list[list]:
    rows = []
    for row in table.rows:
        percent = exact_str(row.percent) if exact else sig2_percent_str(row.percent)
        rows.append([_threshold_label(row.threshold, table.key, exact), row.count, percent])
    return rows


def write_thresholds_csv(table: ThresholdTable, dest, *, exact: bool = False) -> None:
    write_csv(dest, ["threshold", "count", "percent"], threshold_rows(table, exact=exact))


def write_thresholds_json(table: ThresholdTable, dest, *, exact: bool = False) -> None:
    write_json(
        dest,
        {
            "key": table.key.value,
            "journals_ranked": table.journals_ranked,
            "rows": [
                {"threshold": label, "count": count, "percent": percent}
                for label, count, percent in threshold_rows(table, exact=exact)
            ],
        },
    )


def write_scatter_csv(points, dest) -> None:
    """`scatter.csv`: n_2y,delta_f,delta_f_rel with floats for plot tools and
    an empty field where the relative value is undefined.  ``points`` are
    those of :func:`scatter_data`, or of :func:`_scatter_points` with float
    values."""
    rows = (
        [n_2y, repr(float(delta_f)), "" if delta_f_rel is None else repr(float(delta_f_rel))]
        for n_2y, delta_f, delta_f_rel in points
    )
    write_csv(dest, ["n_2y", "delta_f", "delta_f_rel"], rows)
