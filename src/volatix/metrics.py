"""Exact single-paper volatility of citation averages.

A journal's citation average (the computed stand-in for its Impact Factor) is

    f1 = C1 / N1

where ``C1`` counts census-year citations to the journal's citable items
(articles and reviews) of the prior two years and ``N1`` counts those items.
Publishing one more paper that brings ``c`` citations moves the average to

    f2 = (C1 + c) / (N1 + 1)

so the single paper shifts the average by

    delta_f(c)   = f2 - f1 = (c - f1) / (N1 + 1)          (volatility)
    delta_f_r(c) = delta_f / f1                           (relative volatility)

Every function here works on integers and ``fractions.Fraction`` and returns
exact rationals; rounding happens only at display time (see
:mod:`volatix.display`).  That exactness is load-bearing: the sign law
(``delta_f > 0`` iff ``c > f1``), the penalty floor, and the
remove-then-re-add round trip are integer identities that float arithmetic
would not preserve.

The top-paper decomposition asks the same question of a journal's own most
cited paper.  With ``f = C / N_2Y``, top count ``c*`` and the "initial"
average without that paper ``f* = (C - c*) / (N_2Y - 1)``, the paper moved
the published average by ``delta_f(c*) = f - f* = (N_2Y c* - C) / (N_2Y
(N_2Y - 1))``.  All four report values are ratios of the integers ``(C,
N_2Y, c*)``, so a report keeps only those counts: ranking, thresholds and
rendering read each value as an integer ``(num, den)`` pair, and a
``Fraction`` is made only when a caller reads a field.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import (
    EmptyJournalError,
    InvalidAggregateError,
    InvalidSizeError,
    SingletonJournalError,
    UndefinedRelativeError,
)

Rational = Union[int, Fraction]

#: Largest accepted per-item citation count; sums are unbounded Python ints.
MAX_CITATIONS = 2**31 - 1


class ItemType(enum.Enum):
    """Kind of published item; only articles and reviews are citable."""

    ARTICLE = "article"
    REVIEW = "review"
    FRONT_MATTER = "front_matter"

    @property
    def citable(self) -> bool:
        return self is not ItemType.FRONT_MATTER


class PaperEffect(enum.Enum):
    """Direction a single paper pushes the citation average."""

    BENEFIT = "benefit"
    PENALTY = "penalty"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class PaperRecord:
    """One published item and its census-window citation count."""

    journal_id: str
    paper_id: str
    citations: int
    item_type: ItemType = ItemType.ARTICLE

    def __post_init__(self):
        if self.citations < 0:
            raise InvalidAggregateError(
                f"paper {self.paper_id!r}: negative citations ({self.citations})"
            )


@dataclass(frozen=True, slots=True)
class JournalAggregate:
    """Journal-level counts: window citations C, biennial size N_2Y, top count c*.

    Invariants enforced on construction (see :func:`_aggregate_fault`):
      * ``n_2y >= 1``
      * ``0 <= top_cited <= total_citations``
      * a single-paper journal's top paper holds all its citations
      * the top paper is at least the average: ``n_2y * top_cited >=
        total_citations``, so that removing it never raises the average
    """

    journal_id: str
    name: str
    total_citations: int
    n_2y: int
    top_cited: int

    def __post_init__(self):
        _refuse_non_integers(self.journal_id, self.total_citations, self.n_2y, self.top_cited)
        fault = _aggregate_fault(self.journal_id, self.total_citations, self.n_2y, self.top_cited)
        if fault is not None:
            raise InvalidAggregateError(fault)

    @property
    def citation_average(self) -> Fraction:
        return Fraction(self.total_citations, self.n_2y)


def _aggregate_fault(journal_id: str, total: int, n_2y: int, top: int) -> Optional[str]:
    """Why no journal can have the counts ``(C, N_2Y, c*)``, or None if one can.

    For ``n_2y >= 1`` the four invariants of :class:`JournalAggregate` come
    down to ``0 <= c* <= C <= N_2Y c*``; each message names the first one
    broken, in the order the class lists them.
    """
    if n_2y >= 1 and 0 <= top <= total <= n_2y * top:
        return None
    if n_2y < 1:
        return f"journal {journal_id!r}: n_2y must be >= 1, got {n_2y}"
    if total < 0:
        return f"journal {journal_id!r}: negative total_citations"
    if not 0 <= top <= total:
        return f"journal {journal_id!r}: top_cited {top} outside [0, {total}]"
    if n_2y == 1:
        return f"journal {journal_id!r}: single paper must hold all {total} citations"
    return f"journal {journal_id!r}: top_cited {top} below the average {total}/{n_2y}"


def _refuse_non_integers(journal_id: str, *counts) -> None:
    """Raise InvalidAggregateError for the first of ``counts`` that is not an
    integer (a bool or a numpy integer is one).  :func:`_aggregate_fault`
    compares counts as given, so a float would pass it.  The check is not
    part of it because the Schema-B row loop calls it once per row, on
    counts that are ints already."""
    for value in counts:
        if not isinstance(value, numbers.Integral):
            raise InvalidAggregateError(f"journal {journal_id!r}: count {value!r} is not an integer")


def _refuse_singleton(journal_id: str, n_2y: int) -> None:
    if n_2y < 2:
        raise SingletonJournalError(
            f"journal {journal_id!r} has a single citable paper; "
            "top-paper decomposition is undefined"
        )


# Write an aggregate's slots past the __setattr__ that keeps aggregates frozen,
# as VolatilityReport._from_counts does for reports: the cheapest way to build
# one whose counts are already known to pass _aggregate_fault.
_AGGREGATE_SETTERS = tuple(getattr(JournalAggregate, f).__set__ for f in JournalAggregate.__slots__)


def _checked_aggregate(
    journal_id: str, name: str, total: int, n_2y: int, top: int
) -> JournalAggregate:
    """A JournalAggregate of counts that :func:`_aggregate_fault` passes,
    built without checking them again."""
    agg = object.__new__(JournalAggregate)
    set_id, set_name, set_total, set_n, set_top = _AGGREGATE_SETTERS
    set_id(agg, journal_id)
    set_name(agg, name)
    set_total(agg, total)
    set_n(agg, n_2y)
    set_top(agg, top)
    return agg


@dataclass(frozen=True)
class VolatilityInputs:
    """Initial state (f1, N1) of a journal plus one candidate paper's count c.

    When built from counts via :meth:`from_counts`, ``f1 * n1`` is the integer
    ``C1`` by construction.
    """

    f1: Fraction
    n1: int
    c: int

    def __post_init__(self):
        if self.n1 < 1:
            raise InvalidSizeError(f"initial size n1 must be >= 1, got {self.n1}")
        if self.f1 < 0:
            raise InvalidAggregateError(f"initial average f1 must be >= 0, got {self.f1}")
        if self.c < 0:
            raise InvalidAggregateError(f"citation count c must be >= 0, got {self.c}")

    @classmethod
    def from_counts(cls, c1: int, n1: int, c: int) -> "VolatilityInputs":
        if n1 < 1:
            raise InvalidSizeError(f"initial size n1 must be >= 1, got {n1}")
        return cls(Fraction(c1, n1), n1, c)


REPORT_FIELDS = ("journal_id", "f", "f_star", "c_star", "delta_f", "delta_f_rel", "n_2y")


def _value_field(index: int, doc: str) -> property:
    """Value ``index`` (0-3) of a report's :meth:`VolatilityReport._pairs`,
    read as a ``Fraction``, or None where its denominator is 0."""

    def get(self):
        values = self._pairs()
        num, den = values[2 * index], values[2 * index + 1]
        return None if den == 0 else Fraction(num, den)

    return property(get, doc=doc)


@dataclass(frozen=True)
class VolatilityReport:
    """Per-journal result of the top-paper decomposition: the counts ``(C,
    N_2Y, c*)`` of a journal with at least two citable papers.

    The four values ``f``, ``f_star``, ``delta_f`` and ``delta_f_rel`` are
    ratios of those counts, read as ``Fraction``s; ``delta_f_rel`` is None
    when the paperless average ``f_star`` is zero (the relative change is
    undefined/infinite there).  :meth:`_pairs` serves them as integer
    numerators and denominators, which is all that ranking, thresholds and
    rendering read, so a ``Fraction`` is made only when a field is read.

    The constructor refuses counts that no journal can have, as
    :class:`JournalAggregate` does, and a singleton journal (``n_2y < 2``),
    whose ``f_star`` would divide by zero.

    A report keeps its counts in four slots because there is one per
    journal: it is one 64-byte object (its GC header included, on CPython
    3.10-3.13).  The slots are declared here rather than by ``slots=True``,
    under which 3.10 and 3.11 raise ``TypeError``, not
    ``FrozenInstanceError``, on an assignment to ``f``.
    """

    __slots__ = ("journal_id", "total_citations", "n_2y", "c_star")
    journal_id: str
    total_citations: int
    n_2y: int
    c_star: int

    def __post_init__(self):
        _refuse_non_integers(self.journal_id, self.total_citations, self.n_2y, self.c_star)
        fault = _aggregate_fault(self.journal_id, self.total_citations, self.n_2y, self.c_star)
        if fault is not None:
            raise InvalidAggregateError(fault)
        _refuse_singleton(self.journal_id, self.n_2y)

    @classmethod
    def _from_counts(cls, journal_id: str, total: int, n_2y: int, top: int) -> "VolatilityReport":
        """A report of the counts, unchecked: the CLI's parse keeps one with
        ``n_2y = 1`` for a singleton journal, so that a later row with its id
        is still a duplicate."""
        report = object.__new__(cls)
        set_id, set_total, set_n, set_top = _REPORT_SETTERS
        set_id(report, journal_id)
        set_total(report, total)
        set_n(report, n_2y)
        set_top(report, top)
        return report

    def _pairs(self) -> tuple:
        """``f``, ``f_star``, ``delta_f`` and ``delta_f_rel`` as the numerator
        and denominator of each, eight ints in one tuple (one tuple, not four,
        because it is read once per report on every hot path).  The pairs
        need not be reduced.  Each denominator is positive, except that of
        ``delta_f_rel`` where it is undefined: there it is 0, as ``N (C - c*)``
        is when ``C = c*``."""
        total, n, top = self.total_citations, self.n_2y, self.c_star
        rest, excess = total - top, n * top - total
        return total, n, rest, n - 1, excess, n * (n - 1), excess, n * rest

    f = _value_field(0, "Citation average C / N_2Y.")
    f_star = _value_field(1, "Average without the top paper: (C - c*) / (N_2Y - 1).")
    delta_f = _value_field(2, "Shift f - f_star that the top paper made.")
    delta_f_rel = _value_field(3, "Relative shift delta_f / f_star; None when f_star = 0.")

    def __reduce__(self):  # pickle and deepcopy cannot set frozen slots one by one
        return self._from_counts, (self.journal_id, self.total_citations, self.n_2y, self.c_star)


# Write a report's four slots past the __setattr__ that keeps reports frozen,
# as _checked_aggregate does for aggregates: the slots' own setters are the
# cheapest way, once per report.
_REPORT_SETTERS = tuple(getattr(VolatilityReport, f).__set__ for f in VolatilityReport.__slots__)


def citation_average(total_citations: int, n: int) -> Fraction:
    """Exact citation average C/N of a journal.

    >>> citation_average(112, 6)
    Fraction(56, 3)
    """
    if n < 1:
        raise InvalidSizeError(f"citable-item count must be >= 1, got {n}")
    if total_citations < 0:
        raise InvalidAggregateError("total_citations must be >= 0")
    return Fraction(total_citations, n)


def updated_average(total_citations: int, n: int, c: int) -> Fraction:
    """Citation average after adding one paper cited ``c`` times: (C+c)/(N+1)."""
    if n < 1:
        raise InvalidSizeError(f"citable-item count must be >= 1, got {n}")
    if c < 0:
        raise InvalidAggregateError("citation count c must be >= 0")
    return Fraction(total_citations + c, n + 1)


def volatility_exact(inputs: VolatilityInputs) -> Fraction:
    """Exact shift of the citation average: (c - f1) / (N1 + 1).

    Positive iff the paper is above the journal's average, zero iff it is
    exactly average, negative iff below.
    """
    return (inputs.c - inputs.f1) / (inputs.n1 + 1)


def volatility_relative_exact(inputs: VolatilityInputs) -> Fraction:
    """Exact relative shift: (c - f1) / (f1 * (N1 + 1)).

    Raises UndefinedRelativeError for journals with zero initial average.
    """
    if inputs.f1 == 0:
        raise UndefinedRelativeError(
            "relative volatility undefined for zero initial average"
        )
    return (inputs.c - inputs.f1) / (inputs.f1 * (inputs.n1 + 1))


def volatility_relative_approx(c: int, total_citations: int) -> Fraction:
    """Highly-cited shortcut c/C1 for the relative shift.

    Valid only in the regime c >> f1 and N1 >> 1; it always overestimates the
    exact value.  ``total_citations`` is the initial count C1 = f1 * N1.
    """
    if total_citations <= 0:
        raise UndefinedRelativeError("approximation undefined for C1 = 0")
    if c < 0:
        raise InvalidAggregateError("citation count c must be >= 0")
    return Fraction(c, total_citations)


def benefit_approx(c: int, n1: int) -> Fraction:
    """Asymptotic gain c/N1 from a paper far above the journal average.

    The exact gain is (c - f1)/(N1 + 1); for c >> f1 and N1 >> 1 it collapses
    to c/N1, which makes the size dependence explicit: the same paper is worth
    ten times more to a journal ten times smaller.
    """
    if n1 < 1:
        raise InvalidSizeError(f"initial size n1 must be >= 1, got {n1}")
    if c < 0:
        raise InvalidAggregateError("citation count c must be >= 0")
    return Fraction(c, n1)


def penalty_bound(f1: Rational, n1: int) -> Fraction:
    """Worst-case shift -f1/(N1 + 1), attained by an uncited paper (c = 0).

    Every volatility satisfies delta_f(c) >= -f1/(N1 + 1), with equality iff
    c = 0.  The looser asymptotic form -f1/N1 (from the same N1 >> 1 limit as
    :func:`benefit_approx`) overstates the loss slightly.
    """
    if n1 < 1:
        raise InvalidSizeError(f"initial size n1 must be >= 1, got {n1}")
    f1 = Fraction(f1)
    if f1 < 0:
        raise InvalidAggregateError("initial average f1 must be >= 0")
    return -f1 / (n1 + 1)


def classify_paper(c: int, f1: Rational) -> PaperEffect:
    """Benefit / penalty / neutral classification, in exact arithmetic."""
    if c < 0:
        raise InvalidAggregateError("citation count c must be >= 0")
    f1 = Fraction(f1)
    if f1 < 0:
        raise InvalidAggregateError("initial average f1 must be >= 0")
    if c > f1:
        return PaperEffect.BENEFIT
    if c < f1:
        return PaperEffect.PENALTY
    return PaperEffect.NEUTRAL


def top_paper_volatility(agg: JournalAggregate) -> VolatilityReport:
    """How much a journal's own top-cited paper moved its citation average.

    Removes one instance of the maximum count c* (ties are value-irrelevant:
    any tied instance leaves the same f*) and reports

        f  = C / N_2Y
        f* = (C - c*) / (N_2Y - 1)
        delta_f     = f - f*       = (N_2Y c* - C) / (N_2Y (N_2Y - 1))
        delta_f_rel = delta_f / f* = (N_2Y c* - C) / (N_2Y (C - c*))  (None if C = c*)

    Raises SingletonJournalError for n_2y = 1, where f* would divide by zero;
    such journals stay in corpus summaries but cannot be ranked.
    """
    _refuse_singleton(agg.journal_id, agg.n_2y)
    return VolatilityReport._from_counts(
        agg.journal_id, agg.total_citations, agg.n_2y, agg.top_cited
    )


def journal_report_from_papers(
    papers: Iterable[PaperRecord],
) -> tuple[JournalAggregate, VolatilityReport]:
    """Aggregate raw per-paper counts and decompose, as one brute-force pass.

    Front-matter items are ignored.  Serves as the independent oracle for
    :func:`top_paper_volatility`: summing, counting and maxing the citable
    papers must give the identical report.
    """
    papers = list(papers)
    if not papers:
        raise EmptyJournalError("no papers given")
    citable = [p for p in papers if p.item_type.citable]
    if len(citable) < 2:
        raise SingletonJournalError(
            f"need >= 2 citable papers, got {len(citable)}"
        )
    journal_id = citable[0].journal_id
    for p in citable:
        if p.journal_id != journal_id:
            raise InvalidAggregateError(
                f"mixed journals in one report: {journal_id!r} vs {p.journal_id!r}"
            )
    counts = [p.citations for p in citable]
    agg = JournalAggregate(
        journal_id=journal_id,
        name=journal_id,
        total_citations=sum(counts),
        n_2y=len(counts),
        top_cited=max(counts),
    )
    return agg, top_paper_volatility(agg)
