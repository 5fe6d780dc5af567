"""Differential tests of the integer kernel against the ``Fraction`` formulas.

Reports are built from integer closed forms, rankings take a heap top-k,
threshold counts cross-multiply and rendering rounds on integers.  Each test
here compares one of them with the plain ``Fraction`` arithmetic it replaces.
"""

import math
from decimal import Decimal
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from given_reports import GivenReport
from volatix.analytics import RankKey, rank_by_volatility, threshold_table
from volatix.display import decimal_str, percent_str, round_half_up
from volatix.metrics import (
    MAX_CITATIONS,
    JournalAggregate,
    VolatilityInputs,
    citation_average,
    top_paper_volatility,
    volatility_exact,
    volatility_relative_exact,
)


@st.composite
def aggregates(draw):
    n = draw(st.integers(min_value=2, max_value=10**6))
    top = draw(st.integers(min_value=0, max_value=MAX_CITATIONS))
    # no other paper is cited more than the top one
    rest = draw(st.integers(min_value=0, max_value=(n - 1) * top))
    return JournalAggregate("J", "J", total_citations=top + rest, n_2y=n, top_cited=top)


@given(aggregates())
@example(JournalAggregate("J", "J", total_citations=7, n_2y=2, top_cited=7))
@example(JournalAggregate("J", "J", total_citations=0, n_2y=2, top_cited=0))
@example(JournalAggregate("J", "J", total_citations=12, n_2y=2, top_cited=6))
def test_report_matches_fraction_formulas(agg):
    total, n, top = agg.total_citations, agg.n_2y, agg.top_cited
    report = top_paper_volatility(agg)
    f = citation_average(total, n)
    f_star = citation_average(total - top, n - 1)
    assert (report.f, report.f_star, report.delta_f) == (f, f_star, f - f_star)
    assert report.delta_f_rel == ((f - f_star) / f_star if f_star > 0 else None)
    # and as the volatility of re-adding the top paper to the journal without it
    inputs = VolatilityInputs.from_counts(total - top, n - 1, top)
    assert report.delta_f == volatility_exact(inputs)
    if total != top:
        assert report.delta_f_rel == volatility_relative_exact(inputs)
    assert (report.journal_id, report.c_star, report.n_2y) == ("J", top, n)
    assert all(type(x) is Fraction for x in (report.f, report.f_star, report.delta_f))


# A few small values, so that keys, delta_f and journal ids tie often.
tied_values = st.fractions(min_value=-2, max_value=2, max_denominator=3)
tied_reports = st.builds(
    GivenReport,
    journal_id=st.sampled_from("ABC"),
    f=st.just(Fraction(1)),
    f_star=st.just(Fraction(1)),
    c_star=st.just(1),
    delta_f=tied_values,
    delta_f_rel=st.none() | tied_values,
    n_2y=st.integers(min_value=2, max_value=4),
)


def reference_rank(reports, key, k):
    """The two stable sorts rank_by_volatility used before its heap top-k."""
    value = (lambda r: r.delta_f) if key is RankKey.ABSOLUTE else (lambda r: r.delta_f_rel)
    eligible = [r for r in reports if value(r) is not None]
    excluded = [r.journal_id for r in reports if value(r) is None]
    eligible.sort(key=lambda r: r.journal_id)
    eligible.sort(key=lambda r: (value(r), r.delta_f), reverse=True)
    return eligible[:k], excluded


@given(
    reports=st.lists(tied_reports, max_size=12),
    key=st.sampled_from(RankKey),
    k=st.integers(min_value=0, max_value=14),
)
def test_rank_matches_two_stable_sorts(reports, key, k):
    rows, excluded = reference_rank(reports, key, k)
    table = rank_by_volatility((r for r in reports), key, k)  # a one-shot iterable
    # reports equal in every field are interchangeable, so compare as values
    assert list(table.rows) == rows
    assert [e.journal_id for e in table.excluded] == excluded


@given(
    values=st.lists(st.none() | tied_values, max_size=20),
    cuts=st.sets(tied_values, max_size=6).map(sorted),
)
def test_threshold_counts_match_fraction_comparison(values, cuts):
    reports = [
        GivenReport("J", Fraction(1), Fraction(1), 1, Fraction(0), v, 2) for v in values
    ]
    table = threshold_table(iter(reports), RankKey.RELATIVE, cuts)
    ranked = [v for v in values if v is not None]
    assert [row.count for row in table.rows] == [sum(v > cut for v in ranked) for cut in cuts]
    assert table.journals_ranked == len(ranked)


def half_up_units(x, places):
    """sign(x) * floor(|x| * 10**places + 1/2), in Fraction arithmetic."""
    units = math.floor(abs(x) * 10**places + Fraction(1, 2))
    return -units if x < 0 else units


def fixed_point(units, places):
    return f"{Decimal(f'{units}e-{places}'):.{places}f}"


@st.composite
def rationals_and_places(draw):
    places = draw(st.integers(min_value=0, max_value=4))
    # half-way values +-x.xx5 at that precision, or any rational
    ties = st.integers(-(10**6), 10**6).map(lambda n: Fraction(2 * n + 1, 2 * 10**places))
    return draw(ties | st.fractions(max_denominator=10**6)), places


@given(rationals_and_places())
@example((Fraction(-4, 1000), 2))
@example((Fraction(-5, 1000), 2))
@example((Fraction(5, 1000), 2))
def test_rounding_matches_fraction_half_up(x_places):
    x, places = x_places
    units = half_up_units(x, places)
    assert round_half_up(x, places) == Fraction(units, 10**places)
    assert decimal_str(x, places) == fixed_point(units, places)
    assert percent_str(x) == f"{half_up_units(x, 2)}%"
