"""Reports of counts against the ``Fraction`` formulas.

A report keeps a journal's counts ``(C, N_2Y, c*)`` and makes a ``Fraction``
only when a value is read.  Each value must be the ``Fraction`` formula's, in
value and in type; and every table and byte the analytics layer makes from
reports of counts must be the ones it makes from ``GivenReport``s holding the
formulas' values as reduced ``Fraction`` pairs.  The rounded writers must not
make a ``Fraction`` per report at all.
"""

import copy
import io
import json
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from given_reports import GivenReport, fields
from volatix import analytics, cli
from volatix.analytics import RankKey
from volatix.ingest import Corpus, write_journals_csv
from volatix.metrics import REPORT_FIELDS, JournalAggregate, VolatilityReport, top_paper_volatility


@st.composite
def possible_aggregates(draw, journal_ids=st.sampled_from("ABCD"), small=True):
    """Aggregates a real journal can have (the top paper at least the average);
    small counts make keys, delta_f and journal ids tie often."""
    n = draw(st.integers(2, 5 if small else 10**6))
    top = draw(st.integers(0, 6 if small else 2**31 - 1))
    rest = draw(st.integers(0, (n - 1) * top))
    jid = draw(journal_ids)
    return JournalAggregate(jid, jid, total_citations=top + rest, n_2y=n, top_cited=top)


def fraction_built(agg):
    """The report of ``agg`` from the ``Fraction`` formulas, as a ``GivenReport``."""
    total, n, top = agg.total_citations, agg.n_2y, agg.top_cited
    f, f_star = Fraction(total, n), Fraction(total - top, n - 1)
    return GivenReport(
        agg.journal_id, f, f_star, top, f - f_star, (f - f_star) / f_star if f_star else None, n
    )


@given(possible_aggregates(journal_ids=st.just("J"), small=False))
@example(JournalAggregate("J", "J", total_citations=7, n_2y=2, top_cited=7))
@example(JournalAggregate("J", "J", total_citations=0, n_2y=2, top_cited=0))
@example(JournalAggregate("J", "J", total_citations=12, n_2y=2, top_cited=6))
def test_counts_report_equals_fraction_report(agg):
    counts, built = top_paper_volatility(agg), fraction_built(agg)
    for name in REPORT_FIELDS:
        a, b = getattr(counts, name), getattr(built, name)
        assert (a, type(a)) == (b, type(b)), name
    # the checked constructor gives the report that the unchecked one does
    checked = VolatilityReport(agg.journal_id, agg.total_citations, agg.n_2y, agg.top_cited)
    assert counts == checked and checked == counts
    assert hash(counts) == hash(checked)
    assert repr(counts) == repr(checked)


def test_repr_and_immutability_are_a_frozen_dataclass():
    report = top_paper_volatility(JournalAggregate("j1", "Journal One", 112, 6, 87))
    assert repr(report) == "VolatilityReport(journal_id='j1', total_citations=112, n_2y=6, c_star=87)"
    for name in ("journal_id", "total_citations", "n_2y", "c_star", "f", "delta_f_rel"):
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, 1)
    for name in ("journal_id", "total_citations", "n_2y", "c_star"):
        with pytest.raises(FrozenInstanceError):
            delattr(report, name)
    assert pickle.loads(pickle.dumps(report)) == report == copy.deepcopy(report)
    assert report != (report.journal_id,)


def products(reports) -> list:
    """Every table and every writer's bytes, rounded and exact, of ``reports``."""
    out = [analytics.scatter_data(reports)]
    tables = []
    for key in RankKey:
        for k in (0, 1, 3, 20):
            table = analytics.rank_by_volatility(reports, key, k)
            # reports of two classes compare by their fields
            out.append((table.key, table.k, [fields(r) for r in table.rows], table.excluded))
            tables.append(table)
        cuts = analytics.DEFAULT_ABSOLUTE_CUTS + (Fraction(-1, 3), Fraction(0), Fraction(7, 3))
        tables.append(analytics.threshold_table(reports, key, sorted(cuts)))
    out += [t for t in tables if isinstance(t, analytics.ThresholdTable)]
    for exact in (False, True):
        for write in (analytics.write_reports_csv, analytics.write_reports_json):
            out.append(render(write, reports, exact=exact))
        for table in tables:
            kind = "ranked" if isinstance(table, analytics.RankedTable) else "thresholds"
            for fmt in ("csv", "json"):
                write = getattr(analytics, f"write_{kind}_{fmt}")
                out.append(render(write, table, exact=exact))
    out.append(render(analytics.write_scatter_csv, out[0]))
    return out


def render(write, payload, **kwargs) -> str:
    buf = io.StringIO()
    write(payload, buf, **kwargs)
    return buf.getvalue()


@given(st.lists(st.tuples(possible_aggregates(), st.booleans()), max_size=12))
def test_mixed_table_gives_the_bytes_of_an_all_fraction_table(drawn):
    mixed = [top_paper_volatility(a) if counts else fraction_built(a) for a, counts in drawn]
    reference = [fraction_built(a) for a, _ in drawn]
    assert list(map(fields, mixed)) == list(map(fields, reference))
    assert products(mixed) == products(reference)
    by_size = sorted(reference, key=lambda r: (r.n_2y, r.journal_id))
    assert analytics.scatter_data(mixed) == [(r.n_2y, r.delta_f, r.delta_f_rel) for r in by_size]


@pytest.fixture
def fraction_calls(monkeypatch):
    """A counter of ``Fraction.__new__`` calls, that is, of ``Fraction``s made."""
    calls = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    return calls


def corpus_of(n_journals: int) -> Corpus:
    """``n_journals`` journals, every tenth with an undefined ``delta_f_rel``."""
    aggs = [
        JournalAggregate(f"J{i:04d}", "J", 7 * i + (3 if i % 10 else 0), 2 + i % 9, 7 * i)
        for i in range(1, n_journals + 1)
    ]
    return Corpus(journals={a.journal_id: a for a in aggs})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rounded_report_and_rank_make_no_fraction(fmt, fraction_calls):
    corpus = corpus_of(300)
    reports, _ = analytics.volatility_reports(corpus)
    assert fraction_calls[0] == 0
    render(getattr(analytics, f"write_reports_{fmt}"), reports)
    for key in RankKey:
        table = analytics.rank_by_volatility(reports, key, 10)
        render(getattr(analytics, f"write_ranked_{fmt}"), table)
    assert fraction_calls[0] == 0
    assert len(reports) == 300


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("key", list(RankKey))
def test_rounded_thresholds_make_no_fraction_per_report(fmt, key, fraction_calls):
    """The cuts and percents are ``Fraction``s; the reports add none."""
    cuts = list(analytics.DEFAULT_ABSOLUTE_CUTS)
    made = []
    for n_journals in (100, 400):
        reports, _ = analytics.volatility_reports(corpus_of(n_journals))
        before = fraction_calls[0]
        table = analytics.threshold_table(reports, key, cuts)
        render(getattr(analytics, f"write_thresholds_{fmt}"), table)
        made.append(fraction_calls[0] - before)
    assert made[0] == made[1] <= 6 * len(cuts)


def test_cli_scatter_makes_no_fraction(fraction_calls, tmp_path):
    corpus = corpus_of(300)
    source, out = tmp_path / "journals.csv", tmp_path / "scatter.csv"
    write_journals_csv(corpus, source)
    reports, _ = analytics.volatility_reports(corpus)
    expected = render(analytics.write_scatter_csv, analytics.scatter_data(reports))
    before = fraction_calls[0]
    assert before > 0  # the guard counts: scatter_data made its points
    assert cli.main(["scatter", str(source), "--out", str(out)]) == 0
    assert fraction_calls[0] == before
    assert out.read_text() == expected


def json_dump_bytes(reports, exact: bool) -> str:
    """What write_json of the reports' report_obj list writes."""
    buf = io.StringIO()
    json.dump([analytics.report_obj(r, exact=exact) for r in reports], buf, indent=2)
    return buf.getvalue() + "\n"


# ids json must escape: non-ASCII, astral, quote, backslash, control
# characters and a lone surrogate
ODD_IDS = ["Zé", "\U0001d11e", '"q"', "back\\slash", "tab\there\n", "\x00\x1f\x7f", "\ud800", ""]


@given(
    st.lists(
        st.tuples(
            possible_aggregates(journal_ids=st.one_of(st.sampled_from(ODD_IDS), st.text(max_size=4))),
            st.booleans(),
        ),
        max_size=9,
    ),
    st.booleans(),
    st.integers(1, 4),
)
def test_streamed_report_json_is_json_dump(drawn, exact, block):
    """Counts-built and Fraction-built reports, undefined delta_f_rel (top
    paper holding every citation) included, in blocks of 1-4 reports."""
    reports = [top_paper_volatility(a) if counts else fraction_built(a) for a, counts in drawn]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytics, "_JSON_BLOCK", block)
        written = render(analytics.write_reports_json, reports, exact=exact)
        assert render(analytics.write_reports_json, iter(reports), exact=exact) == written
    assert written == json_dump_bytes(reports, exact)
    assert json.loads(written) == [analytics.report_obj(r, exact=exact) for r in reports]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n_reports", [0, 1, 2500], ids=["empty", "one", "three-blocks"])
def test_streamed_report_json_to_a_path(exact, n_reports, tmp_path):
    aggs = [
        JournalAggregate(ODD_IDS[i % len(ODD_IDS)] + str(i), "J", 7 * i + (3 if i % 10 else 0), 2 + i % 9, 7 * i)
        for i in range(n_reports)
    ]
    reports = [top_paper_volatility(a) for a in aggs]
    path = tmp_path / "reports.json"
    analytics.write_reports_json(reports, path, exact=exact)
    assert path.read_bytes() == json_dump_bytes(reports, exact).encode("ascii")
    if n_reports == 0:
        assert path.read_text() == "[]\n"


def test_streamed_report_json_writes_other_values_as_json_dump():
    """Values the public constructor takes that are not str and int: an int
    id, a bool, an int subclass and a float id."""
    reports = [
        VolatilityReport(7, 1, 2, True),
        VolatilityReport("j", 3, 2, IntWithOwnStr(2)),
        VolatilityReport(2.5, 6, 3, IntWithOwnStr(4)),
    ]
    for exact in (False, True):
        assert render(analytics.write_reports_json, reports, exact=exact) == json_dump_bytes(reports, exact)


class IntWithOwnStr(int):
    """An int subclass, which json.dump writes with int.__repr__."""

    def __str__(self):
        return "not this"
