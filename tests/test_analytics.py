import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from given_reports import GivenReport
from volatix.analytics import (
    DEFAULT_ABSOLUTE_CUTS,
    DEFAULT_RELATIVE_CUTS,
    RankedTable,
    RankKey,
    ThresholdRow,
    dataset_summary,
    rank_by_volatility,
    scatter_data,
    threshold_table,
    volatility_reports,
    write_ranked_csv,
    write_ranked_json,
    write_reports_csv,
    write_reports_json,
    write_scatter_csv,
    write_thresholds_csv,
)
from volatix.errors import InvalidThresholdsError
from volatix.ingest import Corpus, parse_aggregate, parse_paper_level
from volatix.metrics import JournalAggregate, VolatilityReport


def corpus_of(*aggs):
    return Corpus(journals={a.journal_id: a for a in aggs})


def report_with(jid, delta_f, delta_f_rel="unset", n_2y=10):
    delta_f = Fraction(delta_f)
    if delta_f_rel == "unset":
        delta_f_rel = delta_f
    return GivenReport(
        journal_id=jid,
        f=delta_f + 1,
        f_star=Fraction(1),
        c_star=1,
        delta_f=delta_f,
        delta_f_rel=delta_f_rel,
        n_2y=n_2y,
    )


def random_reports(rng, n):
    return [
        report_with(f"J{i:03d}", Fraction(rng.randint(0, 400), rng.randint(1, 100)))
        for i in range(n)
    ]


small_fractions = st.fractions(min_value=-3, max_value=30, max_denominator=40)


@st.composite
def count_report(draw, undefined_rel: bool):
    """A report of counts (C, N_2Y, c*); with ``undefined_rel``, C = c*, so
    that f* = 0 and delta_f_rel is undefined."""
    n = draw(st.integers(2, 40))
    top = draw(st.integers(0, 60))
    total = top if undefined_rel else draw(st.integers(top, n * top))
    return VolatilityReport._from_counts(draw(st.sampled_from("ABC")), total, n, top)


@st.composite
def given_report(draw, undefined_rel: bool):
    """A stand-in report of any given values, negative ones included."""
    delta_f = draw(small_fractions)
    rel = None if undefined_rel else draw(st.none() | small_fractions)
    return GivenReport("G", delta_f + 1, Fraction(1), 1, delta_f, rel, 10)


@st.composite
def threshold_cases(draw):
    """Reports of both kinds, a key, strictly increasing cuts (none, or some
    equal to report values, to test strictness) and whether to pass the
    reports as a generator."""
    undefined_rel = draw(st.booleans())  # every relative value undefined
    kinds = count_report(undefined_rel) | given_report(undefined_rel)
    reports = draw(st.lists(kinds, max_size=25))
    key = draw(st.sampled_from(RankKey))
    field = "delta_f" if key is RankKey.ABSOLUTE else "delta_f_rel"
    values = [getattr(r, field) for r in reports if getattr(r, field) is not None]
    pool = small_fractions | st.sampled_from(values) if values else small_fractions
    cuts = sorted(draw(st.sets(pool, max_size=8)))
    return reports, key, cuts, draw(st.booleans())


@pytest.fixture(scope="module")
def absolute_reports(absolute_fixture):
    corpus, _ = parse_aggregate(absolute_fixture)
    reports, excluded = volatility_reports(corpus)
    assert not excluded
    return reports


@pytest.fixture(scope="module")
def relative_reports(relative_fixture):
    corpus, _ = parse_aggregate(relative_fixture)
    reports, excluded = volatility_reports(corpus)
    assert not excluded
    return reports


class TestVolatilityReports:
    def test_sorted_by_journal_id(self, absolute_reports):
        ids = [r.journal_id for r in absolute_reports]
        assert ids == sorted(ids)
        assert len(absolute_reports) == 10

    def test_singletons_go_to_exclusion_sidecar(self):
        corpus = corpus_of(
            JournalAggregate("A", "A", 10, 5, 6),
            JournalAggregate("S", "S", 4, 1, 4),
        )
        reports, excluded = volatility_reports(corpus)
        assert [r.journal_id for r in reports] == ["A"]
        assert [(e.journal_id, e.reason) for e in excluded] == [("S", "singleton_journal")]

    def test_worker_count_does_not_change_result(self, absolute_fixture):
        corpus, _ = parse_aggregate(absolute_fixture)
        serial, _ = volatility_reports(corpus, max_workers=1)
        threaded, _ = volatility_reports(corpus, max_workers=8)
        assert serial == threaded


class TestRankByVolatility:
    def test_absolute_top3(self, absolute_reports):
        table = rank_by_volatility(absolute_reports, RankKey.ABSOLUTE, 3)
        assert [r.journal_id for r in table.rows] == [
            "CA-CANCER J CLIN",
            "J STAT SOFTW",
            "LIVING REV RELATIV",
        ]

    def test_relative_top1(self, relative_reports):
        table = rank_by_volatility(relative_reports, RankKey.RELATIVE, 1)
        assert table.rows[0].journal_id == "ACTA CRYSTALLOGR C"
        assert abs(float(table.rows[0].delta_f_rel) * 100 - 474) < 5

    def test_ties_break_by_journal_id(self):
        reports = [report_with(jid, Fraction(2)) for jid in ("C", "A", "B")]
        table = rank_by_volatility(reports, RankKey.ABSOLUTE, 3)
        assert [r.journal_id for r in table.rows] == ["A", "B", "C"]

    def test_k_zero_empty(self, absolute_reports):
        assert rank_by_volatility(absolute_reports, RankKey.ABSOLUTE, 0).rows == ()

    def test_k_beyond_corpus_returns_all(self, absolute_reports):
        table = rank_by_volatility(absolute_reports, RankKey.ABSOLUTE, 99)
        assert len(table.rows) == 10

    def test_undefined_relative_excluded_with_reason(self):
        reports = [
            report_with("A", Fraction(2)),
            report_with("U", Fraction(3), delta_f_rel=None),
        ]
        table = rank_by_volatility(reports, RankKey.RELATIVE, 5)
        assert [r.journal_id for r in table.rows] == ["A"]
        assert [(e.journal_id, e.reason) for e in table.excluded] == [
            ("U", "undefined_relative")
        ]
        # same reports under the absolute key rank everything
        assert len(rank_by_volatility(reports, RankKey.ABSOLUTE, 5).rows) == 2

    @given(st.integers(0, 12), st.randoms())
    def test_prefix_property(self, k, rng):
        reports = random_reports(rng, 12)
        small = rank_by_volatility(reports, RankKey.ABSOLUTE, k)
        big = rank_by_volatility(reports, RankKey.ABSOLUTE, k + 1)
        assert big.rows[:k] == small.rows


class TestThresholdTable:
    def test_worked_example(self):
        reports = [
            report_with(f"J{i}", Fraction(s))
            for i, s in enumerate(("0.05", "0.2", "0.3", "0.6", "1.2"))
        ]
        cuts = [Fraction(s) for s in ("0.1", "0.25", "0.5", "1")]
        table = threshold_table(reports, RankKey.ABSOLUTE, cuts)
        assert [row.count for row in table.rows] == [4, 3, 2, 1]
        assert [row.percent for row in table.rows] == [
            Fraction(4, 5),
            Fraction(3, 5),
            Fraction(2, 5),
            Fraction(1, 5),
        ]

    def test_threshold_above_max(self, absolute_reports):
        table = threshold_table(absolute_reports, RankKey.ABSOLUTE, [Fraction(100)])
        assert table.rows[0].count == 0

    def test_fixture_count_above_five(self, absolute_reports):
        # hand count of the bundled table: 7 journals shift by more than 5
        table = threshold_table(absolute_reports, RankKey.ABSOLUTE, [Fraction(5)])
        assert table.rows[0].count == 7
        assert table.journals_ranked == 10

    def test_unsorted_cuts_rejected(self, absolute_reports):
        with pytest.raises(InvalidThresholdsError):
            threshold_table(absolute_reports, RankKey.ABSOLUTE, [Fraction(2), Fraction(1)])
        with pytest.raises(InvalidThresholdsError):
            threshold_table(absolute_reports, RankKey.ABSOLUTE, [Fraction(1), Fraction(1)])

    def test_membership_is_strict(self):
        reports = [report_with("A", Fraction(1, 2))]
        table = threshold_table(reports, RankKey.ABSOLUTE, [Fraction(1, 2)])
        assert table.rows[0].count == 0

    @given(st.randoms(), st.integers(1, 60))
    def test_counts_non_increasing(self, rng, n):
        reports = random_reports(rng, n)
        cuts = sorted({Fraction(rng.randint(0, 300), 100) for _ in range(6)})
        if not cuts:
            cuts = [Fraction(1)]
        table = threshold_table(reports, RankKey.ABSOLUTE, cuts)
        counts = [row.count for row in table.rows]
        assert counts == sorted(counts, reverse=True)

    @given(st.randoms())
    def test_counting_identity_vs_scatter(self, rng):
        reports = random_reports(rng, 30)
        cut = Fraction(rng.randint(0, 200), 100)
        table = threshold_table(reports, RankKey.ABSOLUTE, [cut])
        points = scatter_data(reports)
        assert table.rows[0].count == sum(1 for _, delta_f, _ in points if delta_f > cut)

    def test_relative_key_uses_defined_reports_only(self):
        reports = [
            report_with("A", Fraction(2)),
            report_with("U", Fraction(3), delta_f_rel=None),
        ]
        table = threshold_table(reports, RankKey.RELATIVE, [Fraction(1)])
        assert table.journals_ranked == 1
        assert table.rows[0].count == 1

    @given(threshold_cases())
    def test_counts_match_a_fraction_count(self, case):
        reports, key, cuts, as_generator = case
        table = threshold_table(iter(reports) if as_generator else reports, key, cuts)
        field = "delta_f" if key is RankKey.ABSOLUTE else "delta_f_rel"
        ranked = [getattr(r, field) for r in reports if getattr(r, field) is not None]
        counts = [sum(value > cut for value in ranked) for cut in cuts]
        assert table.key is key
        assert table.journals_ranked == len(ranked)
        assert table.rows == tuple(
            ThresholdRow(cut, count, Fraction(count, len(ranked)) if ranked else Fraction(0))
            for cut, count in zip(cuts, counts)
        )

    def test_presets_are_strictly_increasing(self):
        assert list(DEFAULT_ABSOLUTE_CUTS) == sorted(DEFAULT_ABSOLUTE_CUTS)
        assert list(DEFAULT_RELATIVE_CUTS) == sorted(DEFAULT_RELATIVE_CUTS)
        assert DEFAULT_ABSOLUTE_CUTS[0] == Fraction(1, 10)
        assert DEFAULT_RELATIVE_CUTS[-1] == 3


class TestScatterData:
    def test_fixture_points(self, absolute_reports):
        points = scatter_data(absolute_reports)
        assert len(points) == 10
        sizes = [n for n, _, _ in points]
        assert min(sizes) == 6 and max(sizes) == 351
        assert sizes == sorted(sizes)

    def test_empty(self):
        assert scatter_data([]) == []

    def test_bijection_with_reports(self, relative_reports):
        assert len(scatter_data(relative_reports)) == len(relative_reports)


class TestDatasetSummary:
    def test_fixture_totals(self, absolute_fixture):
        corpus, _ = parse_aggregate(absolute_fixture)
        summary = dataset_summary(corpus)
        assert summary.journals == 10
        assert summary.papers == 928
        # independent oracle: re-add the columns straight from the file
        with open(absolute_fixture, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert summary.papers == sum(int(r["n_2y"]) for r in rows)
        assert summary.citations == sum(int(r["total_citations"]) for r in rows)

    def test_empty_corpus(self):
        summary = dataset_summary(Corpus(journals={}))
        assert (summary.journals, summary.papers, summary.citations) == (0, 0, 0)

    def test_per_paper_corpus_papers_equal_citable_rows(self, papers_sample):
        corpus, _ = parse_paper_level(papers_sample)
        summary = dataset_summary(corpus)
        # 7 citable rows survive cleaning (QJ-C has no citations at all)
        assert summary.papers == 7


class TestSerialization:
    def test_reports_csv_rendering(self, absolute_reports):
        buf = io.StringIO()
        write_reports_csv(absolute_reports, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        ca = next(r for r in rows if r["journal_id"] == "CA-CANCER J CLIN")
        assert ca["f"] == "240.09"
        assert ca["f_star"] == "171.83"
        assert ca["delta_f"] == "68.27"
        assert ca["delta_f_rel"] == "40%"
        assert ca["n_2y"] == "53"

    def test_reports_exact_mode(self, absolute_reports):
        buf = io.StringIO()
        write_reports_csv(absolute_reports, buf, exact=True)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        ca = next(r for r in rows if r["journal_id"] == "CA-CANCER J CLIN")
        assert ca["f"] == "12725/53"
        assert ca["delta_f"] == "188145/2756"

    def test_reports_json_null_for_undefined(self):
        reports = [report_with("U", Fraction(3), delta_f_rel=None)]
        buf = io.StringIO()
        write_reports_json(reports, buf)
        data = json.loads(buf.getvalue())
        assert data[0]["delta_f_rel"] is None

    def test_ranked_outputs(self, absolute_reports):
        table = rank_by_volatility(absolute_reports, RankKey.ABSOLUTE, 3)
        buf = io.StringIO()
        write_ranked_csv(table, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("rank,journal_id")
        assert lines[1].startswith("1,CA-CANCER J CLIN")
        buf = io.StringIO()
        write_ranked_json(table, buf)
        data = json.loads(buf.getvalue())
        assert data["key"] == "absolute"
        assert data["k"] == 3
        assert len(data["rows"]) == 3

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("writer", ["reports", "ranked"])
    def test_json_writers_write_numpy_counts_as_ints(self, writer, exact):
        # json.dump refuses a numpy integer; both writers write int(value)
        np = pytest.importorskip("numpy")
        counts = [("j", 12, 2, 6), ("k", 9, 3, 4)]
        outputs = []
        for convert in (np.int64, int):
            reports = tuple(VolatilityReport(j, *map(convert, rest)) for j, *rest in counts)
            buf = io.StringIO()
            if writer == "reports":
                write_reports_json(reports, buf, exact=exact)
            else:
                write_ranked_json(RankedTable(RankKey.ABSOLUTE, reports, 2), buf, exact=exact)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        assert '"c_star": 6' in outputs[1]

    def test_threshold_csv_formatting(self, absolute_reports):
        table = threshold_table(
            absolute_reports, RankKey.ABSOLUTE, [Fraction("0.5"), Fraction(5)]
        )
        buf = io.StringIO()
        write_thresholds_csv(table, buf)
        assert buf.getvalue().splitlines() == [
            "threshold,count,percent",
            "0.5,10,100%",
            "5,7,70%",
        ]

    def test_relative_threshold_labels_in_percent(self, relative_reports):
        table = threshold_table(
            relative_reports, RankKey.RELATIVE, [Fraction(1, 10), Fraction(3)]
        )
        buf = io.StringIO()
        write_thresholds_csv(table, buf)
        lines = buf.getvalue().splitlines()
        assert lines[1].startswith("10%,")
        assert lines[2].startswith("300%,")

    def test_scatter_csv_empty_field_for_undefined(self):
        points = [(5, Fraction(1, 2), None), (9, Fraction(2), Fraction(1, 4))]
        buf = io.StringIO()
        write_scatter_csv(points, buf)
        assert buf.getvalue().splitlines() == [
            "n_2y,delta_f,delta_f_rel",
            "5,0.5,",
            "9,2.0,0.25",
        ]

    def test_byte_identical_across_runs_and_workers(self, absolute_fixture):
        outputs = []
        for workers in (1, 4, 1):
            corpus, _ = parse_aggregate(absolute_fixture)
            reports, _ = volatility_reports(corpus, max_workers=workers)
            table = threshold_table(reports, RankKey.ABSOLUTE, DEFAULT_ABSOLUTE_CUTS)
            ranked = rank_by_volatility(reports, RankKey.ABSOLUTE, 10)
            buf_t, buf_r = io.StringIO(), io.StringIO()
            write_thresholds_csv(table, buf_t)
            write_ranked_csv(ranked, buf_r)
            outputs.append((buf_t.getvalue(), buf_r.getvalue()))
        assert outputs[0] == outputs[1] == outputs[2]
