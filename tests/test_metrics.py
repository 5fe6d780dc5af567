import copy
import dataclasses
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from volatix.display import decimal_str, percent_str
from volatix.errors import (
    EmptyJournalError,
    InvalidAggregateError,
    InvalidSizeError,
    SingletonJournalError,
    UndefinedRelativeError,
)
from volatix.metrics import (
    ItemType,
    JournalAggregate,
    PaperEffect,
    PaperRecord,
    VolatilityInputs,
    VolatilityReport,
    _aggregate_fault,
    _checked_aggregate,
    benefit_approx,
    citation_average,
    classify_paper,
    journal_report_from_papers,
    penalty_bound,
    top_paper_volatility,
    updated_average,
    volatility_exact,
    volatility_relative_approx,
    volatility_relative_exact,
)


def papers(*counts, journal="J", item_type=ItemType.ARTICLE):
    return [
        PaperRecord(journal, f"{journal}-{i}", c, item_type)
        for i, c in enumerate(counts)
    ]


class TestCitationAverage:
    def test_zero_citations(self):
        assert citation_average(0, 10) == 0

    def test_small_journal(self):
        # oracle: exact rational division
        assert citation_average(112, 6) == Fraction(112, 6)
        assert decimal_str(citation_average(112, 6)) == "18.67"

    def test_larger_journal(self):
        assert citation_average(3699, 171) == Fraction(3699, 171)
        assert decimal_str(citation_average(3699, 171)) == "21.63"

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidSizeError):
            citation_average(10, 0)


class TestUpdatedAverage:
    def test_uncited_paper_lowers_average(self):
        assert updated_average(100, 99, 0) == 1

    def test_adding_top_paper_back(self):
        assert updated_average(25, 5, 87) == Fraction(112, 6)

    def test_average_paper_changes_nothing(self):
        assert updated_average(10, 10, 1) == 1

    @given(
        c1=st.integers(0, 10**9),
        n=st.integers(1, 10**6),
        c=st.integers(0, 10**6),
    )
    def test_exact_identity(self, c1, n, c):
        assert updated_average(c1, n, c) * (n + 1) == c1 + c


class TestVolatilityExact:
    def test_small_highly_boosted_journal(self):
        assert volatility_exact(VolatilityInputs(Fraction(5), 5, 87)) == Fraction(82, 6)
        assert decimal_str(Fraction(82, 6)) == "13.67"

    def test_moderate_paper_small_journal(self):
        got = volatility_exact(VolatilityInputs(Fraction("7.7"), 10, 97))
        assert got == Fraction(893, 110)
        assert decimal_str(got) == "8.12"

    def test_average_paper_is_neutral(self):
        assert volatility_exact(VolatilityInputs(Fraction(3), 9, 3)) == 0

    @given(
        c1=st.integers(0, 10**6),
        n1=st.integers(1, 10**4),
        c=st.integers(0, 10**5),
    )
    def test_sign_and_scale_laws(self, c1, n1, c):
        inputs = VolatilityInputs.from_counts(c1, n1, c)
        delta = volatility_exact(inputs)
        # scale law: delta * (n1 + 1) == c - f1, exactly
        assert delta * (n1 + 1) == c - inputs.f1
        # sign law
        if c * n1 > c1:
            assert delta > 0
        elif c * n1 < c1:
            assert delta < 0
        else:
            assert delta == 0

    @given(
        c1=st.integers(0, 10**6),
        n1=st.integers(1, 10**4),
        c=st.integers(0, 10**5),
    )
    def test_penalty_floor(self, c1, n1, c):
        inputs = VolatilityInputs.from_counts(c1, n1, c)
        floor = penalty_bound(inputs.f1, n1)
        delta = volatility_exact(inputs)
        assert delta >= floor
        assert (delta == floor) == (c == 0)

    @given(
        c1=st.integers(0, 10**6),
        n1=st.integers(1, 10**4),
        c=st.integers(0, 10**5),
    )
    def test_strictly_increasing_in_citations(self, c1, n1, c):
        lo = volatility_exact(VolatilityInputs.from_counts(c1, n1, c))
        hi = volatility_exact(VolatilityInputs.from_counts(c1, n1, c + 1))
        assert hi > lo

    @given(c1=st.integers(0, 10**6), n1=st.integers(1, 10**4), c=st.integers(0, 10**5))
    def test_round_trip_remove_then_re_add(self, c1, n1, c):
        # removing the paper from the updated state restores the start exactly
        f2 = updated_average(c1, n1, c)
        total2 = c1 + c
        assert Fraction(total2 - c, (n1 + 1) - 1) == Fraction(c1, n1)
        assert f2 == Fraction(total2, n1 + 1)


class TestVolatilityRelative:
    def test_extreme_software_journal(self):
        # initial state from counts: C1 = 991, N1 = 170, then c = 2708
        inputs = VolatilityInputs.from_counts(991, 170, 2708)
        got = volatility_relative_exact(inputs)
        assert got == (2708 - Fraction(991, 170)) / (Fraction(991, 170) * 171)
        assert percent_str(got) == "271%"

    def test_low_cited_small_journal(self):
        inputs = VolatilityInputs.from_counts(2, 9, 9)
        assert volatility_relative_exact(inputs) == Fraction(79, 20)  # 3.95 exactly
        assert percent_str(Fraction(79, 20)) == "395%"

    def test_average_paper_zero(self):
        assert volatility_relative_exact(VolatilityInputs(Fraction(2), 99, 2)) == 0

    def test_zero_average_undefined(self):
        with pytest.raises(UndefinedRelativeError):
            volatility_relative_exact(VolatilityInputs(Fraction(0), 9, 5))


class TestVolatilityRelativeApprox:
    def test_overestimates_exact_for_big_paper(self):
        approx = volatility_relative_approx(2708, 991)
        exact = volatility_relative_exact(VolatilityInputs.from_counts(991, 170, 2708))
        assert approx == Fraction(2708, 991)
        assert math.isclose(float(approx), 2.733, abs_tol=5e-4)
        assert approx > exact

    def test_share_of_final_year_citations(self):
        approx = volatility_relative_approx(3790, 12725 - 3790)
        assert math.isclose(float(approx), 0.424, abs_tol=5e-4)
        # cross-check: the same paper is ~29.8% of the final total
        assert math.isclose(3790 / 12725, 0.298, abs_tol=5e-4)

    def test_zero_paper(self):
        assert volatility_relative_approx(0, 100) == 0

    def test_zero_initial_citations_undefined(self):
        with pytest.raises(UndefinedRelativeError):
            volatility_relative_approx(10, 0)

    @given(
        f1_num=st.integers(1, 500),
        f1_den=st.integers(1, 50),
        n1=st.integers(2, 10**4),
        mult=st.integers(1, 1000),
    )
    def test_quality_bound_in_validity_region(self, f1_num, f1_den, n1, mult):
        # the relative error of c/C1 is below f1/c + 2/n1 whenever
        # c >= f1 * (1 + sqrt(n1 + 1)); construct c inside that region
        f1 = Fraction(f1_num, f1_den)
        n1 = n1 * f1_den  # keeps C1 = f1 * n1 integral
        c = math.ceil(f1 * (2 + math.isqrt(n1 + 1))) + mult
        exact = volatility_relative_exact(VolatilityInputs(f1, n1, c))
        approx = Fraction(c, int(f1 * n1))
        assert abs(approx - exact) <= exact * (f1 / c + Fraction(2, n1))


class TestBenefitApproxAndPenaltyBound:
    def test_large_journal_tiny_benefit(self):
        assert benefit_approx(100, 2000) == Fraction(1, 20)

    def test_huge_journal_same_tiny_benefit(self):
        assert benefit_approx(1000, 20000) == Fraction(1, 20)

    def test_zero_citations_zero_benefit(self):
        assert benefit_approx(0, 10) == 0

    def test_penalty_direct_substitution(self):
        assert penalty_bound(10, 99) == Fraction(-1, 10)

    def test_penalty_equals_uncited_volatility(self):
        # oracle: the exact volatility of a c = 0 paper
        f1 = Fraction("171.83")
        floor = penalty_bound(f1, 52)
        assert floor == volatility_exact(VolatilityInputs(f1, 52, 0))
        assert decimal_str(floor) == "-3.24"

    def test_zero_average_journal_cannot_lose(self):
        assert penalty_bound(0, 5) == 0


class TestClassifyPaper:
    def test_above_average(self):
        assert classify_paper(97, Fraction("7.7")) is PaperEffect.BENEFIT

    def test_below_average(self):
        assert classify_paper(0, Fraction("2.5")) is PaperEffect.PENALTY

    def test_exactly_average(self):
        assert classify_paper(3, 3) is PaperEffect.NEUTRAL

    @given(c=st.integers(0, 10**6), c1=st.integers(0, 10**6), n1=st.integers(1, 10**4))
    def test_matches_volatility_sign(self, c, c1, n1):
        effect = classify_paper(c, Fraction(c1, n1))
        delta = volatility_exact(VolatilityInputs.from_counts(c1, n1, c))
        expected = {1: PaperEffect.BENEFIT, -1: PaperEffect.PENALTY, 0: PaperEffect.NEUTRAL}
        assert effect is expected[(delta > 0) - (delta < 0)]


class TestTopPaperVolatility:
    def test_flagship_cancer_journal(self):
        report = top_paper_volatility(
            JournalAggregate("ca", "ca", 12725, 53, 3790)
        )
        assert decimal_str(report.f) == "240.09"
        assert decimal_str(report.f_star) == "171.83"
        assert decimal_str(report.delta_f) == "68.27"

    def test_large_low_average_journal(self):
        report = top_paper_volatility(JournalAggregate("cpc", "cpc", 1383, 477, 1075))
        assert report.f_star == Fraction(308, 476)
        assert math.isclose(float(report.f_star), 0.647, abs_tol=5e-4)
        assert decimal_str(report.delta_f) == "2.25"
        assert abs(float(report.delta_f_rel) * 100 - 350) < 5

    def test_uniform_journal_zero_volatility(self):
        report = top_paper_volatility(JournalAggregate("u", "u", 5, 5, 1))
        assert report.delta_f == 0
        assert report.delta_f_rel == 0

    def test_singleton_rejected(self):
        with pytest.raises(SingletonJournalError):
            top_paper_volatility(JournalAggregate("s", "s", 5, 1, 5))

    def test_all_citations_on_top_paper_flags_undefined(self):
        report = top_paper_volatility(JournalAggregate("z", "z", 7, 3, 7))
        assert report.f_star == 0
        assert report.delta_f_rel is None

    @given(counts=st.lists(st.integers(0, 5000), min_size=2, max_size=50))
    def test_sign_law_and_round_trip(self, counts):
        total, top, n = sum(counts), max(counts), len(counts)
        report = top_paper_volatility(JournalAggregate("j", "j", total, n, top))
        # the shift is positive exactly when the top paper beats the rest
        lhs = top * (n - 1) - (total - top)
        assert (report.delta_f > 0) == (lhs > 0)
        assert (report.delta_f == 0) == (lhs == 0)
        # re-adding the removed paper restores the final average exactly
        assert updated_average(total - top, n - 1, top) == report.f
        assert report.delta_f == report.f - report.f_star


class TestJournalReportFromPapers:
    def test_all_citations_on_one_paper(self):
        agg, report = journal_report_from_papers(papers(3, 0, 0))
        assert (agg.total_citations, agg.n_2y, agg.top_cited) == (3, 3, 3)
        assert report.f == 1
        assert report.f_star == 0
        assert report.delta_f == 1
        assert report.delta_f_rel is None

    def test_tiny_humanities_journal(self):
        agg, report = journal_report_from_papers(papers(4, 1, *([0] * 24)))
        assert (agg.total_citations, agg.n_2y, agg.top_cited) == (5, 26, 4)
        assert report.delta_f == Fraction(99, 650)
        assert decimal_str(report.delta_f) == "0.15"
        assert percent_str(report.delta_f_rel) == "381%"

    def test_front_matter_ignored(self):
        with_front = papers(4, 1, 0) + papers(100, journal="J", item_type=ItemType.FRONT_MATTER)
        agg, report = journal_report_from_papers(with_front)
        agg2, report2 = journal_report_from_papers(papers(4, 1, 0))
        assert agg == agg2
        assert report == report2

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyJournalError):
            journal_report_from_papers([])

    def test_single_citable_rejected(self):
        with pytest.raises(SingletonJournalError):
            journal_report_from_papers(papers(5))
        only_front = papers(5, 6, item_type=ItemType.FRONT_MATTER)
        with pytest.raises(SingletonJournalError):
            journal_report_from_papers(only_front)

    def test_mixed_journals_rejected(self):
        mixed = papers(1, 2) + papers(3, journal="K")
        with pytest.raises(InvalidAggregateError):
            journal_report_from_papers(mixed)

    @given(counts=st.lists(st.integers(0, 5000), min_size=2, max_size=50))
    def test_equals_top_paper_volatility_of_aggregate(self, counts):
        agg, report = journal_report_from_papers(papers(*counts))
        assert report == top_paper_volatility(agg)

    def test_tied_top_papers_equivalent(self):
        # whichever tied instance is "removed", f* is the same
        rng = random.Random(7)
        counts = [9, 9, 3, 0, 9]
        for _ in range(5):
            rng.shuffle(counts)
            _, report = journal_report_from_papers(papers(*counts))
            assert report.f_star == Fraction(30 - 9, 4)


class TestAggregateInvariants:
    def test_zero_size_rejected(self):
        with pytest.raises(InvalidAggregateError):
            JournalAggregate("j", "j", 5, 0, 2)

    def test_top_above_total_rejected(self):
        with pytest.raises(InvalidAggregateError):
            JournalAggregate("j", "j", 5, 3, 6)

    def test_singleton_must_hold_all_citations(self):
        with pytest.raises(InvalidAggregateError):
            JournalAggregate("j", "j", 5, 1, 3)
        JournalAggregate("j", "j", 5, 1, 5)  # valid

    def test_top_paper_below_average_rejected(self):
        with pytest.raises(InvalidAggregateError, match="top_cited 2 below the average 7/2"):
            JournalAggregate("j", "j", 7, 2, 2)
        with pytest.raises(InvalidAggregateError):
            JournalAggregate("j", "j", 100, 10, 9)
        JournalAggregate("j", "j", 100, 10, 10)  # valid: every paper cited 10 times

    @staticmethod
    def reference_fault(journal_id, total, n_2y, top):
        """The five checks one by one, in the order the class lists them."""
        if n_2y < 1:
            return f"journal {journal_id!r}: n_2y must be >= 1, got {n_2y}"
        if total < 0:
            return f"journal {journal_id!r}: negative total_citations"
        if not 0 <= top <= total:
            return f"journal {journal_id!r}: top_cited {top} outside [0, {total}]"
        if n_2y == 1 and top != total:
            return f"journal {journal_id!r}: single paper must hold all {total} citations"
        if n_2y * top < total:
            return f"journal {journal_id!r}: top_cited {top} below the average {total}/{n_2y}"
        return None

    @given(st.integers(-2, 12), st.integers(-2, 4), st.integers(-2, 12))
    def test_one_chained_check_is_the_five_checks(self, total, n_2y, top):
        """Both constructors refuse what the five checks refuse, with their
        message; a report also refuses a singleton journal."""
        fault = self.reference_fault("j", total, n_2y, top)
        assert _aggregate_fault("j", total, n_2y, top) == fault
        if fault is None:
            agg = JournalAggregate("j", "J", total, n_2y, top)
            assert agg == _checked_aggregate("j", "J", total, n_2y, top)
            if n_2y == 1:
                with pytest.raises(SingletonJournalError):
                    VolatilityReport("j", total, n_2y, top)
            else:
                assert VolatilityReport("j", total, n_2y, top) == top_paper_volatility(agg)
        else:
            with pytest.raises(InvalidAggregateError) as exc:
                JournalAggregate("j", "J", total, n_2y, top)
            assert str(exc.value) == fault
            with pytest.raises(InvalidAggregateError) as exc:
                VolatilityReport("j", total, n_2y, top)
            assert str(exc.value) == fault

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("kind", [float, Fraction, Decimal, str])
    def test_counts_must_be_integers(self, position, kind):
        """A count that is not an integer, even one equal to an integer, is
        refused by both constructors, before any writer meets it."""
        counts = [12, 2, 6]  # C, N_2Y, c*
        counts[position] = kind(counts[position])
        with pytest.raises(InvalidAggregateError, match="is not an integer"):
            JournalAggregate("j", "J", *counts)
        with pytest.raises(InvalidAggregateError, match="is not an integer"):
            VolatilityReport("j", *counts)

    def test_bool_and_numpy_counts_are_integers(self):
        np = pytest.importorskip("numpy")
        for counts in [(True, 2, True), (np.int64(12), np.int32(2), np.uint16(6))]:
            agg = JournalAggregate("j", "J", *counts)
            assert VolatilityReport("j", *counts) == top_paper_volatility(agg)

    def test_slots_keep_copies_and_immutability(self):
        agg = JournalAggregate("LIVING REV RELATIV", "Living Reviews", 112, 6, 87)
        assert not hasattr(agg, "__dict__")
        assert pickle.loads(pickle.dumps(agg)) == agg == copy.deepcopy(agg) == copy.copy(agg)
        assert hash(pickle.loads(pickle.dumps(agg))) == hash(agg)
        assert dataclasses.replace(agg, top_cited=90) == JournalAggregate(
            "LIVING REV RELATIV", "Living Reviews", 112, 6, 90
        )
        with pytest.raises(InvalidAggregateError):
            dataclasses.replace(agg, top_cited=113)
        for name in ("journal_id", "total_citations", "top_cited"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(agg, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(agg, name)
        with pytest.raises((AttributeError, TypeError)):  # no new attributes either
            agg.extra = 1
        built = _checked_aggregate("LIVING REV RELATIV", "Living Reviews", 112, 6, 87)
        assert (built, repr(built)) == (agg, repr(agg))
        assert agg.citation_average == Fraction(56, 3)

    def test_negative_paper_citations_rejected(self):
        with pytest.raises(InvalidAggregateError):
            PaperRecord("j", "p", -1)

    def test_inputs_validation(self):
        with pytest.raises(InvalidSizeError):
            VolatilityInputs(Fraction(1), 0, 5)
        with pytest.raises(InvalidAggregateError):
            VolatilityInputs(Fraction(-1), 5, 5)
        with pytest.raises(InvalidAggregateError):
            VolatilityInputs(Fraction(1), 5, -2)
