"""Memory gates for the Schema-B commands, traced with ``tracemalloc``.

A corpus holds one aggregate per journal, and the reading commands one report
per journal, so what each costs decides the footprint of every command.  The
input is a 2e4-journal Schema-B file, sizes log-uniform 2-1000 as in the
default synthetic corpus, written in pure Python.
"""

import math
import random
import tracemalloc

import pytest

from volatix import analytics, cli, ingest
from volatix.ingest import AGGREGATE_HEADER

N_JOURNALS = 20_000


def write_schema_b(path, n_journals: int, seed: int = 7) -> None:
    """``n_journals`` distinct journals with counts a journal can have."""
    rng = random.Random(seed)
    lines = [",".join(AGGREGATE_HEADER)]
    for i in range(1, n_journals + 1):
        n = int(math.exp(rng.uniform(math.log(2), math.log(1001))))
        total = rng.randint(1, 4 * n)
        top = rng.randint(-(-total // n), min(total, 60 + total // n))
        lines.append(f"S{i:05d},Journal {i},{total},{n},{top}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.fixture(scope="module")
def journals_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "journals.csv"
    write_schema_b(path, N_JOURNALS)
    small = path.with_name("small.csv")
    write_schema_b(small, 50)
    ingest.parse_aggregate(small)  # the first parse's one-time allocations
    return path


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def test_each_report_costs_at_most_80_bytes(journals_file, traced):
    corpus, _ = ingest.parse_aggregate(journals_file)
    analytics.volatility_reports(corpus)  # warm
    before = tracemalloc.get_traced_memory()[0]
    reports, excluded = analytics.volatility_reports(corpus)
    grown = tracemalloc.get_traced_memory()[0] - before
    assert len(reports) == N_JOURNALS and not excluded
    # a report of counts is a 64-byte object; its slot in the list is 8 more
    assert grown / len(reports) <= 80


def test_parse_peak_is_at_most_a_quarter_above_the_corpus(journals_file, traced):
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    corpus, log = ingest.parse_aggregate(journals_file)
    live, peak = tracemalloc.get_traced_memory()
    assert log.journals_kept == len(corpus.journals) == N_JOURNALS
    assert (peak - before) <= 1.25 * (live - before)


def traced_peak(make):
    """``make()`` and how far the traced heap rose above its start while it ran."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = make()
    return result, tracemalloc.get_traced_memory()[1] - before


def test_cli_reports_peak_at_most_65_percent_of_corpus_then_reports(journals_file, traced):
    library, library_peak = traced_peak(
        lambda: analytics.volatility_reports(ingest.load_corpus(journals_file)[0])
    )
    del library
    reports, cli_peak = traced_peak(lambda: cli._load_reports(str(journals_file)))
    assert len(reports) == N_JOURNALS
    # one report of counts per journal, kept straight from the parse, against
    # a corpus of named aggregates and then its reports: 0.57 here
    assert cli_peak <= 0.65 * library_peak


@pytest.mark.parametrize("key", list(analytics.RankKey))
def test_threshold_table_holds_nothing_per_report(journals_file, traced, key):
    reports = cli._load_reports(str(journals_file))
    cuts = {
        analytics.RankKey.ABSOLUTE: analytics.DEFAULT_ABSOLUTE_CUTS,
        analytics.RankKey.RELATIVE: analytics.DEFAULT_RELATIVE_CUTS,
    }[key]
    table, peak = traced_peak(lambda: analytics.threshold_table(reports, key, cuts))
    assert table.rows[0].count > 0
    # a list of each report's key would be 2e4 ints, over 1 MB
    assert peak < 64 * 1024
