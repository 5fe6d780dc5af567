"""Memory gates for the reading commands, traced with ``tracemalloc``.

A corpus holds one aggregate per journal, and the reading commands one report
per journal, so what each costs decides the footprint of every command.  The
inputs are written in pure Python: a 2e4-journal Schema-B file, sizes
log-uniform 2-1000 as in the default synthetic corpus, and a shuffled
Schema-A file of 2e4 journals.
"""

import math
import random
import tracemalloc

import pytest

from volatix import analytics, cli, ingest
from volatix.ingest import AGGREGATE_HEADER, PAPER_HEADER

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


def write_schema_a(path, n_journals: int, seed: int = 7) -> None:
    """``n_journals`` journals of 1-8 rows each (articles, reviews and front
    matter) under quoted non-ASCII names that hold a comma, as in a
    ``papers-mixed`` export: CRLF line ends, rows shuffled."""
    rng = random.Random(seed)
    lines = []
    for j in range(1, n_journals + 1):
        prefix = f'M{j:05d},"Annales de Física, Série {j}",M{j:05d}-'
        for p in range(rng.randint(1, 8)):
            kind = rng.choice(("article", "article", "review", "front_matter"))
            lines.append(f"{prefix}{p},{kind},{rng.randint(0, 40)}\r\n")
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write(",".join(PAPER_HEADER) + "\r\n")
        out.writelines(lines)


@pytest.fixture(scope="module")
def papers_file(tmp_path_factory):
    pytest.importorskip("numpy")  # the Schema-A parse needs it; the Schema-B gates do not
    path = tmp_path_factory.mktemp("memory") / "papers.csv"
    write_schema_a(path, N_JOURNALS)
    small = path.with_name("small.csv")
    write_schema_a(small, 50)
    ingest._parse(small, make=cli._report)  # the first parse's one-time allocations
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


def test_schema_a_parse_peak_is_at_most_400_bytes_per_kept_journal(papers_file, traced):
    (corpus, log), peak = traced_peak(lambda: ingest._parse(papers_file, make=cli._report))
    assert log.journals_kept == len(corpus.journals) > 0.9 * N_JOURNALS
    # Each journal is held once while the parse runs, in one table, and
    # built straight from it: 325 bytes here.  A [name, total, top, n] list
    # per journal on top of that takes it to about 430.
    assert peak / log.journals_kept <= 400
