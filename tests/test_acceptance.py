"""Acceptance gate: one test per shipping criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The reference rows frozen below are the published 2017 figures
the bundled fixtures reconstruct; tolerances absorb only the 2-decimal
rounding of those published values.
"""

import csv
import io
import random
import time
import tracemalloc
from fractions import Fraction

from volatix import analytics, ingest, metrics, synthgen
from volatix.analytics import DEFAULT_ABSOLUTE_CUTS, RankKey
from volatix.cli import main
from volatix.metrics import (
    JournalAggregate,
    PaperRecord,
    VolatilityInputs,
    benefit_approx,
    journal_report_from_papers,
    penalty_bound,
    top_paper_volatility,
    updated_average,
    volatility_exact,
)

# columns: journal_id, delta_f, c_star, delta_f_rel (percent), f, f_star, n_2y
PUBLISHED_ABSOLUTE_TOP10 = [
    ("CA-CANCER J CLIN", 68.27, 3790, 40, 240.09, 171.83, 53),
    ("J STAT SOFTW", 15.80, 2708, 271, 21.63, 5.82, 171),
    ("LIVING REV RELATIV", 13.67, 87, 273, 18.67, 5.00, 6),
    ("PSYCHOL INQ", 8.12, 97, 105, 15.82, 7.70, 11),
    ("ACTA CRYSTALLOGR C", 7.12, 2499, 474, 8.62, 1.50, 351),
    ("ANNU REV CONDEN MA P", 5.67, 209, 35, 21.82, 16.15, 34),
    ("ACTA CRYSTALLOGR A", 5.57, 637, 271, 7.62, 2.05, 114),
    ("ADV PHYS", 4.96, 85, 19, 30.42, 25.45, 12),
    ("PSYCHOL SCI PUBL INT", 4.88, 49, 33, 19.71, 14.83, 7),
    ("ACTA CRYSTALLOGR B", 4.19, 710, 199, 6.30, 2.11, 169),
]

PUBLISHED_RELATIVE_TOP10 = [
    ("ACTA CRYSTALLOGR C", 7.12, 2499, 474, 8.62, 1.50, 351),
    ("COMPUT AIDED SURG", 0.88, 9, 395, 1.10, 0.22, 10),
    ("ETIKK PRAKSIS", 0.15, 4, 381, 0.19, 0.04, 26),
    ("SOLID STATE PHYS", 3.03, 19, 379, 3.83, 0.80, 6),
    ("CHINESE PHYS C", 2.25, 1075, 350, 2.90, 0.64, 477),
    ("LIVING REV RELATIV", 13.67, 87, 273, 18.67, 5.00, 6),
    ("J STAT SOFTW", 15.80, 2708, 271, 21.63, 5.82, 171),
    ("ACTA CRYSTALLOGR A", 5.57, 637, 271, 7.62, 2.05, 114),
    ("AFR LINGUIST", 0.26, 3, 264, 0.36, 0.10, 11),
    ("AM LAB", 0.04, 5, 247, 0.05, 0.01, 136),
]

F_TOL = 0.02
DELTA_F_TOL = 0.03
REL_TOL_POINTS = 5


def run_report(capsys, path):
    start = time.perf_counter()
    code = main(["report", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    rows = {r["journal_id"]: r for r in csv.DictReader(io.StringIO(out))}
    return rows, elapsed


def check_rows(rows, published):
    assert len(rows) == len(published)
    for jid, delta_f, c_star, rel_pct, f, f_star, n_2y in published:
        row = rows[jid]
        assert int(row["c_star"]) == c_star
        assert int(row["n_2y"]) == n_2y
        assert abs(float(row["f"]) - f) <= F_TOL, (jid, "f")
        assert abs(float(row["f_star"]) - f_star) <= F_TOL, (jid, "f_star")
        assert abs(float(row["delta_f"]) - delta_f) <= DELTA_F_TOL, (jid, "delta_f")
        assert abs(int(row["delta_f_rel"].rstrip("%")) - rel_pct) <= REL_TOL_POINTS, (
            jid,
            "delta_f_rel",
        )


def test_c01_published_absolute_top10_reproduced(capsys, absolute_fixture):
    rows, elapsed = run_report(capsys, absolute_fixture)
    check_rows(rows, PUBLISHED_ABSOLUTE_TOP10)
    assert elapsed < 1.0
    print("ACCEPTANCE PASS 1: absolute top-10 fixture reproduced "
          f"(f/f* within {F_TOL}, delta_f within {DELTA_F_TOL}, "
          f"rel within {REL_TOL_POINTS} points, {elapsed:.3f}s)")


def test_c02_published_relative_top10_reproduced(capsys, relative_fixture):
    rows, elapsed = run_report(capsys, relative_fixture)
    check_rows(rows, PUBLISHED_RELATIVE_TOP10)
    assert abs(int(rows["ETIKK PRAKSIS"]["delta_f_rel"].rstrip("%")) - 381) <= 5
    assert abs(int(rows["CHINESE PHYS C"]["delta_f_rel"].rstrip("%")) - 350) <= 5
    print("ACCEPTANCE PASS 2: relative top-10 fixture reproduced")


def test_c03_top_paper_citation_shares(absolute_fixture):
    corpus, _ = ingest.parse_aggregate(absolute_fixture)
    ca = corpus.journals["CA-CANCER J CLIN"]
    share_ca = 100 * ca.top_cited / ca.total_citations
    assert abs(share_ca - 29.8) <= 0.5
    jss = corpus.journals["J STAT SOFTW"]
    share_jss = 100 * jss.top_cited / jss.total_citations
    assert abs(share_jss - 73) <= 1
    print(f"ACCEPTANCE PASS 3: top-paper shares {share_ca:.1f}% and {share_jss:.1f}%")


def test_c04_asymptotic_benefit_examples_exact():
    assert benefit_approx(100, 2000) == Fraction(1, 20)
    assert benefit_approx(1000, 20000) == Fraction(1, 20)
    assert benefit_approx(100, 2000) == Fraction("0.05")
    print("ACCEPTANCE PASS 4: asymptotic benefit examples exact")


def test_c05_exact_identity_suite_100k():
    rng = random.Random(20250809)
    for i in range(100_000):
        c1 = rng.randrange(0, 1_000_000)
        n1 = rng.randrange(1, 10_000)
        c = 0 if i % 1000 == 0 else rng.randrange(0, 100_000)

        f2 = updated_average(c1, n1, c)
        assert f2 * (n1 + 1) == c1 + c  # exact integer identity

        f1 = Fraction(c1, n1)
        delta = volatility_exact(VolatilityInputs(f1, n1, c))
        assert delta * (n1 + 1) == c - f1  # scale law
        # sign law, in exact integer form
        if c * n1 > c1:
            assert delta > 0
        elif c * n1 < c1:
            assert delta < 0
        else:
            assert delta == 0
        # penalty floor, equality exactly at c = 0
        floor = penalty_bound(f1, n1)
        assert delta >= floor
        assert (delta == floor) == (c == 0)
    print("ACCEPTANCE PASS 5: 10^5 randomized exact identities (zero tolerance)")


def test_c06_oracle_equivalence_1000_journals():
    rng = random.Random(1729)
    for _ in range(1000):
        counts = [rng.randrange(0, 10_000) for _ in range(rng.randrange(2, 51))]
        records = [
            PaperRecord("J", f"p{i}", c, metrics.ItemType.ARTICLE)
            for i, c in enumerate(counts)
        ]
        _, from_papers = journal_report_from_papers(records)
        # aggregate derived independently of the function under test
        agg = JournalAggregate("J", "J", sum(counts), len(counts), max(counts))
        assert from_papers == top_paper_volatility(agg)
    print("ACCEPTANCE PASS 6: per-paper oracle equals aggregate path, 1000 journals")


def test_c07_threshold_table_properties():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randrange(1, 80)
        reports = []
        for i in range(n):
            n_2y, top = rng.randrange(2, 30), rng.randrange(0, 400)
            # the other papers' citations, each at most the top paper's
            total = top + rng.randrange(0, (n_2y - 1) * top + 1)
            reports.append(metrics.VolatilityReport(f"J{i:03d}", total, n_2y, top))
        cuts = sorted({Fraction(rng.randrange(0, 400), 50) for _ in range(8)})
        if not cuts:
            continue
        table = analytics.threshold_table(reports, RankKey.ABSOLUTE, cuts)
        counts = [row.count for row in table.rows]
        assert counts == sorted(counts, reverse=True)

    # (C, N_2Y, c*) = (C, 5, 6): delta_f = (30 - C) / 20, that is 0.05, 0.2, 0.3, 0.6 and 1.2
    reports = [metrics.VolatilityReport(f"J{i}", c, 5, 6) for i, c in enumerate((29, 26, 24, 18, 6))]
    assert [r.delta_f for r in reports] == [Fraction(s) for s in ("0.05", "0.2", "0.3", "0.6", "1.2")]
    cuts = [Fraction(s) for s in ("0.1", "0.25", "0.5", "1")]
    table = analytics.threshold_table(reports, RankKey.ABSOLUTE, cuts)
    assert [row.count for row in table.rows] == [4, 3, 2, 1]
    print("ACCEPTANCE PASS 7: threshold monotonicity (100 sets) and worked example")


def _desk_scale_threshold_bytes(max_workers: int) -> bytes:
    config = synthgen.SynthConfig(
        n_journals=11_639,
        size_model=synthgen.LogUniformSizes(2, 1000),
        citation_model=synthgen.DiscreteLognormal(mu=0.5, sigma=1.2),
        seed=20170809,
    )
    corpus = synthgen.generate_corpus(config)
    cleaned, _ = ingest.dedupe_and_filter(corpus)
    reports, _ = analytics.volatility_reports(cleaned, max_workers=max_workers)
    table = analytics.threshold_table(reports, RankKey.ABSOLUTE, DEFAULT_ABSOLUTE_CUTS)
    buf = io.StringIO()
    analytics.write_thresholds_csv(table, buf)
    return buf.getvalue().encode()


def test_c08_desk_scale_threshold_table_deterministic():
    first = _desk_scale_threshold_bytes(max_workers=1)
    second = _desk_scale_threshold_bytes(max_workers=1)
    threaded = _desk_scale_threshold_bytes(max_workers=4)
    assert first == second == threaded

    lines = first.decode().splitlines()
    assert lines[0] == "threshold,count,percent"
    assert len(lines) == 13
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["0.1", "0.25", "0.5", "0.75", "1", "1.5", "2", "3", "4", "5", "10", "50"]
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == sorted(counts, reverse=True)
    for line in lines[1:]:
        percent = line.split(",")[2]
        assert percent.endswith("%")
        float(percent.rstrip("%"))  # well-formed number
    print("ACCEPTANCE PASS 8: 11,639-journal threshold table monotone, "
          "byte-identical across runs and 1 vs 4 workers")


def test_c09_scale_dependence_demonstration():
    start = time.perf_counter()
    config = synthgen.SynthConfig(
        n_journals=10_000,
        size_model=synthgen.LogUniformSizes(2, 2000),
        citation_model=synthgen.DiscreteLognormal(mu=0.5, sigma=1.2),
        seed=20170901,
    )
    corpus = synthgen.generate_corpus(config)
    reports, _ = analytics.volatility_reports(corpus)
    stats = synthgen.clt_binned_stats(reports, [2, 20, 200, 2000])
    elapsed = time.perf_counter() - start

    assert len(stats.bins) == 3
    assert all(row.journal_count >= 100 for row in stats.bins)
    sds = [row.sd_f for row in stats.bins]
    envelopes = [row.max_delta_f for row in stats.bins]
    assert sds[0] > sds[1] > sds[2]
    assert envelopes[0] > envelopes[1] > envelopes[2]
    assert elapsed < 30.0
    print(f"ACCEPTANCE PASS 9: sd_f {sds[0]:.3f}>{sds[1]:.3f}>{sds[2]:.3f}, "
          f"max delta_f {envelopes[0]:.2f}>{envelopes[1]:.2f}>{envelopes[2]:.2f}, "
          f"{elapsed:.1f}s")


def test_c10_million_row_streaming_ingest(tmp_path):
    config = synthgen.SynthConfig(
        n_journals=10_000,
        size_model=synthgen.FixedSizes(100),
        citation_model=synthgen.DiscreteLognormal(mu=0.5, sigma=1.2),
        seed=20171001,
    )
    path = tmp_path / "papers.csv"
    rows = synthgen.write_corpus_csv(config, path)
    assert rows == 1_000_000

    tracemalloc.start()
    start = time.perf_counter()
    corpus, log = ingest.parse_paper_level(path)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert elapsed < 10.0
    assert peak < 64 * 1024 * 1024  # far below the 40 MB input: state ~ journals

    # in-memory reference aggregation over the whole file at once
    lines = path.read_text().splitlines()[1:]
    reference: dict = {}
    for line in lines:
        jid, _, _, _, c = line.split(",")
        c = int(c)
        entry = reference.setdefault(jid, [0, 0, 0])
        entry[0] += c
        entry[1] = max(entry[1], c)
        entry[2] += 1
    expected = {
        jid: (total, top, n)
        for jid, (total, top, n) in reference.items()
        if total > 0
    }
    got = {
        jid: (a.total_citations, a.top_cited, a.n_2y)
        for jid, a in corpus.journals.items()
    }
    assert got == expected

    assert log.rows_read == 1_000_000
    assert log.citations_read == sum(t for t, _, _ in reference.values())
    assert log.citations_read == log.citations_kept + log.citations_removed
    print(f"ACCEPTANCE PASS 10: 1e6 rows streamed in {elapsed:.2f}s, "
          f"peak tracked memory {peak / 1e6:.1f} MB, conservation exact")
