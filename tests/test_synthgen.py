import csv
import io
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volatix import synthgen
from volatix.analytics import volatility_reports
from volatix.errors import ConfigError
from volatix.ingest import PAPER_HEADER
from volatix.metrics import MAX_CITATIONS
from volatix.synthgen import (
    BLOCK_ROWS,
    MAX_ROWS,
    ZIPF_MAX_C_MAX,
    DiscreteLognormal,
    FixedSizes,
    LogUniformSizes,
    SynthConfig,
    ZipfTruncated,
    clt_binned_stats,
    generate_corpus,
    journal_citations,
    journal_sizes,
    write_corpus_csv,
)


def small_config(seed=42, n_journals=100):
    return SynthConfig(
        n_journals=n_journals,
        size_model=FixedSizes(10),
        citation_model=DiscreteLognormal(mu=0.5, sigma=1.2),
        seed=seed,
    )


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = SynthConfig(
            n_journals=50,
            size_model=LogUniformSizes(2, 500),
            citation_model=ZipfTruncated(alpha=2.0, c_max=5000),
            seed=7,
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.as_dict()))
        assert SynthConfig.from_json_file(path) == config

    def test_bundled_sample_config_loads(self, data_dir):
        config = SynthConfig.from_json_file(data_dir / "synth_config.json")
        assert config.n_journals == 1000

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: LogUniformSizes(1, 100),
            lambda: LogUniformSizes(10, 5),
            lambda: FixedSizes(0),
            lambda: DiscreteLognormal(mu=0.0, sigma=0.0),
            lambda: ZipfTruncated(alpha=1.0, c_max=10),
            lambda: ZipfTruncated(alpha=2.0, c_max=0),
            lambda: small_config(n_journals=0),
            lambda: small_config(seed=-1),
            # integers are integers, not floats, strings or bools
            lambda: small_config(n_journals=2.7),
            lambda: small_config(n_journals="abc"),
            lambda: small_config(seed=1.9),
            lambda: small_config(seed=True),
            lambda: FixedSizes(3.5),
            lambda: LogUniformSizes(2, 10.0),
            lambda: ZipfTruncated(alpha=2.0, c_max=1e20),
            # reals are finite numbers
            lambda: DiscreteLognormal(mu=float("nan"), sigma=1.0),
            lambda: DiscreteLognormal(mu="x", sigma=1.0),
            lambda: DiscreteLognormal(mu=0.5, sigma=float("inf")),
            lambda: DiscreteLognormal(mu=False, sigma=1.0),
            lambda: ZipfTruncated(alpha=float("inf"), c_max=10),
            # zipf draws must be counts that ingest accepts
            lambda: ZipfTruncated(alpha=2.0, c_max=MAX_CITATIONS + 1),
            # the same through from_dict, and a model spec that is not an object
            lambda: SynthConfig.from_dict({**small_config().as_dict(), "n_journals": "abc"}),
            lambda: SynthConfig.from_dict({**small_config().as_dict(), "seed": 1.9}),
            lambda: SynthConfig.from_dict({**small_config().as_dict(), "size_model": "ab"}),
            # a top-level key the config does not have
            lambda: SynthConfig.from_dict({**small_config().as_dict(), "extra": 5}),
            # the zipf table must fit in memory
            lambda: ZipfTruncated(alpha=2.0, c_max=ZIPF_MAX_C_MAX + 1),
            # at most MAX_ROWS paper rows, refused before anything is drawn
            lambda: FixedSizes(MAX_ROWS + 1),
            lambda: FixedSizes(10**10),
            lambda: LogUniformSizes(2, MAX_ROWS + 1),
            lambda: small_config(n_journals=10**10),
            lambda: small_config(n_journals=MAX_ROWS // 10 + 1),
            lambda: SynthConfig(2, LogUniformSizes(2, MAX_ROWS // 2 + 1), DiscreteLognormal(0, 1), 1),
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            bad()

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1, 2], "must be a JSON object"),
            ("abc", "must be a JSON object"),
            ({1: 2, "a": 1}, "missing keys ['citation_model', 'n_journals', 'seed', 'size_model']"),
            ({**small_config().as_dict(), 1: 2, "a": 1}, "unknown keys ['a', 1]"),
            ({**small_config().as_dict(), "size_model": [1]}, "size_model must be a JSON object"),
            (
                {**small_config().as_dict(), "size_model": {"n": 10}},
                "size_model has no kind; kinds are ['fixed', 'log_uniform']",
            ),
            (
                {**small_config().as_dict(), "citation_model": {"kind": "poisson", "mu": 1}},
                "unknown citation_model kind 'poisson'; kinds are ['discrete_lognormal', 'zipf']",
            ),
            (
                {**small_config().as_dict(), "citation_model": {"kind": ["zipf"]}},
                "unknown citation_model kind ['zipf']; kinds are ['discrete_lognormal', 'zipf']",
            ),
            (
                {**small_config().as_dict(), "size_model": {"kind": "fixed", "n": 10, 1: 2}},
                "unknown size_model fixed keys [1]",
            ),
            (
                {**small_config().as_dict(), "size_model": {"kind": "log_uniform", "min": 2}},
                "size_model log_uniform missing keys ['max']",
            ),
        ],
        ids=[
            "list", "string", "mixed-keys", "mixed-unknown-keys", "model-a-list", "model-no-kind",
            "model-unknown-kind", "model-unhashable-kind", "model-int-key", "model-missing-key",
        ],
    )
    def test_config_errors_name_the_fault(self, data, message):
        with pytest.raises(ConfigError) as exc:
            SynthConfig.from_dict(data)
        assert str(exc.value) == f"bad synth config: {message}"

    def test_row_cap_message(self):
        # built only: a config past the cap must never reach a draw
        with pytest.raises(ConfigError) as exc:
            SynthConfig.from_dict({**small_config().as_dict(), "n_journals": 10**10})
        assert str(exc.value) == (
            "n_journals 10000000000 times the largest journal size 10 is over "
            "2147483647 paper rows"
        )

    def test_row_cap_is_inclusive(self):
        assert SynthConfig(1, FixedSizes(MAX_ROWS), DiscreteLognormal(0, 1), 1).n_journals == 1
        assert small_config(n_journals=MAX_ROWS // 10).n_journals == MAX_ROWS // 10
        assert LogUniformSizes(2, MAX_ROWS).largest == MAX_ROWS

    def test_journal_ids_are_made_lazily(self):
        ids = synthgen._journal_ids(small_config(n_journals=3))
        assert iter(ids) is ids
        assert list(ids) == ["S00001", "S00002", "S00003"]

    def test_zipf_table_is_built_on_first_draw(self):
        model = ZipfTruncated(alpha=2.0, c_max=ZIPF_MAX_C_MAX)
        assert "_table" not in vars(model)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            SynthConfig.from_json_file(path)
        path.write_text('{"n_journals": 5}')
        with pytest.raises(ConfigError):
            SynthConfig.from_json_file(path)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        config = small_config()
        first, second = io.StringIO(), io.StringIO()
        rows = write_corpus_csv(config, first)
        assert rows == 1000
        write_corpus_csv(config, second)
        assert first.getvalue() == second.getvalue()

    def test_different_seed_different_corpus(self):
        a = generate_corpus(small_config(seed=1))
        b = generate_corpus(small_config(seed=2))
        assert a.journals != b.journals

    def test_aggregates_reproducible(self):
        a = generate_corpus(small_config())
        b = generate_corpus(small_config())
        assert a.journals == b.journals

    def test_per_journal_streams_independent_of_corpus_size(self):
        # journal j's citations depend only on (seed, j), so a prefix of a
        # bigger corpus matches the smaller corpus exactly
        small = small_config(n_journals=5)
        big = small_config(n_journals=10)
        for j in range(5):
            np.testing.assert_array_equal(
                journal_citations(small, j, 10), journal_citations(big, j, 10)
            )
        np.testing.assert_array_equal(
            journal_sizes(big)[:5], journal_sizes(small)
        )


def reference_csv(config):
    """The corpus CSV as csv.writer writes it, one tuple per paper row, drawn
    journal by journal through the public streams."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PAPER_HEADER)
    width = max(5, len(str(config.n_journals)))
    for j, size in enumerate(journal_sizes(config).tolist()):
        jid = f"S{j + 1:0{width}d}"
        counts = journal_citations(config, j, size)
        writer.writerows(
            (jid, jid, f"{jid}-P{i:06d}", "article", c)
            for i, c in enumerate(counts.tolist(), start=1)
        )
    return out.getvalue()


class RecordingStream(io.StringIO):
    """A text stream that keeps the number of rows in each write."""

    def __init__(self):
        super().__init__()
        self.rows_per_write = []

    def write(self, text):
        self.rows_per_write.append(text.count("\n"))
        return super().write(text)


class LastWriteStream(io.TextIOBase):
    """A text stream that keeps only its last write."""

    last = ""

    def write(self, text):
        self.last = text
        return len(text)


class TestWriter:
    @pytest.mark.parametrize("seed", [1, 3, 101])
    @pytest.mark.parametrize(
        "n_journals,size_model,citation_model",
        [
            (300, LogUniformSizes(2, 1000), DiscreteLognormal(mu=0.5, sigma=1.2)),
            (300, LogUniformSizes(2, 200), ZipfTruncated(alpha=2.0, c_max=5000)),
            (150, FixedSizes(20), DiscreteLognormal(mu=2.0, sigma=2.0)),
            (150, FixedSizes(20), ZipfTruncated(alpha=1.5, c_max=10**5)),
            # journals one row short of a block, a block, and one row over
            (1, FixedSizes(BLOCK_ROWS - 1), DiscreteLognormal(mu=0.5, sigma=1.2)),
            (1, FixedSizes(BLOCK_ROWS), ZipfTruncated(alpha=2.0, c_max=100)),
            (1, FixedSizes(BLOCK_ROWS + 1), DiscreteLognormal(mu=0.5, sigma=1.2)),
            (6, LogUniformSizes(BLOCK_ROWS - 1, BLOCK_ROWS + 1), ZipfTruncated(2.0, 100)),
        ],
        ids=["loguniform-lognormal", "loguniform-zipf", "fixed-lognormal", "fixed-zipf",
             "block-1", "block", "block+1", "around-block"],
    )
    def test_bytes_match_csv_writer(self, n_journals, size_model, citation_model, seed):
        config = SynthConfig(n_journals, size_model, citation_model, seed)
        out = io.StringIO()
        rows = write_corpus_csv(config, out)
        assert out.getvalue() == reference_csv(config)
        assert rows == int(journal_sizes(config).sum())

    def test_bytes_match_csv_writer_with_wide_ids(self):
        # 10**5 journals: six-digit ids, S100000 the last
        config = SynthConfig(100_000, FixedSizes(1), DiscreteLognormal(0.5, 1.2), seed=101)
        out = io.StringIO()
        assert write_corpus_csv(config, out) == 100_000
        assert out.getvalue() == reference_csv(config)
        last = journal_citations(config, 99_999, 1)[0]
        assert out.getvalue().endswith(f"\nS100000,S100000,S100000-P000001,article,{last}\n")

    def test_seven_digit_paper_numbers(self):
        # paper numbers are zero-padded to six digits and widen past 999,999
        config = SynthConfig(1, FixedSizes(1_000_001), DiscreteLognormal(0.5, 1.2), seed=5)
        out = LastWriteStream()
        assert write_corpus_csv(config, out) == 1_000_001
        last = journal_citations(config, 0, 1_000_001)[-3:].tolist()
        papers = ["S00001-P999999", "S00001-P1000000", "S00001-P1000001"]
        assert out.last.splitlines()[-3:] == [
            f"S00001,S00001,{paper},article,{c}" for paper, c in zip(papers, last)
        ]
        assert out.last.endswith("\n")

    def test_writes_at_most_a_block_of_rows_at_a_time(self):
        # one journal's rows are not joined into one string, whatever its size
        config = SynthConfig(1, FixedSizes(3 * BLOCK_ROWS), DiscreteLognormal(0.5, 1.2), seed=5)
        out = RecordingStream()
        assert write_corpus_csv(config, out) == 3 * BLOCK_ROWS
        assert max(out.rows_per_write) <= BLOCK_ROWS
        assert sum(out.rows_per_write) == 1 + 3 * BLOCK_ROWS
        assert out.getvalue() == reference_csv(config)


class TestSeeding:
    """The journal streams of _draws are numpy's SeedSequence-seeded ones."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 1, 2**16, MAX_ROWS - 1])
    def test_states_equal_numpy_seeding(self, seed, index):
        # MAX_ROWS - 1 is the largest journal index a config allows
        pool, const = synthgen._spawn_pool(seed)
        [(state, inc)] = synthgen._pcg64_states(pool, const, index, index + 1)
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1, index)))
        assert {"state": state, "inc": inc} == bits.state["state"]

    def test_draws_build_no_seed_sequence_per_journal(self, monkeypatch):
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(kwargs.get("spawn_key"))
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        assert len(list(synthgen._draws(small_config(n_journals=500)))) == 500
        assert built == [(0,)]  # the size stream's only

    @settings(max_examples=100, deadline=None)
    @given(
        n_journals=st.integers(1, 300),
        size_model=st.one_of(
            st.builds(FixedSizes, st.integers(1, 40)),
            st.integers(2, 60).flatmap(
                lambda lo: st.builds(LogUniformSizes, st.just(lo), st.integers(lo, 60))
            ),
        ),
        citation_model=st.one_of(
            st.builds(DiscreteLognormal, st.floats(-1, 4), st.floats(0.05, 3)),
            st.builds(ZipfTruncated, st.floats(1.05, 3), st.integers(1, 10**4)),
        ),
        seed=st.integers(0, 2**64 - 1),
        block=st.sampled_from([1, 2, 3, 16, synthgen._SEED_BLOCK]),
    )
    # journals one short of a block, a block, and one over, at the real size
    @example(synthgen._SEED_BLOCK - 1, FixedSizes(1), DiscreteLognormal(0.5, 1.2), 7,
             synthgen._SEED_BLOCK)
    @example(synthgen._SEED_BLOCK, FixedSizes(2), ZipfTruncated(2.0, 100), 2**64 - 1,
             synthgen._SEED_BLOCK)
    @example(synthgen._SEED_BLOCK + 1, FixedSizes(1), DiscreteLognormal(0.5, 1.2), 2**32,
             synthgen._SEED_BLOCK)
    def test_draws_equal_journal_citations(
        self, n_journals, size_model, citation_model, seed, block
    ):
        config = SynthConfig(n_journals, size_model, citation_model, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthgen, "_SEED_BLOCK", block)
            draws = list(synthgen._draws(config))
        width = max(5, len(str(n_journals)))
        sizes = journal_sizes(config).tolist()
        assert [jid for jid, _ in draws] == [f"S{j:0{width}d}" for j in range(1, n_journals + 1)]
        for j, (size, (_, counts)) in enumerate(zip(sizes, draws)):
            expected = journal_citations(config, j, size)
            assert counts.dtype == expected.dtype
            assert counts.tolist() == expected.tolist()


class TestGeneration:
    def test_paper_rows_match_sizes(self):
        config = SynthConfig(
            n_journals=40,
            size_model=LogUniformSizes(2, 50),
            citation_model=DiscreteLognormal(mu=0.3, sigma=1.0),
            seed=9,
        )
        sizes = journal_sizes(config)
        out = io.StringIO()
        assert write_corpus_csv(config, out) == int(sizes.sum())
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        assert header == PAPER_HEADER
        assert len(rows) == int(sizes.sum())
        assert all(row[3] == "article" for row in rows)
        assert list(Counter(row[0] for row in rows).values()) == sizes.tolist()

    def test_aggregates_consistent_with_papers(self):
        config = small_config()
        corpus = generate_corpus(config)
        out = io.StringIO()
        write_corpus_csv(config, out)
        _, *rows = csv.reader(io.StringIO(out.getvalue()))
        assert len(rows) == 1000
        by_journal = {}
        for journal_id, _, _, _, citations in rows:
            by_journal.setdefault(journal_id, []).append(int(citations))
        assert by_journal.keys() == corpus.journals.keys()
        for jid, counts in by_journal.items():
            agg = corpus.journals[jid]
            assert agg.total_citations == sum(counts)
            assert agg.top_cited == max(counts)
            assert agg.n_2y == len(counts)

    def test_corpus_keeps_no_paper_records(self):
        config = small_config()
        with pytest.raises(ConfigError, match="write_corpus_csv"):
            generate_corpus(config, keep_papers=True)
        assert generate_corpus(config, keep_papers=False) == generate_corpus(config)

    def test_log_uniform_sizes_in_range(self):
        config = SynthConfig(
            n_journals=5000,
            size_model=LogUniformSizes(2, 1000),
            citation_model=DiscreteLognormal(mu=0.5, sigma=1.2),
            seed=3,
        )
        sizes = journal_sizes(config)
        assert sizes.min() >= 2
        assert sizes.max() <= 1000
        # the default tuning keeps roughly 90% of journals at size <= 500
        share = float((sizes <= 500).mean())
        assert 0.84 < share < 0.94

    def test_zipf_counts_in_support(self):
        config = SynthConfig(
            n_journals=200,
            size_model=FixedSizes(20),
            citation_model=ZipfTruncated(alpha=1.5, c_max=50),
            seed=11,
        )
        counts = np.concatenate(
            [journal_citations(config, j, 20) for j in range(200)]
        )
        assert counts.min() >= 1
        assert counts.max() <= 50


class TestZipfTable:
    def test_built_once_per_model(self, monkeypatch):
        builds = []
        cumsum = np.cumsum

        def counting_cumsum(*args, **kwargs):
            builds.append(1)
            return cumsum(*args, **kwargs)

        model = ZipfTruncated(alpha=1.7, c_max=1000)
        config = SynthConfig(n_journals=200, size_model=FixedSizes(5), citation_model=model, seed=9)
        monkeypatch.setattr(np, "cumsum", counting_cumsum)
        draws = [journal_citations(config, j, 5) for j in range(200)]
        model.mean(), model.variance()
        monkeypatch.undo()
        assert len(builds) == 1
        # the draws are those of a table built per journal
        k = np.arange(1, 1001, dtype=np.float64)
        w = k**-1.7
        cdf = np.cumsum(w / w.sum())
        cdf[-1] = 1.0
        for j, got in enumerate(draws):
            seq = np.random.SeedSequence(9, spawn_key=(1, j))
            u = np.random.Generator(np.random.PCG64(seq)).random(5)
            assert got.tolist() == (np.searchsorted(cdf, u, side="right") + 1).tolist()


class TestModelSanity:
    def test_zipf_global_mean_matches_analytic(self):
        config = SynthConfig(
            n_journals=10_000,
            size_model=FixedSizes(10),
            citation_model=ZipfTruncated(alpha=2.0, c_max=5000),
            seed=123,
        )
        corpus = generate_corpus(config)
        total_c = sum(a.total_citations for a in corpus.journals.values())
        total_n = sum(a.n_2y for a in corpus.journals.values())
        # independent oracle: mean and variance of the truncated power law
        k = np.arange(1, 5001, dtype=np.float64)
        w = k**-2.0
        w /= w.sum()
        mean = float((k * w).sum())
        var = float((k * k * w).sum()) - mean**2
        global_f = total_c / total_n
        assert abs(global_f - mean) <= 3 * math.sqrt(var / total_n)
        assert math.isclose(config.citation_model.mean(), mean, rel_tol=1e-12)

    def test_lognormal_mean_matches_survival_series(self):
        model = DiscreteLognormal(mu=0.5, sigma=1.2)
        # independent oracle: E[floor(X)] = sum_{k>=1} P(X >= k)
        expected = 0.0
        for k in range(1, 200_000):
            z = (math.log(k) - 0.5) / 1.2
            s = 0.5 * math.erfc(z / math.sqrt(2))
            expected += s
            if s < 1e-16 and k > 2:
                break
        assert math.isclose(model.mean(), expected, rel_tol=1e-9)

        config = small_config(n_journals=20_000)
        corpus = generate_corpus(config)
        total_c = sum(a.total_citations for a in corpus.journals.values())
        total_n = sum(a.n_2y for a in corpus.journals.values())
        se = math.sqrt(model.variance() / total_n)
        assert abs(total_c / total_n - model.mean()) <= 3 * se


class TestLargeMu:
    """A discrete lognormal whose exp overflows, or whose moments do not converge."""

    def test_overflowed_draws_are_capped_without_a_warning(self):
        config = SynthConfig(3, FixedSizes(4), DiscreteLognormal(mu=800, sigma=1), seed=1)
        out = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert write_corpus_csv(config, out) == 12
            counts = journal_citations(config, 1, 4)
        assert counts.tolist() == [MAX_CITATIONS] * 4
        rows = out.getvalue().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == [str(MAX_CITATIONS)] * 12

    def test_counts_are_the_capped_floor_of_exp(self):
        # mu=360, sigma=200: some draws overflow, some are capped, some are small
        model = DiscreteLognormal(mu=360, sigma=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = model.sample(np.random.Generator(np.random.PCG64(3)), 2000)
        normals = np.random.Generator(np.random.PCG64(3)).normal(360, 200, size=2000)
        assert (normals > 710).any() and (normals < 21).any()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the overflow, as numpy warns of it
            expected = np.minimum(np.floor(np.exp(normals)), MAX_CITATIONS)
        assert counts.tolist() == expected.astype(np.int64).tolist()
        assert 0 < (counts == MAX_CITATIONS).sum() < 2000

    @pytest.mark.parametrize("mu", [20, 800])
    def test_unconverged_moments_raise(self, mu):
        model = DiscreteLognormal(mu=mu, sigma=1)
        message = f"discrete_lognormal mu={mu} sigma=1: mean and variance series not converged"
        with pytest.raises(ConfigError, match=message):
            model.mean()
        with pytest.raises(ConfigError, match=message):
            model.variance()

    def test_default_mean_is_unchanged(self):
        model = SynthConfig.default().citation_model
        assert round(model.mean(), 4) == 2.9022
        assert math.isclose(model.mean(), 2.9021889239999923, rel_tol=1e-12)


@pytest.mark.parametrize("mu, sigma", [(20, 1), (800, 1), (3, 1.5)])
def test_lognormal_refusal_does_not_walk_the_series(monkeypatch, mu, sigma):
    calls = []
    survival = DiscreteLognormal._survival

    def counted(model, k):
        calls.append(k)
        return survival(model, k)

    monkeypatch.setattr(DiscreteLognormal, "_survival", counted)
    model = DiscreteLognormal(mu=mu, sigma=sigma)
    for moment in (model.mean, model.variance):
        calls.clear()
        with pytest.raises(ConfigError, match="series not converged after 2000000 terms"):
            moment()
        assert len(calls) <= 2


class TestBinnedStats:
    def make_reports(self, n_journals=3000, seed=5):
        config = SynthConfig(
            n_journals=n_journals,
            size_model=LogUniformSizes(2, 2000),
            citation_model=DiscreteLognormal(mu=0.5, sigma=1.2),
            seed=seed,
        )
        corpus = generate_corpus(config)
        reports, _ = volatility_reports(corpus)
        return reports

    def test_single_bin_gives_global_stats(self):
        reports = self.make_reports(n_journals=300)
        stats = clt_binned_stats(reports, [2, 2001])
        assert len(stats.bins) == 1
        row = stats.bins[0]
        assert row.journal_count == len(reports)
        fs = [float(r.f) for r in reports]
        assert math.isclose(row.mean_f, sum(fs) / len(fs), rel_tol=1e-12)
        assert math.isclose(row.max_f, max(fs), rel_tol=1e-12)

    def test_empty_bin_reports_nulls(self):
        reports = self.make_reports(n_journals=100)
        stats = clt_binned_stats(reports, [2, 2000, 4000])
        empty = stats.bins[1]
        assert empty.journal_count == 0
        assert empty.mean_f is None
        assert empty.sd_f is None

    def test_counts_cover_corpus(self):
        reports = self.make_reports(n_journals=500)
        stats = clt_binned_stats(reports, [2, 20, 200, 2001])
        assert sum(row.journal_count for row in stats.bins) == len(reports)

    def test_spread_and_envelope_fall_with_size(self):
        reports = self.make_reports(n_journals=3000)
        stats = clt_binned_stats(reports, [2, 20, 200, 2000])
        rows = stats.bins
        assert all(row.journal_count >= 100 for row in rows)
        assert rows[0].sd_f > rows[1].sd_f > rows[2].sd_f
        assert rows[0].max_delta_f > rows[1].max_delta_f > rows[2].max_delta_f

    def test_bad_edges_rejected(self):
        with pytest.raises(ConfigError):
            clt_binned_stats([], [10])
        with pytest.raises(ConfigError):
            clt_binned_stats([], [10, 5])


def test_package_serves_synthgen_names():
    # volatix imports synthgen, and numpy with it, only when one of these is read
    import volatix

    names = [
        "BinnedStats", "BinRow", "DiscreteLognormal", "FixedSizes", "LogUniformSizes",
        "SynthConfig", "ZipfTruncated", "clt_binned_stats", "generate_corpus", "write_corpus_csv",
    ]
    for name in names:
        assert getattr(volatix, name) is getattr(synthgen, name)
        assert name in dir(volatix)
    assert "load_corpus" in dir(volatix)
    with pytest.raises(AttributeError, match="has no attribute 'synth_config'"):
        getattr(volatix, "synth_config")
