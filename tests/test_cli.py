import contextlib
import csv
import io
import json
import logging
import os
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volatix import analytics, ingest, synthgen
from volatix.cli import _load_reports, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWhatIf:
    def test_benefit_case(self, capsys):
        code, out, _ = run_cli(capsys, "whatif", "--f", "16.15", "--n", "33", "--c", "209")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert lines["classification"] == "benefit"
        assert lines["delta_f"] == "5.67"

    def test_neutral_case(self, capsys):
        code, out, _ = run_cli(capsys, "whatif", "--f", "2", "--n", "100", "--c", "2")
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert lines["classification"] == "neutral"
        assert lines["delta_f"] == "0.00"

    def test_penalty_floor_attained(self, capsys):
        code, out, _ = run_cli(
            capsys, "whatif", "--f", "171.83", "--n", "52", "--c", "0", "--format", "json"
        )
        data = json.loads(out)
        assert data["classification"] == "penalty"
        assert data["delta_f"] == "-3.24"
        assert data["delta_f"] == data["penalty_floor"]

    def test_zero_average_relative_undefined(self, capsys):
        code, out, _ = run_cli(capsys, "whatif", "--f", "0", "--n", "10", "--c", "3")
        assert code == 0
        assert "delta_f_rel: undefined" in out

    def test_invalid_numbers_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["whatif", "--f", "abc", "--n", "33", "--c", "209"])
        assert exc.value.code != 0

    def test_zero_denominator_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["whatif", "--f", "1/0", "--n", "33", "--c", "209"])
        assert exc.value.code == 2
        assert "invalid parse_rational value: '1/0'" in capsys.readouterr().err


class TestReport:
    def test_report_fixture(self, capsys, absolute_fixture):
        code, out, err = run_cli(capsys, "report", str(absolute_fixture))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        ca = next(r for r in rows if r["journal_id"] == "CA-CANCER J CLIN")
        assert ca["delta_f"] == "68.27"

    def test_paper_level_and_aggregate_agree(self, capsys, papers_sample, tmp_path):
        code, journals_out, _ = run_cli(
            capsys, "ingest", str(papers_sample), "--schema", "papers"
        )
        assert code == 0
        corpus_path = tmp_path / "journals.csv"
        corpus_path.write_text(journals_out)
        _, from_papers, _ = run_cli(capsys, "report", str(papers_sample))
        _, from_aggregates, _ = run_cli(capsys, "report", str(corpus_path))
        assert from_papers == from_aggregates

    def test_empty_corpus_empty_output(self, capsys, tmp_path):
        empty = tmp_path / "journals.csv"
        empty.write_text(
            "journal_id,journal_name,total_citations,n_2y,top_paper_citations\n"
        )
        code, out, _ = run_cli(capsys, "report", str(empty))
        assert code == 0
        assert out.splitlines() == [
            "journal_id,f,f_star,c_star,delta_f,delta_f_rel,n_2y"
        ]

    def test_singleton_exclusions_reported_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "journals.csv"
        path.write_text(
            "journal_id,journal_name,total_citations,n_2y,top_paper_citations\n"
            "S,Singleton,4,1,4\nA,Normal,10,5,6\n"
        )
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 0
        assert '"excluded"' in err
        assert "singleton_journal" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["journal_id"] for r in rows] == ["A"]

    @pytest.mark.parametrize(
        "text",
        [
            "journal_id,journal_name,total_citations,n_2y,top_paper_citations\n"
            ",,4,2,3\nA,Normal,10,5,6\n",
            "journal_id,journal_name,paper_id,item_type,citations\n"
            ",,p1,article,3\nA,Normal,p2,article,4\nA,Normal,p3,article,1\n",
        ],
        ids=["journals", "papers"],
    )
    def test_empty_journal_id_is_a_rejected_row(self, capsys, caplog, tmp_path, text):
        path = tmp_path / "input.csv"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "report", str(path), "--format", "json")
        assert code == 0
        assert [r["journal_id"] for r in json.loads(out)] == ["A"]
        assert [r.getMessage() for r in caplog.records] == ["line 2: empty journal_id, row rejected"]

    def test_json_format(self, capsys, absolute_fixture):
        code, out, _ = run_cli(capsys, "report", str(absolute_fixture), "--format", "json")
        data = json.loads(out)
        assert len(data) == 10

    @pytest.mark.parametrize("command", ["report", "ingest"])
    @pytest.mark.parametrize(
        "text",
        [
            "journal_id,journal_name,total_citations,n_2y,top_paper_citations\n"
            "R,Revue \xe9conomique,10,5,6\n",
            "journal_id,journal_name,paper_id,item_type,citations\n"
            "R,Revue \xe9conomique,P1,article,3\n",
        ],
        ids=["journals", "papers"],
    )
    def test_invalid_utf8_exit_one(self, capsys, tmp_path, command, text):
        path = tmp_path / "latin1.csv"
        raw = text.encode("latin-1")
        path.write_bytes(raw)
        offset = raw.index(b"\xe9")
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"volatix: invalid UTF-8 byte 0xe9 at offset {offset} (line 2)"]

    @pytest.mark.parametrize("command", ["report", "ingest"])
    @pytest.mark.parametrize(
        "text, line",
        [
            ("journal_id,journal_name,total_citations,n_2y,top_paper_citations\n"
             "R,{field},10,5,6\n", 2),
            ("journal_id,journal_name,paper_id,item_type,citations\n"
             "R,{field},P1,article,3\n", 2),
            ("{field}\n", 1),
        ],
        ids=["journals", "papers", "header"],
    )
    def test_field_over_csv_limit_exit_one(self, capsys, tmp_path, command, text, line):
        path = tmp_path / "long.csv"
        path.write_text(text.format(field="x" * 200_000))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"volatix: field larger than field limit ({csv.field_size_limit()}) (line {line})"
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "journal_id,journal_name,total_citations,n_2y,top_paper_citations\n"
            "R,Re\0vue,10,5,6\n",
            "journal_id,journal_name,paper_id,item_type,citations\n"
            "R,Re\0vue,P1,article,3\nR,Revue,P2,article,4\n",
        ],
        ids=["journals", "papers"],
    )
    def test_nul_byte(self, capsys, tmp_path, text):
        # csv rejects a NUL before Python 3.11 and reads it as data from 3.11 on
        path = tmp_path / "nul.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "report", str(path))
        if sys.version_info < (3, 11):
            assert (code, out) == (1, "")
            assert err.splitlines() == ["volatix: line contains NUL (line 2)"]
        else:
            assert code == 0
            assert out.splitlines()[1].startswith("R,")

    def test_missing_file_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "report", "/nonexistent/journals.csv")
        assert code == 1
        assert out == ""
        assert "volatix:" in err


class TestRankAndThresholds:
    def test_rank_deterministic_rerun(self, capsys, absolute_fixture):
        _, first, _ = run_cli(capsys, "rank", str(absolute_fixture), "--key", "abs")
        _, second, _ = run_cli(capsys, "rank", str(absolute_fixture), "--key", "abs")
        assert first == second
        assert first.splitlines()[1].startswith("1,CA-CANCER J CLIN")

    def test_rank_top_beyond_corpus(self, capsys, absolute_fixture):
        _, out, _ = run_cli(
            capsys, "rank", str(absolute_fixture), "--key", "abs", "--top", "500"
        )
        assert len(out.splitlines()) == 11  # header + all 10 journals

    def test_default_absolute_cuts(self, capsys, absolute_fixture):
        _, out, _ = run_cli(capsys, "thresholds", str(absolute_fixture), "--key", "abs")
        lines = out.splitlines()
        assert len(lines) == 13  # header + 12 preset cuts
        assert lines[1].split(",")[0] == "0.1"
        assert lines[-1].split(",")[0] == "50"

    def test_default_relative_cuts_in_percent(self, capsys, relative_fixture):
        _, out, _ = run_cli(capsys, "thresholds", str(relative_fixture), "--key", "rel")
        lines = out.splitlines()
        assert lines[1].split(",")[0] == "10%"
        assert lines[-1].split(",")[0] == "300%"

    def test_explicit_cuts(self, capsys, absolute_fixture):
        _, out, _ = run_cli(
            capsys, "thresholds", str(absolute_fixture), "--key", "abs", "--cuts", "5,10"
        )
        rows = out.splitlines()[1:]
        assert rows[0].split(",")[:2] == ["5", "7"]  # 68.27..5.57 exceed 5
        assert rows[1].split(",")[:2] == ["10", "3"]  # 68.27, 15.80, 13.67

    @pytest.mark.parametrize(
        "cuts, bad",
        [
            pytest.param("1/0", "1/0", id="1/0"),
            pytest.param("abc", "abc", id="abc"),
            pytest.param("0.5,1/0", "1/0", id="0.5,1/0"),
            # empty parts are errors too, never the preset cuts or an empty table
            pytest.param("", "", id="empty"),
            pytest.param(",", "", id="comma"),
            pytest.param(" ", " ", id="space"),
            pytest.param("1,,2", "", id="empty-part"),
        ],
    )
    @pytest.mark.parametrize("key", ["abs", "rel"])
    def test_bad_cut_is_one_line_error(self, capsys, absolute_fixture, cuts, bad, key):
        code, out, err = run_cli(
            capsys, "thresholds", str(absolute_fixture), "--key", key, "--cuts", cuts
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"volatix: not a rational number: {bad!r}"]

    def test_unsorted_cuts_fail(self, capsys, absolute_fixture):
        code, _, err = run_cli(
            capsys, "thresholds", str(absolute_fixture), "--key", "abs", "--cuts", "5,1"
        )
        assert code == 1
        assert "strictly increasing" in err


class TestSynthAndScatter:
    def test_synth_writes_deterministic_csv(self, capsys, data_dir, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        config = str(data_dir / "synth_config.json")
        assert main(["synth", config, "--seed", "5", "--out", str(out_a)]) == 0
        assert main(["synth", config, "--seed", "5", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_output(self, capsys, data_dir, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        config = str(data_dir / "synth_config.json")
        main(["synth", config, "--seed", "5", "--out", str(out_a)])
        main(["synth", config, "--seed", "6", "--out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_scatter_out_file(self, capsys, absolute_fixture, tmp_path):
        out = tmp_path / "scatter.csv"
        code = main(["scatter", str(absolute_fixture), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_2y,delta_f,delta_f_rel"
        assert len(lines) == 11

    def test_bad_config_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text('{"n_journals": 0}')
        code, _, err = run_cli(capsys, "synth", str(bad))
        assert code == 1

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_journals": "abc"}, "n_journals must be an integer, got 'abc'"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"citation_model": {"kind": "discrete_lognormal", "mu": float("nan"),
                                 "sigma": 1.2}}, "mu must be a finite number, got nan"),
            ({"citation_model": {"kind": "zipf", "alpha": 2.0, "c_max": 1e20}},
             "c_max must be an integer, got 1e+20"),
            ({"extra": 5, "comment": "x"}, "bad synth config: unknown keys ['comment', 'extra']"),
            ({"size_model": [1]}, "bad synth config: size_model must be a JSON object"),
            ({"size_model": {"min": 2, "max": 9}},
             "bad synth config: size_model has no kind; kinds are ['fixed', 'log_uniform']"),
            ({"citation_model": {"kind": "poisson"}}, "bad synth config: unknown citation_model "
             "kind 'poisson'; kinds are ['discrete_lognormal', 'zipf']"),
            ({"citation_model": {"kind": "zipf", "alpha": 2.0, "c_max": 9, "1": 2}},
             "bad synth config: unknown citation_model zipf keys ['1']"),
        ],
        ids=["string-count", "bool-seed", "nan-mu", "float-c_max", "unknown-key", "model-a-list",
             "model-no-kind", "model-unknown-kind", "model-unknown-key"],
    )
    def test_bad_config_value_is_one_line_error(self, capsys, data_dir, tmp_path, change, message):
        config = tmp_path / "config.json"
        base = json.loads((data_dir / "synth_config.json").read_text())
        config.write_text(json.dumps({**base, **change}))  # NaN is written as NaN
        code, out, err = run_cli(capsys, "synth", str(config))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"volatix: {message}"]

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "7", "null"])
    def test_config_not_an_object_is_one_line_error(self, capsys, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "synth", str(config))
        assert (code, out) == (1, "")
        assert err.splitlines() == ["volatix: bad synth config: must be a JSON object"]

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"seed": 20170101\n', '"seed": 20170101, "seed": 1\n', "seed"),
            ('"max": 1000}', '"max": 1000, "min": 5}', "min"),
        ],
        ids=["top-level", "in-size_model"],
    )
    def test_config_repeated_key_is_one_line_error(self, capsys, data_dir, tmp_path, old, new, key):
        # json.loads alone lets the last value win, silently
        text = (data_dir / "synth_config.json").read_text()
        assert text.count(old) == 1
        config = tmp_path / "config.json"
        config.write_text(text.replace(old, new))
        code, out, err = run_cli(capsys, "synth", str(config))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"volatix: bad synth config JSON: repeated key {key!r}"]
        assert "Traceback" not in err

    def test_config_invalid_utf8_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_bytes(b'{"name": "Revue \xe9conomique"}')
        code, out, err = run_cli(capsys, "synth", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("volatix: bad synth config JSON: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("seed", "9" * 5000), ("n_journals", "9" * 5000), (None, "[" * 100_000)],
        ids=["5000-digit-seed", "5000-digit-n_journals", "deep-nesting"],
    )
    def test_config_json_past_a_limit_is_one_line_error(self, capsys, data_dir, tmp_path,
                                                        key, value):
        # int()'s digit limit, where Python has one, and the recursion limit
        text = value
        if key is not None:
            base = json.loads((data_dir / "synth_config.json").read_text())
            text = json.dumps({**base, key: 0}).replace(f'"{key}": 0', f'"{key}": {value}')
        config = tmp_path / "config.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "synth", str(config))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("volatix: ") and "Traceback" not in err


class TestPipelineComposability:
    def test_cli_pipeline_matches_library(self, capsys, tmp_path):
        config = synthgen.SynthConfig(
            n_journals=60,
            size_model=synthgen.LogUniformSizes(2, 80),
            citation_model=synthgen.ZipfTruncated(alpha=1.8, c_max=500),
            seed=77,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.as_dict()))
        papers_path = tmp_path / "papers.csv"
        journals_path = tmp_path / "journals.csv"

        assert main(["synth", str(config_path), "--out", str(papers_path)]) == 0
        assert main(
            ["ingest", str(papers_path), "--schema", "papers", "--out", str(journals_path)]
        ) == 0
        _, report_out, _ = run_cli(capsys, "report", str(journals_path))
        _, rank_out, _ = run_cli(
            capsys, "rank", str(journals_path), "--key", "abs", "--top", "5"
        )

        # library path over the same data
        corpus = synthgen.generate_corpus(config)
        cleaned, _ = ingest.dedupe_and_filter(corpus)
        reports, _ = analytics.volatility_reports(cleaned)
        buf = io.StringIO()
        analytics.write_reports_csv(reports, buf)
        assert buf.getvalue() == report_out

        table = analytics.rank_by_volatility(reports, analytics.RankKey.ABSOLUTE, 5)
        buf = io.StringIO()
        analytics.write_ranked_csv(table, buf)
        assert buf.getvalue() == rank_out


class _Events(logging.Handler):
    """volatix's log records, at every level, and the text written to
    ``sys.stderr``, in one list in the order they came."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.events = []

    def emit(self, record):
        self.events.append((record.levelname, record.getMessage()))

    def write(self, text):
        if self.events and self.events[-1][0] == "stderr":
            text = self.events.pop()[1] + text
        self.events.append(("stderr", text))

    def flush(self):
        pass


def recorded(load, path):
    """``load(path)`` and the events it made (see :class:`_Events`)."""
    events = _Events()
    logger = logging.getLogger("volatix")
    level = logger.level
    logger.addHandler(events)
    logger.setLevel(logging.DEBUG)
    try:
        with contextlib.redirect_stderr(events):
            return load(path), events.events
    finally:
        logger.removeHandler(events)
        logger.setLevel(level)


def library_reports(path):
    """The reading commands' reports as the library makes them, with the
    ``excluded`` JSON line that they print."""
    reports, excluded = analytics.volatility_reports(ingest.load_corpus(path)[0])
    if excluded:
        payload = [{"journal_id": e.journal_id, "reason": e.reason} for e in excluded]
        print(json.dumps({"excluded": payload}), file=sys.stderr)
    return reports


def assert_loads_as_the_library(path):
    got, got_events = recorded(_load_reports, str(path))
    expected, expected_events = recorded(library_reports, path)
    assert got == expected
    assert [(r.journal_id, r._pairs()) for r in got] == [
        (r.journal_id, r._pairs()) for r in expected
    ]
    assert got_events == expected_events
    return got, got_events


SCHEMA_B_EDGES = """journal_id,journal_name,total_citations,n_2y,top_paper_citations
J9,Single,5,1,5
J2,Zero,0,3,0
J9,Repeat of a singleton,9,3,4
J2,Shadowed by a zero row,9,3,4
,Empty id,3,2,2
J4,Top above total,3,2,9
J5,Negative,-1,2,1
J6,Normal,6,3,2
J0,First,10,4,5
J7,Another single,3,1,3
J7,Its repeat,3,1,3
J8,Top below the average,10,2,3
"""

SCHEMA_A_BODY = """J9,Single,p1,article,5
J9,Single,p2,front_matter,2
J2,Zero,p3,article,0
J2,Zero,p4,review,0
,Empty id,p5,article,3
J4,Unknown type,p6,letter,4
J4,Negative,p7,article,-2
J4,Normal,p8,article,4
J4,Normal,p9,review,1
J0,First,p10,article,2
J0,First,p11,article,2
J7,Another single,p12,review,3
J9,Single again,p13,front_matter,1
"""


class TestLoadReports:
    """The reading commands' one parse gives the reports, exclusions and
    stderr of ``volatility_reports(load_corpus(path))``."""

    @pytest.mark.parametrize(
        "text",
        [
            SCHEMA_B_EDGES,
            "journal_id,journal_name,paper_id,item_type,citations\n" + SCHEMA_A_BODY,
            # a quoted header: the chunked stage reads the rows, as after an exact one
            '"journal_id","journal_name","paper_id","item_type","citations"\n' + SCHEMA_A_BODY,
        ],
        ids=["journals", "papers", "papers-quoted-header"],
    )
    def test_edge_rows(self, tmp_path, text):
        path = tmp_path / "input.csv"
        path.write_text(text)
        reports, events = assert_loads_as_the_library(path)
        assert [r.journal_id for r in reports] == (["J0", "J4"] if "paper_id" in text else ["J0", "J6"])
        singletons = [
            {"journal_id": "J7", "reason": "singleton_journal"},
            {"journal_id": "J9", "reason": "singleton_journal"},
        ]
        assert events[-1] == ("stderr", json.dumps({"excluded": singletons}) + "\n")
        assert ("WARNING", "line 6: empty journal_id, row rejected") in events

    @pytest.mark.parametrize(
        "name", ["top_absolute_2017.csv", "top_relative_2017.csv", "papers_sample.csv"]
    )
    def test_bundled_data(self, data_dir, name):
        assert_loads_as_the_library(data_dir / name)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C", "D", ""]),
                st.integers(-1, 12),
                st.integers(0, 4),
                st.integers(0, 12),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_schema_b_rows(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "drawn_journals.csv"
        lines = [",".join(ingest.AGGREGATE_HEADER)]
        lines += [f"{jid},name,{total},{n},{top}" for jid, total, n, top in rows]
        path.write_text("\n".join(lines) + "\n")
        assert_loads_as_the_library(path)


class TestOutFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "{papers}"],
            ["report", "{abs}"],
            ["report", "{abs}", "--format", "json", "--exact"],
            ["rank", "{rel}", "--key", "rel"],
            ["rank", "{abs}", "--format", "json"],
            ["thresholds", "{abs}"],
            ["thresholds", "{rel}", "--key", "rel", "--format", "json"],
            ["scatter", "{abs}"],
            ["synth", "{config}", "--seed", "3"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("{")),
    )
    def test_out_file_matches_stdout(
        self, capsysbinary, tmp_path, data_dir, absolute_fixture, relative_fixture,
        papers_sample, argv,
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**json.loads((data_dir / "synth_config.json").read_text()),
                        "n_journals": 20})
        )
        paths = {"{papers}": papers_sample, "{abs}": absolute_fixture,
                 "{rel}": relative_fixture, "{config}": config}
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert stdout.count(b"\n") > 1
        assert out.read_bytes() == stdout


@pytest.mark.parametrize(
    "command, lines_read",
    [
        # large output: the pipe closes while the writer runs
        (["synth", "synth_config.json"], 1),
        # small output, still buffered when the command returns
        (["rank", "top_absolute_2017.csv"], 0),
    ],
    ids=["while-writing", "at-flush"],
)
def test_closed_pipe_exits_quietly(data_dir, command, lines_read):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "volatix", command[0], str(data_dir / command[1])],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline().startswith(b"journal_id,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize(
    "argv,code,err_tail",
    [
        (
            ["whatif", "--f", "1e-100000000", "--n", "1", "--c", "1"],
            2,
            "argument --f: invalid parse_rational value: '1e-100000000'",
        ),
        (
            ["thresholds", "top_absolute_2017.csv", "--cuts", "1e100000000"],
            1,
            "volatix: number out of range (over 1000 digits): '1e100000000'",
        ),
    ],
    ids=["whatif-f", "thresholds-cuts"],
)
def test_huge_exponent_fails_fast(data_dir, argv, code, err_tail):
    # Fraction("1e100000000") computes 10**100000000, which takes minutes
    argv = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "volatix", *argv], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.splitlines()[-1].endswith(err_tail)
    assert len(proc.stderr.splitlines()) == code  # a usage line precedes argparse's error


@pytest.mark.parametrize(
    "argv,message",
    [
        (["thresholds", "top_absolute_2017.csv", "--cuts", "1e4300"], "number out of range"),
        (["thresholds", "top_absolute_2017.csv", "--cuts", "1" * 1001], "number out of range"),
        (["thresholds", "top_absolute_2017.csv", "--cuts", "1/" + "3" * 999], "out of range"),
        (
            ["whatif", "--f", "1/3", "--n", "1", "--c", "9" * 4300, "--exact"],
            "--n and --c take at most 1000 digits",
        ),
        (["whatif", "--f", "1", "--n", "9" * 1001, "--c", "1"], "--n and --c take at most"),
    ],
    ids=["exponent", "digits", "denominator", "whatif-c", "whatif-n"],
)
def test_number_too_long_to_print_is_one_line_error(capsys, data_dir, argv, message):
    # Python converts ints of at most 4300 digits to text; longer would be a traceback
    argv = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("volatix: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv,code,err_tail",
    [
        (["rank", "top_absolute_2017.csv", "--top", "٣"], 2, "argument --top: invalid parse_int value: '٣'"),
        (["rank", "top_absolute_2017.csv", "--top", "1_0"], 2, "argument --top: invalid parse_int value: '1_0'"),
        (["whatif", "--f", "1_0", "--n", "10", "--c", "3"], 2, "argument --f: invalid parse_rational value: '1_0'"),
        (["whatif", "--f", "١٠", "--n", "10", "--c", "3"], 2, "argument --f: invalid parse_rational value: '١٠'"),
        (["whatif", "--f", "10", "--n", "١٠", "--c", "3"], 2, "argument --n: invalid parse_int value: '١٠'"),
        (["whatif", "--f", "10", "--n", "10", "--c", "1_0"], 2, "argument --c: invalid parse_int value: '1_0'"),
        (["synth", "synth_config.json", "--seed", "٧"], 2, "argument --seed: invalid parse_int value: '٧'"),
        (["thresholds", "top_absolute_2017.csv", "--cuts", "1_0,20"], 1, "volatix: not a plain ASCII number: '1_0'"),
        (["thresholds", "top_absolute_2017.csv", "--cuts", "10,٢٠"], 1, "volatix: not a plain ASCII number: '٢٠'"),
    ],
    ids=["top-arabic", "top-underscore", "f-underscore", "f-arabic", "n-arabic", "c-underscore",
         "seed-arabic", "cuts-underscore", "cuts-arabic"],
)
def test_numbers_are_ascii_digits_only(capsys, data_dir, tmp_path, argv, code, err_tail):
    # int() and Fraction() read "1_0" and "١٠" as 10; a flag must not
    argv = [str(data_dir / a) if a.endswith((".csv", ".json")) else a for a in argv]
    if argv[0] != "whatif":  # the one command without --out
        argv += ["--out", str(tmp_path / "out")]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    if code == 1:
        assert err.splitlines() == [err_tail]
    else:  # argparse's usage, then its error
        assert err.startswith("usage: ") and err.splitlines()[-1].endswith(err_tail)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv", [["report", "--format", "json", "--exact"], ["rank", "--exact"]], ids=["report", "rank"]
)
def test_n_2y_above_cap_is_a_rejected_row(capsys, caplog, tmp_path, argv):
    # a 3000-digit n_2y would give exact values too long to print
    path = tmp_path / "journals.csv"
    path.write_text(
        "journal_id,journal_name,total_citations,n_2y,top_paper_citations\n"
        f"A,Alpha,10,4,6\nB,Big,7,{'9' * 3000},4\n"
    )
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    rows = json.loads(out) if "json" in argv else list(csv.DictReader(io.StringIO(out)))
    assert [row["journal_id"] for row in rows] == ["A"]
    assert [r.getMessage() for r in caplog.records] == ["line 3: n_2y out of range, row rejected"]


def test_module_entry_point_subprocess(absolute_fixture):
    proc = subprocess.run(
        [sys.executable, "-m", "volatix", "rank", str(absolute_fixture), "--top", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "CA-CANCER J CLIN" in proc.stdout


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["report", "rank", "thresholds", "scatter", "ingest"]),
    header=st.one_of(
        st.just(b""),
        st.sampled_from([ingest.PAPER_HEADER, ingest.AGGREGATE_HEADER]).map(
            lambda h: ",".join(h).encode() + b"\n"
        ),
    ),
    body=st.one_of(
        st.binary(max_size=400),
        st.text(alphabet='0123456789,-+_"\n\r\0 xé\u0663', max_size=400).map(str.encode),
    ),
)
def test_random_input_ends_in_status_0_or_1(tmp_path_factory, command, header, body):
    # st.one_of draws from its branches about equally: a valid header or none
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(header + body)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, str(path)]) in (0, 1)


NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(-(10**1100), 10**1100).map(str),
    st.fractions(max_denominator=10**4).map(str),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from(
        ["0", "-1", "1/0", "0/0", "", " ", "abc", "nan", "inf", "1_000", "1e999", "1e1000",
         "1e4300", "1e-4301", "1e100000000", "1e-100000000", "9" * 4300, "9" * 4301]
    ),
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["report", "rank", "thresholds", "scatter", "whatif"]))
    if command == "whatif":
        argv = [command] + [x for flag in ("--f", "--n", "--c") for x in (flag, draw(NUMBERS))]
    else:
        corpus = ["top_absolute_2017.csv", "top_relative_2017.csv", "papers_sample.csv"]
        argv = [command, draw(st.sampled_from(corpus))]
    if command in ("rank", "thresholds"):
        argv += ["--key", draw(st.sampled_from(["abs", "rel"]))]
    if command == "rank" and draw(st.booleans()):
        argv += ["--top", draw(NUMBERS)]
    if command == "thresholds" and draw(st.booleans()):
        argv += ["--cuts", draw(st.just(",,") | st.lists(NUMBERS, max_size=4).map(",".join))]
    if command != "scatter":
        formats = ["text", "json"] if command == "whatif" else ["csv", "json"]
        argv += ["--format", draw(st.sampled_from(formats))]
        argv += draw(st.sampled_from([[], ["--exact"]]))
    return argv


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(argv=cli_argv())
def test_random_argv_ends_in_status_0_1_or_2(data_dir, argv):
    argv = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)  # any exception but SystemExit fails the test
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().splitlines()[-1].startswith("volatix: ")


# Run in a fresh interpreter: which modules a command loads is the point.
NUMPY_STEPS = """
import contextlib, io, json, sys

loaded = []

def step(name, *argv):
    if argv:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert volatix.cli.main(list(argv)) == 0, name
    loaded.append([name, "numpy" in sys.modules])

import volatix
step("import volatix")
import volatix.cli
step("import volatix.cli")
step("report", "report", sys.argv[1])
step("whatif", "whatif", "--f", "16.15", "--n", "33", "--c", "209")
step("ingest schema A", "ingest", sys.argv[2])
print(json.dumps(loaded))
"""


def test_numpy_loads_only_for_schema_a(absolute_fixture, papers_sample):
    # Only the chunked Schema-A stage and synthgen use numpy; the last step
    # shows that the check can see numpy load.
    argv = [sys.executable, "-X", "dev", "-W", "error", "-c", NUMPY_STEPS]
    argv += [str(absolute_fixture), str(papers_sample)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == [
        ["import volatix", False],
        ["import volatix.cli", False],
        ["report", False],
        ["whatif", False],
        ["ingest schema A", True],
    ]
