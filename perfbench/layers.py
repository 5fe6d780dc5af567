"""The traced run: each workload command mirrored in-process, one span per
public volatix call, followed by a sweep over the layer calls the commands
did not make, so that every per-layer metric is measured on every workload.
It runs in a process of its own (see :func:`main`), so that no benchmark state
shares its heap.

Writers render into memory (``io.StringIO``) inside their span; a mirrored
command then writes the text to its output file, which the oracle checks
exactly as it checks the CLI's.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import Workload

from volatix import analytics, display, ingest, metrics, synthgen

KEYS = {"abs": analytics.RankKey.ABSOLUTE, "rel": analytics.RankKey.RELATIVE}
CUTS = {"abs": analytics.DEFAULT_ABSOLUTE_CUTS, "rel": analytics.DEFAULT_RELATIVE_CUTS}
PARSE = {"papers": ingest.parse_paper_level, "journals": ingest.parse_aggregate}
WRITERS = ("reports_csv", "reports_json", "ranked_csv", "thresholds_csv", "scatter_csv")


def cli_workers() -> int:
    """The worker count the CLI resolves for report computation."""
    from volatix import cli

    resolve = getattr(cli, "_worker_count", None)
    return resolve() if resolve else os.cpu_count() or 1


class TracedRun:
    """State shared by the mirrored commands and the sweep of one pass."""

    def __init__(self, tracer: Tracer, config: synthgen.SynthConfig, workdir: Path,
                 workers: int, tag: str):
        self.t = tracer
        self.tag = tag
        self.config = config
        self.workdir = workdir
        self.workers = workers
        self.trace = ""
        self.corpus = None
        self.reports = None
        self.tables = {}
        self.points = None

    # -- one span per layer call ---------------------------------------------

    def parse(self, path: Path):
        with self.t.span(self.trace, "ingest.sniff_schema"):
            schema = ingest.sniff_schema(path)
        fn = PARSE[schema]
        with self.t.span(self.trace, f"ingest.{fn.__name__}") as s:
            corpus, log = fn(path)
            s.counts.update(
                schema=schema,
                rows_read=log.rows_read,
                rows_rejected=log.rows_rejected,
                journals_kept=log.journals_kept,
                citations_read=log.citations_read,
                citations_kept=log.citations_kept,
            )
        return corpus

    def volatility_reports(self):
        with self.t.span(self.trace, "analytics.volatility_reports") as s:
            self.reports, excluded = analytics.volatility_reports(
                self.corpus, max_workers=self.workers
            )
            s.counts.update(reports=len(self.reports), workers=self.workers)

    def rank(self, key: str):
        with self.t.span(self.trace, f"analytics.rank_by_volatility.{key}") as s:
            table = analytics.rank_by_volatility(self.reports, KEYS[key], 10)
            s.counts["excluded"] = len(table.excluded)
        self.tables["rank"] = table
        return table

    def thresholds(self, key: str):
        with self.t.span(self.trace, f"analytics.threshold_table.{key}"):
            table = analytics.threshold_table(self.reports, KEYS[key], list(CUTS[key]))
        self.tables["thresholds"] = table
        return table

    def scatter(self):
        with self.t.span(self.trace, "analytics.scatter_data"):
            self.points = analytics.scatter_data(self.reports)
        return self.points

    def render(self, writer: str, payload, module=analytics) -> str:
        buf = io.StringIO()
        with self.t.span(self.trace, f"{module.__name__.split('.')[-1]}.write_{writer}") as s:
            getattr(module, "write_" + writer)(payload, buf)
            text = buf.getvalue()
            s.counts["bytes"] = len(text.encode("utf-8"))
        return text

    def write_corpus(self, config, path: Path):
        with self.t.span(self.trace, "synthgen.write_corpus_csv") as s:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                s.counts["rows_out"] = synthgen.write_corpus_csv(config, fh)

    # -- mirrored commands -----------------------------------------------------

    def command(self, name: str, source: Path, out: Path) -> None:
        """Do in-process what ``volatix <command>`` does, writing ``out``."""
        # A CLI process starts without the previous command's objects.
        self.corpus = self.reports = self.points = None
        self.tables = {}
        if name == "synth":
            config = synthgen.SynthConfig.from_json_file(source)
            self.write_corpus(config, out)
            return
        self.corpus = self.parse(source)
        if name == "ingest":
            text = self.render("journals_csv", self.corpus, module=ingest)
        else:
            self.volatility_reports()
            kind, _, key = name.partition("_")
            if kind == "report":
                fmt = "json" if key == "json" else "csv"
                text = self.render("reports_" + fmt, self.reports)
            elif kind == "rank":
                text = self.render("ranked_csv", self.rank(key))
            elif kind == "thresholds":
                text = self.render("thresholds_csv", self.thresholds(key))
            else:
                text = self.render("scatter_csv", self.scatter())
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    # -- the sweep -------------------------------------------------------------

    def ran(self, name: str) -> bool:
        return any(s.name == name and s.trace.split(":")[0] == self.tag for s in self.t.spans)

    def sweep(self, row_cap: int) -> None:
        """Call every layer function the mirrored commands did not call."""
        workdir = self.workdir
        config = self.config
        if not self.ran("synthgen.write_corpus_csv"):
            # The workload's own synth config, cut to its first journals when
            # writing all of it would exceed ``row_cap`` rows.
            sizes = synthgen.journal_sizes(config).tolist()
            keep, rows = 0, 0
            while keep < len(sizes) and rows + sizes[keep] <= row_cap:
                rows += sizes[keep]
                keep += 1
            prefix = synthgen.SynthConfig.from_dict(
                {**config.as_dict(), "n_journals": max(1, keep)}
            )
            self.write_corpus(prefix, workdir / "sweep_papers.csv")
        with self.t.span(self.trace, "synthgen.generate_corpus") as s:
            generated = synthgen.generate_corpus(config, keep_papers=False)
            s.counts["journals"] = len(generated.journals)
        if not self.ran("ingest.parse_paper_level"):
            self.parse(workdir / "sweep_papers.csv")
        if not self.ran("ingest.parse_aggregate"):
            path = workdir / "sweep_journals.csv"
            path.write_text(self.render("journals_csv", self.corpus, module=ingest),
                            encoding="utf-8")
            self.parse(path)
        if not self.ran("ingest.write_journals_csv"):
            self.render("journals_csv", self.corpus, module=ingest)
        rankable = [a for a in self.corpus.journals.values() if a.n_2y >= 2]
        with self.t.span(self.trace, "metrics.top_paper_volatility") as s:
            for agg in rankable:
                metrics.top_paper_volatility(agg)
            s.counts["reports"] = len(rankable)
        if self.reports is None:
            self.volatility_reports()
        for key in KEYS:
            if not self.ran(f"analytics.rank_by_volatility.{key}"):
                self.rank(key)
            if not self.ran(f"analytics.threshold_table.{key}"):
                self.thresholds(key)
        if not self.ran("analytics.scatter_data"):
            self.scatter()
        payloads = {
            "reports_csv": self.reports,
            "reports_json": self.reports,
            "ranked_csv": self.tables["rank"],
            "thresholds_csv": self.tables["thresholds"],
            "scatter_csv": self.points,
        }
        for writer in WRITERS:
            if not self.ran("analytics.write_" + writer):
                self.render(writer, payloads[writer])
        with self.t.span(self.trace, "display.cells") as s:
            cells = 0
            for r in self.reports:
                display.decimal_str(r.f, 2)
                display.decimal_str(r.f_star, 2)
                display.decimal_str(r.delta_f, 2)
                cells += 3
                if r.delta_f_rel is not None:
                    display.percent_str(r.delta_f_rel)
                    cells += 1
            s.counts["cells"] = cells


def traced_passes(
    wl: Workload, files: dict[str, Path], config: synthgen.SynthConfig, workdir: Path,
    budget: float, row_cap: int,
) -> Tracer:
    """Traced passes over a workload until the next would end after ``budget``
    seconds, at least one."""
    tracer = Tracer()
    workers = cli_workers()
    start = time.perf_counter()
    passes = 0
    while True:
        run = TracedRun(tracer, config, workdir, workers, f"pass{passes}")
        for cmd in wl.commands:
            run.trace = f"{run.tag}:{cmd.name}"
            out = files.get(cmd.writes, workdir / f"traced_{cmd.name}.out")
            with tracer.span(run.trace, "cmd." + cmd.name):
                run.command(cmd.name, files[cmd.reads or "config"], out)
        run.trace = f"{run.tag}:layers"
        run.sweep(row_cap)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > budget:
            return tracer


def main() -> None:
    """Traced passes in a process of their own, as fresh as a CLI child:
    ``python3 perfbench/layers.py REQUEST_JSON``, request written by run.py."""
    from workloads import WORKLOADS

    request = json.loads(sys.argv[1])
    tracer = traced_passes(
        WORKLOADS[request["workload"]],
        {k: Path(v) for k, v in request["files"].items()},
        synthgen.SynthConfig.from_dict(request["config"]),
        Path(request["workdir"]),
        request["budget"],
        request["row_cap"],
    )
    tracer.dump(Path(request["spans"]))


UNITS = {
    "ingest.rows_per_s": "1/s",
    "ingest.citations_kept_ratio": "ratio",
    "metrics.us_per_report": "us",
    "analytics.bytes_out": "bytes",
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric: seconds, or a count unless listed in UNITS."""
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def per_layer_metrics(
    tracer: Tracer, input_parse: str, import_s: float, cli_medians: dict[str, float]
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the spans of all passes, plus cli other_s per command."""
    med = tracer.median
    parse = tracer.last(input_parse).counts
    parse_s = med(input_parse)
    reports = tracer.last("metrics.top_paper_volatility").counts["reports"]
    tpv_s = med("metrics.top_paper_volatility")
    writers = {w: med("analytics.write_" + w) for w in WRITERS}
    other = {
        cmd: e2e - import_s - med("cmd." + cmd) for cmd, e2e in cli_medians.items()
    }
    values = {
        "ingest.sniff_s": med("ingest.sniff_schema"),
        "ingest.parse_papers_s": med("ingest.parse_paper_level"),
        "ingest.parse_journals_s": med("ingest.parse_aggregate"),
        "ingest.rows_read": parse["rows_read"],
        "ingest.rows_per_s": parse["rows_read"] / parse_s,
        "ingest.rows_rejected": parse["rows_rejected"],
        "ingest.journals_kept": parse["journals_kept"],
        "ingest.citations_kept_ratio": parse["citations_kept"] / parse["citations_read"]
        if parse["citations_read"]
        else math.nan,
        "ingest.write_journals_s": med("ingest.write_journals_csv"),
        "metrics.top_paper_volatility_s": tpv_s,
        "metrics.reports": reports,
        "metrics.us_per_report": 1e6 * tpv_s / reports if reports else math.nan,
        "analytics.volatility_reports_s": med("analytics.volatility_reports"),
        "analytics.workers": tracer.last("analytics.volatility_reports").counts["workers"],
        "analytics.rank_abs_s": med("analytics.rank_by_volatility.abs"),
        "analytics.rank_rel_s": med("analytics.rank_by_volatility.rel"),
        "analytics.excluded_undefined_rel": tracer.last(
            "analytics.rank_by_volatility.rel"
        ).counts["excluded"],
        "analytics.threshold_abs_s": med("analytics.threshold_table.abs"),
        "analytics.threshold_rel_s": med("analytics.threshold_table.rel"),
        "analytics.scatter_data_s": med("analytics.scatter_data"),
        **{f"analytics.write_{w}_s": s for w, s in writers.items()},
        "analytics.bytes_out": sum(
            tracer.last("analytics.write_" + w).counts["bytes"] for w in WRITERS
        ),
        "display.cells_s": med("display.cells"),
        "display.cells": tracer.last("display.cells").counts["cells"],
        "synthgen.generate_corpus_s": med("synthgen.generate_corpus"),
        "synthgen.write_corpus_s": med("synthgen.write_corpus_csv"),
        "synthgen.rows_out": tracer.last("synthgen.write_corpus_csv").counts["rows_out"],
        "cli.import_s": import_s,
        "cli.other_s": sum(other.values()),
    }
    return values, other


if __name__ == "__main__":
    main()
