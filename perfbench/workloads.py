"""Seeded workloads: the input files each workload hands to the CLI, the
commands it runs on them, and the raw counts the oracle checks against.

Every generator is a pure function of ``(seed, scale)``: the same seed writes
byte-identical files.  ``scale`` shrinks the journal count (the benchmark's
own tests run at a tiny scale); 1.0 is the benchmarked size.

Raw counts come from the seeded streams ``volatix synth`` draws from
(``synthgen.journal_sizes`` and ``synthgen.journal_citations``).
``papers-mixed`` then decorates them with the standard library's ``random``:
item types, front-matter rows, rejected rows, quoting, CRLF line endings and
a row permutation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from volatix import ingest, synthgen


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m volatix <argv>`` with placeholders.

    ``{papers}``, ``{journals}``, ``{config}`` name the workload's input
    files and ``{out}`` the command's output file.  ``name`` is the metric
    stem (``<name>_s``) and the oracle check to apply.
    """

    name: str
    argv: tuple[str, ...]
    reads: str  # input file the command parses rows from ("" for synth)
    writes: str = ""  # input file the command writes for later commands, if any


@dataclass
class Inputs:
    """Files one workload set-up wrote, plus the truth drawn to write them."""

    files: dict[str, Path]
    rows: dict[str, int]  # data rows (header excluded) per input file
    config: synthgen.SynthConfig
    # journal_id -> (name, C, N_2Y, c*) for every journal that survives cleaning
    journals: dict[str, tuple[str, int, int, int]]
    citations_kept: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: Callable[[Path, int, int], Inputs]  # (workdir, seed, n_journals)
    n_journals: int  # at scale 1.0
    commands: tuple[Command, ...]

    def generate(self, workdir: Path, seed: int, scale: float) -> Inputs:
        return self.generator(workdir, seed, max(3, round(self.n_journals * scale)))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _synth_ids(n_journals: int) -> list[str]:
    # synthgen's documented output shape: S00001, S00002, ...
    width = max(5, len(str(n_journals)))
    return [f"S{i:0{width}d}" for i in range(1, n_journals + 1)]


def _draws(config: synthgen.SynthConfig) -> list[list[int]]:
    """Per-journal citation counts, as the generator draws them."""
    sizes = synthgen.journal_sizes(config)
    return [
        [int(c) for c in synthgen.journal_citations(config, j, int(size))]
        for j, size in enumerate(sizes)
    ]


def _papers_1m(workdir: Path, seed: int, n_journals: int) -> Inputs:
    """Only the synth config: the workload's ``synth`` command writes papers.csv."""
    config = synthgen.SynthConfig(
        n_journals=n_journals,
        size_model=synthgen.FixedSizes(100),
        citation_model=synthgen.DiscreteLognormal(mu=0.5, sigma=1.2),
        seed=seed,
    )
    files = {"config": workdir / "synth_config.json", "papers": workdir / "papers.csv"}
    files["config"].write_text(json.dumps(config.as_dict()), encoding="utf-8")
    journals = {}
    rows = 0
    for jid, counts in zip(_synth_ids(n_journals), _draws(config)):
        rows += len(counts)
        total = sum(counts)
        if total:
            journals[jid] = (jid, total, len(counts), max(counts))
    return Inputs(
        files=files,
        rows={"papers": rows},
        config=config,
        journals=journals,
        citations_kept=sum(j[1] for j in journals.values()),
    )


def _journals(workdir: Path, seed: int, n_journals: int) -> Inputs:
    config = synthgen.SynthConfig.default(n_journals=n_journals, seed=seed)
    corpus = synthgen.generate_corpus(config, keep_papers=False)
    files = {"journals": workdir / "journals.csv"}
    ingest.write_journals_csv(corpus, files["journals"])
    journals = {
        a.journal_id: (a.name, a.total_citations, a.n_2y, a.top_cited)
        for a in corpus.journals.values()
        if a.total_citations
    }
    return Inputs(
        files=files,
        rows={"journals": len(corpus.journals)},
        config=config,
        journals=journals,
        citations_kept=sum(j[1] for j in journals.values()),
    )


REVIEW_SHARE = 0.10
FRONT_MATTER_PER_CITABLE = 1 / 19  # 5% of all rows
REJECTED_PER_MILLION_ROWS = 100


def _papers_mixed(workdir: Path, seed: int, n_journals: int) -> Inputs:
    config = synthgen.SynthConfig(
        n_journals=n_journals,
        size_model=synthgen.LogUniformSizes(2, 200),
        citation_model=synthgen.DiscreteLognormal(mu=0.5, sigma=1.2),
        seed=seed,
    )
    rng = random.Random(seed)
    lines = []
    journals = {}
    width = len(str(n_journals))
    for j, counts in enumerate(_draws(config), start=1):
        jid = f"M{j:0{width}d}"
        # Quoted on output: the comma forces it, and it never contains '"'.
        name = f"Annales de Física, Série {j}"
        prefix = f'{jid},"{name}",{jid}-'
        paper = 0
        for c in counts:
            paper += 1
            kind = "review" if rng.random() < REVIEW_SHARE else "article"
            lines.append(f"{prefix}{paper},{kind},{c}\r\n")
            if rng.random() < FRONT_MATTER_PER_CITABLE:
                paper += 1
                fm = int(rng.lognormvariate(0.5, 1.2))
                lines.append(f"{prefix}{paper},front_matter,{fm}\r\n")
        total = sum(counts)
        if total:
            journals[jid] = (name, total, len(counts), max(counts))
    rejected = max(2, round(len(lines) * REJECTED_PER_MILLION_ROWS / 1e6))
    ids = list(journals) or ["M0"]
    for r in range(rejected):
        jid = rng.choice(ids)
        if r % 2:
            row = f"{jid},Rejected,{jid}-X{r},article,-{rng.randint(1, 9)}\r\n"
        else:
            row = f"{jid},Rejected,{jid}-X{r},editorial,{rng.randint(0, 9)}\r\n"
        lines.append(row)
    rng.shuffle(lines)
    files = {"papers": workdir / "papers_mixed.csv"}
    with open(files["papers"], "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(ingest.PAPER_HEADER) + "\r\n")
        fh.writelines(lines)
    return Inputs(
        files=files,
        rows={"papers": len(lines)},
        config=config,
        journals=journals,
        citations_kept=sum(j[1] for j in journals.values()),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="papers-1m",
            why="synth, then the full pipeline on its output: 1e6 sorted unquoted LF Schema-A "
            "rows, 1e4 journals x 100; ingest and synthgen dominate, analytics small",
            generator=_papers_1m,
            n_journals=10_000,
            commands=(
                Command("synth", ("synth", "{config}", "--out", "{papers}"), "", writes="papers"),
                Command("ingest", ("ingest", "{papers}", "--out", "{out}"), "papers"),
                Command(
                    "rank_abs",
                    ("rank", "{papers}", "--key", "abs", "--out", "{out}"),
                    "papers",
                ),
                Command(
                    "thresholds_rel",
                    ("thresholds", "{papers}", "--key", "rel", "--out", "{out}"),
                    "papers",
                ),
            ),
        ),
        Workload(
            name="journals-20k",
            why="Schema-B file of 2e4 journals, sizes log-uniform 2-1000: parsing is "
            "cheap; decomposition, thread pool, Fraction sorting and rendering dominate",
            generator=_journals,
            n_journals=20_000,
            commands=(
                Command("report", ("report", "{journals}", "--out", "{out}"), "journals"),
                Command(
                    "report_json",
                    ("report", "{journals}", "--format", "json", "--out", "{out}"),
                    "journals",
                ),
                Command(
                    "rank_rel",
                    ("rank", "{journals}", "--key", "rel", "--out", "{out}"),
                    "journals",
                ),
                Command(
                    "thresholds_abs",
                    ("thresholds", "{journals}", "--key", "abs", "--out", "{out}"),
                    "journals",
                ),
                Command("scatter", ("scatter", "{journals}", "--out", "{out}"), "journals"),
            ),
        ),
        Workload(
            name="papers-mixed",
            why="1e6 Schema-A rows over 2.3e4 journals in shuffled order, quoted non-ASCII "
            "names, CRLF, reviews, front matter and rejected rows: ingest's slow path",
            generator=_papers_mixed,
            n_journals=23_000,
            commands=(
                Command("ingest", ("ingest", "{papers}", "--out", "{out}"), "papers"),
                Command(
                    "rank_rel",
                    ("rank", "{papers}", "--key", "rel", "--out", "{out}"),
                    "papers",
                ),
            ),
        ),
    )
}
