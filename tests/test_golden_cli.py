"""Golden bytes of the command line.

Each case runs ``cli.main`` in-process and compares its exit status and the
SHA-256 of its stdout, its stderr and its logged warnings with the digests in
``golden_cli.json``.  The cases cover every subcommand with ``--format
csv|json``, ``--exact``, both keys, ``--top 0|3``, default and custom
``--cuts`` and ``ingest --schema papers|journals|auto`` on ``data/*.csv``,
plus small inline inputs: quoted headers, an empty file, an unknown header,
invalid UTF-8, rejected rows and each schema read as the other.

A change that alters these bytes on purpose updates the entries it alters;
a failure prints the case and its new digests.
"""

import hashlib
import json
import logging
from pathlib import Path

import pytest

from volatix.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())

PAPERS = "journal_id,journal_name,paper_id,item_type,citations\n"
JOURNALS = "journal_id,journal_name,total_citations,n_2y,top_paper_citations\n"

INLINE = {
    "quoted_papers.csv": (
        '"journal_id",journal_name,paper_id,item_type,citations\n'
        'A,"Alpha, Journal",a1,article,5\nA,"Alpha, Journal",a2,review,2\n'
        "B,Beta,b1,article,3\nB,Beta,b2,front_matter,9\nB,Beta,b3,article,1\n"
    ).encode(),
    "quoted_journals.csv": (
        '"journal_id","journal_name",total_citations,n_2y,top_paper_citations\r\n'
        'A,"Alpha, ""the"" Journal",10,4,6\r\nB,Beta,7,3,5\r\n'
    ).encode(),
    "empty.csv": b"",
    "unknown.csv": b"a,b,c\n1,2,3\n",
    "latin1_header.csv": PAPERS.replace("name", "n\xe4me").encode("latin-1"),
    "latin1_papers.csv": (PAPERS + "R,Revue,P1,article,3\nR,Revue \xe9co,P2,article,4\n").encode(
        "latin-1"
    ),
    "latin1_journals.csv": (JOURNALS + "R,Revue,10,5,6\nS,Soci\xe9t\xe9,9,3,4\n").encode(
        "latin-1"
    ),
    "rejects_papers.csv": (
        PAPERS
        + "A,Alpha,a1,article,5\nA,Alpha,a2,article,-3\nA,Alpha,a3,poster,7\n"
        + "A,Alpha,a4,review,2147483648\nE,Editorials,e1,front_matter,40\n"
        + "Z,Zero,z1,article,0\nZ,Zero,z2,review,0\nS,Single,s1,article,8\n"
        + "A,Alpha,a5,review,1\nK,Kappa,k1,article,11\nK,Kappa,k2,article,3\n"
    ).encode(),
    "rejects_journals.csv": (
        JOURNALS
        + "A,Alpha,10,4,6\nB,Beta,5,3,6\nA,Alpha again,99,9,50\nZ,Zero,0,3,0\n"
        + "S,Single,4,1,4\nN,Negative,-1,2,0\nK,Kappa,14,2,11\nT,Top,7,2,2\n"
    ).encode(),
    "lognormal.json": json.dumps(
        {
            "n_journals": 12,
            "size_model": {"kind": "log_uniform", "min": 2, "max": 40},
            "citation_model": {"kind": "discrete_lognormal", "mu": 0.5, "sigma": 1.2},
            "seed": 20170101,
        }
    ).encode(),
    "zipf.json": json.dumps(
        {
            "n_journals": 12,
            "size_model": {"kind": "fixed", "n": 9},
            "citation_model": {"kind": "zipf", "alpha": 2.0, "c_max": 500},
            "seed": 7,
        }
    ).encode(),
}

DATA = ["top_absolute_2017.csv", "top_relative_2017.csv", "papers_sample.csv"]
SCHEMAS = ["auto", "papers", "journals"]
CUTS = {"abs": "0,1/2,5,100", "rel": "0,10,50.5,200"}


def _cases():
    for corpus in DATA:
        for schema in SCHEMAS:
            yield f"ingest {corpus} --schema {schema}"
        for fmt in ("csv", "json"):
            for exact in ("", " --exact"):
                yield f"report {corpus} --format {fmt}{exact}"
                for key in ("abs", "rel"):
                    for top in (0, 3):
                        yield f"rank {corpus} --key {key} --top {top} --format {fmt}{exact}"
                    yield f"thresholds {corpus} --key {key} --format {fmt}{exact}"
                    yield f"thresholds {corpus} --key {key} --cuts {CUTS[key]} --format {fmt}{exact}"
        yield f"scatter {corpus}"
    for name in INLINE:
        if name.endswith(".csv"):
            for schema in SCHEMAS:
                yield f"ingest {name} --schema {schema}"
            yield f"report {name}"
            yield f"rank {name} --key rel --format json --exact"
    for config in ("lognormal.json", "zipf.json"):
        yield f"synth {config}"
        yield f"synth {config} --seed 3"
    for numbers in ("--f 16.15 --n 33 --c 209", "--f 0 --n 10 --c 3"):
        for fmt in ("text", "json"):
            for exact in ("", " --exact"):
                yield f"whatif {numbers} --format {fmt}{exact}"


CASES = list(_cases())


@pytest.fixture(scope="module")
def files(tmp_path_factory, data_dir):
    paths = {name: str(data_dir / name) for name in DATA}
    root = tmp_path_factory.mktemp("golden")
    for name, raw in INLINE.items():
        (root / name).write_bytes(raw)
        paths[name] = str(root / name)
    return paths


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def test_every_case_is_recorded():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_bytes_unchanged(case, files, capsys, caplog):
    argv = [files.get(token, token) for token in case.split()]
    with caplog.at_level(logging.WARNING):
        code = main(argv)
    captured = capsys.readouterr()
    warnings = "".join(f"{r.levelname}:{r.getMessage()}\n" for r in caplog.records)
    got = [code, _sha(captured.out), _sha(captured.err), _sha(warnings)]
    assert got == GOLDEN[case], f"{case!r}: {json.dumps(got)}"
