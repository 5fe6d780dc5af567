"""The benchmark's own tests, at tiny sizes.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import WORKLOADS, sha256_file  # noqa: E402

SCALE = 0.001
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_end_to_end_in_both_modes(name, capsys):
    names = {}
    for trace, seed in ((0, 1), (1, 2)):
        assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace), "--scale", str(SCALE)]) == 0
        result = last_line(capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names[trace] = result["metrics"]
    listed = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
    for trace, metrics in names.items():
        assert {k: v["unit"] for k, v in metrics.items()} == {
            m["name"]: m["unit"] for m in listed[trace]
        }


def test_two_seeds_give_different_inputs(tmp_path):
    for wl in WORKLOADS.values():
        digests = []
        for seed in (1, 2):
            workdir = tmp_path / f"{wl.name}-{seed}"
            workdir.mkdir()
            inputs = wl.generate(workdir, seed, SCALE)
            digests.append([sha256_file(p) for p in inputs.files.values() if p.exists()])
        assert digests[0] != digests[1], wl.name


def _cli(argv: list[str]) -> None:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, "-m", "volatix", *argv], check=True, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _drop_last_record(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("["):
        text = json.dumps(json.loads(text)[:-1], indent=2) + "\n"
    else:
        text = "".join(text.splitlines(keepends=True)[:-1])
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "name,cmd",
    [(wl.name, cmd) for wl in WORKLOADS.values() for cmd in wl.commands],
    ids=lambda x: getattr(x, "name", x),
)
def test_oracle_passes_real_output_and_flags_tampered_output(name, cmd, tmp_path):
    inputs = WORKLOADS[name].generate(tmp_path, 5, SCALE)
    for producer in WORKLOADS[name].commands:
        if producer.writes:  # e.g. synth, whose output the later commands read
            _cli([a.format(**inputs.files) for a in producer.argv])
    out = inputs.files.get(cmd.writes, tmp_path / "out")
    _cli([a.format(out=out, **inputs.files) for a in cmd.argv])
    assert Oracle(inputs).check(cmd.name, out) == []
    _drop_last_record(out)
    assert Oracle(inputs).check(cmd.name, out)


def test_oracle_flags_a_citation_count_that_breaks_conservation(tmp_path):
    inputs = WORKLOADS["papers-mixed"].generate(tmp_path, 5, SCALE)
    out = tmp_path / "journals.csv"
    _cli(["ingest", str(inputs.files["papers"]), "--out", str(out)])
    header, first, *rest = out.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = first.rstrip("\n").rsplit(",", 3)
    fields[1] = str(int(fields[1]) + 1)
    out.write_text("".join([header, ",".join(fields) + "\n", *rest]), encoding="utf-8")
    problems = Oracle(inputs).check("ingest", out)
    assert any("citations kept" in p for p in problems)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "papers-1m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
