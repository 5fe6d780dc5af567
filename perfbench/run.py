"""Benchmark of the volatix CLI on seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload papers-1m --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

With ``--trace 0`` the benchmark generates the workload's input files (the
set-up, repeated and timed), then runs the workload's commands as
``python -m volatix <cmd> ... --out FILE`` children, one at a time in a
closed loop with a single client, until the next iteration would end after
``--seconds``.  An independent oracle checks every output.  With ``--trace
1`` it runs that loop for half the time, then mirrors each command
in-process with a span around every public volatix call, in a process of
its own, for the other half, and reports per-layer metrics.

The detailed report goes to standard output; its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(samples, output digests, machine facts) and the spans are written to
``.perfbench_out/``.  Children run with ``VOLATIX_THREADS`` unset, so they use
the CLI's default worker count.  Inputs are written during set-up and read
back from the page cache: disk is not measured.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
# The set-up runs at least SETUPS times and until SETUP_SECONDS have passed.
SETUPS = 3
SETUP_SECONDS = 3.0
IMPORT_SAMPLES = 5
# synthgen.write_corpus_s is measured on at most papers-1m's row count.
ROW_CAP = 1_000_000
END_TO_END = {"pipeline_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class Launcher:
    """The helper process every timed child is spawned from (see launcher.py)."""

    def __init__(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: list[str], stderr_path: Path) -> tuple[float, int, float, str]:
        """Run one child to exit; returns (wall seconds, exit code, peak RSS MB, stderr)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        return reply["seconds"], reply["code"], reply["maxrss_kb"] / 1024, stderr


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it, and n."""
    n = len(values)
    out = {"median": statistics.median(values), "max": max(values), "n": n}
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return out


def machine_facts(workers: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg_start": os.getloadavg(),
        "cli_workers": workers,
        "VOLATIX_THREADS": "unset in children",
        "disk": "inputs are read from the page cache; disk is not measured",
    }


class Runner:
    """One run of one workload: set-up, the CLI loop and, if asked, tracing."""

    def __init__(self, launcher: Launcher, wl, seed: int, seconds: float, trace: bool,
                 scale: float):
        self.launcher = launcher
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors += [f"{what}: {p}" for p in problems]

    def setup(self, workdir: Path):
        from workloads import sha256_file

        times, digests = [], set()
        while len(times) < SETUPS or sum(times) < SETUP_SECONDS * self.scale:
            start = time.perf_counter()
            inputs = self.wl.generate(workdir, self.seed, self.scale)
            times.append(time.perf_counter() - start)
            digests.add(tuple(
                sha256_file(p) for _, p in sorted(inputs.files.items()) if p.exists()
            ))
        if len(digests) != 1:
            raise RuntimeError(f"{self.wl.name}: set-up wrote different bytes for one seed")
        return inputs, times

    def cli_loop(self, inputs, oracle, workdir: Path, budget: float) -> dict:
        """Run the commands round-robin until the next one would end after
        ``budget`` seconds, at least once each."""
        samples = {cmd.name: [] for cmd in self.wl.commands}
        runs, rss = 0, 0.0
        start = time.perf_counter()
        while True:
            cmd = self.wl.commands[runs % len(self.wl.commands)]
            out = inputs.files.get(cmd.writes, workdir / f"{cmd.name}.out")
            out.unlink(missing_ok=True)
            argv = [a.format(out=out, **inputs.files) for a in cmd.argv]
            seconds, code, peak, stderr = self.launcher.run(
                [sys.executable, "-m", "volatix", *argv], workdir / "stderr.txt"
            )
            problems = [f"exit status {code}"] if code else []
            if "Traceback (most recent call last)" in stderr:
                problems.append("traceback on stderr")
            self.record(cmd.name, problems or oracle.check(cmd.name, out))
            samples[cmd.name].append(seconds)
            rss = max(rss, peak)
            runs += 1
            elapsed = time.perf_counter() - start
            if runs >= len(samples) and elapsed + elapsed / runs > budget:
                break
        rows = sum(inputs.rows.get(cmd.reads, 0) for cmd in self.wl.commands)
        commands = {f"{name}_s": summary(v) for name, v in samples.items()}
        # A sum of per-command medians: one slow child moves it less than it
        # moves the median of per-iteration sums.
        pipeline_s = sum(s["median"] for s in commands.values())
        return {
            "commands": commands,
            "pipeline_s": pipeline_s,
            "rows_per_s": rows / pipeline_s,
            "peak_rss_mb": rss,
        }

    def traced(self, inputs, oracle, workdir: Path, medians: dict) -> dict:
        from layers import per_layer_metrics
        from spans import Tracer

        import_s = statistics.median(
            self.launcher.run([sys.executable, "-c", "import volatix.cli"],
                              workdir / "stderr.txt")[0]
            for _ in range(IMPORT_SAMPLES)
        )
        spans_path = OUT / f"spans-{self.wl.name}-seed{self.seed}.json"
        request = {
            "workload": self.wl.name,
            "files": {k: str(p) for k, p in inputs.files.items()},
            "config": inputs.config.as_dict(),
            "workdir": str(workdir),
            "budget": self.seconds / 2,
            "row_cap": max(1, round(ROW_CAP * self.scale)),
            "spans": str(spans_path),
        }
        _, code, _, stderr = self.launcher.run(
            [sys.executable, str(HERE / "layers.py"), json.dumps(request)],
            workdir / "stderr.txt",
        )
        if code:
            raise RuntimeError(f"traced run failed with status {code}:\n{stderr[-3000:]}")
        tracer = Tracer.load(spans_path)
        for cmd in self.wl.commands:
            out = inputs.files.get(cmd.writes, workdir / f"traced_{cmd.name}.out")
            self.record("traced " + cmd.name, oracle.check(cmd.name, out))
        input_parse = "ingest.parse_paper_level" if "papers" in inputs.files else (
            "ingest.parse_aggregate")
        per_layer, other = per_layer_metrics(tracer, input_parse, import_s, medians)
        return {
            "per_layer": per_layer,
            "traced_passes": len({s.trace.split(":")[0] for s in tracer.spans}),
            "traced_vs_untraced": {
                cmd: {
                    "untraced_e2e_median_s": medians[cmd],
                    "traced_in_process_s": tracer.median("cmd." + cmd),
                    "import_s": import_s,
                    "other_s": other[cmd],
                }
                for cmd in medians
            },
            "spans_file": str(spans_path.relative_to(ROOT)),
        }

    def run(self) -> dict:
        from layers import cli_workers
        from oracle import Oracle

        WORK.mkdir(exist_ok=True)
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{self.wl.name}-", dir=WORK))
        workers = cli_workers()
        result = {"workload": self.wl.name, "seed": self.seed, "trace": int(self.trace),
                  "facts": machine_facts(workers)}
        try:
            inputs, setup_times = self.setup(workdir)
            oracle = Oracle(inputs)
            result.update(setup_s=statistics.median(setup_times), setup_samples=setup_times,
                          input_rows=inputs.rows)
            budget = self.seconds / 2 if self.trace else self.seconds
            result.update(self.cli_loop(inputs, oracle, workdir, budget))
            result["error_rate"] = self.failed / self.attempted
            if self.trace:
                medians = {n[:-2]: s["median"] for n, s in result["commands"].items()}
                result.update(self.traced(inputs, oracle, workdir, medians))
            result["output_sha256"] = oracle.sha256
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["facts"]["loadavg_end"] = os.getloadavg()
        result.update(attempted=self.attempted, failed=self.failed, errors=self.errors)
        return result


def report_lines(r: dict) -> list[str]:
    """Human-readable report of one run, every metric with its unit."""
    f = r["facts"]
    lines = [
        f"== {r['workload']}  seed={r['seed']}  trace={r['trace']} ==",
        f"machine: nproc={f['nproc']} python={f['python']} numpy={f['numpy']} "
        f"cli_workers={f['cli_workers']} VOLATIX_THREADS {f['VOLATIX_THREADS']}; "
        f"loadavg {f['loadavg_start'][0]:.2f} -> {f['loadavg_end'][0]:.2f}; {f['disk']}",
        f"setup_s            {r['setup_s']:.4f} s  (median of {len(r['setup_samples'])})",
    ]
    for name, s in r["commands"].items():
        tail = next((f"{k} {v:.4f} s" for k, v in s.items() if k.startswith("p")),
                    "no tail percentile (< 20 samples)")
        lines.append(f"{name:<18} {s['median']:.4f} s median, {tail}, max {s['max']:.4f} s,"
                     f" n={s['n']}")
    lines += [
        f"pipeline_s         {r['pipeline_s']:.4f} s  (sum of the command medians)",
        f"rows_per_s         {r['rows_per_s']:.1f} 1/s",
        f"peak_rss_mb        {r['peak_rss_mb']:.1f} MB",
        f"error_rate         {r['error_rate']:.4f}  ({r['failed']} failed of {r['attempted']})",
    ]
    lines += [f"sha256 {name:<16} {digest}" for name, digest in r["output_sha256"].items()]
    if r["trace"]:
        from layers import unit

        lines.append(f"per-layer metrics ({r['traced_passes']} traced passes):")
        lines += [f"  {k:<36} {v:.6g} {unit(k)}" for k, v in r["per_layer"].items()]
        lines.append("command: untraced e2e median = import + traced in-process + other")
        for cmd, t in r["traced_vs_untraced"].items():
            lines.append(
                f"  cli.{cmd}.other_s  {t['untraced_e2e_median_s']:.4f} = {t['import_s']:.4f}"
                f" + {t['traced_in_process_s']:.4f} + {t['other_s']:.4f} s"
            )
        lines.append(f"spans: {r['spans_file']}")
    lines += [f"ERROR {e}" for e in r["errors"]]
    return lines


def metrics_of(r: dict) -> dict:
    if r["trace"]:
        from layers import unit

        return {k: {"value": v, "unit": unit(k)} for k, v in r["per_layer"].items()}
    return {k: {"value": r[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="factor on every workload's journal count (the benchmark's tests use 0.001)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "volatix" / "__init__.py").is_file():
        print(f"perfbench: no volatix package under {SRC}", file=sys.stderr)
        return 2
    # Every child gets the CLI's default worker count.
    os.environ.pop("VOLATIX_THREADS", None)
    # Started before the workload data exists, so that it stays small.
    with Launcher() as launcher:
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if not set(names) <= set(WORKLOADS):
            print(f"perfbench: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
            return 2
        results = []
        for name in names:
            r = Runner(launcher, WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                       args.scale).run()
            OUT.joinpath(f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(r, indent=1, default=str) + "\n", encoding="utf-8")
            print("\n".join(report_lines(r)), flush=True)
            results.append(r)
    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()}
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
