"""volatix command line: ingest -> report -> rank/thresholds/scatter, plus a
what-if calculator and the synthetic-corpus generator.

Commands::

    volatix ingest INPUT [--schema papers|journals] [--out journals.csv]
    volatix report CORPUS [--format csv|json] [--exact] [--out PATH]
    volatix rank CORPUS --key abs|rel [--top K] [...]
    volatix thresholds CORPUS --key abs|rel [--cuts 0.1,0.5,...] [...]
    volatix whatif --f F1 --n N1 --c C [--format text|json] [--exact]
    volatix synth CONFIG.json [--seed S] [--out papers.csv]
    volatix scatter CORPUS [--out scatter.csv]

All data goes to stdout (or --out, which replaces its file only once all is
written); diagnostics, including the cleaning log as JSON, go to stderr.
Exit status is 0 unless a fatal error occurred.  CORPUS may be either CSV
schema; the header decides.  Reports are computed in one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import analytics, ingest, metrics
from .display import MAX_DIGITS, decimal_str, exact_str, parse_int, parse_rational, percent_str
from .errors import InvalidNumberError, VolatixError

KEYS = {"abs": analytics.RankKey.ABSOLUTE, "rel": analytics.RankKey.RELATIVE}


def _parse_cuts(text: str, key: analytics.RankKey) -> list[Fraction]:
    cuts = [parse_rational(part) for part in text.split(",")]
    if key is analytics.RankKey.RELATIVE:
        cuts = [c / 100 for c in cuts]
    return cuts


def _report(journal_id: str, name: str, total: int, n_2y: int, top: int):
    """The report of counts that the reading commands keep of a journal,
    with no name (a maker for ``ingest._parse``)."""
    return metrics.VolatilityReport._from_counts(journal_id, total, n_2y, top)


def _load_reports(path: str) -> list:
    """The reports of ``volatility_reports(load_corpus(path))``, and its
    ``excluded`` JSON on stderr after the parse's warnings, from one parse
    that keeps one report of counts per journal and no aggregate or name.

    Singletons stay in the parse's dict of kept journals, so that a later
    row with the same id is still a duplicate, and leave the reports here."""
    journals = ingest._parse(path, make=_report)[0].journals
    reports, excluded = analytics._split_singletons(journals)
    if excluded:
        payload = [{"journal_id": e.journal_id, "reason": e.reason} for e in excluded]
        print(json.dumps({"excluded": payload}), file=sys.stderr)
    return reports


def cmd_ingest(args) -> int:
    corpus, log = ingest._parse(args.input, None if args.schema == "auto" else args.schema)
    print(log.to_json(), file=sys.stderr)
    ingest.write_journals_csv(corpus, args.out or sys.stdout)
    return 0


def cmd_report(args) -> int:
    reports = _load_reports(args.corpus)
    write = getattr(analytics, f"write_reports_{args.format}")
    write(reports, args.out or sys.stdout, exact=args.exact)
    return 0


def cmd_rank(args) -> int:
    reports = _load_reports(args.corpus)
    table = analytics.rank_by_volatility(reports, KEYS[args.key], args.top)
    write = getattr(analytics, f"write_ranked_{args.format}")
    write(table, args.out or sys.stdout, exact=args.exact)
    return 0


def cmd_thresholds(args) -> int:
    key = KEYS[args.key]
    if args.cuts is not None:
        cuts = _parse_cuts(args.cuts, key)
    elif key is analytics.RankKey.ABSOLUTE:
        cuts = list(analytics.DEFAULT_ABSOLUTE_CUTS)
    else:
        cuts = list(analytics.DEFAULT_RELATIVE_CUTS)
    reports = _load_reports(args.corpus)
    table = analytics.threshold_table(reports, key, cuts)
    write = getattr(analytics, f"write_thresholds_{args.format}")
    write(table, args.out or sys.stdout, exact=args.exact)
    return 0


def cmd_whatif(args) -> int:
    if max(abs(args.n), abs(args.c)) >= 10**MAX_DIGITS:
        raise InvalidNumberError(f"--n and --c take at most {MAX_DIGITS} digits")
    inputs = metrics.VolatilityInputs(f1=args.f, n1=args.n, c=args.c)
    effect = metrics.classify_paper(args.c, args.f)
    delta_f = metrics.volatility_exact(inputs)
    delta_f_rel = (
        metrics.volatility_relative_exact(inputs) if args.f > 0 else None
    )
    benefit = metrics.benefit_approx(args.c, args.n)
    floor = metrics.penalty_bound(args.f, args.n)

    def avg(x):
        return exact_str(x) if args.exact else decimal_str(x, 2)

    fields = {
        "classification": effect.value,
        "delta_f": avg(delta_f),
        "delta_f_rel": (
            None
            if delta_f_rel is None
            else (exact_str(delta_f_rel) if args.exact else percent_str(delta_f_rel))
        ),
        "benefit_asymptote": avg(benefit),
        "penalty_floor": avg(floor),
        "break_even_citations": exact_str(args.f) if args.exact else decimal_str(args.f, 2),
    }
    if args.format == "json":
        print(json.dumps(fields))
    else:
        for name, value in fields.items():
            print(f"{name}: {'undefined' if value is None else value}")
    return 0


def cmd_synth(args) -> int:
    from . import synthgen  # it imports numpy, which the other commands do without

    config = synthgen.SynthConfig.from_json_file(args.config)
    if args.seed is not None:
        config = synthgen.SynthConfig.from_dict(
            {**config.as_dict(), "seed": args.seed}
        )
    rows = synthgen.write_corpus_csv(config, args.out or sys.stdout)
    print(f"volatix: wrote {rows} paper rows", file=sys.stderr)
    return 0


def cmd_scatter(args) -> int:
    reports = _load_reports(args.corpus)
    points = analytics._scatter_points(reports, int.__truediv__)
    analytics.write_scatter_csv(points, args.out or sys.stdout)
    return 0


def _add_output_flags(parser, formats=("csv", "json")):
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument(
        "--exact", action="store_true", help="emit rationals as numerator/denominator"
    )
    parser.add_argument("--out", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volatix",
        description="Single-paper volatility analytics for journal citation averages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and clean a citation-report CSV")
    p.add_argument("input")
    p.add_argument("--schema", choices=["papers", "journals", "auto"], default="auto")
    p.add_argument("--out", help="write cleaned journals.csv here (default stdout)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("report", help="per-journal top-paper volatility reports")
    p.add_argument("corpus")
    _add_output_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("rank", help="top-K journals by volatility")
    p.add_argument("corpus")
    p.add_argument("--key", choices=["abs", "rel"], default="abs")
    p.add_argument("--top", type=parse_int, default=10)
    _add_output_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("thresholds", help="journal counts above volatility cuts")
    p.add_argument("corpus")
    p.add_argument("--key", choices=["abs", "rel"], default="abs")
    p.add_argument(
        "--cuts",
        help="comma-separated cut values (relative cuts in percent); "
        "defaults to the standard preset for the key",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("whatif", help="effect of one candidate paper on a journal")
    p.add_argument("--f", type=parse_rational, required=True, help="initial citation average")
    p.add_argument("--n", type=parse_int, required=True, help="initial biennial size")
    p.add_argument("--c", type=parse_int, required=True, help="candidate paper citations")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser("synth", help="generate a synthetic Schema-A corpus")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--seed", type=parse_int, help="override the config seed")
    p.add_argument("--out", help="write papers.csv here (default stdout)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("scatter", help="volatility vs size scatter export")
    p.add_argument("corpus")
    p.add_argument("--out", help="write scatter.csv here (default stdout)")
    p.set_defaults(func=cmd_scatter)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (`volatix ... | head`): exit quietly, with
        # stdout on the null device so the flush at interpreter exit is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (VolatixError, OSError) as exc:
        print(f"volatix: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
