"""volatix: exact single-paper volatility analytics for citation averages.

A citation average moves by (c - f1)/(N1 + 1) when a journal with average f1
and biennial size N1 publishes one paper cited c times.  This package
computes that quantity, and everything downstream of it, in exact rational
arithmetic: per-journal top-paper decompositions, volatility rankings,
threshold frequency tables, scatter exports, and deterministic synthetic
corpora for scale experiments.

Quick start:

>>> from fractions import Fraction
>>> import volatix
>>> agg = volatix.JournalAggregate("j1", "Journal One", 112, 6, 87)
>>> report = volatix.top_paper_volatility(agg)
>>> report.delta_f
Fraction(41, 3)
"""

from .analytics import (
    DEFAULT_ABSOLUTE_CUTS,
    DEFAULT_RELATIVE_CUTS,
    CorpusSummary,
    Exclusion,
    RankedTable,
    RankKey,
    ThresholdRow,
    ThresholdTable,
    dataset_summary,
    rank_by_volatility,
    scatter_data,
    threshold_table,
    volatility_reports,
)
from .display import decimal_str, exact_str, percent_str, round_half_up
from .errors import (
    ConfigError,
    EmptyJournalError,
    InvalidAggregateError,
    InvalidNumberError,
    InvalidSizeError,
    InvalidThresholdsError,
    MalformedRowError,
    SingletonJournalError,
    UndefinedRelativeError,
    VolatixError,
)
from .ingest import (
    CleaningLog,
    Corpus,
    Provenance,
    dedupe_and_filter,
    load_corpus,
    parse_aggregate,
    parse_paper_level,
    write_journals_csv,
)
from .metrics import (
    ItemType,
    JournalAggregate,
    PaperEffect,
    PaperRecord,
    VolatilityInputs,
    VolatilityReport,
    benefit_approx,
    citation_average,
    classify_paper,
    journal_report_from_papers,
    penalty_bound,
    top_paper_volatility,
    updated_average,
    volatility_exact,
    volatility_relative_approx,
    volatility_relative_exact,
)

__version__ = "0.1.0"

# synthgen imports numpy, so its names are imported on first use (PEP 562)
# and `import volatix` does without numpy.
_SYNTHGEN_NAMES = frozenset(
    {
        "BinnedStats",
        "BinRow",
        "DiscreteLognormal",
        "FixedSizes",
        "LogUniformSizes",
        "SynthConfig",
        "ZipfTruncated",
        "clt_binned_stats",
        "generate_corpus",
        "write_corpus_csv",
    }
)


def __getattr__(name: str):
    if name in _SYNTHGEN_NAMES:
        from . import synthgen

        return getattr(synthgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SYNTHGEN_NAMES})
