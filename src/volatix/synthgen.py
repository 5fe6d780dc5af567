"""Deterministic synthetic corpora for exercising the volatility pipeline.

Real journal citation reports are proprietary, so scale experiments run on
generated corpora instead.  Every paper's citation count is drawn i.i.d. from
one heavy-tailed model regardless of journal size, which makes size the only
systematic variable: binned statistics then show the textbook sample-mean
behaviour (spread of citation averages shrinking like 1/sqrt(N)) and the
1/N decay of the top-paper volatility envelope.

Reproducibility contract:

* bit generator: numpy PCG64 (versioned and portable across platforms);
* stream splitting: journal sizes come from ``SeedSequence(seed,
  spawn_key=(0,))``; the citation counts of journal index ``j`` (0-based)
  come from ``SeedSequence(seed, spawn_key=(1, j))``.  The corpus writers
  derive those PCG64 states in one pass per block of journals, without a
  SeedSequence each; ``journal_citations`` seeds one journal through numpy
  and is the reference that the derived streams are tested against.

Per-journal streams are independent and randomly accessible, so generation
may be parallelized across journals while producing byte-identical output in
journal-index order.

Citation models:

* ``discrete_lognormal(mu, sigma)``: floor(exp(Normal(mu, sigma))), support
  {0, 1, ...}, each draw capped at MAX_CITATIONS (a draw whose exp would
  overflow is capped too, without a warning); its exact mean is the series
  sum_{k>=1} P(X >= k), and ``mean()`` and ``variance()`` raise ConfigError,
  before summing it, when that series would not converge within MOMENT_TERMS
  (2e6) terms, as for a large ``mu``.
* ``zipf(alpha, c_max)``: P(k) proportional to k**-alpha on {1..c_max},
  c_max at most ZIPF_MAX_C_MAX (10**7); its table is built once per model.

Size models: ``log_uniform(min, max)`` (roughly 1/n frequency over the
integer range) and ``fixed(n)``.  The default corpus configuration uses
log_uniform(2, 1000), under which about 90% of journals have a biennial size
of at most 500.  A config may allow at most MAX_ROWS (2**31 - 1) paper rows:
``n_journals`` times its largest size.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError
from .ingest import PAPER_HEADER, Corpus, Provenance, _open_out
from .metrics import MAX_CITATIONS, JournalAggregate, _checked_aggregate

# The largest zipf c_max: its table is two float64 arrays of c_max values,
# 160 MB at this size.
ZIPF_MAX_C_MAX = 10**7

#: Most paper rows a config may allow (n_journals times the largest journal
#: size), the cap that Schema B puts on one journal's n_2y.  Configs are
#: checked against it when built, before anything is drawn.
MAX_ROWS = 2**31 - 1

#: Most terms of the series that DiscreteLognormal's mean and variance sum.
MOMENT_TERMS = 2_000_000


def _check_ints(model, *names: str) -> None:
    """Raise ConfigError unless each named field is an integer (not a bool)."""
    for name in names:
        value = getattr(model, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_reals(model, *names: str) -> None:
    """Raise ConfigError unless each named field is a finite real (not a bool)."""
    for name in names:
        value = getattr(model, name)
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class LogUniformSizes:
    """Journal sizes with density ~ 1/n on the integers [min, max]."""

    min: int
    max: int
    kind = "log_uniform"

    def __post_init__(self):
        _check_ints(self, "min", "max")
        if self.min < 2:
            raise ConfigError(f"log_uniform min must be >= 2, got {self.min}")
        if self.max < self.min:
            raise ConfigError(f"log_uniform max must be >= min, got {self.max}")
        if self.max > MAX_ROWS:
            raise ConfigError(f"log_uniform max must be at most {MAX_ROWS}, got {self.max}")

    @property
    def largest(self) -> int:
        return self.max

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        u = gen.uniform(math.log(self.min), math.log(self.max + 1), size=n)
        return np.clip(np.floor(np.exp(u)).astype(np.int64), self.min, self.max)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "min": self.min, "max": self.max}


@dataclass(frozen=True)
class FixedSizes:
    """Every journal publishes exactly n citable items."""

    n: int
    kind = "fixed"

    def __post_init__(self):
        _check_ints(self, "n")
        if not 1 <= self.n <= MAX_ROWS:
            raise ConfigError(f"fixed size must be between 1 and {MAX_ROWS}, got {self.n}")

    @property
    def largest(self) -> int:
        return self.n

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.n, dtype=np.int64)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n}


@dataclass(frozen=True)
class DiscreteLognormal:
    """floor(exp(Normal(mu, sigma))): a conventional heavy-tailed count model."""

    mu: float
    sigma: float
    kind = "discrete_lognormal"

    def __post_init__(self):
        _check_reals(self, "mu", "sigma")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        draws = gen.normal(self.mu, self.sigma, size=n)
        # exp(22) is above MAX_CITATIONS, so a larger draw is capped anyway;
        # clipping first keeps exp from overflowing (past 709.78) and warning
        np.minimum(draws, 22.0, out=draws)
        np.exp(draws, out=draws)
        np.minimum(draws, MAX_CITATIONS, out=draws)
        return draws.astype(np.int64)  # truncation is floor: no exp is negative

    def _survival(self, k: int) -> float:
        # P(exp(N) >= k) = P(N >= ln k)
        z = (math.log(k) - self.mu) / self.sigma
        return 0.5 * math.erfc(z / math.sqrt(2))

    def _moments(self) -> tuple[float, float]:
        # E[X] = sum_{k>=1} P(X>=k); E[X^2] = sum_{k>=1} (2k-1) P(X>=k)
        # The sum stops after term k once P(X>=k) < 1e-15 and k + 1 > exp(mu).
        # Both tests only become true as k grows, so it stops within
        # MOMENT_TERMS terms iff they hold at k = MOMENT_TERMS; the second is
        # taken in logs, as exp(mu) overflows for a large mu.
        if not (self._survival(MOMENT_TERMS) < 1e-15 and self.mu < math.log(MOMENT_TERMS + 1)):
            raise ConfigError(
                f"discrete_lognormal mu={self.mu} sigma={self.sigma}: mean and "
                f"variance series not converged after {MOMENT_TERMS} terms"
            )
        mean = 0.0
        second = 0.0
        for k in range(1, MOMENT_TERMS + 1):
            s = self._survival(k)
            mean += s
            second += (2 * k - 1) * s
            if s < 1e-15 and k + 1 > math.exp(self.mu):
                break
        return mean, second

    def mean(self) -> float:
        return self._moments()[0]

    def variance(self) -> float:
        mean, second = self._moments()
        return second - mean * mean

    def as_dict(self) -> dict:
        return {"kind": self.kind, "mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class ZipfTruncated:
    """P(k) proportional to k**-alpha on the integers {1..c_max}."""

    alpha: float
    c_max: int
    kind = "zipf"

    def __post_init__(self):
        _check_reals(self, "alpha")
        _check_ints(self, "c_max")
        if not self.alpha > 1:
            raise ConfigError(f"zipf alpha must be > 1, got {self.alpha}")
        if not 1 <= self.c_max <= ZIPF_MAX_C_MAX:
            raise ConfigError(
                f"zipf c_max must be between 1 and {ZIPF_MAX_C_MAX}, got {self.c_max}"
            )

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """P(k) and its cumulative sum for k in 1..c_max, built once per model."""
        k = np.arange(1, self.c_max + 1, dtype=np.float64)
        w = k**-self.alpha
        w /= w.sum()
        cdf = np.cumsum(w)
        cdf[-1] = 1.0
        return w, cdf

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        u = gen.random(n)
        return (np.searchsorted(self._table[1], u, side="right") + 1).astype(np.int64)

    def mean(self) -> float:
        k = np.arange(1, self.c_max + 1, dtype=np.float64)
        return float((k * self._table[0]).sum())

    def variance(self) -> float:
        k = np.arange(1, self.c_max + 1, dtype=np.float64)
        w = self._table[0]
        m = float((k * w).sum())
        return float((k * k * w).sum()) - m * m

    def as_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha, "c_max": self.c_max}


SizeModel = Union[LogUniformSizes, FixedSizes]
CitationModel = Union[DiscreteLognormal, ZipfTruncated]

_SIZE_MODELS = {"log_uniform": LogUniformSizes, "fixed": FixedSizes}
_CITATION_MODELS = {"discrete_lognormal": DiscreteLognormal, "zipf": ZipfTruncated}


def _model(spec, role: str, models: dict):
    """The model that ``spec``, the config's ``role`` entry, describes: a
    JSON object with a ``kind`` from ``models`` and that model's keys."""
    if not isinstance(spec, dict):
        raise ConfigError(f"bad synth config: {role} must be a JSON object")
    if "kind" not in spec:
        raise ConfigError(f"bad synth config: {role} has no kind; kinds are {sorted(models)}")
    kind = spec["kind"]
    model = models.get(kind) if isinstance(kind, str) else None
    if model is None:
        raise ConfigError(
            f"bad synth config: unknown {role} kind {kind!r}; kinds are {sorted(models)}"
        )
    params = {key: value for key, value in spec.items() if key != "kind"}
    names = {field.name for field in fields(model)}
    missing = sorted(names - set(params))
    if missing:
        raise ConfigError(f"bad synth config: {role} {kind} missing keys {missing}")
    unknown = sorted(set(params) - names, key=repr)  # keys of any type, in one order
    if unknown:
        raise ConfigError(f"bad synth config: unknown {role} {kind} keys {unknown}")
    return model(**params)


@dataclass(frozen=True)
class SynthConfig:
    """Everything that determines a synthetic corpus, bit for bit."""

    n_journals: int
    size_model: SizeModel
    citation_model: CitationModel
    seed: int

    def __post_init__(self):
        _check_ints(self, "n_journals", "seed")
        if self.n_journals < 1:
            raise ConfigError(f"n_journals must be >= 1, got {self.n_journals}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.n_journals * self.size_model.largest > MAX_ROWS:
            raise ConfigError(
                f"n_journals {self.n_journals} times the largest journal size "
                f"{self.size_model.largest} is over {MAX_ROWS} paper rows"
            )

    @classmethod
    def default(cls, n_journals: int = 1000, seed: int = 0) -> "SynthConfig":
        return cls(
            n_journals=n_journals,
            size_model=LogUniformSizes(2, 1000),
            citation_model=DiscreteLognormal(mu=0.5, sigma=1.2),
            seed=seed,
        )

    def as_dict(self) -> dict:
        return {
            "n_journals": self.n_journals,
            "size_model": self.size_model.as_dict(),
            "citation_model": self.citation_model.as_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SynthConfig":
        if not isinstance(data, dict):
            raise ConfigError("bad synth config: must be a JSON object")
        names = {field.name for field in fields(cls)}
        missing = sorted(names - set(data))
        if missing:
            raise ConfigError(f"bad synth config: missing keys {missing}")
        config = cls(
            n_journals=data["n_journals"],
            size_model=_model(data["size_model"], "size_model", _SIZE_MODELS),
            citation_model=_model(data["citation_model"], "citation_model", _CITATION_MODELS),
            seed=data["seed"],
        )
        unknown = sorted(set(data) - names, key=repr)  # keys of any type, in one order
        if unknown:
            raise ConfigError(f"bad synth config: unknown keys {unknown}")
        return config

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "SynthConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, UnicodeDecodeError and an
            # integer literal over int's digit limit
            raise ConfigError(f"bad synth config JSON: {exc}") from exc
        return cls.from_dict(data)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict.  A repeated key, of
    which ``json`` would keep the last value, raises ValueError, which
    :meth:`SynthConfig.from_json_file` reports as ConfigError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _journal_ids(config: SynthConfig) -> Iterator[str]:
    """``S00001``, ``S00002``, ..., made one at a time."""
    width = max(5, len(str(config.n_journals)))
    return (f"S{i:0{width}d}" for i in range(1, config.n_journals + 1))


def journal_sizes(config: SynthConfig) -> np.ndarray:
    """Biennial sizes for every journal, from the dedicated size stream."""
    seq = np.random.SeedSequence(config.seed, spawn_key=(0,))
    gen = np.random.Generator(np.random.PCG64(seq))
    return config.size_model.sample(gen, config.n_journals)


def journal_citations(config: SynthConfig, index: int, size: int) -> np.ndarray:
    """Citation counts for journal ``index``, from its own derived stream."""
    seq = np.random.SeedSequence(config.seed, spawn_key=(1, index))
    gen = np.random.Generator(np.random.PCG64(seq))
    return config.citation_model.sample(gen, size)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG, from which _pcg64_states derives what
# PCG64(SeedSequence(seed, spawn_key=(1, j))) holds once seeded.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1

#: Journals whose PCG64 states are derived in one numpy pass.
_SEED_BLOCK = 4096


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of the uint32 words ``value`` under the hash
    constant ``const``, and the constant that follows it."""
    const_next = const * mult & _M32
    mixed = (value ^ const) * const_next
    return mixed ^ mixed >> 16, const_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of the uint32 words ``x`` and ``y``."""
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ mixed >> 16


def _mix_in(pool: list, word: np.ndarray, const: int) -> tuple[list, int]:
    """The pool with one more entropy word mixed into each of its words."""
    mixed = []
    for x in pool:
        hashed, const = _hashmix(word, const)
        mixed.append(_mix(x, hashed))
    return mixed, const


def _spawn_pool(seed: int) -> tuple[list, int]:
    """The 4-word pool of ``SeedSequence(seed, spawn_key=(1, j))`` before the
    journal index ``j`` is mixed in, and the hash constant at that point.

    The entropy is the seed's two 32-bit words padded with zeros to the pool
    size, then the spawn key's words ``1`` and ``j``.
    """
    const = _INIT_A
    pool = []
    for word in (seed & _M32, seed >> 32, 0, 0):
        hashed, const = _hashmix(np.array([word], dtype=np.uint32), const)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    return _mix_in(pool, np.array([1], dtype=np.uint32), const)


def _pcg64_states(pool: list, const: int, start: int, stop: int) -> list[tuple[int, int]]:
    """``(state, inc)`` of a PCG64 seeded from each journal ``j`` in
    [start, stop), from the pool and constant of :func:`_spawn_pool`."""
    pool, _ = _mix_in(pool, np.arange(start, stop, dtype=np.uint32), const)
    # generate_state(4, np.uint64): 8 words, the pool's in turn, paired
    # little-endian into the 64-bit halves of the seed and the sequence
    const = _INIT_B
    lanes = []
    for i in range(0, 8, 2):
        low, const = _hashmix(pool[i % 4], const, _MULT_B)
        high, const = _hashmix(pool[i % 4 + 1], const, _MULT_B)
        lanes.append((low.astype(np.uint64) | high.astype(np.uint64) << 32).tolist())
    states = []
    for seed_high, seed_low, seq_high, seq_low in zip(*lanes):
        # pcg64_set_seed: inc = 2 * seq + 1, then two LCG steps from 0 with
        # the seed added in between
        inc = (seq_high << 65 | seq_low << 1 | 1) & _M128
        states.append((((inc + (seed_high << 64 | seed_low)) * _PCG_MULT + inc) & _M128, inc))
    return states


def _draws(config: SynthConfig) -> Iterator[tuple[str, np.ndarray]]:
    """``(journal_id, citation counts)`` for every journal, in index order.

    Journal ``j``'s counts are ``journal_citations(config, j, size)``, drawn
    by one PCG64 that is set to each journal's seeded state in turn; the
    states are derived ``_SEED_BLOCK`` journals at a time.
    """
    sizes = journal_sizes(config)
    sample = config.citation_model.sample
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    # one state dict, refilled per journal: the setter copies its values
    seeded = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
    pool, const = _spawn_pool(config.seed)
    ids = _journal_ids(config)
    for start in range(0, config.n_journals, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, config.n_journals)
        for (seeded["state"], seeded["inc"]), size in zip(
            _pcg64_states(pool, const, start, stop), sizes[start:stop].tolist()
        ):
            bits.state = state
            yield next(ids), sample(gen, size)


def generate_corpus(config: SynthConfig, *, keep_papers: bool = False) -> Corpus:
    """Build the synthetic corpus's journal aggregates; byte-reproducible for
    a given config.

    The corpus holds no per-paper records: :func:`write_corpus_csv` (the
    ``volatix synth`` command) writes the per-paper rows.  ``keep_papers``
    is accepted only as False, and goes once no caller passes it;
    ``keep_papers=True`` raises ConfigError.
    """
    if keep_papers:
        raise ConfigError(
            "generate_corpus keeps no paper records; write them with write_corpus_csv"
        )
    journals: dict[str, JournalAggregate] = {}
    for jid, counts in _draws(config):
        # n >= 1 counts in [0, MAX_CITATIONS]: their sum and max are valid
        journals[jid] = _checked_aggregate(
            jid, jid, int(counts.sum()), len(counts), int(counts.max())
        )
    digest = hashlib.sha256(
        json.dumps(config.as_dict(), sort_keys=True).encode()
    ).hexdigest()
    return Corpus(journals=journals, provenance=Provenance(digest, "synthetic"))


#: Most paper rows joined into one write: about 0.6 MB of text, whatever the
#: size of the journal they come from.
BLOCK_ROWS = 1 << 14


def _middles(start: int, stop: int) -> list[str]:
    """``"000001,article,"``, ...: paper numbers start + 1 to stop, each with
    the text that follows it up to the citation count."""
    return [f"{i:06d},article," for i in range(start + 1, stop + 1)]


def write_corpus_csv(config: SynthConfig, dest) -> int:
    """Emit the corpus as a Schema-A papers.csv; returns the row count.

    No synth field needs quoting (ids are ``S`` and digits, the item type is
    ``article``, citations are ints), so the bytes are those of
    ``csv.writer(lineterminator="\\n")`` written as plain text: each journal's
    rows are joined and written at most BLOCK_ROWS at a time.
    """
    first = _middles(0, min(config.size_model.largest, BLOCK_ROWS))
    rows = 0
    with _open_out(dest) as out:
        out.write(",".join(PAPER_HEADER) + "\n")
        for jid, counts in _draws(config):
            head = f"{jid},{jid},{jid}-P"
            sep = "\n" + head
            for start in range(0, len(counts), BLOCK_ROWS):
                block = counts[start : start + BLOCK_ROWS].tolist()
                mids = _middles(start, start + len(block)) if start else first
                out.write(head + sep.join(map(str.__add__, mids, map(str, block))) + "\n")
            rows += len(counts)
    return rows


@dataclass(frozen=True)
class BinRow:
    size_lo: int
    size_hi: int
    journal_count: int
    mean_f: Optional[float]
    max_f: Optional[float]
    sd_f: Optional[float]
    max_delta_f: Optional[float]


@dataclass(frozen=True)
class BinnedStats:
    bins: tuple[BinRow, ...]


def clt_binned_stats(reports, edges: Sequence[int]) -> BinnedStats:
    """Citation-average statistics per size bin.

    ``edges`` are increasing bin boundaries; bin i is [edges[i], edges[i+1]).
    On i.i.d. corpora the spread of f and the top-paper volatility envelope
    both fall with bin size: sd_f because averages of N draws scatter like
    1/sqrt(N), max_delta_f because a single paper moves the average by at
    most ~c/N.  Empty bins report count 0 and null statistics.
    """
    edges = list(edges)
    if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ConfigError(f"bin edges must be strictly increasing, got {edges}")
    per_bin: list[list] = [[] for _ in range(len(edges) - 1)]
    for report in reports:
        idx = bisect_right(edges, report.n_2y) - 1
        if 0 <= idx < len(per_bin) and report.n_2y < edges[idx + 1]:
            per_bin[idx].append(report)
    rows = []
    for i, bucket in enumerate(per_bin):
        if not bucket:
            rows.append(BinRow(edges[i], edges[i + 1], 0, None, None, None, None))
            continue
        fs = np.array([float(r.f) for r in bucket])
        rows.append(
            BinRow(
                size_lo=edges[i],
                size_hi=edges[i + 1],
                journal_count=len(bucket),
                mean_f=float(fs.mean()),
                max_f=float(fs.max()),
                sd_f=float(fs.std(ddof=1)) if len(bucket) > 1 else None,
                max_delta_f=float(max(r.delta_f for r in bucket)),
            )
        )
    return BinnedStats(bins=tuple(rows))
