"""Grid sweeps, bound-ratio fitting, dominance comparisons, and the stable
table format shared by the library and the command line.

A sweep cell is one (n, mu, lambda) configuration; its replicate batch is
seeded from the master seed and the cell's row index, so tables are
reproducible byte for byte regardless of worker count or grid slicing order.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .bounds import master_bound
from .engines import (DEFAULT_BUDGET_MULT, EaConfig, Variant, check_budget_mult,
                      iteration_budget, run_batch)
from .genotype import ConfigError, check_count, make_fitness
from .rng import mix64
from .stats import SampleStats, summarize

#: (column, ExperimentRow attribute, type) of every emitted table, in order;
#: "lambda" is the offspring count
_COLUMNS = (("n", "n", int), ("mu", "mu", int), ("lambda", "lam", int),
            ("variant", "variant", str), ("replicates", "replicates", int),
            ("mean_T", "mean_T", float), ("stderr_T", "stderr_T", float),
            ("median_T", "median_T", float), ("q10", "q10", float),
            ("q90", "q90", float), ("exhausted", "exhausted", int),
            ("bound_total", "bound_total", float), ("ratio", "ratio", float))
CSV_COLUMNS = tuple(column for column, _, _ in _COLUMNS)


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian grid over n, mu, lambda at a fixed variant and benchmark."""

    ns: tuple
    mus: tuple
    lams: tuple
    variant: Variant = Variant.PLUS
    fitness: str = "onemax"
    k: int | None = None                      # multiopt zero-budget
    c: float = 1.0
    replicates: int = 100
    seed: int = 0
    budget_mult: float = DEFAULT_BUDGET_MULT

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not (self.ns and self.mus and self.lams):
            raise ConfigError("grid axes must be nonempty")
        check_count("replicates", self.replicates)
        check_budget_mult(self.budget_mult)
        if self.fitness.lower() not in ("onemax", "multiopt"):
            raise ConfigError("sweeps support fitness 'onemax' or 'multiopt'")

    def cells(self):
        return itertools.product(self.ns, self.mus, self.lams)


@dataclass(frozen=True)
class ExperimentRow:
    """One sweep cell. Iteration statistics cover completed replicates only;
    exhausted counts the censored ones. ratio = mean_T / bound_total.

    error is set (and the numeric fields are NaN) when the cell's
    configuration failed validation; skew_warned flags mean outside [q10, q90].
    Both extras appear in JSON output but not in the fixed CSV columns.
    """

    n: int
    mu: int
    lam: int
    variant: str
    replicates: int
    mean_T: float
    stderr_T: float
    median_T: float
    q10: float
    q90: float
    exhausted: int
    bound_total: float
    ratio: float
    skew_warned: bool = False
    error: str | None = None


@dataclass(frozen=True)
class ExperimentTable:
    rows: tuple

    def __len__(self):
        return len(self.rows)


def _skew_warned(mean: float, q10: float, q90: float) -> bool:
    return math.isfinite(mean) and not (q10 <= mean <= q90)


def _stats_row(n, mu, lam, variant, replicates, stats: SampleStats,
               bound_total: float) -> ExperimentRow:
    ratio = stats.mean / bound_total if math.isfinite(stats.mean) else float("nan")
    return ExperimentRow(
        n=n, mu=mu, lam=lam, variant=variant.value, replicates=replicates,
        mean_T=stats.mean, stderr_T=stats.stderr, median_T=stats.median,
        q10=stats.q10, q90=stats.q90, exhausted=stats.exhausted,
        bound_total=bound_total, ratio=ratio,
        skew_warned=_skew_warned(stats.mean, stats.q10, stats.q90))


def _error_row(n, mu, lam, variant, replicates, message: str) -> ExperimentRow:
    nan = float("nan")
    return ExperimentRow(n=n, mu=mu, lam=lam, variant=variant.value,
                         replicates=replicates, mean_T=nan, stderr_T=nan,
                         median_T=nan, q10=nan, q90=nan, exhausted=0,
                         bound_total=nan, ratio=nan, error=message)


def summarize_runs(results) -> SampleStats:
    """Censoring summary of a run_batch result list: completed iteration
    counts are averaged, exhausted runs only counted."""
    completed = [r.iterations_to_opt for r in results if not r.exhausted]
    return summarize(completed, exhausted=sum(1 for r in results if r.exhausted))


def run_cell(config: EaConfig, f, replicates: int,
             workers: int | None = None) -> ExperimentRow:
    """Measure one configuration and format it as a table row."""
    bound = master_bound(config.n, config.mu, config.lam).total
    stats = summarize_runs(run_batch(config, f, replicates, workers))
    return _stats_row(config.n, config.mu, config.lam, config.variant,
                      replicates, stats, bound)


def sweep(spec: SweepSpec, workers: int | None = None) -> ExperimentTable:
    """Run the whole grid. A cell whose configuration is invalid (say comma
    selection with lambda < mu) or cannot be run (say n past the bits of a
    random start) becomes an error row; it never aborts the sweep."""
    rows = []
    for idx, (n, mu, lam) in enumerate(spec.cells()):
        try:
            f = make_fitness(spec.fitness, n, k=spec.k)
            budget = iteration_budget(spec.budget_mult, n, mu, lam)
            config = EaConfig(n, mu, lam, spec.variant, spec.c, budget,
                              mix64(spec.seed, idx))
            rows.append(run_cell(config, f, spec.replicates, workers))
        except ConfigError as exc:
            rows.append(_error_row(n, mu, lam, spec.variant,
                                   spec.replicates, str(exc)))
    return ExperimentTable(tuple(rows))


@dataclass(frozen=True)
class RatioFit:
    """Spread of measured-over-bound ratios across the usable rows of a table.

    Rows with errors, exhausted replicates, or ratios that are not positive
    and finite are excluded (a zero ratio, where every replicate started at an
    optimum, has no spread); no_data is set when nothing usable remains.
    """

    min_ratio: float
    max_ratio: float
    spread: float
    rows_used: int
    no_data: bool


def fit_ratio(table: ExperimentTable) -> RatioFit:
    ratios = [r.ratio for r in table.rows
              if r.error is None and r.exhausted == 0 and 0.0 < r.ratio < math.inf]
    if not ratios:
        nan = float("nan")
        return RatioFit(nan, nan, nan, 0, True)
    lo, hi = min(ratios), max(ratios)
    return RatioFit(lo, hi, hi / lo, len(ratios), False)


@dataclass(frozen=True)
class DominanceReport:
    """Two configurations on the same benchmark, same n/mu/lambda.

    p_value is the one-sided Mann-Whitney probability for the alternative
    that A's iteration counts are stochastically smaller than B's, computed
    on completed replicates. NaN when either side completed nothing.
    """

    variant_a: str
    variant_b: str
    stats_a: SampleStats
    stats_b: SampleStats
    mean_diff: float
    pooled_se: float
    u_statistic: float
    p_value: float


def _u_counts(m: int, n: int) -> list:
    """Null distribution of U for sample sizes m and n as integer counts:
    entry k is the coefficient of q^k in the Gaussian binomial [m+n choose m]_q,
    built as prod_{i=1}^{m} (1 - q^(n+i)) / (1 - q^i), one factor pair at a time."""
    c = [1] + [0] * (m * n + m)
    for i in range(1, m + 1):
        for k in range(i * n + i, n + i - 1, -1):
            c[k] -= c[k - n - i]
        for k in range(i, i * n + i + 1):
            c[k] += c[k - i]
    return c[:m * n + 1]


def mannwhitneyu(x, y):
    """One-sided Mann-Whitney U test of "x is stochastically smaller than y":
    (U of x, p-value), with average ranks for ties. The p-value is exact when
    the smaller sample has at most 8 members and there are no ties; otherwise
    it is the normal approximation with tie and continuity corrections."""
    n1, n2 = len(x), len(y)
    in_x = Counter(x)
    r1x2 = ties = start = 0           # r1x2 is twice the rank sum of x
    for v, group in itertools.groupby(sorted(itertools.chain(x, y))):
        t = sum(1 for _ in group)
        r1x2 += in_x[v] * (2 * start + t + 1)
        ties += t ** 3 - t
        start += t
    u1 = (r1x2 - n1 * (n1 + 1)) / 2
    u = n1 * n2 - u1                  # large U of y means small x
    if min(n1, n2) <= 8 and not ties:
        counts = _u_counts(min(n1, n2), max(n1, n2))
        return u1, sum(counts[int(u):]) / math.comb(n1 + n2, n1)
    n = n1 + n2
    s = math.sqrt(n1 * n2 / 12 * ((n + 1) - ties / (n * (n - 1))))
    z = (u - n1 * n2 / 2 - 0.5) / s if s else -math.inf
    return u1, 0.5 * math.erfc(z / math.sqrt(2))


def compare_dominance(config_a: EaConfig, config_b: EaConfig, f,
                      replicates: int, workers: int | None = None) -> DominanceReport:
    """Paired measurement of two variants at identical (n, mu, lambda)."""
    if (config_a.n, config_a.mu, config_a.lam) != (config_b.n, config_b.mu, config_b.lam):
        raise ConfigError("dominance comparison needs identical n, mu, lambda")
    runs_a = run_batch(config_a, f, replicates, workers)
    runs_b = run_batch(config_b, f, replicates, workers)
    stats_a = summarize_runs(runs_a)
    stats_b = summarize_runs(runs_b)
    samples_a = [r.iterations_to_opt for r in runs_a if not r.exhausted]
    samples_b = [r.iterations_to_opt for r in runs_b if not r.exhausted]
    if samples_a and samples_b:
        u, p = mannwhitneyu(samples_a, samples_b)
    else:
        u, p = float("nan"), float("nan")
    mean_diff = stats_a.mean - stats_b.mean
    pooled = math.sqrt(stats_a.stderr ** 2 + stats_b.stderr ** 2) \
        if math.isfinite(stats_a.stderr) and math.isfinite(stats_b.stderr) \
        else float("nan")
    return DominanceReport(config_a.variant.value, config_b.variant.value,
                           stats_a, stats_b, mean_diff, pooled, u, p)


def cell_text(value) -> str:
    """One table or record cell: None as "", floats by repr, which keeps
    every bit so parse(emit(t)) round-trips exactly, anything else by str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


_row_values = operator.attrgetter(*(attr for _, attr, _ in _COLUMNS))


def _row_record(row: ExperimentRow) -> dict:
    record = dict(zip(CSV_COLUMNS, _row_values(row)))
    record["skew_warned"] = row.skew_warned
    record["error"] = row.error
    return record


def csv_bytes(header, rows) -> bytes:
    """UTF-8 CSV of a header and rows, '\\n' line ends, cells by cell_text."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [cell_text(v) for v in line] for line in itertools.chain((header,), rows))
    return buf.getvalue().encode("utf-8")


def _table_format(fmt: str) -> str:
    fmt = fmt.lower()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown table format {fmt!r}")
    return fmt


def emit(table: ExperimentTable, fmt: str = "csv") -> bytes:
    """Serialize a table: UTF-8, '.' decimal separator, '\\n' line ends.

    CSV carries exactly CSV_COLUMNS with a mandatory header; JSON mirrors the
    same numbers (identical floats, non-finite ones as null) plus the
    skew_warned and error extras.
    """
    if _table_format(fmt) == "csv":
        return csv_bytes(CSV_COLUMNS, map(_row_values, table.rows))
    return json_bytes({"columns": list(CSV_COLUMNS),
                       "rows": [_row_record(row) for row in table.rows]})


def _strict(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def json_bytes(payload) -> bytes:
    """payload as indented UTF-8 JSON with a final newline. NaN and the
    infinities are not JSON, so non-finite floats are written as null."""
    return (json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n").encode("utf-8")


def _field(record: dict, key: str, kind):
    if key not in record:
        raise ConfigError(f"missing field {key!r}")
    if record[key] is None and kind is float:
        return math.nan   # JSON null: a non-finite float
    try:
        return kind(record[key])
    except (TypeError, ValueError):
        raise ConfigError(f"field {key!r} is not a number: {record[key]!r}") from None


def _row_from_record(record: dict, stored_extras: bool) -> ExperimentRow:
    values = {attr: _field(record, column, kind) for column, attr, kind in _COLUMNS}
    if stored_extras:
        skew = bool(record.get("skew_warned", False))
        error = record.get("error")
    else:
        skew = _skew_warned(values["mean_T"], values["q10"], values["q90"])
        error = None
    return ExperimentRow(**values, skew_warned=skew, error=error)


def _parse_rows(records, stored_extras: bool) -> ExperimentTable:
    rows = []
    for k, record in enumerate(records, 1):
        try:
            rows.append(_row_from_record(record, stored_extras))
        except ConfigError as exc:
            raise ConfigError(f"table row {k}: {exc}") from None
    return ExperimentTable(tuple(rows))


def parse_table(data, fmt: str = "csv") -> ExperimentTable:
    """Inverse of emit for both formats. CSV does not carry the JSON-only
    extras, so skew_warned is recomputed and error rows come back as None.
    A JSON null in a float column reads back as NaN.

    Raises ConfigError on anything emit would not have written: a wrong
    header, a CSV row with too few or too many fields, a missing field or a
    field that does not parse as its number type.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"table is not UTF-8: {exc}") from None
    if _table_format(fmt) == "csv":
        reader = csv.reader(io.StringIO(data))
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty table: missing CSV header") from None
        if header != list(CSV_COLUMNS):
            raise ConfigError(f"unexpected CSV header {header!r}")
        lines = [line for line in reader if line]
        for k, line in enumerate(lines, 1):
            if len(line) != len(CSV_COLUMNS):
                raise ConfigError(f"table row {k}: {len(line)} fields, "
                                  f"expected {len(CSV_COLUMNS)}")
        return _parse_rows((dict(zip(CSV_COLUMNS, line)) for line in lines), False)
    try:
        payload = json.loads(data)
    except ValueError as exc:
        raise ConfigError(f"table is not valid JSON: {exc}") from None
    records = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ConfigError("JSON table needs a \"rows\" list of objects")
    return _parse_rows(records, True)
