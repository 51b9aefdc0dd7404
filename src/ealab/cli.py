"""Command-line front end.

Every subcommand writes one table or one flat record to --out (default
stdout) as CSV or JSON; `bounds` defaults to aligned text. Exit codes: 0 on
success, 2 on validation problems (bad flags, bad config values), 3 when a
measurement produced no completed samples at all.

A --config file holds `key = value` lines ('#' starts a comment) whose keys
mirror the long flag names of the chosen subcommand; flags given on the
command line override the file.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import random
import sys
from pathlib import Path

from .bounds import (FAST_REGIME, ea0_growth_lb, level_bound_fast,
                     level_bound_general, master_bound, min_level_bound_general,
                     phase_params, sudholt_bound, takeover_bound_fast,
                     takeover_bound_general)
from .engines import DEFAULT_BUDGET_MULT, EaConfig, Variant, iteration_budget
from .genotype import BitString, ConfigError, make_fitness
from .harness import (ExperimentTable, SweepSpec, cell_text, compare_dominance,
                      emit, fit_ratio, json_bytes, parse_table, run_cell, sweep)
from .rng import mix64
from .takeover import Ea0Spec, TakeoverSpec, measure_takeover, run_ea0
from .trees import count_at_distance, p_opt, q_opt_bound, total_nodes, verify_p_opt

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EXHAUSTED = 3

_VARIANTS = {v.value: v for v in Variant}


def _int_list(text: str):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def load_config_file(path: str) -> dict:
    """Flat `key = value` file; keys use the long flag spelling with '-' or '_'."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip().lower().replace("-", "_"), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        if key == "config":
            raise ConfigError(f"{path}:{lineno}: config files cannot nest")
        values[key] = val
    return values


def _common(sp: argparse.ArgumentParser, seed=False, replicates=None, batch=False):
    """--out, --format and --config, which every command takes, plus the
    flags its handler reads: --seed, --replicates when given a default, and
    with batch --budget-mult and --workers."""
    if seed:
        sp.add_argument("--seed", type=int, default=0)
    if replicates is not None:
        sp.add_argument("--replicates", type=int, default=replicates)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)
    if batch:
        sp.add_argument("--budget-mult", type=float, default=DEFAULT_BUDGET_MULT,
                        help="iteration budget as a multiple of the bound total")
        sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--config", default=None, help="key = value defaults file")


def _engine_args(sp, list_valued=False):
    kind = _int_list if list_valued else int
    sp.add_argument("--n", type=kind, required=True)
    sp.add_argument("--mu", type=kind, default=(1,) if list_valued else 1)
    sp.add_argument("--lambda", dest="lam", type=kind,
                    default=(1,) if list_valued else 1)
    sp.add_argument("--variant", choices=sorted(_VARIANTS), default="plus")
    sp.add_argument("--c", type=float, default=1.0,
                    help="mutation probability scale, p = c/n")
    sp.add_argument("--fitness", choices=["onemax", "multiopt"], default="onemax")
    sp.add_argument("--k", type=int, default=None,
                    help="zero budget for the multiopt benchmark")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ealab",
        description="Runtime laboratory for population evolutionary algorithms "
                    "on bit-string benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="replicated runs of one configuration")
    _engine_args(sp)
    sp.add_argument("--max-iterations", type=int, default=None)
    _common(sp, seed=True, replicates=1, batch=True)

    sp = sub.add_parser("sweep", help="grid of configurations, one table row each")
    _engine_args(sp, list_valued=True)
    _common(sp, seed=True, replicates=100, batch=True)

    sp = sub.add_parser("takeover", help="plateau takeover time of fit members")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", type=int, default=1)
    sp.add_argument("--i", type=int, default=None, help="plateau fitness level (default n//2)")
    sp.add_argument("--j1", type=int, default=1)
    sp.add_argument("--j2", type=int, default=None, help="target fit count (default mu)")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--max-iterations", type=int, default=None)
    _common(sp, seed=True, replicates=1000)

    sp = sub.add_parser("ea0", help="copy-only growth process from j1 to j2")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", type=int, default=1)
    sp.add_argument("--j1", type=int, default=1)
    sp.add_argument("--j2", type=int, default=None, help="target count (default mu)")
    sp.add_argument("--max-iterations", type=int, default=None)
    _common(sp, seed=True, replicates=1000)

    sp = sub.add_parser("bounds", help="closed-form bounds for a configuration")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", type=int, default=1)
    sp.add_argument("--j1", type=int, default=None)
    sp.add_argument("--j2", type=int, default=None)
    sp.add_argument("--i", type=int, default=None, help="fitness level for level bounds")
    sp.add_argument("--mu0", type=int, default=None,
                    help="fit-count parameter (default: best by scan)")
    _common(sp)

    sp = sub.add_parser("tree", help="lineage-tree counts and label bounds")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", type=int, default=1)
    sp.add_argument("--ell", type=int, required=True, help="distance from the root")
    sp.add_argument("--samples", type=int, default=0,
                    help="samples in the binomial hit-count draw at the exact hit rate "
                         "(0 = skip)")
    sp.add_argument("--hamming", type=int, default=None,
                    help="root-to-target distance (default ceil(n/4))")
    _common(sp, seed=True)

    sp = sub.add_parser("dominance", help="compare two variants at equal n, mu, lambda")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", type=int, default=1)
    sp.add_argument("--variant-a", choices=sorted(_VARIANTS), default="plus")
    sp.add_argument("--variant-b", choices=sorted(_VARIANTS), default="comma")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--fitness", choices=["onemax", "multiopt"], default="onemax")
    sp.add_argument("--k", type=int, default=None)
    _common(sp, seed=True, replicates=1000, batch=True)

    sp = sub.add_parser("fit", help="bound-ratio spread of an existing table")
    sp.add_argument("--in", dest="in_path", required=True)
    sp.add_argument("--in-format", choices=["csv", "json"], default="csv")
    _common(sp)

    return parser


def emit_record(record: dict, fmt: str) -> bytes:
    """One flat record as a single-row CSV, JSON object (non-finite floats as
    null), or aligned text."""
    if fmt == "json":
        return json_bytes(record)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record.keys())
        writer.writerow([cell_text(v) for v in record.values()])
        return buf.getvalue().encode("utf-8")
    if fmt == "text":
        width = max(len(k) for k in record)
        lines = [f"{key.ljust(width)}  {cell_text(value)}"
                 for key, value in record.items()]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ConfigError(f"unknown record format {fmt!r}")


def _write(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _stats_record(stats) -> dict:
    return {"replicates": stats.count + stats.exhausted, "completed": stats.count,
            "exhausted": stats.exhausted, "mean": stats.mean,
            "stderr": stats.stderr, "median": stats.median,
            "q10": stats.q10, "q90": stats.q90}


def _budget(args) -> int:
    if getattr(args, "max_iterations", None) is not None:
        return args.max_iterations
    return iteration_budget(args.budget_mult, max(args.n, 2), args.mu, args.lam)


def _cmd_run(args):
    config = EaConfig(args.n, args.mu, args.lam, _VARIANTS[args.variant],
                      args.c, _budget(args), args.seed)
    f = make_fitness(args.fitness, args.n, k=args.k)
    row = run_cell(config, f, args.replicates, args.workers)
    code = EXIT_EXHAUSTED if row.exhausted == args.replicates else EXIT_OK
    return code, emit(ExperimentTable((row,)), args.fmt or "csv")


def _cmd_sweep(args):
    spec = SweepSpec(ns=args.n, mus=args.mu, lams=args.lam,
                     variant=_VARIANTS[args.variant], fitness=args.fitness,
                     k=args.k, c=args.c, replicates=args.replicates,
                     seed=args.seed, budget_mult=args.budget_mult)
    table = sweep(spec, workers=args.workers)
    valid = [r for r in table.rows if r.error is None]
    if not valid:
        # the table still carries every cell's error row
        print(f"error: {table.rows[0].error}", file=sys.stderr)
        code = EXIT_VALIDATION
    elif all(r.exhausted == r.replicates for r in valid):
        code = EXIT_EXHAUSTED
    else:
        code = EXIT_OK
    return code, emit(table, args.fmt or "csv")


def _cmd_takeover(args):
    i = args.i if args.i is not None else args.n // 2
    j2 = args.j2 if args.j2 is not None else args.mu
    spec = TakeoverSpec(args.n, args.mu, args.lam, i, args.j1, j2, args.c,
                        args.replicates, args.seed, args.max_iterations)
    stats = measure_takeover(spec)
    record = {"n": args.n, "mu": args.mu, "lambda": args.lam, "i": i,
              "j1": args.j1, "j2": j2, **_stats_record(stats),
              "bound_general": takeover_bound_general(args.mu, args.lam, args.j1, j2)}
    if args.lam / args.mu >= FAST_REGIME:
        record["bound_fast"] = takeover_bound_fast(args.mu, args.lam, args.j1, j2)
    if args.j1 == 1 and j2 == args.mu:
        record["bound_comparison"] = sudholt_bound(args.mu, args.lam)
    code = EXIT_EXHAUSTED if stats.count == 0 else EXIT_OK
    return code, emit_record(record, args.fmt or "json")


def _cmd_ea0(args):
    j2 = args.j2 if args.j2 is not None else args.mu
    spec = Ea0Spec(args.n, args.mu, args.lam, args.j1, j2,
                   args.replicates, args.seed, args.max_iterations)
    stats = run_ea0(spec)
    record = {"n": args.n, "mu": args.mu, "lambda": args.lam,
              "j1": args.j1, "j2": j2, **_stats_record(stats),
              "growth_lb": ea0_growth_lb(args.mu, args.lam, args.j1, j2)}
    code = EXIT_EXHAUSTED if stats.count == 0 else EXIT_OK
    return code, emit_record(record, args.fmt or "json")


def _cmd_bounds(args):
    report = master_bound(args.n, args.mu, args.lam)
    record = {"n": args.n, "mu": args.mu, "lambda": args.lam,
              "term_coupon": report.term_coupon, "term_pop": report.term_pop,
              "term_fast": report.term_fast, "total": report.total,
              "regime": report.regime,
              "bound_comparison": sudholt_bound(args.mu, args.lam)}
    if report.regime == "FastLambda":
        params = phase_params(args.n, args.mu, args.lam)
        record.update(gamma=params.gamma, b1=params.b1, b2=params.b2, b3=params.b3)
    if args.j1 is not None or args.j2 is not None:
        j1 = args.j1 if args.j1 is not None else 1
        j2 = args.j2 if args.j2 is not None else args.mu
        record["takeover_general"] = takeover_bound_general(args.mu, args.lam, j1, j2)
        if args.lam / args.mu >= FAST_REGIME:
            record["takeover_fast"] = takeover_bound_fast(args.mu, args.lam, j1, j2)
    if args.i is not None:
        if args.mu0 is not None:
            mu0 = args.mu0
            record["level_general"] = level_bound_general(
                args.n, args.mu, args.lam, args.i, mu0)
        else:
            mu0, best = min_level_bound_general(args.n, args.mu, args.lam, args.i)
            record["level_general"] = best
        record["level_mu0"] = mu0
        if args.lam / args.mu > FAST_REGIME:
            record["level_fast"] = level_bound_fast(
                args.n, args.mu, args.lam, args.i, mu0)
    return EXIT_OK, emit_record(record, args.fmt or "text")


def _cmd_tree(args):
    # Python before 3.10.7 prints integers of any length
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = args.t * math.log10(max(args.lam, 1) + 1)
    if limit and (digits > limit + 1 or (
            digits > limit - 1 and total_nodes(args.t, args.lam) >= 10 ** limit)):
        raise ConfigError(f"total_nodes (lambda+1)^t has more than {limit} digits, "
                          "the most an integer may print with")
    record = {"t": args.t, "lambda": args.lam, "n": args.n, "mu": args.mu,
              "ell": args.ell,
              "count_at_distance": count_at_distance(args.t, args.lam, args.ell),
              "total_nodes": total_nodes(args.t, args.lam),
              "p_opt": p_opt(args.ell, args.n)}
    q = q_opt_bound(args.t, args.n, args.mu, args.lam)
    record["q_opt_raw"] = q.raw
    record["q_opt"] = q.clamped
    if args.samples > 0:
        rng = random.Random(mix64(args.seed, 0))
        hamming = args.hamming if args.hamming is not None else -(-args.n // 4)
        if not 0 < hamming <= args.n:
            raise ConfigError(f"need 1 <= hamming <= n, got {hamming}")
        root = BitString.random(args.n, rng)
        flip = 0
        for pos in rng.sample(range(args.n), hamming):
            flip |= 1 << pos
        target = BitString(args.n, root.mask ^ flip)
        check = verify_p_opt(root, target, args.ell, args.samples, rng)
        record.update(hamming=hamming, samples=check.samples, hits=check.hits,
                      exact=check.exact, empirical=check.empirical, sigma=check.sigma,
                      within=check.within)
    return EXIT_OK, emit_record(record, args.fmt or "json")


def _cmd_dominance(args):
    budget = _budget(args)
    config_a = EaConfig(args.n, args.mu, args.lam, _VARIANTS[args.variant_a],
                        args.c, budget, mix64(args.seed, 1))
    config_b = EaConfig(args.n, args.mu, args.lam, _VARIANTS[args.variant_b],
                        args.c, budget, mix64(args.seed, 2))
    f = make_fitness(args.fitness, args.n, k=args.k)
    report = compare_dominance(config_a, config_b, f, args.replicates, args.workers)
    record = {"n": args.n, "mu": args.mu, "lambda": args.lam,
              "variant_a": report.variant_a, "variant_b": report.variant_b,
              "mean_a": report.stats_a.mean, "stderr_a": report.stats_a.stderr,
              "completed_a": report.stats_a.count, "exhausted_a": report.stats_a.exhausted,
              "mean_b": report.stats_b.mean, "stderr_b": report.stats_b.stderr,
              "completed_b": report.stats_b.count, "exhausted_b": report.stats_b.exhausted,
              "mean_diff": report.mean_diff, "pooled_se": report.pooled_se,
              "u_statistic": report.u_statistic, "p_value": report.p_value}
    empty = report.stats_a.count == 0 and report.stats_b.count == 0
    return (EXIT_EXHAUSTED if empty else EXIT_OK), emit_record(record, args.fmt or "json")


def _cmd_fit(args):
    try:
        data = Path(args.in_path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read table: {exc}") from None
    table = parse_table(data, args.in_format)
    fit = fit_ratio(table)
    record = {"rows_used": fit.rows_used, "min_ratio": fit.min_ratio,
              "max_ratio": fit.max_ratio, "spread": fit.spread,
              "no_data": fit.no_data}
    code = EXIT_EXHAUSTED if fit.no_data else EXIT_OK
    return code, emit_record(record, args.fmt or "json")


_HANDLERS = {"run": _cmd_run, "sweep": _cmd_sweep, "takeover": _cmd_takeover,
             "ea0": _cmd_ea0, "bounds": _cmd_bounds, "tree": _cmd_tree,
             "dominance": _cmd_dominance, "fit": _cmd_fit}


def _config_path(argv):
    # pre-scan so a config file can satisfy required flags like --n
    for k, tok in enumerate(argv):
        if tok == "--config":
            return argv[k + 1] if k + 1 < len(argv) else None
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        path = _config_path(argv) if argv and not argv[0].startswith("-") else None
        if path is not None:
            extra = []
            for key, value in load_config_file(path).items():
                extra.extend(("--" + key.replace("_", "-"), value))
            # config values go first so explicit flags win (last one parses)
            argv = [argv[0]] + extra + argv[1:]
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        code, data = _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write(data, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
