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
import functools
import math
import random
import sys
from pathlib import Path

from .bounds import (FAST_REGIME, ea0_growth_lb, level_bound_fast,
                     level_bound_general, master_bound, min_level_bound_general,
                     phase_params, sudholt_bound, takeover_bound_fast,
                     takeover_bound_general)
from .engines import DEFAULT_BUDGET_MULT, EaConfig, Variant, iteration_budget
from .genotype import ConfigError, make_fitness
from .harness import (ExperimentTable, SweepSpec, cell_text, compare_dominance,
                      csv_bytes, emit, fit_ratio, json_bytes, parse_table, run_cell,
                      sweep)
from .rng import mix64
from .takeover import Ea0Spec, TakeoverSpec, measure_takeover, run_ea0
from .trees import count_at_distance, p_opt, q_opt_bound, total_nodes, verify_p_opt_at

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


def emit_record(record: dict, fmt: str) -> bytes:
    """One flat record as a single-row CSV, JSON object (non-finite floats as
    null), or aligned text."""
    if fmt == "json":
        return json_bytes(record)
    if fmt == "csv":
        return csv_bytes(record.keys(), (record.values(),))
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


def _cmd_run(args):
    budget = iteration_budget(args.budget_mult, args.n, args.mu, args.lam,
                              args.max_iterations)
    f = make_fitness(args.fitness, args.n, k=args.k)
    config = EaConfig(args.n, args.mu, args.lam, _VARIANTS[args.variant],
                      args.c, budget, args.seed)
    row = run_cell(config, f, args.replicates, args.workers)
    code = EXIT_EXHAUSTED if row.exhausted == args.replicates else EXIT_OK
    return code, emit(ExperimentTable((row,)), args.fmt)


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
    return code, emit(table, args.fmt)


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
    return code, emit_record(record, args.fmt)


def _cmd_ea0(args):
    j2 = args.j2 if args.j2 is not None else args.mu
    spec = Ea0Spec(args.n, args.mu, args.lam, args.j1, j2,
                   args.replicates, args.seed, args.max_iterations)
    stats = run_ea0(spec)
    record = {"n": args.n, "mu": args.mu, "lambda": args.lam,
              "j1": args.j1, "j2": j2, **_stats_record(stats),
              "growth_lb": ea0_growth_lb(args.mu, args.lam, args.j1, j2)}
    code = EXIT_EXHAUSTED if stats.count == 0 else EXIT_OK
    return code, emit_record(record, args.fmt)


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
    return EXIT_OK, emit_record(record, args.fmt)


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
        hamming = args.hamming if args.hamming is not None else -(-args.n // 4)
        check = verify_p_opt_at(args.n, hamming, args.ell, args.samples,
                                random.Random(mix64(args.seed, 0)))
        record.update(hamming=hamming, samples=check.samples, hits=check.hits,
                      exact=check.exact, empirical=check.empirical, sigma=check.sigma,
                      within=check.within)
    return EXIT_OK, emit_record(record, args.fmt)


def _cmd_dominance(args):
    budget = iteration_budget(args.budget_mult, args.n, args.mu, args.lam)
    f = make_fitness(args.fitness, args.n, k=args.k)
    config_a = EaConfig(args.n, args.mu, args.lam, _VARIANTS[args.variant_a],
                        args.c, budget, mix64(args.seed, 1))
    config_b = EaConfig(args.n, args.mu, args.lam, _VARIANTS[args.variant_b],
                        args.c, budget, mix64(args.seed, 2))
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
    return (EXIT_EXHAUSTED if empty else EXIT_OK), emit_record(record, args.fmt)


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
    return code, emit_record(record, args.fmt)


_VARIANT = {"choices": sorted(_VARIANTS), "default": "plus"}
_INT_LIST = {"type": _int_list, "default": (1,)}

#: argparse keywords of every flag, by its name without the leading "--"
_FLAGS = {
    "n": {"type": int, "required": True},
    "mu": {"type": int, "default": 1},
    "lambda": {"dest": "lam", "type": int, "default": 1},
    "variant": _VARIANT,
    "variant-a": _VARIANT,
    "variant-b": {**_VARIANT, "default": "comma"},
    "c": {"type": float, "default": 1.0, "help": "mutation probability scale, p = c/n"},
    "fitness": {"choices": ["onemax", "multiopt"], "default": "onemax"},
    "k": {"type": int, "default": None, "help": "zero budget for the multiopt benchmark"},
    "max-iterations": {"type": int, "default": None},
    "seed": {"type": int, "default": 0},
    "replicates": {"type": int, "default": 1000},
    "budget-mult": {"type": float, "default": DEFAULT_BUDGET_MULT,
                    "help": "iteration budget as a multiple of the bound total"},
    "workers": {"type": int, "default": None},
    "i": {"type": int, "default": None,
          "help": "fitness level of the plateau (takeover, default n//2) "
                  "or of the level bounds (bounds)"},
    "j1": {"type": int, "default": 1},
    "j2": {"type": int, "default": None, "help": "target fit count (default mu)"},
    "mu0": {"type": int, "default": None,
            "help": "fit-count parameter (default: best by scan)"},
    "t": {"type": int, "required": True},
    "ell": {"type": int, "required": True, "help": "distance from the root"},
    "samples": {"type": int, "default": 0,
                "help": "samples in the binomial hit-count draw at the exact hit rate "
                        "(0 = skip)"},
    "hamming": {"type": int, "default": None,
                "help": "root-to-target distance (default ceil(n/4))"},
    "in": {"dest": "in_path", "required": True},
    "in-format": {"choices": ["csv", "json"], "default": "csv"},
    "out": {"default": None, "help": "output path (default stdout)"},
    "format": {"dest": "fmt", "choices": ["csv", "json"]},
    "config": {"default": None, "help": "key = value defaults file"},
}

#: command -> (help, flags in README's order besides out, format and config,
#: the command's own keywords for some of them, default format, handler)
_COMMANDS = {
    "run": ("replicated runs of one configuration",
            "n mu lambda variant c fitness k max-iterations seed replicates "
            "budget-mult workers", {"replicates": {"default": 1}}, "csv", _cmd_run),
    "sweep": ("grid of configurations, one table row each",
              "n mu lambda variant c fitness k seed replicates budget-mult workers",
              {"n": {"type": _int_list}, "mu": _INT_LIST, "lambda": _INT_LIST,
               "replicates": {"default": 100}}, "csv", _cmd_sweep),
    "takeover": ("plateau takeover time of fit members",
                 "n mu lambda i j1 j2 c max-iterations seed replicates", {},
                 "json", _cmd_takeover),
    "ea0": ("copy-only growth process from j1 to j2",
            "n mu lambda j1 j2 max-iterations seed replicates", {}, "json", _cmd_ea0),
    "bounds": ("closed-form bounds for a configuration", "n mu lambda j1 j2 i mu0",
               {"j1": {"default": None}}, "text", _cmd_bounds),
    "tree": ("lineage-tree counts and label bounds",
             "t lambda n mu ell samples hamming seed", {}, "json", _cmd_tree),
    "dominance": ("compare two variants at equal n, mu, lambda",
                  "n mu lambda variant-a variant-b c fitness k seed replicates "
                  "budget-mult workers", {}, "json", _cmd_dominance),
    "fit": ("bound-ratio spread of an existing table", "in in-format", {},
            "json", _cmd_fit),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use: parse_args leaves it
    unchanged, so one serves every main call of a process."""
    parser = argparse.ArgumentParser(
        prog="ealab",
        description="Runtime laboratory for population evolutionary algorithms "
                    "on bit-string benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, own, fmt, handler) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for flag in flags.split() + ["out", "format", "config"]:
            sp.add_argument("--" + flag, **{**_FLAGS[flag], **own.get(flag, {})})
        sp.set_defaults(fmt=fmt, handler=handler)
    return parser


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
    try:
        path = _config_path(argv) if argv and not argv[0].startswith("-") else None
        if path is not None:
            extra = []
            for key, value in load_config_file(path).items():
                extra.extend(("--" + key.replace("_", "-"), value))
            # config values go first so explicit flags win (last one parses)
            argv = [argv[0]] + extra + argv[1:]
        args = build_parser().parse_args(argv)
        code, data = args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write(data, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
