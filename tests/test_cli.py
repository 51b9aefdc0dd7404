"""Command-line surface: exit codes, formats, config files, piping."""

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ealab import CSV_COLUMNS
from ealab.cli import build_parser, main

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"


def _run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main(list(argv) + ["--out", str(out)])
    return code, (out.read_bytes() if out.exists() else b"")


def _strict_json(data):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(data, parse_constant=reject)


class TestBounds:
    def test_text_report(self, tmp_path):
        code, data = _run(tmp_path, "bounds", "--n", "100", "--mu", "2",
                          "--lambda", "8")
        assert code == 0
        text = data.decode()
        assert "total" in text
        assert "regime" in text

    def test_level_bound_at_a_billion_members(self, tmp_path):
        # the best mu0 comes from the bound's stationary point, not a scan
        start = time.perf_counter()
        code, data = _run(tmp_path, "bounds", "--n", "1000", "--mu", str(10 ** 9),
                          "--lambda", "64", "--i", "500", "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(data)["level_mu0"] == 1

    def test_takeover_section_appears_on_request(self, tmp_path):
        code, data = _run(tmp_path, "bounds", "--n", "50", "--mu", "4",
                          "--lambda", "400", "--j1", "1", "--j2", "4",
                          "--format", "json")
        assert code == 0
        rec = json.loads(data)
        assert "takeover_general" in rec
        assert "takeover_fast" in rec          # ratio 100 is deep in the regime
        assert rec["takeover_general"] > 0


class TestRun:
    def test_csv_row(self, tmp_path):
        code, data = _run(tmp_path, "run", "--n", "12", "--mu", "2",
                          "--lambda", "2", "--replicates", "10", "--seed", "4")
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert lines[1].startswith("12,2,2,plus,10,")

    def test_starved_budget_exits_exhausted(self, tmp_path):
        code, _ = _run(tmp_path, "run", "--n", "40", "--mu", "1", "--lambda", "1",
                       "--max-iterations", "1", "--replicates", "5", "--seed", "0")
        assert code == 3

    def test_validation_exit(self, tmp_path):
        code, _ = _run(tmp_path, "run", "--n", "10", "--mu", "4",
                       "--lambda", "2", "--variant", "comma")
        assert code == 2

    def test_unknown_flag_exit(self, tmp_path):
        code, _ = _run(tmp_path, "run", "--n", "10", "--frobnicate")
        assert code == 2

    def test_large_n_runs(self, tmp_path):
        # sampler tables used to overflow a float from n = 1030 on
        code, data = _run(tmp_path, "run", "--n", "1030", "--mu", "2",
                          "--lambda", "2", "--seed", "3")
        assert code == 0
        assert data.decode().splitlines()[1].startswith("1030,2,2,plus,1,")

    def test_million_offspring_runs(self, tmp_path):
        # the third term of the bound dominates out here
        code, data = _run(tmp_path, "run", "--n", "1024", "--mu", "1",
                          "--lambda", "1000000", "--replicates", "2")
        assert code == 0
        assert data.decode().splitlines()[1].startswith("1024,1,1000000,plus,2,")


class TestSweep:
    def test_grid_rows(self, tmp_path):
        code, data = _run(tmp_path, "sweep", "--n", "10,14", "--mu", "2",
                          "--lambda", "2", "--replicates", "5", "--seed", "8")
        assert code == 0
        lines = data.decode().splitlines()
        assert len(lines) == 3

    def test_all_cells_invalid(self, tmp_path):
        code, _ = _run(tmp_path, "sweep", "--n", "10", "--mu", "4",
                       "--lambda", "2", "--variant", "comma",
                       "--replicates", "2")
        assert code == 2


class TestBudgetAndCaps:
    @pytest.mark.parametrize("mult", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ("run", "--n", "10"),
        ("sweep", "--n", "10,12", "--replicates", "2"),
    ], ids=["run", "sweep"])
    def test_bad_budget_mult_exits_validation(self, tmp_path, capsys, argv, mult):
        code, data = _run(tmp_path, *argv, "--budget-mult", mult)
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: budget multiplier") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["takeover", "ea0"])
    def test_zero_cap_exits_validation(self, tmp_path, capsys, command):
        code, data = _run(tmp_path, command, "--n", "10", "--mu", "4",
                          "--lambda", "4", "--max-iterations", "0")
        assert code == 2 and data == b""
        assert capsys.readouterr().err.count("\n") == 1


class TestHugeLambda:
    LAM = "1" + "0" * 400    # lambda/mu past the float range
    PAST_FLOAT = "error: lambda/mu is past the float range\n"
    PAST_EXACT = ("error: lambda must be <= 1.153e+15, past which the "
                  "fitness-level chain's runtime law is not exact\n")
    MU_LAM_PAST_FLOAT = "error: mu and lambda must lie within the float range\n"

    @pytest.mark.parametrize("argv,err", [
        (("run", "--n", "64"), PAST_FLOAT),
        (("sweep", "--n", "64", "--replicates", "2"), PAST_FLOAT),
        (("bounds", "--n", "64"), PAST_FLOAT),
        (("ea0", "--n", "20", "--mu", "4"), PAST_FLOAT),
        (("takeover", "--n", "20", "--mu", "4"), PAST_EXACT),
        # lambda/mu = 1 fits a float, mu and lambda themselves do not
        (("ea0", "--n", "20", "--mu", LAM, "--j1", "1", "--j2", "2"), MU_LAM_PAST_FLOAT),
    ], ids=["run", "sweep", "bounds", "ea0", "takeover", "ea0-mu"])
    def test_exits_validation(self, tmp_path, capsys, argv, err):
        code, _ = _run(tmp_path, *argv, "--lambda", self.LAM)
        assert code == 2
        assert capsys.readouterr().err == err

    def test_run_rejects_lambda_past_exact_law(self, tmp_path, capsys):
        # a level table cuts its upper tail at TAIL_MASS = 2^-60, so past
        # lambda = 1e-3 / TAIL_MASS the chain would answer with a wrong law
        argv = ("run", "--n", "64", "--mu", "1", "--replicates", "20")
        code, _ = _run(tmp_path, *argv, "--lambda", str(10 ** 30))
        assert code == 2
        assert capsys.readouterr().err == self.PAST_EXACT
        code, data = _run(tmp_path, *argv, "--lambda", str(10 ** 15))
        assert code == 0
        assert data.decode().splitlines()[1].startswith(f"64,1,{10 ** 15},plus,20,")

    def test_tree_clamps_q_opt(self, tmp_path):
        code, data = _run(tmp_path, "tree", "--n", "16", "--t", "2", "--ell", "1",
                          "--lambda", self.LAM)
        assert code == 0
        rec = _strict_json(data)
        assert rec["q_opt_raw"] is None and rec["q_opt"] == 1.0


class TestFloatRange:
    HUGE = "1" + "0" * 400    # past the float range
    EDGE = "1" + "0" * 308    # within it, near its top
    N_PAST = "error: n must lie within the float range\n"
    BITS_PAST = ("error: a random string needs n <= 2147483647, "
                 "the most bits random.getrandbits draws\n")

    @pytest.mark.parametrize("argv,code,err", [
        (("ea0", "--n", "20", "--mu", EDGE, "--lambda", "1", "--j1", "1", "--j2", "2"), 2,
         "error: the derived iteration cap is past the float range: "
         "give --max-iterations\n"),
        # e * mu overflows; every replicate is censored at 3 iterations
        (("ea0", "--n", "20", "--mu", EDGE, "--lambda", EDGE, "--max-iterations", "3"),
         3, ""),
        (("ea0", "--n", HUGE, "--mu", "10", "--lambda", "10"), 2, N_PAST),
        (("tree", "--t", "3", "--n", HUGE, "--ell", "1"), 2, N_PAST),
        (("tree", "--t", "3", "--n", "8", "--ell", "1", "--samples", HUGE), 2,
         "error: samples must lie within the float range\n"),
        # the hit count comes from n and the Hamming distance, so no n-bit
        # string is drawn
        (("tree", "--t", "3", "--n", EDGE, "--ell", "1", "--samples", "1"), 0, ""),
        (("takeover", "--n", HUGE, "--mu", "2", "--lambda", "2"), 2, N_PAST),
        # a random start of n bits needs n <= 2^31 - 1; a sweep makes that
        # cell an error row
        (("run", "--n", "2147483648", "--max-iterations", "1", "--replicates", "1"), 2,
         BITS_PAST),
        (("dominance", "--n", "2147483648"), 2, BITS_PAST),
        (("sweep", "--n", "10,2147483648"), 0, ""),
        # the count moves with probability about 4e-201 per iteration: the
        # idle iterations are skipped in one draw, not stepped
        (("ea0", "--n", "20", "--mu", "1" + "0" * 200, "--lambda", "1", "--j1", "1",
          "--j2", "2", "--replicates", "1"), 0, ""),
    ], ids=["ea0-cap", "ea0-e-mu", "ea0-n", "tree-n", "tree-samples",
            "tree-random-string", "takeover-n", "run-bits", "dominance-bits",
            "sweep-bits", "ea0-tiny-ratio"])
    def test_exits_cleanly(self, tmp_path, capsys, argv, code, err):
        assert _run(tmp_path, *argv)[0] == code
        assert capsys.readouterr().err == err

    def test_tree_bound_vanishes_near_the_top(self, tmp_path):
        # every log p_opt term underflows: the union bound is 0, not nan
        code, data = _run(tmp_path, "tree", "--t", "3", "--n", self.EDGE, "--ell", "1")
        rec = _strict_json(data)
        assert code == 0
        assert (rec["p_opt"], rec["q_opt_raw"], rec["q_opt"]) == (0.0, 0.0, 0.0)


class TestStrictJson:
    def test_sweep_error_row_is_null(self, tmp_path):
        code, data = _run(tmp_path, "sweep", "--n", "1,10", "--replicates", "3",
                          "--format", "json")
        assert code == 0
        bad, good = _strict_json(data)["rows"]
        assert bad["error"] and bad["mean_T"] is None and bad["ratio"] is None
        assert good["mean_T"] > 0

    def test_single_replicate_stderr_is_null(self, tmp_path):
        code, data = _run(tmp_path, "run", "--n", "10", "--format", "json")
        assert code == 0
        assert _strict_json(data)["rows"][0]["stderr_T"] is None

    def test_record_without_completed_runs(self, tmp_path):
        # one offspring per iteration cannot add seven fit members in one step
        code, data = _run(tmp_path, "takeover", "--n", "40", "--mu", "8",
                          "--lambda", "1", "--max-iterations", "1",
                          "--replicates", "3", "--format", "json")
        assert code == 3
        rec = _strict_json(data)
        assert rec["completed"] == 0 and rec["mean"] is None


_BASE_ARGV = {"run": ("--n", "10"), "sweep": ("--n", "10"),
              "dominance": ("--n", "10"),
              "takeover": ("--n", "10", "--mu", "2", "--lambda", "2"),
              "ea0": ("--n", "10", "--mu", "2", "--lambda", "2"),
              "bounds": ("--n", "10"), "tree": ("--n", "8", "--t", "2", "--ell", "1"),
              "fit": ("--in", "table.csv")}


#: flags a command does not take, though it once accepted them
_UNREAD = [(c, "--tie") for c in ("run", "sweep", "dominance")] + [
    (c, f) for c, flags in (
        ("takeover", ("--budget-mult", "--workers")),
        ("ea0", ("--budget-mult", "--workers")),
        ("bounds", ("--seed", "--replicates", "--budget-mult", "--workers")),
        ("tree", ("--replicates", "--budget-mult", "--workers")),
        ("fit", ("--seed", "--replicates", "--budget-mult", "--workers")))
    for f in flags]


#: the smallest argv of each command that n = 1 alone makes invalid
_N_ONE_ARGV = {"run": (), "sweep": (), "bounds": (),
               "dominance": ("--replicates", "3"),
               "takeover": ("--mu", "2", "--lambda", "2", "--replicates", "3"),
               "ea0": ("--mu", "2", "--lambda", "2", "--replicates", "3"),
               "tree": ("--t", "2", "--ell", "1")}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(_N_ONE_ARGV))
    def test_n_below_two_rejected(self, tmp_path, capsys, command):
        # the bounds, and the budget derived from them, need n >= 2
        code, data = _run(tmp_path, command, "--n", "1", *_N_ONE_ARGV[command])
        assert code == 2
        assert capsys.readouterr().err == "error: n must be >= 2\n"
        if command != "sweep":      # sweep still writes its table of error rows
            assert data == b""

    @pytest.mark.parametrize("command,flag", _UNREAD, ids=[f"{c} {f}" for c, f in _UNREAD])
    def test_unread_flag_exits_validation(self, tmp_path, capsys, command, flag):
        value = "offspring-first" if flag == "--tie" else "1"
        code, data = _run(tmp_path, command, *_BASE_ARGV[command], flag, value)
        assert code == 2 and data == b""
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    def test_readme_commands_parse(self):
        # the README's command block may only show flags the parser accepts
        block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        lines = [line for line in block.split("```", 2)[1].splitlines()
                 if line.startswith("ealab ")]
        assert len(lines) >= 8
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    def test_readme_flag_list_matches_parser(self):
        # each "- `command`: `--flag ...`" line lists exactly the command's
        # flags besides --out, --format and --config
        text = README.read_text(encoding="utf-8")
        listed = {m.group(1): set(re.findall(r"--[\w-]+", m.group(2)))
                  for m in re.finditer(r"^- `(\w+)`: (.*)$", text, re.MULTILINE)}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        taken = {name: {flag for action in sp._actions for flag in action.option_strings
                        if flag not in ("-h", "--help", "--out", "--format", "--config")}
                 for name, sp in sub.choices.items()}
        assert listed == taken


_BUDGET_MULTS = ["nan", "inf", "-1", "0", "0.5", "10"]
_COMMANDS = ["run", "sweep", "takeover", "ea0", "dominance", "bounds", "tree", "fit"]
_REPLICATED = ("run", "sweep", "takeover", "ea0", "dominance")
_BATCHED = ("run", "sweep", "dominance")
_INT_CELLS = ["0", "1", "-1", "12"]
_FLOAT_CELLS = ["0", "0.0", "2.5", "-3.5", "nan", "inf"]
_ODD_CELLS = ["plus", "comma", "fairplus", "", "x"]


def _fit_table(draw):
    # a header that is right or wrong, then rows that are well-formed, short,
    # long or have a cell of the wrong type
    header = list(CSV_COLUMNS)
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.sampled_from([header[:-1], header[::-1], ["n", "mu"], []]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 2)):
            cells = [draw(st.sampled_from(
                ["plus", "comma", "fairplus"] if col == "variant"
                else _INT_CELLS if col in ("n", "mu", "lambda", "replicates", "exhausted")
                else _FLOAT_CELLS)) for col in CSV_COLUMNS]
        else:
            cells = [draw(st.sampled_from(_INT_CELLS + _FLOAT_CELLS + _ODD_CELLS))
                     for _ in range(draw(st.integers(0, 14)))]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def _small_argv(draw):
    """(argv, table): table is the bytes `fit --in` reads, else None."""
    command = draw(st.sampled_from(_COMMANDS))

    def value(lo, hi, edges=(0, -1)):
        # mostly in [lo, hi], one time in eight an edge value
        return draw(st.integers(lo, hi) if draw(st.integers(0, 7)) else st.sampled_from(edges))

    argv = [command]
    if command == "fit":
        argv += ["--in", "TABLE"]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--in-format", "json"]
        return argv + ["--format", draw(st.sampled_from(["csv", "json"]))], _fit_table(draw)
    n, mu = value(2, 40, (0, 1)), value(1, 8)
    lam = mu if draw(st.booleans()) else value(1, 8)
    if command == "tree":
        t = value(0, 2000)
        lam = value(1, 10 ** 5) if draw(st.booleans()) else value(1, 8)
        argv += ["--t", str(t), "--ell", str(value(0, min(max(t, 0), 40), (-1, t + 1)))]
        if draw(st.booleans()):
            argv += ["--samples", str(value(1, 50))]
        if draw(st.booleans()):
            argv += ["--hamming", str(value(1, max(n, 1), (0, n + 1)))]
    ns = [n] + ([value(2, 40, (0, 1))] if command == "sweep" and draw(st.booleans()) else [])
    argv += ["--n", ",".join(map(str, ns)), "--mu", str(mu), "--lambda", str(lam)]
    if command in _REPLICATED:
        argv += ["--replicates", str(value(1, 3))]
    if command != "bounds":
        argv += ["--seed", str(draw(st.integers(0, 2 ** 32)))]
    if command in _BATCHED and draw(st.booleans()):
        argv += ["--budget-mult", draw(st.sampled_from(_BUDGET_MULTS))]
    if command in ("run", "takeover", "ea0") and draw(st.booleans()):
        argv += ["--max-iterations", str(draw(st.integers(0, 50)))]
    if command in _BATCHED and draw(st.booleans()):
        argv += ["--workers", str(draw(st.integers(0, 2)))]
    if command in ("run", "sweep"):
        argv += ["--variant", draw(st.sampled_from(["plus", "comma", "fairplus"]))]
    if command == "dominance":
        for side in ("--variant-a", "--variant-b"):
            argv += [side, draw(st.sampled_from(["plus", "comma", "fairplus"]))]
    if command in ("run", "sweep", "dominance") and draw(st.booleans()):
        argv += ["--fitness", "multiopt", "--k", str(value(0, 4))]
    if command == "takeover":
        argv += ["--i", str(value(0, max(n - 1, 0), (-1, n)))]
    if command in ("takeover", "ea0"):
        j1 = value(1, max(mu - 1, 1))
        argv += ["--j1", str(j1), "--j2", str(value(j1 + 1, max(mu, j1 + 1), (j1, mu + 1)))]
    if command == "bounds":
        for flag, lo, hi in (("--j1", 1, mu), ("--j2", 1, mu), ("--i", 0, n), ("--mu0", 1, mu)):
            if draw(st.booleans()):
                argv += [flag, str(value(lo, max(lo, hi), (0, -1, hi + 1)))]
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return argv, None


@given(_small_argv())
@settings(max_examples=160, deadline=None)
def test_small_argv_exits_cleanly(case):
    argv, table = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if table is not None:
            path = os.path.join(tmp, "table.csv")
            with open(path, "wb") as fh:
                fh.write(table)
            argv = [path if a == "TABLE" else a for a in argv]
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", os.devnull])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", _COMMANDS)
def test_help_exits_ok(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: ealab {command} ")
    assert "--out" in out and "--format" in out and "--config" in out


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# small smoke experiment\n"
            "n = 10\n"
            "mu = 4\n"
            "lambda = 4\n"
            "replicates = 6\n")
        code, data = _run(tmp_path, "run", "--config", str(cfg),
                          "--mu", "2", "--lambda", "3", "--seed", "5")
        assert code == 0
        row = data.decode().splitlines()[1]
        assert row.startswith("10,2,3,plus,6,")

    def test_missing_file(self, tmp_path):
        code, _ = _run(tmp_path, "run", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2


class TestFitPipeline:
    def test_sweep_then_fit(self, tmp_path):
        table = tmp_path / "table.csv"
        code = main(["sweep", "--n", "10,14", "--mu", "1", "--lambda", "1",
                     "--replicates", "30", "--seed", "13", "--out", str(table)])
        assert code == 0
        code, data = _run(tmp_path, "fit", "--in", str(table))
        assert code == 0
        rec = json.loads(data)
        assert rec["rows_used"] == 2
        assert rec["spread"] >= 1.0

    def test_empty_table_exits_no_data(self, tmp_path):
        table = tmp_path / "empty.csv"
        table.write_text(",".join(CSV_COLUMNS) + "\n")
        code, _ = _run(tmp_path, "fit", "--in", str(table))
        assert code == 3

    def test_zero_runtime_rows_are_not_fitted(self, tmp_path):
        # multiopt with k = n: every string is optimal, so every T is 0
        table = tmp_path / "table.csv"
        code = main(["sweep", "--n", "10", "--fitness", "multiopt", "--k", "10",
                     "--replicates", "3", "--out", str(table)])
        assert code == 0
        code, data = _run(tmp_path, "fit", "--in", str(table))
        assert code == 3
        assert json.loads(data)["rows_used"] == 0


    def test_short_row_exits_validation(self, tmp_path, capsys):
        table = tmp_path / "short.csv"
        table.write_text(",".join(CSV_COLUMNS) + "\n10,1,1\n")
        code, data = _run(tmp_path, "fit", "--in", str(table))
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: table row 1") and err.count("\n") == 1


class TestMeasurementCommands:
    def test_tree_counts(self, tmp_path):
        code, data = _run(tmp_path, "tree", "--n", "8", "--t", "3",
                          "--lambda", "2", "--ell", "2")
        assert code == 0
        rec = json.loads(data)
        assert rec["count_at_distance"] == 12
        assert rec["total_nodes"] == 27
        assert 0.0 <= rec["q_opt"] <= 1.0

    def test_tree_with_sampling(self, tmp_path):
        code, data = _run(tmp_path, "tree", "--n", "8", "--t", "2",
                          "--lambda", "2", "--ell", "1", "--samples", "2000",
                          "--seed", "6")
        assert code == 0
        rec = json.loads(data)
        assert rec["samples"] == 2000
        assert rec["within"] is True
        keys = list(rec)
        assert keys.index("exact") == keys.index("hits") + 1
        assert rec["exact"] == pytest.approx(
            oracles.exact_hit_rate_one_mutation(8, 2), rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("--t", "1100", "--n", "8", "--ell", "1"),
        ("--t", "70", "--lambda", "100000", "--n", "8", "--ell", "1"),
    ], ids=["long-horizon", "wide-tree"])
    def test_tree_bound_past_float_range(self, tmp_path, argv):
        code, data = _run(tmp_path, "tree", *argv)
        assert code == 0
        rec = _strict_json(data)
        assert rec["q_opt_raw"] is None and rec["q_opt"] == 1.0

    def test_tree_too_many_digits(self, tmp_path, capsys):
        code, data = _run(tmp_path, "tree", "--t", "15000", "--n", "8",
                          "--ell", "1", "--mu", "1000")
        assert code == 2 and data == b""
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="integers print at any length")
    def test_tree_digit_limit_is_exact(self, tmp_path):
        # 10^t has t + 1 digits
        limit = sys.get_int_max_str_digits()
        ok, _ = _run(tmp_path, "tree", "--t", str(limit - 1), "--lambda", "9",
                     "--n", "8", "--ell", "1")
        too_long, _ = _run(tmp_path, "tree", "--t", str(limit), "--lambda", "9",
                           "--n", "8", "--ell", "1")
        assert (ok, too_long) == (0, 2)

    def test_takeover(self, tmp_path):
        code, data = _run(tmp_path, "takeover", "--n", "10", "--mu", "2",
                          "--lambda", "2", "--replicates", "50", "--seed", "2")
        assert code == 0
        rec = json.loads(data)
        assert rec["completed"] == 50
        assert rec["mean"] >= 1.0
        assert "bound_general" in rec

    def test_marker_takeover_caps_lambda(self, tmp_path, capsys):
        # i = 0 builds every offspring; i >= 1 runs on the fitness levels
        code, _ = _run(tmp_path, "takeover", "--n", "20", "--mu", "4", "--i", "0",
                       "--j1", "1", "--j2", "4", "--lambda", str(10 ** 6 + 1))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: takeover at i = 0 builds all lambda offspring each iteration: "
            "needs lambda <= 1000000\n")
        code, data = _run(tmp_path, "takeover", "--n", "50", "--mu", "4", "--i", "25",
                          "--j1", "1", "--j2", "4", "--lambda", str(10 ** 7),
                          "--replicates", "3")
        assert code == 0
        assert json.loads(data)["completed"] == 3

    def test_ea0(self, tmp_path):
        code, data = _run(tmp_path, "ea0", "--n", "10", "--mu", "4",
                          "--lambda", "8", "--j1", "1", "--j2", "4",
                          "--replicates", "50", "--seed", "2")
        assert code == 0
        rec = json.loads(data)
        assert rec["mean"] >= 1.0
        assert "growth_lb" in rec

    def test_ea0_huge_lambda(self, tmp_path):
        code, data = _run(tmp_path, "ea0", "--n", "50", "--mu", "4",
                          "--lambda", "1000000000", "--replicates", "5")
        assert code == 0
        assert json.loads(data)["mean"] >= 1.0

    def test_dominance(self, tmp_path):
        code, data = _run(tmp_path, "dominance", "--n", "10", "--mu", "2",
                          "--lambda", "2", "--replicates", "60", "--seed", "3")
        assert code == 0
        rec = json.loads(data)
        assert rec["variant_a"] == "plus"
        assert rec["variant_b"] == "comma"
        assert "p_value" in rec


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ealab", "bounds", "--n", "10"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "total" in proc.stdout

    def test_import_leaves_scipy_unloaded(self):
        # scipy is most of the start-up time and only dominance needs it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ealab.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_runtime_loads_neither_numpy_nor_scipy(self):
        # ealab needs only the standard library; numpy and scipy are test oracles
        code = (
            "import math, sys, ealab.cli\n"
            "from ealab import EaConfig, OneMax, Variant, compare_dominance, summarize\n"
            "rep = compare_dominance(EaConfig(10, 2, 2, seed=1),\n"
            "                        EaConfig(10, 2, 2, Variant.COMMA, seed=2), OneMax(10), 30)\n"
            "assert math.isfinite(rep.p_value) and summarize([3, 1, 2]).median == 2.0\n"
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ealab", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "sweep" in proc.stdout
