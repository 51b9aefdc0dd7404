"""Sweep orchestration, ratio fits, dominance tests, and table round trips."""

import dataclasses
import json
import math
import random

import pytest
import scipy.stats as sps

from ealab import (CSV_COLUMNS, ConfigError, EaConfig, ExperimentRow,
                   ExperimentTable, OneMax, SweepSpec, Variant,
                   compare_dominance, emit, fit_ratio, master_bound, mix64,
                   parse_table, run_cell, sweep)
from ealab.harness import mannwhitneyu


def _eq(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def _rows_equal(r1, r2):
    return all(_eq(getattr(r1, f.name), getattr(r2, f.name))
               for f in dataclasses.fields(ExperimentRow))


def _row(mean, bound, exhausted=0, error=None):
    nan = float("nan")
    finite = error is None and not math.isnan(mean)
    return ExperimentRow(
        n=10, mu=1, lam=1, variant="plus", replicates=10,
        mean_T=mean, stderr_T=0.1 if finite else nan,
        median_T=mean if finite else nan, q10=mean if finite else nan,
        q90=mean if finite else nan, exhausted=exhausted, bound_total=bound,
        ratio=mean / bound if finite else nan, error=error)


class TestSweep:
    def test_single_cell_matches_direct_run(self):
        spec = SweepSpec(ns=(20,), mus=(2,), lams=(3,), replicates=50, seed=9)
        table = sweep(spec)
        assert len(table) == 1

        bound = master_bound(20, 2, 3).total
        cfg = EaConfig(20, 2, 3, Variant.PLUS, 1.0,
                       int(math.ceil(10.0 * bound)), mix64(9, 0))
        direct = run_cell(cfg, OneMax(20), 50)
        assert _rows_equal(table.rows[0], direct)

    def test_lambda_grid_speeds_up(self):
        spec = SweepSpec(ns=(64,), mus=(1,), lams=(1, 2, 4, 8),
                         replicates=300, seed=77)
        rows = sweep(spec, workers=4).rows
        assert all(r.exhausted == 0 for r in rows)
        for prev, cur in zip(rows, rows[1:]):
            noise = 3 * (prev.stderr_T ** 2 + cur.stderr_T ** 2) ** 0.5
            assert cur.mean_T <= prev.mean_T + noise

    def test_deterministic_bytes(self):
        spec = SweepSpec(ns=(12, 16), mus=(2,), lams=(4,), replicates=20, seed=3)
        assert emit(sweep(spec), "csv") == emit(sweep(spec), "csv")

    def test_invalid_cell_becomes_error_row(self):
        spec = SweepSpec(ns=(12,), mus=(4,), lams=(2, 4),
                         variant=Variant.COMMA, replicates=5, seed=1)
        table = sweep(spec)
        bad, good = table.rows
        assert bad.error is not None
        assert math.isnan(bad.mean_T)
        assert good.error is None
        completed = sum(r.replicates - r.exhausted for r in table.rows if r.error is None)
        assert completed == 5 - good.exhausted

    def test_spec_validation(self):
        # construction validates, so each bad spec is built inside the block
        for kwargs in ({"ns": ()}, {"replicates": 0}, {"budget_mult": 0.0},
                       {"fitness": "nope"}):
            with pytest.raises(ConfigError):
                SweepSpec(**{"ns": (8,), "mus": (1,), "lams": (1,), **kwargs})


class TestRatioFit:
    def test_tight_rows(self):
        fit = fit_ratio(ExperimentTable((_row(50.0, 50.0), _row(80.0, 80.0))))
        assert fit.min_ratio == fit.max_ratio == 1.0
        assert fit.spread == 1.0
        assert fit.rows_used == 2
        assert not fit.no_data

    def test_constant_factor(self):
        fit = fit_ratio(ExperimentTable((_row(150.0, 50.0),)))
        assert fit.min_ratio == pytest.approx(3.0)
        assert fit.spread == pytest.approx(1.0)

    def test_excludes_unusable_rows(self):
        nan = float("nan")
        rows = (_row(50.0, 25.0),
                _row(60.0, 30.0, exhausted=2),
                _row(nan, nan, error="bad cell"))
        fit = fit_ratio(ExperimentTable(rows))
        assert fit.rows_used == 1
        assert fit.min_ratio == pytest.approx(2.0)

    def test_excludes_zero_ratio(self):
        # every replicate started at an optimum: T = 0 says nothing about spread
        fit = fit_ratio(ExperimentTable((_row(0.0, 25.0), _row(50.0, 25.0))))
        assert fit.rows_used == 1
        assert fit.spread == 1.0
        assert fit_ratio(ExperimentTable((_row(0.0, 25.0),))).no_data

    def test_no_data(self):
        fit = fit_ratio(ExperimentTable(()))
        assert fit.no_data
        assert fit.rows_used == 0
        assert math.isnan(fit.spread)

    def test_scale_invariance(self):
        base = ExperimentTable((_row(40.0, 20.0), _row(90.0, 30.0)))
        scaled = ExperimentTable(tuple(
            dataclasses.replace(r, mean_T=r.mean_T * 7, bound_total=r.bound_total * 7)
            for r in base.rows))
        a, b = fit_ratio(base), fit_ratio(scaled)
        assert a.min_ratio == pytest.approx(b.min_ratio)
        assert a.spread == pytest.approx(b.spread)


class TestDominance:
    def test_identical_settings_tie(self):
        f = OneMax(20)
        rep = compare_dominance(EaConfig(20, 2, 4, seed=101),
                                EaConfig(20, 2, 4, seed=202), f, 2000)
        assert abs(rep.mean_diff) <= 3 * rep.pooled_se
        assert rep.p_value > 0.001

    def test_fair_assignment_close_to_uniform(self):
        f = OneMax(50)
        rep = compare_dominance(
            EaConfig(50, 8, 8, Variant.PLUS, seed=11),
            EaConfig(50, 8, 8, Variant.FAIRPLUS, seed=12), f, 300)
        ratio = rep.stats_a.mean / rep.stats_b.mean
        assert 1 / 3 <= ratio <= 3

    def test_mismatched_shapes_rejected(self):
        f = OneMax(20)
        with pytest.raises(ConfigError):
            compare_dominance(EaConfig(20, 2, 4, seed=1),
                              EaConfig(20, 2, 8, seed=2), f, 10)


class TestMannWhitney:
    """The one-sided test against scipy's default method on both branches:
    exact when the smaller sample has at most 8 members and nothing ties,
    otherwise the normal approximation with tie and continuity corrections."""

    @staticmethod
    def _pair(n1, n2, ties, seed):
        rng = random.Random(seed)
        if ties:
            return ([rng.randint(0, 6) for _ in range(n1)],
                    [rng.randint(1, 7) for _ in range(n2)])
        values = rng.sample(range(10 ** 6), n1 + n2)
        shift = rng.choice([0, 10 ** 5])
        return values[:n1], [v + shift for v in values[n1:]]

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 7), (1, 50), (7, 1), (3, 5),
                                       (8, 8), (8, 200), (200, 8), (9, 9),
                                       (9, 40), (60, 45)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scipy(self, n1, n2, ties, seed):
        x, y = self._pair(n1, n2, ties, seed)
        u, p = mannwhitneyu(x, y)
        ref = sps.mannwhitneyu(x, y, alternative="less")
        assert u == ref.statistic
        assert abs(p - ref.pvalue) <= 1e-12 * ref.pvalue

    def test_all_tied(self):
        u, p = mannwhitneyu([5, 5, 5], [5] * 12)
        assert (u, p) == (18.0, 1.0)

    def test_direction(self):
        # every x below every y: U of x is 0 and the p-value is 1 / C(n1+n2, n1)
        u, p = mannwhitneyu([1, 2, 3], [4, 5, 6, 7])
        assert (u, p) == (0.0, 1 / 35)
        assert mannwhitneyu([4, 5, 6, 7], [1, 2, 3]) == (12.0, 1.0)


class TestTables:
    def _table(self):
        return sweep(SweepSpec(ns=(10, 14), mus=(2,), lams=(2,),
                               replicates=25, seed=21))

    def test_csv_round_trip(self):
        table = self._table()
        data = emit(table, "csv")
        back = parse_table(data, "csv")
        assert len(back) == len(table)
        for r1, r2 in zip(table.rows, back.rows):
            assert _rows_equal(r1, r2)

    def test_json_round_trip(self):
        table = self._table()
        back = parse_table(emit(table, "json"), "json")
        for r1, r2 in zip(table.rows, back.rows):
            assert _rows_equal(r1, r2)

    def test_json_is_strict_and_round_trips_nan(self):
        table = ExperimentTable((_row(50.0, 25.0), _row(float("nan"), float("nan"),
                                                         error="bad cell")))
        data = emit(table, "json")

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        rows = json.loads(data, parse_constant=reject)["rows"]
        assert rows[1]["mean_T"] is None and rows[1]["error"] == "bad cell"
        back = parse_table(data, "json")
        for r1, r2 in zip(table.rows, back.rows):
            assert _rows_equal(r1, r2)
        assert b"nan" in emit(table, "csv")

    def test_formats_agree_on_numbers(self):
        table = self._table()
        via_csv = parse_table(emit(table, "csv"), "csv")
        via_json = parse_table(emit(table, "json"), "json")
        for r1, r2 in zip(via_csv.rows, via_json.rows):
            assert _rows_equal(r1, r2)

    def test_quantiles_bracket_mean_or_warn(self):
        for row in self._table().rows:
            assert (row.q10 <= row.mean_T <= row.q90) or row.skew_warned

    def test_header_only_for_empty_table(self):
        data = emit(ExperimentTable(()), "csv")
        assert data.decode() == ",".join(CSV_COLUMNS) + "\n"

    def test_header_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            parse_table(b"a,b,c\n1,2,3\n", "csv")
        with pytest.raises(ConfigError):
            parse_table(b"", "csv")

    def test_malformed_rows_rejected(self):
        header = ",".join(CSV_COLUMNS) + "\n"
        good = emit(ExperimentTable((_row(50.0, 25.0),)), "csv").decode().splitlines()[1]
        bad_csv = ["10,1,1\n",                                  # short row
                   good + ",7\n",                               # extra field
                   good.replace("10,1,1,plus", "ten,1,1,plus", 1) + "\n"]
        for line in bad_csv:
            with pytest.raises(ConfigError, match="row 1"):
                parse_table((header + line).encode(), "csv")
        record = json.loads(emit(ExperimentTable((_row(50.0, 25.0),)), "json"))["rows"][0]
        for key, value in (("mean_T", None), ("mu", "two")):
            rec = dict(record)
            if value is None:
                del rec[key]
            else:
                rec[key] = value
            with pytest.raises(ConfigError, match=key):
                parse_table(json.dumps({"rows": [rec]}), "json")
        for data in (b"{", b"[]", b'{"rows": [1]}', b"\xff"):
            with pytest.raises(ConfigError):
                parse_table(data, "json")

    def test_unknown_format_rejected(self):
        table = ExperimentTable(())
        with pytest.raises(ConfigError):
            emit(table, "yaml")
        with pytest.raises(ConfigError):
            parse_table(b"", "yaml")
