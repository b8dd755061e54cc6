import cmath
import csv
import json
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from conftest import z_by_collections
from mlve import cli
from mlve.bounds import borel_domain
from mlve.mayer import PolymerGas


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, **overrides):
    cfg = {
        "lambda": 0.1,
        "M": 2,
        "j_min": 1,
        "j_max": 2,
        "n_max": 2,
        "oracle_nodes": 200,
        "gl_nodes": 8,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestCompare:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "orders.csv").open()))
        assert [r["n"] for r in rows] == ["1", "2"]
        errs = [float(r["abs_error_vs_oracle"]) for r in rows]
        assert errs[1] < errs[0]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 2
        assert len(summary["orders"]) == 2

    def test_default_config_converges(self, tmp_path):
        # no --config: the CLI defaults, lambda = 0.2, M = 2, j = 1..3, n_max = 3
        out = tmp_path / "out"
        assert run_cli(["compare", "--out", str(out)]) == 0
        errs = [float(r["abs_error_vs_oracle"]) for r in csv.DictReader((out / "orders.csv").open())]
        assert len(errs) == 3
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-9

    def test_complex_coupling_on_a_long_slice(self, tmp_path):
        # slice 1 is [1, 99], past the direct-sum limit; on the sigma grid
        # Re(1 - i lam sigma) < 0 falls in the swept head, the rest in the
        # -V series
        cfg = write_config(tmp_path, **{"lambda": [0.15, 0.1], "M": 100, "j_max": 3, "n_max": 3, "gl_nodes": 12})
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        errs = [float(r["abs_error_vs_oracle"]) for r in csv.DictReader((out / "orders.csv").open())]
        assert errs[0] > errs[1] > errs[2] and errs[2] < 2e-7

    def test_zero_coupling_all_rows_zero(self, tmp_path):
        cfg = write_config(tmp_path, **{"lambda": 0.0})
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        for row in csv.DictReader((out / "orders.csv").open()):
            assert float(row["partial_sum_re"]) == 0.0
            assert float(row["abs_error_vs_oracle"]) == 0.0

    def test_missing_config_exits_two(self, tmp_path):
        out = tmp_path / "nothing"
        with pytest.raises(SystemExit) as err:
            run_cli(["compare", "--config", str(tmp_path / "absent.json"), "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "oracle"])
    @pytest.mark.parametrize("text", ["5", "null", '[["lambda", 0.3]]', "[]"], ids=["number", "null", "pairs", "empty-list"])
    def test_config_not_an_object_exits_two(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            run_cli([command, "--config", str(path), "--out", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: config must be a JSON object")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["bogus", "gh_nodes"])
    def test_unknown_config_key_exits_two(self, tmp_path, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lambda": 0.1, key: 1}), encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            run_cli(["compare", "--config", str(path), "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("compare", "n_max", 8),
            ("compare", "n_max", 0),
            ("compare", "n_max", 2.7),
            ("compare", "n_max", "x"),
            ("compare", "gl_nodes", 0),
            ("compare", "gl_nodes", -1),
            ("compare", "oracle_nodes", 0),
            ("compare", "oracle_nodes", 49),
            ("oracle", "oracle_nodes", 0),
            ("compare", "M", 2.7),
            ("compare", "M", 1),
            ("compare", "j_min", "1"),
            ("compare", "j_max", None),
            ("compare", "lambda", True),
            ("compare", "lambda", [0.2, "a"]),
            ("compare", "lambda", [0.2, False]),
            ("compare", "lambda", float("nan")),
            pytest.param("compare", "lambda", 10**309, id="compare-lambda-1e309"),
            ("oracle", "M", 2.7),
            ("oracle", "lambda", True),
            # a dict is a set of overrides that together make key bad: order
            # 5 over five slices reaches a 5-vertex block past BLOCK_BUDGET
            pytest.param(
                "compare", "n_max", {"j_max": 5, "n_max": 5}, id="compare-n_max-5-over-5-slices"
            ),
            ("compare", "oracle_nodes", 1601),
            ("oracle", "oracle_nodes", 10**6),
            ("compare", "gl_nodes", 25),
        ],
    )
    def test_bad_setting_exits_two_before_any_work(self, tmp_path, capsys, monkeypatch, command, key, value):
        from mlve import oracle

        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran before the config was checked")

        monkeypatch.setattr(oracle, "logz_oracle", no_oracle)
        monkeypatch.setattr(oracle, "z_reliable", no_oracle)
        cfg = write_config(tmp_path, **(value if isinstance(value, dict) else {key: value}))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            run_cli([command, "--config", str(cfg), "--out", str(out)])
        assert err.value.code == 2
        wanted = "a finite number" if key == "lambda" else "an integer"
        assert capsys.readouterr().err.startswith(f"error: {key} must be {wanted}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param("compare", '{"M": 1%s, "j_max": 1, "n_max": 1}' % ("0" * 309), id="compare-M-1e309"),
            pytest.param("oracle", '{"M": 1%s, "j_max": 1, "n_max": 1}' % ("0" * 309), id="oracle-M-1e309"),
            pytest.param("compare", '{"M": 2, "j_min": 1030, "j_max": 1030, "n_max": 1}', id="compare-j-1030"),
            pytest.param("compare", '{"M": 1%s}' % ("0" * 4400), id="compare-M-4401-digits"),
        ],
    )
    def test_huge_integer_exits_two(self, tmp_path, capsys, command, text):
        # a cutoff past the float range and an integer past Python's digit
        # limit are usage errors
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            run_cli([command, "--config", str(path), "--out", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_cutoff_inside_the_float_range_runs(self, tmp_path):
        path = tmp_path / "large.json"
        path.write_text('{"M": 1%s, "j_max": 1, "n_max": 1}' % ("0" * 308), encoding="utf-8")
        assert run_cli(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_coupling_outside_the_domain_exits_two(self, tmp_path, capsys):
        # lambda = 0.2 + 0.5i has |lambda|^2 > cos(2 gamma): node doubling
        # cannot settle the quadrature Z, so there is no reference to compare to
        cfg = write_config(tmp_path, **{"lambda": [0.2, 0.5]})
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            run_cli(["compare", "--config", str(cfg), "--out", str(out)])
        assert err.value.code == 2
        assert "node doubling moved Z" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "oracle"])
    def test_huge_coupling_exits_two(self, tmp_path, capsys, command):
        # lambda = 1e308 is finite, but lambda * sigma overflows on the
        # quadrature nodes: no Z, so one usage error, with no warning on
        # the way and no oracle.json holding NaN.  At M = 16 slice 2 is a
        # long window, whose head reaches past it
        for i, (lam, M) in enumerate([(1e308, 2), (1e308, 16), ([1e300, 1e300], 2), ([1e300, 1e300], 16)]):
            cfg = write_config(tmp_path, **{"lambda": lam, "M": M})
            out = tmp_path / f"o{i}"
            with warnings.catch_warnings(), pytest.raises(SystemExit) as err:
                warnings.simplefilter("error")
                run_cli([command, "--config", str(cfg), "--out", str(out)])
            assert err.value.code == 2
            stderr = capsys.readouterr().err
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert "not finite" in stderr
            assert not out.exists()

    def test_head_past_the_window_exits_two_on_z(self, tmp_path, capsys):
        # at lambda = 1e5 the swept head of slice 2 = [16, 255] covers the
        # whole window; the quadrature is finite and Z is what fails
        cfg = write_config(tmp_path, **{"lambda": 1e5, "M": 16})
        out = tmp_path / "o"
        with warnings.catch_warnings(), pytest.raises(SystemExit) as err:
            warnings.simplefilter("error", RuntimeWarning)
            run_cli(["compare", "--config", str(cfg), "--out", str(out)])
        assert err.value.code == 2
        assert "too close to zero" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_config_key_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, threads=1)
        with pytest.raises(SystemExit) as err:
            run_cli(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_cli(["compare", "--config", str(cfg), "--out", str(out1), "--trace"])
        run_cli(["compare", "--config", str(cfg), "--out", str(out2), "--trace"])
        for name in ("orders.csv", "summary.json", "trace.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_trace_records(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run_cli(["compare", "--config", str(cfg), "--out", str(out), "--trace"])
        lines = (out / "trace.jsonl").read_text().strip().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert set(rec) == {"n", "class", "stabilizer", "bosonic", "fermionic", "slices", "value"}

    def test_each_order_of_classes_is_grown_once(self, tmp_path, monkeypatch):
        # order m is grown from the classes of order m - 1, by a leaf of
        # either kind at each of their m - 1 vertices, and then each of its
        # classes gets its automorphisms: one canonical form apiece
        from mlve import combinatorics, engine

        grown = Counter()
        form = combinatorics._canonical_form
        monkeypatch.setattr(combinatorics, "_canonical_form", lambda jungle: grown.update([jungle.n]) or form(jungle))
        combinatorics.jungle_classes.cache_clear()
        engine._order_plan.cache_clear()
        cfg = write_config(tmp_path, n_max=6)
        assert run_cli(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        sizes = [0] + [len(combinatorics.jungle_classes(m)) for m in range(1, 7)]
        assert grown == {m: sizes[m] + 2 * (m - 1) * sizes[m - 1] for m in range(1, 7)}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lambda": 0.2, "j_max": 3, "n_max": 6, "gl_nodes": 12},
            {"lambda": [0.3, 0.1], "j_max": 3, "n_max": 5, "gl_nodes": 12},
        ],
        ids=["default-n6", "complex-n5"],
    )
    def test_cold_and_warm_plans_write_the_same_bytes(self, tmp_path, overrides):
        # the first compare builds the order plans, the second reads them
        from mlve import engine

        engine._order_plan.cache_clear()
        engine._fermionic_integral.cache_clear()
        cfg = write_config(tmp_path, **overrides)
        written = []
        for run in ("cold", "warm"):
            out = tmp_path / run
            assert run_cli(["compare", "--config", str(cfg), "--out", str(out), "--trace"]) == 0
            written.append({name: (out / name).read_bytes() for name in ("orders.csv", "summary.json", "trace.jsonl")})
        assert written[0] == written[1]

    def test_trace_rows_sum_to_the_orders(self, tmp_path):
        # each row is one term class: value / stabilizer summed over the rows
        # of order n, in row order, is summary.json's orders[n] exactly
        from mlve.combinatorics import jungle_classes

        cfg = write_config(tmp_path, n_max=4)
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", str(cfg), "--out", str(out), "--trace"]) == 0
        recs = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        summary = json.loads((out / "summary.json").read_text())
        totals = [0j] * 4
        for rec in recs:
            jungle, _ = jungle_classes(rec["n"])[rec["class"]]
            assert rec["bosonic"] == [list(e) for e in sorted(jungle.bosonic.edges)]
            assert rec["fermionic"] == [list(e) for e in sorted(jungle.fermionic)]
            totals[rec["n"] - 1] += complex(*rec["value"]) / rec["stabilizer"]
        assert [[t.real, t.imag] for t in totals] == summary["orders"]
        # two slices: the all-Fermionic path at n = 3 carries two classes,
        # one on each slice
        assert max(sum(rec["n"] == 3 and rec["class"] == c for rec in recs) for c in range(3)) == 2

    def test_kernel_rows_stop_at_n_max(self, tmp_path, monkeypatch):
        # blocks of order <= 2 read d^0 W_j and d^1 W_j only, so each slice
        # is swept at q = 1
        from mlve import engine

        sweeps = []
        sweep = engine.dw_grid

        def counted(params, j, q, sigma):
            sweeps.append((j, q))
            return sweep(params, j, q, sigma)

        monkeypatch.setattr(engine, "dw_grid", counted)
        cfg = write_config(tmp_path, j_max=3, n_max=2)
        assert run_cli(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert sorted(sweeps) == [(1, 1), (2, 1), (3, 1)]

    def test_order_five_at_the_default_config(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_max": 5}), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        errs = [float(r["abs_error_vs_oracle"]) for r in csv.DictReader((out / "orders.csv").open())]
        assert len(errs) == 5
        assert errs[4] < errs[3] and errs[4] < 2e-11

    def test_order_six_at_the_default_config(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_max": 6}), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        errs = [float(r["abs_error_vs_oracle"]) for r in csv.DictReader((out / "orders.csv").open())]
        assert len(errs) == 6
        assert errs[5] < errs[4]


class TestVerify:
    def test_selected_suites_pass(self, capsys):
        code = run_cli(["verify", "--suite", "combinatorics", "--suite", "bound-domination", "--suite", "m-threshold"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] combinatorics" in out
        assert "[PASS] bound-domination" in out
        assert "WARN" in out  # the documented q=1 threshold discrepancy

    def test_unknown_suite_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_fault_injection_is_caught(self, capsys, monkeypatch):
        # miscount the two-level trees and make sure the suite names it
        from mlve import combinatorics

        original = combinatorics.count_two_level_trees
        monkeypatch.setattr(combinatorics, "count_two_level_trees", lambda n: original(n) + 1)
        code = run_cli(["verify", "--suite", "combinatorics"])
        out = capsys.readouterr().out
        assert code == 1
        assert "jungle count" in out

    def test_default_run(self, capsys):
        # every suite, in table order, and the q = 1 threshold WARN does not
        # fail the run; the suites whose checks need the test oracles are gone
        assert run_cli(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = ["combinatorics", "bound-domination", "mayer", "stirling", "m-threshold"]
        assert [line for line in lines if line.startswith("[")] == [f"[PASS] {name}" for name in names]
        assert any(line.startswith("  WARN: documented discrepancy: q=1 at M=1e8") for line in lines)
        for suite in ("forest-formula", "grassmann", "positivity"):
            with pytest.raises(SystemExit) as err:
                run_cli(["verify", "--suite", suite])
            assert err.value.code == 2


class TestEnumerate:
    def test_counts(self, capsys):
        run_cli(["enumerate", "--kind", "jungles", "--n", "3", "--spanning"])
        out = capsys.readouterr().out
        assert "jungles n=3: 12" in out

    def test_edge_lists(self, capsys):
        run_cli(["enumerate", "--kind", "trees", "--n", "3", "--edges"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # 3 trees + the count line
        assert json.loads(lines[0])["edges"]

    @pytest.mark.parametrize("edges", [False, True], ids=["count", "edges"])
    def test_forests(self, capsys, edges):
        # on 3 vertices: the empty forest, 3 single edges and 3 spanning trees
        run_cli(["enumerate", "--kind", "forests", "--n", "3", *(["--edges"] * edges)])
        *records, count = capsys.readouterr().out.strip().splitlines()
        assert count == "forests n=3: 7"
        if edges:
            sizes = Counter(len(json.loads(line)["edges"]) for line in records)
            assert sizes == {0: 1, 1: 3, 2: 3}
        else:
            assert records == []

    @pytest.mark.parametrize(
        "argv",
        [["--kind", "trees", "--n", "9"], ["--kind", "jungles", "--n", "8"], ["--n", "0"]],
        ids=["trees-past-budget", "jungles-past-budget", "n-zero"],
    )
    def test_out_of_range_n_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run_cli(["enumerate", *argv])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestOracleCommand:
    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"lambda": 0.2, "j_max": 3})
        out = tmp_path / "out"
        assert run_cli(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        rec = json.loads((out / "oracle.json").read_text())
        assert rec["reliable"] is True
        assert rec["Z"][0] == pytest.approx(0.9720341382341898, abs=1e-12)

    def test_unreliable_quadrature_exits_one(self, tmp_path, capsys):
        # at lambda = 0.3i on the default window node doubling moves Z by 6.8e-3
        cfg = write_config(tmp_path, **{"lambda": [0, 0.3], "j_max": 3})
        out = tmp_path / "out"
        assert run_cli(["oracle", "--config", str(cfg), "--out", str(out)]) == 1
        rec = json.loads((out / "oracle.json").read_text())
        assert json.loads(capsys.readouterr().out) == rec
        assert rec["reliable"] is False
        assert rec["logZ"] is None
        assert rec["node_doubling_delta"] == pytest.approx(6.8e-3, rel=1e-2)


class TestBoundsCommand:
    def test_tables(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["verify-bounds", "--out", str(out), "--q-max", "50"]) == 0
        rows = list(csv.DictReader((out / "stirling_chain.csv").open()))
        assert len(rows) == 50
        assert all(float(r["margin"]) > 0 for r in rows)
        printed = capsys.readouterr().out
        assert "WARN m-threshold: q=1" in printed

    @pytest.mark.parametrize(
        "argv",
        [["--M", "-1"], ["--M", "0"], ["--M", "1"], ["--M", "nan"], ["--M", "inf"], ["--q-max", "0"], ["--q-max", "-5"]],
        ids=["M-negative", "M-zero", "M-one", "M-nan", "M-inf", "q-max-zero", "q-max-negative"],
    )
    def test_bad_argument_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(["verify-bounds", "--out", str(out), *argv])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestDomainMap:
    def test_grid_matches_disk(self, tmp_path):
        out = tmp_path / "out"
        assert (
            run_cli(
                [
                    "domain-map",
                    "--out",
                    str(out),
                    "--re-min",
                    "-0.2",
                    "--re-max",
                    "1.2",
                    "--im-min",
                    "-0.7",
                    "--im-max",
                    "0.7",
                    "--resolution",
                    "15",
                ]
            )
            == 0
        )
        rows = list(csv.DictReader((out / "domain_map.csv").open()))
        assert len(rows) == 15 * 15
        for row in rows:
            g = complex(float(row["re_g"]), float(row["im_g"]))
            assert int(row["inside"]) == int(borel_domain(g=g).inside) == int(abs(g - 0.5) < 0.5)

    def test_default_grid_is_the_disk_and_the_origin(self, tmp_path):
        # the disk's own boundary point g = 0 is the free theory, counted inside
        out = tmp_path / "out"
        assert run_cli(["domain-map", "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "domain_map.csv").open()))
        assert len(rows) == 41 * 41
        off_disk = [
            (row["re_g"], row["im_g"], row["inside"])
            for row in rows
            if int(row["inside"]) != int(abs(complex(float(row["re_g"]), float(row["im_g"])) - 0.5) < 0.5)
        ]
        assert off_disk == [("0", "0", "1")]

    def test_resolution_past_the_float_range_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(["domain-map", "--out", str(out), "--resolution", str(10**400)])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: --re-min")
        assert not out.exists()

    @pytest.mark.parametrize("resolution", ["1", "0", "-3"])
    def test_resolution_below_two_exits_two(self, tmp_path, resolution):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(["domain-map", "--out", str(out), "--resolution", resolution])
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--re-min", "nan"],
            ["--re-max", "inf"],
            ["--im-min=-inf"],
            ["--im-max", "nan"],
            # finite bounds whose grid overflows: the step itself, and the step times the index
            ["--re-min=-1e308", "--re-max", "1e308"],
            ["--re-max", "1e308", "--resolution", "3"],
        ],
    )
    def test_non_finite_bound_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(["domain-map", "--out", str(out), *argv])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_config_not_offered(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["domain-map", "--config", "x.json", "--out", str(tmp_path / "o")])
        assert err.value.code == 2


class TestMayerCommand:
    @staticmethod
    def write_gas(tmp_path):
        gas = {
            "monomers": [0, 1],
            "activities": [
                {"polymer": [0], "activity": 0.1},
                {"polymer": [1], "activity": 0.1},
                {"polymer": [0, 1], "activity": 0.05},
            ],
        }
        path = tmp_path / "gas.json"
        path.write_text(json.dumps(gas), encoding="utf-8")
        return path

    def test_worked_gas(self, tmp_path):
        path = self.write_gas(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["mayer", "--gas", str(path), "--out", str(out), "--n-max", "4"]) == 0
        rec = json.loads((out / "mayer.json").read_text())
        assert rec["abs_error"] < 1e-3
        assert len(rec["orders"]) == 4
        # the whole record, byte for byte
        pinned = {
            "schema_version": 2,
            "monomers": [0, 1],
            "z_direct": [1.26, 0.0],
            "log_z_direct": 0.23111172096338664,
            "orders": [[0.25, 0.0], [-0.021249999999999998, 0.0], [0.002708333333333333, 0.0], [-0.0004015624999999999, 0.0]],
            "tree_sum": [0.23105677083333334, 0.0],
            "abs_error": 6.923526160651505e-05,
        }
        assert (out / "mayer.json").read_bytes() == (json.dumps(pinned, indent=2) + "\n").encode()

    def test_complex_activity(self, tmp_path):
        gas = {"monomers": [0], "activities": [{"polymer": [0], "activity": [0.1, -0.2]}]}
        path = tmp_path / "gas.json"
        path.write_text(json.dumps(gas), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["mayer", "--gas", str(path), "--out", str(out), "--n-max", "3"]) == 0
        rec = json.loads((out / "mayer.json").read_text())
        a = complex(0.1, -0.2)
        assert rec["z_direct"] == [1.1, -0.2]
        for n, (re, im) in enumerate(rec["orders"], start=1):
            assert abs(complex(re, im) - (-1) ** (n + 1) * a**n / n) < 1e-15

    def test_abs_error_keeps_the_phase(self, tmp_path):
        # Z = 1 + 0.3i and the tree sum through n = 2 is 0.3i + 0.045:
        # |e^(tree sum) - Z| = 0.0091, where the moduli alone differ by 0.0020
        gas = {"monomers": [0], "activities": [{"polymer": [0], "activity": [0, 0.3]}]}
        path = tmp_path / "gas.json"
        path.write_text(json.dumps(gas), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["mayer", "--gas", str(path), "--out", str(out), "--n-max", "2"]) == 0
        rec = json.loads((out / "mayer.json").read_text())
        assert rec["abs_error"] == pytest.approx(abs(cmath.exp(0.045 + 0.3j) - (1 + 0.3j)), rel=1e-12)
        assert rec["abs_error"] == pytest.approx(0.0091, abs=5e-5)

    @staticmethod
    def write_full_gas(tmp_path, m):
        """Every nonempty subset of m monomers is a polymer of activity 0.01."""
        polys = [list(c) for size in range(1, m + 1) for c in combinations(range(m), size)]
        gas = {"monomers": list(range(m)), "activities": [{"polymer": p, "activity": 0.01} for p in polys]}
        path = tmp_path / f"full{m}.json"
        path.write_text(json.dumps(gas), encoding="utf-8")
        return path

    @pytest.mark.parametrize("m, n_max", [(6, 5), (8, 8)])
    def test_full_gas_in_budget(self, tmp_path, m, n_max):
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert run_cli(["mayer", "--gas", str(self.write_full_gas(tmp_path, m)), "--out", str(out), "--n-max", str(n_max)]) == 0
        assert time.perf_counter() - t0 < 1.0
        rec = json.loads((out / "mayer.json").read_text())
        assert len(rec["orders"]) == n_max
        assert complex(*rec["orders"][0]) == pytest.approx(0.01 * (2**m - 1), rel=1e-14)

    def test_full_gas_z_against_collections(self, tmp_path):
        m = 7
        out = tmp_path / "out"
        assert run_cli(["mayer", "--gas", str(self.write_full_gas(tmp_path, m)), "--out", str(out), "--n-max", "2"]) == 0
        rec = json.loads((out / "mayer.json").read_text())
        polys = [frozenset(c) for size in range(1, m + 1) for c in combinations(range(m), size)]
        want = sum(z_by_collections(PolymerGas(frozenset(range(m)), dict.fromkeys(polys, 0.01))))
        assert abs(complex(*rec["z_direct"]) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_n_max_below_one_exits_two(self, tmp_path, capsys, n_max):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(["mayer", "--gas", str(self.write_gas(tmp_path)), "--out", str(out), "--n-max", n_max])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("m, n_max", [(2, 9), (9, 1)])
    def test_past_the_budgets_exits_two(self, tmp_path, capsys, m, n_max):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(["mayer", "--gas", str(self.write_full_gas(tmp_path, m)), "--out", str(out), "--n-max", str(n_max)])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_missing_gas_file(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["mayer", "--gas", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"monomers": [0]}',
            '{"activities": []}',
            '{"monomers": [0], "activities": [{"activity": 0.1}]}',
            '{"monomers": [0], "activities": [{"polymer": [0], "activity": "x"}]}',
            '{"monomers": [0], "activities": [{"polymer": [1], "activity": 0.1}]}',
            '{"monomers": [0], "activities": [{"polymer": [], "activity": 0.1}]}',
            "[0]",
            '{"monomers": ["a", 1], "activities": [{"polymer": ["a"], "activity": 0.1}]}',
            '{"monomers": [0, 1], "activities": [{"polymer": [0, 1], "activity": 0.1}, '
            '{"polymer": [1, 0], "activity": 0.2}]}',
            '{"monomers": [0], "activities": [{"polymer": [0], "activity": "nan"}]}',
            '{"monomers": [0], "activities": [{"polymer": [0], "activity": 1000}]}',
            '{"monomers": [0], "activities": [{"polymer": [0], "activity": 1e200}]}',
            '{"monomers": [0], "activities": [{"polymer": [0], "activity": -1}]}',
            '{"monomers": [0], "activities": [{"polymer": [0], "activity": true}]}',
            '{"monomers": [0], "activities": [{"polymer": [0], "activity": [0.1, "a"]}]}',
            '{"monomers": "01", "activities": [{"polymer": ["0"], "activity": 0.1}]}',
            '{"monomers": ["0"], "activities": [{"polymer": "0", "activity": 0.1}]}',
            '{"monomers": [0, 0, 1], "activities": [{"polymer": [0], "activity": 0.1}]}',
            '{"monomers": [0, 1], "activities": [{"polymer": [0, 0], "activity": 0.1}]}',
        ],
        ids=[
            "json",
            "no-activities",
            "no-monomers",
            "no-polymer",
            "bad-activity",
            "outside-monomers",
            "empty-polymer",
            "not-object",
            "mixed-monomers",
            "duplicate-polymer",
            "nan-activity",
            "tree-sum-overflows",
            "tree-sum-not-finite",
            "z-direct-zero",
            "bool-activity",
            "bad-complex-activity",
            "string-monomers",
            "string-polymer",
            "duplicate-monomer",
            "duplicate-in-polymer",
        ],
    )
    def test_malformed_gas_file_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "gas.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            run_cli(["mayer", "--gas", str(path), "--out", str(out), "--n-max", "3"])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestOutPath:
    @pytest.mark.parametrize("shape", ["file", "under-file"])
    @pytest.mark.parametrize("command", ["compare", "oracle", "verify-bounds", "domain-map", "mayer"])
    def test_out_that_is_no_directory_exits_two(self, tmp_path, capsys, monkeypatch, command, shape):
        from mlve import oracle

        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran before --out was checked")

        monkeypatch.setattr(oracle, "logz_oracle", no_oracle)
        monkeypatch.setattr(oracle, "z_reliable", no_oracle)
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        out = taken if shape == "file" else taken / "sub"
        inputs = {
            "compare": ["--config", str(write_config(tmp_path))],
            "oracle": ["--config", str(write_config(tmp_path))],
            "verify-bounds": ["--q-max", "5"],
            "domain-map": ["--resolution", "3"],
            "mayer": ["--gas", str(TestMayerCommand.write_gas(tmp_path))],
        }
        with pytest.raises(SystemExit) as err:
            run_cli([command, *inputs[command], "--out", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: --out ")
        assert taken.read_text(encoding="utf-8") == "kept\n"


class TestDispatch:
    def test_main_follows_module_bindings(self, tmp_path, monkeypatch):
        # the parser is built once per process, and main looks each command
        # up in the module on every call: a stub bound after the first call
        # is reached, as is a tracer's wrapper
        cli.build_parser.cache_clear()
        argv = ["compare", "--config", str(write_config(tmp_path, n_max=1)), "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 0
        reached = []
        monkeypatch.setattr(cli, "cmd_compare", lambda args: reached.append(args.out) or 7)
        assert run_cli(argv) == 7
        assert reached == [str(tmp_path / "out")]
        assert cli.build_parser.cache_info().misses == 1


def test_import_leaves_mpmath_precision_alone():
    # the bounds set mpmath's precision for their own evaluation only
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import importlib, pkgutil, mpmath, mlve\n"
        "before = mpmath.mp.dps\n"
        "for info in pkgutil.iter_modules(mlve.__path__):\n"
        "    importlib.import_module('mlve.' + info.name)\n"
        "print(before, mpmath.mp.dps)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True
    )
    before, after = result.stdout.split()
    assert after == before


def test_import_leaves_scipy_out():
    # scipy is a test oracle only; importing it costs most of the CLI's startup
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys; import mlve.cli, mlve.engine, mlve.oracle; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
