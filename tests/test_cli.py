"""Tests for the command-line front end: formats, exit codes, determinism."""

import json
import math

import mpmath as mp
import pytest

from lerchphi import cli, engine
from lerchphi.result import EvalResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_plain_output_and_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--z", "0.5,0", "--n", "1", "--a", "1,0"
        )
        assert code == 0
        value = float(out.splitlines()[0].split()[2])
        assert abs(value - 2 * math.log(2)) < 1e-9
        assert "method = series" in out

    def test_trivial_point_json(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--z", "0,0", "--n", "3", "--a", "2,0",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"]["re"] == 0.125
        assert rec["value"]["im"] == 0.0

    def test_json_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "eval", "--z", "0.3,0.4", "--n", "2", "--a", "0.7,0",
            "--format", "json",
        )
        rec = json.loads(out)
        again = json.loads(json.dumps(rec, sort_keys=True))
        assert again == rec

    def test_singular_stratum_exit_code(self, capsys):
        code, _, err = run(
            capsys, "eval", "--z", "1,0", "--n", "1", "--a", "0.5,0"
        )
        assert code == 2
        assert "singular stratum z=1, n=1" in err

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "eval", "--z", "0.5,0", "--n", "1")
        assert code == 1
        code, _, _ = run(
            capsys, "eval", "--z", "bogus", "--n", "1", "--a", "1,0"
        )
        assert code == 1

    def test_forced_method(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--z", "0.5,0", "--n", "1", "--a", "0.5,0",
            "--method", "pv", "--tol", "1e-9",
        )
        assert code == 0
        assert "method = pv" in out

    def test_forced_method_out_of_domain(self, capsys):
        code, _, err = run(
            capsys, "eval", "--z", "2,0", "--n", "1", "--a", "0.5,0",
            "--method", "series",
        )
        assert code == 2
        assert "series" in err

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LERCH_TOL", "1e-6")
        code, out, _ = run(
            capsys, "eval", "--z", "0.5,0", "--n", "1", "--a", "1,0",
            "--format", "json",
        )
        assert code == 0
        loose_terms = json.loads(out)["terms_or_nodes"]
        monkeypatch.setenv("LERCH_TOL", "1e-12")
        _, out, _ = run(
            capsys, "eval", "--z", "0.5,0", "--n", "1", "--a", "1,0",
            "--format", "json",
        )
        tight_terms = json.loads(out)["terms_or_nodes"]
        assert loose_terms < tight_terms

    @pytest.mark.parametrize("argv", [
        ("eval", "--z", "0.5,0", "--n", "2", "--a", "0.5,0"),
        ("check", "--suite", "reflections", "--grid", "1"),
    ], ids=["eval", "check"])
    def test_env_tolerance_not_a_number_is_usage_error(self, capsys,
                                                       monkeypatch, argv):
        monkeypatch.setenv("LERCH_TOL", "abc")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and err.startswith("usage error:")
        assert "LERCH_TOL" in err


class TestCompare:
    def test_three_methods_inside_disc(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--z", "0,0.5", "--n", "1", "--a", "0.3,0",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        names = {row["method"] for row in rec["methods"]}
        assert names == {"series", "integral", "pv"}
        assert rec["max_pairwise_deviation"] <= 1e-9

    def test_exterior_point(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--z", "0,2", "--n", "2", "--a", "0.25,0",
            "--tol", "1e-9", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        names = {row["method"] for row in rec["methods"]}
        assert names == {"integral", "inverse"}
        assert rec["max_pairwise_deviation"] <= 1e-9

    def test_negative_half_shift_routes(self, capsys):
        # values starting with "-" need the --flag=value spelling
        code, out, _ = run(
            capsys, "compare", "--z", "0.5,0", "--n", "2", "--a=-0.5,0",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        names = {row["method"] for row in rec["methods"]}
        assert "series" in names

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        # sabotage one route to force a cross-method gate failure
        def bad_series(z, n, a, tol=1e-10):
            return EvalResult(123.0 + 0j, 1e-12, "series", 1)

        monkeypatch.setattr(engine, "phi_series", bad_series)
        code, _, _ = run(
            capsys, "compare", "--z", "0.5,0", "--n", "1", "--a", "1,0"
        )
        assert code == 3

    def test_scale_is_the_largest_certified_value(self, capsys, monkeypatch):
        # at --tol 0.1 compare exits 3 when the deviation exceeds
        # 10 * 0.1 * scale: |3 - 1| = 2 is within the scale 3 of both values,
        # but not within 1, the scale without the last (largest) one
        def route(value):
            return lambda z, n, a, tol=1e-10: EvalResult(value, 0.0, "x", 1)

        monkeypatch.setattr(engine, "phi_series", route(1.0 + 0j))
        monkeypatch.setattr(engine, "phi_integral", route(3.0 + 0j))
        code, out, _ = run(
            capsys, "compare", "--z", "0.5,0", "--n", "1", "--a", "1,0",
            "--tol", "0.1", "--format", "json",
        )
        assert [row["method"] for row in json.loads(out)["methods"]] == [
            "series", "integral"]
        assert code == 0

    def test_no_admissible_method(self, capsys):
        code, _, err = run(
            capsys, "compare", "--z", "3,0", "--n", "1", "--a=-0.5,0"
        )
        assert code == 2


def mp_lerchphi(z, n, a):
    with mp.workdps(30):
        return complex(mp.lerchphi(z, n, a))


def point_flags(z, n, a):
    return (f"--z={z.real},{z.imag}", "--n", str(n),
            f"--a={a.real},{a.imag}")


# a point each route admits
ROUTE_POINTS = {
    "series": (0.3 + 0.4j, 2, 0.7 + 0j),
    "integral": (0.5j, 3, 0.4 + 0.2j),
    "pv": (0.5 + 0j, 1, 0.5 + 0j),
    "inverse": (2j, 2, 0.25 + 0j),
}


class TestRoutes:
    @pytest.mark.parametrize("name", list(engine.ROUTES))
    def test_forced_route_agrees_with_mpmath(self, capsys, name):
        z, n, a = ROUTE_POINTS[name]
        code, out, _ = run(capsys, "eval", *point_flags(z, n, a),
                           "--method", name, "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == name
        ref = mp_lerchphi(z, n, a)
        value = complex(rec["value"]["re"], rec["value"]["im"])
        assert abs(value - ref) <= rec["err_estimate"] <= 1e-9 * max(1, abs(ref))

    @pytest.mark.parametrize("argv, methods", [
        (("--z", "0.5,0", "--n", "1", "--a", "0.5,0"),
         ["series", "integral", "pv"]),
        (("--z", "0,2", "--n", "2", "--a", "2,0"),
         ["integral", "inverse"]),
    ])
    def test_compare_lists_routes_in_table_order(self, capsys, argv, methods):
        code, out, _ = run(capsys, "compare", *argv, "--format", "json")
        assert code == 0
        names = [row["method"] for row in json.loads(out)["methods"]]
        assert names == methods

    # a shift 5e-9 off the integer 2: the forced inverse route sums the
    # folded expansion at a itself, with no substitution of a = 2
    NEAR_INTEGER = ("--z", "0,2", "--n", "2", "--a", "2.000000005,0")

    def test_forced_integer_shift_estimate_covers_error(self, capsys):
        code, out, _ = run(capsys, "eval", *self.NEAR_INTEGER,
                           "--method", "inverse", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        value = complex(rec["value"]["re"], rec["value"]["im"])
        assert abs(value - mp_lerchphi(2j, 2, 2.000000005)) <= rec["err_estimate"]

    def test_compare_near_integer_shift(self, capsys):
        code, _, _ = run(capsys, "compare", *self.NEAR_INTEGER)
        assert code == 0

    def test_retired_integer_a_method_is_a_usage_error(self, capsys):
        # the inverse route serves integer shifts; integer-a is no route
        code, out, err = run(capsys, "eval", "--z", "0,2", "--n", "2",
                             "--a", "2,0", "--method", "integer-a")
        assert code == 1
        assert out == "" and err.startswith("usage error:")

    def test_forced_route_stall_prints_its_own_result(self, capsys):
        z, n, a = 0.9j, 6, 0.02 + 0.3j
        code, out, _ = run(capsys, "eval", *point_flags(z, n, a),
                           "--method", "integral", "--tol", "1e-15",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "integral (degraded)"
        value = complex(rec["value"]["re"], rec["value"]["im"])
        assert abs(value - mp_lerchphi(z, n, a)) <= rec["err_estimate"]

    @pytest.mark.parametrize("name", list(engine.ROUTES))
    def test_forced_route_refuses_non_finite_tol(self, capsys, name):
        z, n, a = ROUTE_POINTS[name]
        code, out, err = run(capsys, "eval", *point_flags(z, n, a),
                             "--tol", "nan", "--method", name)
        assert code == 2
        assert out == "" and "domain error" in err

    @pytest.mark.parametrize("flags", [
        ("--z", "nan,0", "--n", "2", "--a", "0.5,0"),
        ("--z", "0.5,0", "--n", "2", "--a", "inf,0"),
        ("--z", "0.5,0", "--n", "2", "--a", "0.5,0", "--tol", "0"),
    ], ids=["nan-z", "inf-a", "zero-tol"])
    def test_auto_refuses_non_finite_input(self, capsys, flags):
        code, out, err = run(capsys, "eval", *flags)
        assert code == 2
        assert out == "" and "domain error" in err


class TestCheck:
    def test_symmetry_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "symmetry", "--grid", "5",
            "--seed", "7",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 5
        assert all(rec["pass"] for rec in records)
        assert all(rec["identity"] == "symmetry" for rec in records)

    def test_reflections_include_spot_value(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "reflections", "--grid", "3"
        )
        assert code == 0
        first = json.loads(out.splitlines()[0])
        assert first["identity"] == "hurwitz-reflection"
        assert first["point"]["a"]["re"] == 0.25
        assert first["tol"] == 1e-10

    def test_theorem1_suite(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "theorem1", "--grid", "4",
            "--seed", "3",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert all(rec["residual"] <= 1e-8 for rec in records)

    def test_recurrences_suite(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "recurrences", "--grid", "4",
            "--seed", "1",
        )
        assert code == 0
        names = {json.loads(l)["identity"] for l in out.splitlines()}
        assert names == {"shift", "s-ladder-down", "s-ladder-up", "pde"}

    def test_seeded_reproducibility(self, capsys):
        _, out1, _ = run(
            capsys, "check", "--suite", "symmetry", "--grid", "4",
            "--seed", "11",
        )
        _, out2, _ = run(
            capsys, "check", "--suite", "symmetry", "--grid", "4",
            "--seed", "11",
        )
        assert out1 == out2

    @pytest.mark.parametrize("suite, identity", [
        ("symmetry", "symmetry"), ("recurrences", "shift"),
    ])
    def test_tol_sets_the_residual_tolerance(self, capsys, suite, identity):
        # the residuals are evaluated at the gate, not at their defaults
        _, out, _ = run(
            capsys, "check", "--suite", suite, "--grid", "10", "--seed", "0",
            "--tol", "1e-12",
        )
        records = [json.loads(line) for line in out.splitlines()]
        records = [rec for rec in records if rec["identity"] == identity]
        assert len(records) == 10
        assert all(rec["pass"] for rec in records)

    def test_bad_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--suite", "nonsense")
        assert code == 1


class TestSweep:
    BASE = [
        "sweep", "--abs-z", "0.2:0.8:3", "--arg-z", "0.4:2.8:4",
        "--a-re", "0.3:0.7:2", "--a-im", "0:0:1", "--n", "2",
    ]

    def test_row_count_and_header(self, tmp_path, capsys):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run(capsys, *self.BASE, "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("z_re,z_im,n,a_re,a_im,value_re")
        assert len(lines) == 1 + 3 * 4 * 2

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *self.BASE, "--out", str(f1))
        run(capsys, *self.BASE, "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_empty_grid_header_only(self, tmp_path, capsys):
        out_file = tmp_path / "empty.csv"
        code, _, _ = run(
            capsys, "sweep", "--abs-z", "0.2:0.8:0", "--arg-z", "0:1:2",
            "--a-re", "0.5:0.5:1", "--a-im", "0:0:1", "--n", "2",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 1

    def test_jsonl_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "grid.jsonl"
        code, _, _ = run(
            capsys, "sweep", "--abs-z", "2:2:1", "--arg-z", "0.5:2:2",
            "--a-re", "0.4:0.4:1", "--a-im", "0.1:0.1:1", "--n", "3",
            "--format", "jsonl", "--out", str(out_file),
        )
        assert code == 0
        for line in out_file.read_text().splitlines():
            rec = json.loads(line)
            assert json.loads(json.dumps(rec)) == rec
            assert rec["method"] in {"inverse", "integer-a"}

    def test_ring_rows_cross_validated(self, tmp_path, capsys):
        out_file = tmp_path / "ring.csv"
        code, _, _ = run(
            capsys, "sweep", "--abs-z", "2:2:1", "--arg-z", "0.3:2.9:5",
            "--a-re", "0.4:0.4:1", "--a-im", "0:0:1", "--n", "3",
            "--out", str(out_file),
        )
        assert code == 0
        import csv as csvmod

        rows = list(csvmod.DictReader(out_file.open()))
        assert all(row["method"] == "inverse" for row in rows)
        for row in rows[::2]:
            z = complex(float(row["z_re"]), float(row["z_im"]))
            v = complex(float(row["value_re"]), float(row["value_im"]))
            ref = engine.phi_integral(z, 3, 0.4, 1e-10).value
            assert abs(v - ref) < 1e-9

    def test_unwritable_path_evaluates_no_point(self, capsys, monkeypatch):
        calls = []

        def counting_degrade(*args):
            calls.append(args)
            return degrade(*args)

        degrade = engine.degrade
        monkeypatch.setattr(engine, "degrade", counting_degrade)
        code, _, err = run(
            capsys, "sweep", "--abs-z", "0.5:0.9:3", "--arg-z", "1:2:2",
            "--a-re", "0.5:0.5:1", "--a-im", "0:0:1", "--n", "2",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 1 and "error:" in err
        assert calls == []

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--abs-z", "0.5:0.5:1", "--arg-z", "1:1:1",
            "--a-re", "0.5:0.5:1", "--a-im", "0:0:1", "--n", "2",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code != 0
