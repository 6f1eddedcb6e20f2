import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from shadowbench import cli
from shadowbench.cli import main
from shadowbench.closure import SetApprox, iterate_closure
from shadowbench.shadowing import PseudoOrbit, ShadowingRefusal
from shadowbench.torus import TorusPoint, cat_map, crovisier_product, system_to_config


def pseudo_orbit_to_csv(po: PseudoOrbit, path) -> None:
    """Write a pseudo-orbit file: a header, then `index,x0,x1,...` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + [f"x{k}" for k in range(po.dim)])
        for j, row in zip(po.indices(), po.points):
            writer.writerow([int(j)] + [repr(float(v)) for v in row])


@pytest.fixture
def orbit_csv(tmp_path):
    map = cat_map()
    pts = map.orbit_segment(TorusPoint((0.31, 0.47)), -10, 10)
    po = PseudoOrbit.from_map(map, pts, start_index=-10)
    path = tmp_path / "orbit.csv"
    pseudo_orbit_to_csv(po, path)
    return path


@pytest.fixture
def fixed_point_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x0,x1\n0.0,0.0\n")
    return path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def run_error(args, capsys):
    """Exit code and the error of a run that must print one JSON line only."""
    code = main(args)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, lines
    return code, json.loads(lines[0])["error"]


class TestFiles:
    """The readers of pseudo-orbit and point files and the trace writer."""

    def test_csv_roundtrip(self, cat, rng, tmp_path):
        po = PseudoOrbit.from_map(cat, rng.random((20, 2)), start_index=-5)
        path = tmp_path / "po.csv"
        pseudo_orbit_to_csv(po, path)
        pts, start = cli._read_pseudo_orbit(path)
        assert start == -5
        assert np.array_equal(pts, po.points)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,x0,x1\n0,0.1,0.2\n1,nope,0.3\n")
        with pytest.raises(ValueError, match="line 3"):
            cli._read_pseudo_orbit(path)

    def test_pseudo_orbit_rows_come_in_index_order(self, tmp_path):
        path = tmp_path / "po.csv"
        path.write_text("index,x0,x1\n1,0.3,0.4\n\n0,0.1,0.2\n")
        pts, start = cli._read_pseudo_orbit(path)
        assert start == 0 and pts.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    @pytest.mark.parametrize("text, message", [
        ("index,x0,x1\n0,0.1,0.2\nx,0.1,0.3\n",
         "malformed CSV row at line 3: invalid literal for int() with base 10: 'x'"),
        ("index,x0,x1\n0,0.1,0.2\n1,0.3\n", "malformed CSV row at line 3: fewer than 2 coordinates"),
        ("index,x0,x1\n0,0.1,0.2\n\n1,0.3,0.4,0.5\n",
         "malformed CSV row at line 4: 3 coordinates, the first row has 2"),
        ("index,x0,x1\n0,0.1,0.2\n2,0.3,0.4\n", "pseudo-orbit indices must be consecutive"),
        ("index,x0,x1\n\n", "empty pseudo-orbit file"),
    ], ids=["bad-index", "short", "ragged", "gap", "empty"])
    def test_pseudo_orbit_file_refused(self, tmp_path, text, message):
        path = tmp_path / "po.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            cli._read_pseudo_orbit(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("command", ["closure", "maximality"])
    @pytest.mark.parametrize("text, problem", [
        ("x0,x1\n0.1,0.2\n0.5\n", "fewer than 2 coordinates"),
        ("x0,x1\n0.1,0.2\n0.5,0.3,0.4\n", "3 coordinates, the first row has 2"),
        ("x0,x1\n0.1,0.2\n1e-1,inf_\n", "could not convert string to float: 'inf_'"),
    ], ids=["short", "ragged", "bad-float"])
    def test_point_file_row_refused_by_line(self, tmp_path, capsys, command, text, problem):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        code, error = run_error([command, "--points", str(path)], capsys)
        assert code == 1 and error["kind"] == "input"
        assert error["message"] == f"malformed CSV row at line 3: {problem}"

    @pytest.mark.parametrize("command", ["closure", "maximality"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_point_row_refused(self, tmp_path, capsys, command, value):
        path = tmp_path / "pts.csv"
        path.write_text(f"x0,x1\n0.1,0.2\n{value},0.3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, error = run_error([command, "--points", str(path)], capsys)
        assert code == 1 and error["kind"] == "input"
        assert error["message"] == "points must have finite coordinates"

    @pytest.mark.parametrize("argv", [["shadow", "--orbit"], ["closure", "--points"],
                                      ["maximality", "--points"]],
                             ids=["shadow", "closure", "maximality"])
    def test_dimension_mismatch_named(self, tmp_path, capsys, argv):
        path = tmp_path / "rows.csv"
        if argv[0] == "shadow":
            path.write_text("index,x0,x1,x2\n0,0.1,0.2,0.3\n1,0.5,0.6,0.7\n")
        else:
            path.write_text("x0,x1,x2\n0.1,0.2,0.3\n0.5,0.6,0.7\n")
        code, error = run_error([*argv, str(path)], capsys)
        assert code == 1 and error["kind"] == "input"
        assert error["message"] == "dimension mismatch: map is 2-d, points are 3-d"

    def test_trace_csv(self, cat, tmp_path):
        trace = iterate_closure(cat, SetApprox(np.array([[0.0, 0.0]]), 0.01),
                                delta=0.05, u_radius=0.2, max_iter=6)
        path = tmp_path / "trace.csv"
        cli._write_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["j,nu_j,set_size,verdict", "0,,1,"]
        assert lines[2:] == [f"{j},0.0,1," for j in range(1, len(trace.nus))] + [
            f"{len(trace.nus)},0.0,1,stabilized(0)"]


class TestShadowCommand:
    def test_true_orbit_exit_zero(self, orbit_csv, capsys):
        code, payload = run(["shadow", "--orbit", str(orbit_csv)], capsys)
        assert code == 0
        assert payload["result"]["sup_distance"] < 1e-12
        assert payload["result"]["converged"] is True

    def test_defect_gate_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("index,x0,x1\n0,0.0,0.0\n1,0.4,0.0\n2,0.0,0.4\n")
        code, payload = run(["shadow", "--orbit", str(path)], capsys)
        assert code == 2
        assert "defect too large" in payload["error"]["message"]

    def test_malformed_row_exit_one_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("index,x0,x1\n0,0.1,0.2\n1,xyz,0.3\n")
        code, payload = run(["shadow", "--orbit", str(path)], capsys)
        assert code == 1
        assert "line 3" in payload["error"]["message"]

    def test_nan_coordinate_exit_one(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("index,x0,x1\n0,0.1,0.2\n1,nan,0.3\n2,0.4,0.5\n")
        code, payload = run(["shadow", "--orbit", str(path)], capsys)
        assert code == 1 and payload["error"]["kind"] == "input"
        assert "finite" in payload["error"]["message"]

    def test_missing_file_exit_one(self, capsys):
        code, payload = run(["shadow", "--orbit", "/nonexistent.csv"], capsys)
        assert code == 1 and payload["error"]["kind"] == "input"

    def test_newton_method_flag(self, orbit_csv, capsys):
        code, payload = run(["shadow", "--orbit", str(orbit_csv),
                             "--method", "newton"], capsys)
        assert code == 0 and payload["result"]["method"] == "newton"


class TestClosureCommand:
    def test_fixed_point_stabilizes(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x0,x1\n0.0,0.0\n")
        out_csv = tmp_path / "trace.csv"
        code, payload = run(["closure", "--points", str(pts),
                             "--resolution", "0.01", "--delta", "0.05",
                             "--out-csv", str(out_csv)], capsys)
        assert code == 0
        assert payload["verdict"] == {"kind": "stabilized", "index": 0}
        assert out_csv.read_text().startswith("j,nu_j,set_size,verdict")

    def test_invalid_config_rejected(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x0,x1\n0.0,0.0\n")
        code, payload = run(["closure", "--points", str(pts),
                             "--delta", "-1"], capsys)
        assert code == 1
        assert "delta must be positive" in payload["error"]["message"]

    def test_sampling_rule_message_from_sampling_params(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x0,x1\n0.0,0.0\n")
        code, payload = run(["closure", "--points", str(pts),
                             "--max-cycle-len", "0"], capsys)
        assert code == 1
        assert "max_cycle_len must be >= 1, got 0" in payload["error"]["message"]

    def test_negative_seed_named(self, fixed_point_csv, capsys):
        code, payload = run(["closure", "--points", str(fixed_point_csv), "--seed", "-1"],
                            capsys)
        assert code == 1 and payload["error"]["kind"] == "input"
        assert "seed must be >= 0, got -1" in payload["error"]["message"]

    @pytest.mark.parametrize("flag", ["--delta", "--resolution", "--u-radius"])
    def test_nan_knob_exit_one(self, fixed_point_csv, capsys, flag):
        # a NaN delta would read as stabilized at index 0 without sampling an orbit
        code, payload = run(["closure", "--points", str(fixed_point_csv), flag, "nan"],
                            capsys)
        assert code == 1 and payload["error"]["kind"] == "input"
        name = flag[2:].replace("-", "_")
        assert f"{name} must be positive, got nan" in payload["error"]["message"]

    @pytest.mark.parametrize("flag", ["--delta", "--resolution"])
    def test_infinite_knob_exit_one(self, fixed_point_csv, capsys, flag):
        # an infinite resolution collapses Lambda_0 to one point; either knob
        # would read as stabilized at index 0
        code, payload = run(["closure", "--points", str(fixed_point_csv), flag, "inf"],
                            capsys)
        assert code == 1 and payload["error"]["kind"] == "input"
        name = flag[2:]
        assert f"{name} must be finite, got inf" in payload["error"]["message"]

    def test_infinite_u_radius_is_no_escape_test(self, fixed_point_csv, capsys):
        code, payload = run(["closure", "--points", str(fixed_point_csv), "--u-radius", "inf"],
                            capsys)
        assert code == 0 and payload["verdict"] == {"kind": "stabilized", "index": 0}

    def test_nan_in_config_file_exit_one(self, fixed_point_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": float("nan")}))
        code, payload = run(["closure", "--points", str(fixed_point_csv),
                             "--config", str(cfg)], capsys)
        assert code == 1
        assert "delta must be positive, got nan" in payload["error"]["message"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x0,x1\n0.0,0.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": -5.0, "resolution": 0.01}))
        # flag must override the config file's bad delta
        code, payload = run(["closure", "--points", str(pts),
                             "--config", str(cfg), "--delta", "0.05"], capsys)
        assert code == 0 and payload["verdict"]["kind"] == "stabilized"


class TestSftCommand:
    def _write(self, tmp_path, lines):
        path = tmp_path / "words.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_golden_mean_k_two(self, tmp_path, capsys):
        words = self._write(tmp_path, ["(0)(0)", "(01)(01)", "(001)(001)", "(0001)(0001)"])
        code, payload = run(["sft", "--words", str(words), "--alphabet", "2",
                             "--maximal", "4", "--language", "2"], capsys)
        assert code == 0
        assert payload["locally_maximal"]["k"] == 2
        assert payload["language"]["words"] == ["00", "01", "10"]

    def test_full_shift_k_one(self, tmp_path, capsys):
        words = self._write(tmp_path, ["(0)(0)", "(1)(1)", "(01)(01)"])
        code, payload = run(["sft", "--words", str(words), "--alphabet", "2",
                             "--maximal", "4"], capsys)
        assert code == 0 and payload["locally_maximal"]["k"] == 1

    def test_even_shift_absent_with_witness(self, tmp_path, capsys):
        lines = ["(0)(0)", "(1)(1)"] + [f"(0{'1' * (2 * m)})(0{'1' * (2 * m)})"
                                        for m in range(1, 6)]
        words = self._write(tmp_path, lines)
        code, payload = run(["sft", "--words", str(words), "--alphabet", "2",
                             "--maximal", "4"], capsys)
        assert code == 0
        assert payload["locally_maximal"]["k"] is None
        assert payload["locally_maximal"]["witness"] is not None

    def test_maximal_below_one_exit_one(self, tmp_path, capsys):
        words = self._write(tmp_path, ["(0)(0)", "(01)(01)"])
        code, payload = run(["sft", "--words", str(words), "--alphabet", "2",
                             "--maximal", "-1"], capsys)
        assert code == 1
        assert "kmax must be >= 1, got -1" in payload["error"]["message"]

    @pytest.mark.parametrize("flags, message", [
        (["--language", "0"], "k must be >= 1, got 0"),
        (["--closure", "0"], "k must be >= 1, got 0"),
        (["--maximal", "0"], "kmax must be >= 1, got 0"),
        (["--member", "(1)(1)", "--window", "0"], "k must be >= 1, got 0"),
    ], ids=["language", "closure", "maximal", "window"])
    def test_zero_reaches_the_library_check(self, tmp_path, capsys, flags, message):
        words = self._write(tmp_path, ["(0)(0)", "(01)(01)"])
        code, payload = run(["sft", "--words", str(words), "--alphabet", "2", *flags],
                            capsys)
        assert code == 1
        assert payload["error"]["message"] == message

    def test_member_query(self, tmp_path, capsys):
        words = self._write(tmp_path, ["(0)(0)", "(01)(01)"])
        code, payload = run(["sft", "--words", str(words), "--alphabet", "2",
                             "--member", "(1)(1)", "--window", "2"], capsys)
        assert code == 0 and payload["member"]["in_closure"] is False

    def test_bad_word_line(self, tmp_path, capsys):
        words = self._write(tmp_path, ["(0)(0)", "oops"])
        code, payload = run(["sft", "--words", str(words), "--alphabet", "2",
                             "--language", "2"], capsys)
        assert code == 1 and "line 2" in payload["error"]["message"]

    def test_comments_only_word_file(self, tmp_path, capsys):
        words = self._write(tmp_path, ["# no generator", ""])
        code, error = run_error(["sft", "--words", str(words), "--alphabet", "2"], capsys)
        assert code == 1 and error["message"] == "no words in file"


class TestMaximalityCommand:
    def test_full_net_passes(self, tmp_path, capsys):
        n = 16
        rows = ["x0,x1"] + [f"{i / n},{j / n}" for i in range(n) for j in range(n)]
        pts = tmp_path / "net.csv"
        pts.write_text("\n".join(rows) + "\n")
        code, payload = run(["maximality", "--points", str(pts),
                             "--resolution", str(1 / n)], capsys)
        assert code == 0
        assert payload["passed"] is True and payload["pairs_tested"] > 0

    @pytest.mark.parametrize("flag, name", [("--eps", "eps"), ("--pair-delta", "delta"),
                                            ("--membership-tol", "membership_tol")])
    def test_nan_knob_exit_one(self, fixed_point_csv, capsys, flag, name):
        # a NaN knob would pass the check on zero pairs
        code, payload = run(["maximality", "--points", str(fixed_point_csv), flag, "nan"],
                            capsys)
        assert code == 1 and payload["error"]["kind"] == "input"
        assert payload["error"]["message"] == f"{name} must be positive, got nan"


    def test_eps_above_a_quarter_is_a_refusal(self, tmp_path, capsys):
        # the pair's bracket components sit far below 0.3; the lift rule refuses
        pts = tmp_path / "pair.csv"
        pts.write_text("x0,x1\n0.0,0.0\n0.05,0.0\n")
        code, error = run_error(["maximality", "--points", str(pts), "--resolution", "0.02",
                                 "--eps", "0.3", "--pair-delta", "0.06"], capsys)
        assert code == 2 and error["kind"] == "refusal"
        assert "eps < 1/4" in error["message"]


class TestCrovisierCommand:
    def test_zero_radius_full_grid(self, capsys):
        code, payload = run(["crovisier", "--depth", "3", "--v-radius", "0",
                             "--n-iter", "2"], capsys)
        assert code == 0 and payload["cells"] == 8 ** 4

    def test_nan_radius_exit_one(self, capsys):
        code, payload = run(["crovisier", "--depth", "2", "--v-radius", "nan"], capsys)
        assert code == 1
        assert payload["error"]["message"] == "v_radius must be nonnegative, got nan"

    @pytest.mark.parametrize("args, message", [
        (["--n-iter", "-1"], "n_iter must be >= 0, got -1"),
        (["--q", "nan", "0"], "points must have finite coordinates"),
        (["--depth", "-1"], "depth must be >= 0, got -1"),
        (["--q", "0.3", "0.1", "--q-period", "0"], "q_period must be >= 1, got 0"),
        (["--q-period", "-2"], "q_period must be >= 1, got -2"),
        # once an uncaught out-of-memory traceback, and numpy's dimension error
        (["--depth", "9"], "depth 9 in dimension 4 gives 2^36 cells, above the grid bound of 2^24"),
        (["--depth", "70"],
         "depth 70 in dimension 4 gives 2^280 cells, above the grid bound of 2^24"),
    ])
    def test_bad_grid_input_exit_one(self, capsys, args, message):
        code, error = run_error(["crovisier", "--depth", "2"] + args, capsys)
        assert code == 1 and error["kind"] == "input"
        assert error["message"] == message

    def test_refusal_in_closure_exit_two(self, monkeypatch, capsys):
        # unreachable with the gate at inf short of a NaN defect, but one
        # policy maps a refusal to 2 wherever it is raised
        def refuse(*args, **kwargs):
            raise ShadowingRefusal(1.0, 0.5)

        monkeypatch.setattr(cli, "iterate_closure", refuse)
        code, payload = run(["crovisier", "--depth", "2", "--n-iter", "1", "--closure"],
                            capsys)
        assert code == 2 and payload["error"]["kind"] == "refusal"

    def test_system_file_must_be_a_product(self, tmp_path, capsys):
        matrix = tmp_path / "cat.json"
        matrix.write_text(json.dumps(system_to_config(cat_map())))
        code, payload = run(["crovisier", "--depth", "2", "--system", str(matrix)], capsys)
        assert code == 1 and payload["error"]["kind"] == "input"
        assert "product system" in payload["error"]["message"]
        # the default product, given as a file, reads as no file at all
        product = tmp_path / "product.json"
        product.write_text(json.dumps(system_to_config(crovisier_product())))
        _, from_file = run(["crovisier", "--depth", "2", "--system", str(product)], capsys)
        _, default = run(["crovisier", "--depth", "2"], capsys)
        assert from_file == default and default["cells"] > 0

    def test_closure_budget_exit_three(self, tmp_path, capsys):
        code, payload = run(["crovisier", "--depth", "3", "--n-iter", "3",
                             "--closure", "--max-iter", "2",
                             "--n-paths", "8", "--path-len", "20",
                             "--out-csv", str(tmp_path / "c.csv")], capsys)
        assert code == 3
        assert payload["closure"]["verdict"]["kind"] == "budget_exhausted"
        assert payload["closure"]["dichotomy"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["closure", "--points", "x.csv", "--delta", "abc"],
        ["closure", "--points", "x.csv", "--no-such-flag"],
        ["closure", "--points", "x.csv", "--epsilon", "0.001"],
        ["suite"],
    ])
    def test_bad_arguments_exit_one_with_json(self, argv, capsys):
        code, payload = run(argv, capsys)
        assert code == 1
        assert payload["error"]["kind"] == "input"
        assert payload["error"]["message"].startswith("shadowbench")

    @pytest.mark.parametrize("argv", [
        ["shadow", "--orbit", "x.csv", "--seed", "1"],
        ["maximality", "--points", "x.csv", "--delta", "0.1"],
        ["crovisier", "--resolution", "0.1"],
    ])
    def test_config_flags_the_subcommand_never_reads(self, argv, capsys):
        code, payload = run(argv, capsys)
        assert code == 1 and payload["error"]["kind"] == "input"
        assert "unrecognized arguments" in payload["error"]["message"]

    @pytest.mark.parametrize("option, text, entry", [
        ("--system", '{"product": {"a": [[3, 1], [2, 1]]}}', "'product.b'"),
        ("--system", "5", "JSON object"),
        ("--system", '{"matrix": null}', "'matrix'"),
        ("--system", '{"matrix": [[2.5, 1], [1, 1]]}', "'matrix'"),
        ("--system", '{"matrix": [[100000000000000000000, 1], [1, 1]]}', "within int64"),
        ("--config", "[1]", "JSON object"),
        ("--config", '{"delta": "abc"}', "delta must be a number"),
        ("--config", '{"max_iter": 2.5}', "max_iter must be an integer"),
        ("--config", '{"detla": -1, "delta": 0.05, "seeds": 1}', "unknown keys: detla, seeds"),
    ], ids=["product-without-b", "number", "null-matrix", "float-matrix", "int64-overflow",
            "config-list", "string-delta", "float-max-iter", "misspelt-key"])
    def test_malformed_file_exit_one(self, fixed_point_csv, tmp_path, capsys,
                                     option, text, entry):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, error = run_error(["closure", "--points", str(fixed_point_csv),
                                 option, str(path)], capsys)
        assert code == 1 and error["kind"] == "input"
        assert entry in error["message"]

    @pytest.mark.parametrize("argv", [
        ["shadow", "--orbit", "{orbit}", "--out", "{missing}"],
        ["closure", "--points", "{points}", "--out", "{missing}"],
        ["closure", "--points", "{points}", "--out-csv", "{missing}"],
        ["sft", "--words", "{words}", "--alphabet", "2", "--language", "1",
         "--out", "{missing}"],
        ["maximality", "--points", "{points}", "--out", "{missing}"],
        ["crovisier", "--depth", "2", "--n-iter", "1", "--out", "{missing}"],
        ["crovisier", "--depth", "2", "--n-iter", "1", "--closure", "--max-iter", "1",
         "--out-csv", "{missing}"],
        ["suite", "--scale", "quick", "--out", "{blocked}"],
    ], ids=["shadow", "closure", "closure-csv", "sft", "maximality", "crovisier",
            "crovisier-csv", "suite"])
    def test_write_failure_exit_one(self, orbit_csv, fixed_point_csv, tmp_path, capsys,
                                    argv):
        words = tmp_path / "words.txt"
        words.write_text("(0)(0)\n")
        blocker = tmp_path / "file"
        blocker.write_text("")
        paths = {"orbit": orbit_csv, "points": fixed_point_csv, "words": words,
                 "missing": tmp_path / "missing" / "out", "blocked": blocker / "out"}
        code, error = run_error([a.format(**paths) for a in argv], capsys)
        assert code == 1 and error["kind"] == "input"
        assert "out" in error["message"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["closure", "--help"])
        assert exc.value.code == 0
        assert "--points" in capsys.readouterr().out


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "shadowbench", "crovisier", "--depth", "3",
         "--v-radius", "0", "--n-iter", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert result.returncode == 0
    assert json.loads(result.stdout)["cells"] == 8 ** 4
