import json
import warnings

import numpy as np
import pytest

from ceqaoa.cli import main, parse_grid_spec
from ceqaoa.hamiltonian import TspInstance, anchor
from ceqaoa.phqc import AngleGrid, phqc_solve

MATRIX_4 = [[0, 10, 15, 20], [10, 0, 35, 25], [15, 35, 0, 30], [20, 25, 30, 0]]


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "ex4.json"
    path.write_text(json.dumps({"name": "ex4", "n": 4, "matrix": MATRIX_4}))
    return path


def read_json(path):
    return json.loads(path.read_text())


def strip_metadata(payload):
    return {k: v for k, v in payload.items() if k != "metadata"}


class TestGridSpec:
    def test_default(self):
        grid = parse_grid_spec("n+1", 4)
        assert len(grid.schedules()) == 25

    def test_square(self):
        assert len(parse_grid_spec("20x20", 4).schedules()) == 400

    def test_list(self):
        pairs = parse_grid_spec("list:0,0;1.5,2.4", 4)
        assert pairs == [(0.0, 0.0), (1.5, 2.4)]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_grid_spec("fine", 4)
        with pytest.raises(ValueError):
            parse_grid_spec("3x4", 4)


class TestSolve:
    def test_solve_writes_result(self, instance_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            ["solve", str(instance_file), "--out", str(out), "--seed", "3", "--shots", "640"]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["schema"] == 1
        assert payload["best_cost"] == 80.0
        assert payload["best_tour"][0] == 0 and payload["best_tour"][-1] == 0
        assert sorted(payload["best_tour"][:-1]) == [0, 1, 2, 3]
        # round trip: recompute the tour cost from the matrix
        tour = payload["best_tour"]
        m = np.asarray(MATRIX_4, float)
        cost = sum(m[a, b] for a, b in zip(tour[:-1], tour[1:]))
        assert cost == payload["best_cost"]
        assert len(payload["grid_table"]) == 25
        meta = payload["metadata"]
        assert sorted(meta["timings"]) == ["diagonal_s", "oracle_s", "sweep_s"]
        assert all(t >= 0.0 for t in meta["timings"].values())
        assert sum(meta["timings"].values()) <= meta["wall_time_s"]
        assert meta["peak_rss_mb"] > 0.0
        csv_path = out.with_suffix(".costs.csv")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "grid_index,gamma,beta,cost,count"
        assert len(lines) > 1

    def test_deterministic_output(self, instance_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["solve", str(instance_file), "--out", str(out), "--seed", "11"]) == 0
            outs.append(strip_metadata(read_json(out)))
        assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)

    def test_no_feasible_exit_code(self, instance_file, tmp_path):
        # single shot at the uniform point: find a master seed whose one draw
        # is infeasible, then check the documented exit code
        enc = anchor(TspInstance("ex4", 4, np.asarray(MATRIX_4, float)), 0)
        schedules = AngleGrid((0.0,), (0.0,)).schedules()
        seed = next(
            s
            for s in range(50)
            if phqc_solve(enc, schedules, shots_per_point=1, master_seed=s).best_label is None
        )
        out = tmp_path / "none.json"
        code = main(
            [
                "solve",
                str(instance_file),
                "--out",
                str(out),
                "--grid",
                "list:0,0",
                "--shots",
                "1",
                "--seed",
                str(seed),
            ]
        )
        assert code == 2
        assert read_json(out)["best_tour"] is None

    @pytest.mark.parametrize(
        "cap,code,command",
        [("10", 3, "solve"), ("abc", 1, "solve"), ("0", 1, "solve"), ("-5", 1, "solve"),
         ("512", 3, "verify")],
        ids=["10", "abc", "0", "-5", "verify-encoder-512"],
    )
    def test_dimension_cap_exit_code(
        self, instance_file, tmp_path, monkeypatch, capsys, cap, code, command
    ):
        # verify encoder simulates qubit registers up to 10 qubits (D = 1024)
        monkeypatch.setenv("CEQAOA_MAX_DIM", cap)
        if command == "verify":
            argv = ["verify", "encoder"]
        else:
            argv = ["solve", str(instance_file), "--out", str(tmp_path / "x.json")]
        assert main(argv) == code
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "CEQAOA_MAX_DIM" in err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 1


@pytest.mark.parametrize(
    "argv,value",
    [
        (["solve", "--lambda", "inf"], "inf"),
        (["solve", "--lambda", "1e308"], "1e+308"),
        (["solve", "--grid", "list:1e308,0"], "1e+308"),
        (["histogram", "--angles", "0,0", "--lambda", "inf"], "inf"),
        (["histogram", "--angles", "0,0", "--lambda", "1e308"], "1e+308"),
        (["histogram", "--angles", "1e308,0"], "1e+308"),
    ],
    ids=["solve-lambda-inf", "solve-lambda-1e308", "solve-gamma-1e308",
         "histogram-lambda-inf", "histogram-lambda-1e308", "histogram-gamma-1e308"],
)
def test_non_finite_energies_end_in_one_line(instance_file, tmp_path, capsys, argv, value):
    command, *rest = argv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(instance_file), *rest, "--out", str(tmp_path / "out")])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and value in err


class TestHistogram:
    def test_uniform_histogram(self, instance_file, tmp_path):
        out = tmp_path / "hist.csv"
        code = main(
            [
                "histogram",
                str(instance_file),
                "--angles",
                "0,0",
                "--shots",
                "500",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# uniform_probability,")
        assert lines[1] == "label,city_sequence,count,exact_probability,is_optimal"
        rows = lines[2:]
        assert len(rows) == 27
        probs = [float(r.split(",")[3]) for r in rows]
        assert np.allclose(probs, 1 / 27, atol=1e-12)
        counts = [int(r.split(",")[2]) for r in rows]
        assert sum(counts) == 500
        assert counts == sorted(counts, reverse=True)
        assert sum(int(r.split(",")[4]) for r in rows) == 2  # two degenerate optima

    def test_zero_shots(self, instance_file, tmp_path):
        out = tmp_path / "hist.csv"
        assert (
            main(["histogram", str(instance_file), "--angles", "0,0", "--shots", "0", "--out", str(out)])
            == 0
        )
        rows = out.read_text().strip().splitlines()[2:]
        assert all(int(r.split(",")[2]) == 0 for r in rows)

    def test_negative_shots_rejected(self, instance_file, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        argv = ["histogram", str(instance_file), "--angles", "0,0", "--shots", "-3"]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == "--shots must be >= 0, got -3"
        assert not out.exists()

    def test_bad_angles(self, instance_file, tmp_path):
        assert main(["histogram", str(instance_file), "--angles", "zero", "--out", str(tmp_path / "h.csv")]) == 1


class TestVerifyCommand:
    def test_mixer_suite_passes(self, capsys):
        assert main(["verify", "mixer"]) == 0
        out = capsys.readouterr().out
        assert "raw_spectrum_n16" in out
        assert "FAIL" not in out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nope"]) == 1


class TestBaselinesCommand:
    def test_values(self, tmp_path, capsys):
        out = tmp_path / "base.json"
        assert main(["baselines", "--n", "3", "--feasible-count", "6", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["model_a_trials"] == 4.5
        assert payload["model_b_trials"] == pytest.approx(513 / 7)
