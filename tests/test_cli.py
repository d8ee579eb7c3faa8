import collections
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ceqaoa.cli as cli
from ceqaoa import layers, verify
from ceqaoa.cli import main, parse_grid_spec
from ceqaoa.encoded import BlockLayout
from ceqaoa.hamiltonian import TspInstance, anchor
from ceqaoa.layers import Column
from ceqaoa.phqc import (
    INTERPRETER_BYTES,
    POINT_BYTES,
    SHOT_BYTES,
    TOUR_BYTES,
    default_shots,
    phqc_solve,
)

from oracles import random_symmetric_instance

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
        columns, grid_json = parse_grid_spec("n+1", 4, 1)
        assert sum(len(col.betas) for col in columns) == 25
        assert grid_json["gammas"] == [col.gamma for col in columns]
        assert grid_json["betas"] == list(columns[0].betas) and len(grid_json["betas"]) == 5

    def test_square(self):
        columns, grid_json = parse_grid_spec("20x20", 4, 2)
        assert sum(len(col.betas) for col in columns) == 400
        assert all(col.depth == 2 for col in columns)
        assert len(grid_json["gammas"]) == len(grid_json["betas"]) == 20

    def test_list(self):
        columns, grid_json = parse_grid_spec("list:0,0;1.5,2.4", 4, 1)
        assert columns == [Column(0.0, (0.0,)), Column(1.5, (2.4,))]
        assert grid_json == {"pairs": [[0.0, 0.0], [1.5, 2.4]]}

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad --grid value 'fine'"):
            parse_grid_spec("fine", 4, 1)
        with pytest.raises(ValueError, match="only square grids"):
            parse_grid_spec("3x4", 4, 1)

    @pytest.mark.parametrize(
        "spec,reason",
        [(spec, "want n+1, NxN or list:g,b;...")
         for spec in ["x", "fine", "3x", "3x3x3", "list:", "list:1", "list:a,b"]]
        + [(spec, "need at least 2 points per axis") for spec in ["1x1", "0x0"]],
        ids=["x", "fine", "3x", "3x3x3", "list:", "list:1", "list:a,b", "1x1", "0x0"],
    )
    def test_malformed_grid_ends_in_one_line_naming_the_flag(
        self, instance_file, tmp_path, capsys, spec, reason
    ):
        out = tmp_path / "x.json"
        assert main(["solve", str(instance_file), "--grid", spec, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"bad --grid value {spec!r} ({reason})"
        assert not out.exists()


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
        assert meta["peak_estimate_mb"] > 0.0
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
        columns = [Column(0.0, (0.0,))]
        seed = next(
            s
            for s in range(50)
            if phqc_solve(enc, columns, shots_per_point=1, master_seed=s).winner is None
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
        "name,body",
        [
            ("bad.json", {"n": "abc", "matrix": MATRIX_4}),
            ("bad.json", {"matrix": [[0, 1], [1]]}),
            ("bad.json", {"matrix": [[0, "1", True], ["1", 0, 1], [True, 1, 0]]}),
            ("bad.tsp", "DIMENSION: 0\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\nEOF\n"),
            (
                "bad.tsp",
                "DIMENSION: -1\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
                "EDGE_WEIGHT_SECTION\n0\nEOF\n",
            ),
            # past the interpreter's recursion limit for json.loads
            ("bad.json", '{"matrix": ' + "[" * 100_000),
        ],
        ids=[
            "n",
            "ragged",
            "non-numeric-entries",
            "tsplib-dimension-0",
            "tsplib-dimension-minus-1",
            "nested-100000-deep",
        ],
    )
    def test_malformed_instance_ends_in_one_line_naming_the_file(
        self, tmp_path, capsys, name, body
    ):
        path = tmp_path / name
        path.write_text(body if isinstance(body, str) else json.dumps(body))
        assert main(["solve", str(path), "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"{path}: ")

    @pytest.mark.parametrize("key", ["n", "matrix"])
    def test_deep_entry_ends_in_a_short_line(self, tmp_path, capsys, key):
        # a value nested 900 deep parses, under the recursion limit; the
        # message quotes its first characters only
        deep = "[" * 900 + "]" * 900
        path = tmp_path / "deep.json"
        body = {"n": f'{{"n": {deep}, "matrix": [[0]]}}', "matrix": f'{{"matrix": {deep}}}'}
        path.write_text(body[key])
        assert main(["solve", str(path), "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"{path}: ")
        assert len(err) < 200, err

    @pytest.mark.parametrize("coord", ["1e200", "1e308", "inf"])
    def test_euc_2d_distances_past_float64_end_in_one_line(self, tmp_path, capsys, coord):
        # the squares overflow (or inf - inf is nan); the instance refuses the
        # non-finite distance, with no numpy warning before the message
        path = tmp_path / "far.tsp"
        path.write_text(
            "NAME: far\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
            f"1 {coord} 0\n2 -{coord} 0\n3 0 {coord}\nEOF\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert not caught
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"{path}:4: ")
        assert "non-finite distance" in err


def write_instance(path, n_cities, seed=0):
    matrix = random_symmetric_instance(n_cities, seed).round().tolist()
    path.write_text(json.dumps({"name": f"r{n_cities}", "n": n_cities, "matrix": matrix}))
    return path


SRC = Path(cli.__file__).resolve().parent.parent


def run_python(*args):
    """Run python with ARGS in a fresh interpreter that imports ceqaoa from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )


class TestMemoryEstimate:
    @staticmethod
    def refuse_to_run(monkeypatch, available):
        """Stub the available-memory reader, and fail on any step that allocates."""

        def allocates(*args, **kwargs):
            raise AssertionError("the run started before its memory check")

        monkeypatch.setattr(cli, "available_memory", lambda: available)
        monkeypatch.setattr(cli, "build_cost_diagonal", allocates)
        monkeypatch.setattr(cli, "phqc_solve", allocates)

    @staticmethod
    def assert_one_line(capsys):
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "estimated peak memory" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "histogram"])
    def test_estimate_over_available_memory_exits_3(self, tmp_path, monkeypatch, capsys, command):
        self.refuse_to_run(monkeypatch, 1 << 20)
        # n = 7 (D = 46656): the D-sized buffers alone come to 1.5 MB
        argv = [command, str(write_instance(tmp_path / "r7.json", 7)), "--out", str(tmp_path / "o")]
        if command == "histogram":
            argv += ["--angles", "1.0,0.5"]
        assert main(argv) == 3
        self.assert_one_line(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--shots", "100000000000"],
            ["histogram", "--angles", "1.0,0.5", "--shots", "100000000000"],
            ["solve", "--grid", "100000x100000"],
        ],
        ids=["solve-shots", "histogram-shots", "solve-grid"],
    )
    def test_huge_shot_count_or_grid_exits_3(self, tmp_path, monkeypatch, capsys, argv):
        # 8 GB available; D = 256 at n = 5, so the shots or grid points alone exceed it
        self.refuse_to_run(monkeypatch, 8 << 30)
        command, *rest = argv
        instance = str(write_instance(tmp_path / "r5.json", 5))
        assert main([command, instance, *rest, "--out", str(tmp_path / "o")]) == 3
        self.assert_one_line(capsys)

    def test_grid_too_large_to_build_exits_3(self, tmp_path, monkeypatch, capsys):
        # 10**16 points: the grid's angles are never built
        self.refuse_to_run(monkeypatch, 1 << 30)

        def square_grid(*args, **kwargs):
            raise AssertionError("the grid was built before its memory check")

        monkeypatch.setattr(cli, "square_grid", square_grid)
        instance = str(write_instance(tmp_path / "r5.json", 5))
        argv = ["solve", instance, "--grid", "100000000x100000000", "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        self.assert_one_line(capsys)

    def test_unreadable_meminfo_skips_the_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "available_memory", lambda: None)
        out = tmp_path / "r.json"
        instance = write_instance(tmp_path / "r5.json", 5)
        assert main(["solve", str(instance), "--grid", "list:1,0.5", "--out", str(out)]) == 0

    def test_readers(self):
        avail = cli.available_memory()
        assert avail is None or avail > 0
        assert cli.peak_rss_mb() > 0.0

    @staticmethod
    def solve_metadata(tmp_path, seed, *args):
        """metadata of an n = 8 solve (D = 823543) run in a fresh interpreter."""
        instance = write_instance(tmp_path / f"r8-{seed}.json", 8, seed=seed)
        out = tmp_path / f"r8-{seed}-result.json"
        proc = run_python(
            "-m", "ceqaoa.cli", "solve", str(instance), *args,
            "--seed", str(seed), "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        return read_json(out)["metadata"]

    def test_peak_rss_stays_under_estimate(self, tmp_path):
        # one grid point, and a grid that holds a phase buffer; the estimate
        # counts the interpreter too, so it bounds the whole process
        # the instance's integer distances give int32 energies, 4 bytes a label
        for grid, per_label, points in (("list:1.0,0.5", 20, 1), ("3x3", 36, 9)):
            meta = self.solve_metadata(tmp_path, 3, "--grid", grid)
            estimate = (
                INTERPRETER_BYTES
                + per_label * 7**7
                + layers.mixer_bytes(BlockLayout(7, 7))
                + points * POINT_BYTES
                + math.factorial(7) * TOUR_BYTES
                + default_shots(8) * SHOT_BYTES
            )
            assert meta["peak_estimate_mb"] == estimate / 2**20
            assert meta["peak_rss_mb"] <= meta["peak_estimate_mb"], grid

    def test_histogram_traced_peak_stays_under_estimate(self, tmp_path, monkeypatch):
        # every buffer the command allocates after its check, traced in
        # process, so the interpreter's allowance cannot hide a gap; n = 8
        # (D = 823543) has int32 energies, 28 bytes a label in the estimate.
        # The rows are formatted a chunk at a time, each freed before the
        # next, so the writer takes the first 64 chunks (the 5120 shots'
        # rows and the first never drawn) and leaves the rest untraced.
        instance = write_instance(tmp_path / "r8.json", 8)
        estimates = []
        check = cli.check_memory
        monkeypatch.setattr(cli, "check_memory", lambda e: (estimates.append(e), check(e))[1])
        write = lambda path, text: collections.deque(itertools.islice(text, 64), maxlen=0)  # noqa: E731
        monkeypatch.setattr(cli, "write_text_atomic", write)
        argv = ["histogram", str(instance), "--angles", "1.0,0.5", "--out", str(tmp_path / "h.csv")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= estimates[0] - INTERPRETER_BYTES

    @pytest.mark.parametrize("n_cities", [7, 8])
    def test_histogram_peak_rss_stays_under_estimate(self, tmp_path, n_cities):
        # n = 7 formats its D = 46656 rows in 46 chunks, n = 8 in 805;
        # the estimate is the one the command checked before allocating
        instance = write_instance(tmp_path / f"r{n_cities}.json", n_cities)
        script = (
            "import sys\n"
            "import ceqaoa.cli as cli\n"
            "estimates = []\n"
            "check = cli.check_memory\n"
            "cli.check_memory = lambda estimate: (estimates.append(estimate), check(estimate))\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, estimates[0] / 2**20, cli.peak_rss_mb())\n"
        )
        proc = run_python(
            "-c", script, "histogram", str(instance), "--angles", "1.0,0.5",
            "--out", str(tmp_path / "hist.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        code, estimate_mb, peak_mb = proc.stdout.splitlines()[-1].split()
        assert code == "0"
        assert float(peak_mb) <= float(estimate_mb)

    def test_peak_rss_does_not_depend_on_the_instance(self, tmp_path):
        # 16 grid points of 5120 shots: when D-sized buffers were freed onto
        # the allocator's heap, such runs peaked 6 or 12 MB apart (one or
        # two float D-vectors) from one instance to the next
        peaks = [
            self.solve_metadata(tmp_path, seed, "--grid", "4x4", "--shots", "5120")["peak_rss_mb"]
            for seed in range(4)
        ]
        assert max(peaks) - min(peaks) < 2.0, peaks


@pytest.mark.parametrize(
    "argv,value,distance",
    [
        (["solve", "--lambda", "inf"], "inf", None),
        (["solve", "--lambda", "1e308"], "1e+308", None),
        (["solve", "--grid", "list:1e308,0"], "1e+308", None),
        (["histogram", "--angles", "0,0", "--lambda", "inf"], "inf", None),
        (["histogram", "--angles", "0,0", "--lambda", "1e308"], "1e+308", None),
        (["histogram", "--angles", "1e308,0"], "1e+308", None),
        # tour costs of 4e307 and penalties up to 6 * 2.9e307 are finite;
        # some of their sums are not
        (["solve", "--lambda", "2.9e307"], "gamma 0.0 times the largest energy inf", 1e307),
        (["histogram", "--angles", "0,0", "--lambda", "2.9e307"], "largest energy inf", 1e307),
    ],
    ids=["solve-lambda-inf", "solve-lambda-1e308", "solve-gamma-1e308",
         "histogram-lambda-inf", "histogram-lambda-1e308", "histogram-gamma-1e308",
         "solve-energy-sum-overflows", "histogram-energy-sum-overflows"],
)
def test_non_finite_energies_end_in_one_line(
    instance_file, tmp_path, capsys, argv, value, distance
):
    command, *rest = argv
    if distance is not None:
        matrix = (distance * (1 - np.eye(4))).tolist()
        instance_file.write_text(json.dumps({"name": "far4", "n": 4, "matrix": matrix}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(instance_file), *rest, "--out", str(tmp_path / "out")])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and value in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["solve", "--grid", "list:nan,0.5"], "nan"),
        (["solve", "--grid", "list:0.5,inf"], "inf"),
        (["solve", "--grid", "list:inf,0.5"], "bad --grid value 'list:inf,0.5' (non-finite"),
        (["histogram", "--angles", "nan,0.5"], "nan"),
        (["histogram", "--angles", "0.5,nan"], "nan"),
        (["histogram", "--angles", "nan,1"], "bad --angles value 'nan,1' (non-finite"),
        (["solve", "--depth", "0"], "--depth must be >= 1, got 0"),
        (["histogram", "--angles", "0.5,0.5", "--depth", "0"], "--depth must be >= 1, got 0"),
        (["solve", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["histogram", "--angles", "0.5,0.5", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["solve", "--shots", "0"], "--shots must be >= 1, got 0"),
        (["solve", "--lambda", "0"], "--lambda must be positive, got 0.0"),
        (["solve", "--lambda", "nan"], "--lambda must be positive, got nan"),
        (["histogram", "--angles", "0.5,0.5", "--lambda", "-2"], "--lambda must be positive"),
        (["solve", "--start-city", "9"], "--start-city must lie in [0, 4), got 9"),
        (["histogram", "--angles", "0.5,0.5", "--start-city", "-1"], "--start-city must lie"),
    ],
    ids=["solve-gamma-nan", "solve-beta-inf", "solve-gamma-inf-named", "histogram-gamma-nan",
         "histogram-beta-nan", "histogram-gamma-nan-named",
         "solve-depth-0", "histogram-depth-0", "solve-seed-negative", "histogram-seed-negative",
         "solve-shots-0", "solve-lambda-0", "solve-lambda-nan", "histogram-lambda-negative",
         "solve-start-city-9", "histogram-start-city-negative"],
)
def test_bad_angles_or_depth_end_in_one_line(instance_file, tmp_path, capsys, argv, named):
    command, *rest = argv
    out = tmp_path / "out"
    assert main([command, str(instance_file), *rest, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,named",
    [
        (["solve", "{file}", "--out", "{out}", "--norm", "raw"], "arguments: --norm raw"),
        (["solve", "{file}", "--out", "{out}", "--bogus", "1"], "arguments: --bogus 1"),
        (["solve", "{file}", "--shots", "abc", "--out", "{out}"], "--shots: invalid int value"),
        (["histogram", "{file}", "--out", "{out}"], "arguments are required: --angles"),
        (["frobnicate", "{file}"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["norm-raw", "bogus", "shots-abc", "histogram-no-angles", "unknown-command", "no-command"],
)
def test_usage_errors_exit_1_in_one_line(instance_file, tmp_path, capsys, argv, named):
    # exit 2 is a solve that found no feasible sample, so usage errors must not use it
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(file=instance_file, out=out) for arg in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert len(err.splitlines()) == 1 and named in err and err.startswith("ceqaoa")
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["histogram", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: ceqaoa" in capsys.readouterr().out


def test_usage_error_exit_code_of_the_process(instance_file, tmp_path):
    out = tmp_path / "r.json"
    argv = ["solve", str(instance_file), "--out", str(out), "--norm", "raw"]
    proc = run_python("-m", "ceqaoa.cli", *argv)
    assert proc.returncode == 1
    assert len(proc.stderr.strip().splitlines()) == 1 and "--norm" in proc.stderr
    assert not out.exists()


def test_huge_tsplib_dimension_exits_3_before_any_distance_matrix(tmp_path):
    # 12,000 EUC_2D cities: one d x d float64 array takes 1.07 GiB, so a
    # solve under a 1 GiB address-space limit ends in exit 3 only when the
    # cap is checked as soon as DIMENSION is read
    d = 12_000
    coords = np.random.default_rng(0).integers(0, 1000, (d, 2))
    path = tmp_path / "huge.tsp"
    path.write_text(
        f"NAME: huge\nDIMENSION: {d}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
        + "".join(f"{i} {x} {y}\n" for i, (x, y) in enumerate(coords.tolist(), 1))
        + "EOF\n"
    )
    out = tmp_path / "r.json"
    proc = run_python(
        "-c",
        "import resource, sys; from ceqaoa.cli import main; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        f"sys.exit(main(['solve', {str(path)!r}, '--out', {str(out)!r}]))",
    )
    assert proc.returncode == 3, proc.stderr
    err = proc.stderr.strip()
    assert len(err.splitlines()) == 1
    assert f"DIMENSION {d}" in err and "CEQAOA_MAX_DIM" in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--out", "{dir}"],
        ["solve", "--out", "{tmp}/r.json", "--hist-out", "{dir}"],
        ["histogram", "--angles", "0.5,0.5", "--out", "{dir}"],
        ["solve", "--out", "{dir}", "--hist-out", "{tmp}/costs.csv"],
    ],
    ids=["solve-out", "solve-hist-out", "histogram-out", "solve-out-with-hist-out"],
)
def test_output_path_that_is_a_directory_ends_in_one_line(instance_file, tmp_path, capsys, argv):
    target = tmp_path / "dir"
    target.mkdir()
    command, *rest = (arg.format(dir=target, tmp=tmp_path) for arg in argv)
    assert main([command, str(instance_file), *rest]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err and str(target) in err
    # the partial output is removed and the directory is left as it was;
    # a solve leaves neither its result JSON nor its cost CSV behind
    assert not any(target.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "ex4.json"]


@pytest.mark.parametrize("hist_out", ["{tmp}/r.json", "{tmp}/sub/../r.json"])
def test_out_and_hist_out_on_one_file_end_in_one_line(instance_file, tmp_path, capsys, hist_out):
    # the JSON would overwrite the cost CSV; the solve is refused before it runs
    (tmp_path / "sub").mkdir()
    argv = ["--out", str(tmp_path / "r.json"), "--hist-out", hist_out.format(tmp=tmp_path)]
    assert main(["solve", str(instance_file), *argv]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--out" in err and "--hist-out" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ex4.json", "sub"]


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

    def test_bad_angles(self, instance_file, tmp_path, capsys):
        assert main(["histogram", str(instance_file), "--angles", "zero", "--out", str(tmp_path / "h.csv")]) == 1
        assert capsys.readouterr().err.strip() == "bad --angles value 'zero' (want gamma,beta)"


class TestVerifyCommand:
    def test_mixer_suite_passes(self, capsys):
        assert main(["verify", "mixer"]) == 0
        out = capsys.readouterr().out
        assert "raw_spectrum_n16" in out and "gate_sweep_first_order" in out
        assert "FAIL" not in out

    def test_gate_sweep_check_fails_on_a_mixer_at_the_wrong_angle(self, monkeypatch):
        def half_angle(state, beta):
            return layers.apply_mixer(state, beta / 2)

        monkeypatch.setattr(verify, "apply_mixer", half_angle)
        first_order = verify.check_mixer_gates()[1]
        assert first_order.name == "gate_sweep_first_order" and not first_order.passed

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nope"]) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"unknown suite 'nope'; choose from {', '.join(verify.SUITE_NAMES)} or all"


class TestBaselinesCommand:
    @pytest.mark.parametrize("n", [1558, 1559, 2000])
    def test_counts_past_the_int_to_str_limit(self, n, capsys):
        # n! has 4299 digits at n = 1558 and more than the 4300 Python converts from n = 1559
        assert main(["baselines", "--n", str(n)]) == 0
        payload = json.loads(capsys.readouterr().out)
        log10_count = math.lgamma(n + 1) / math.log(10)
        if n == 1558:
            assert payload["feasible_count"] == math.factorial(n)
            assert "log10_feasible_count" not in payload
        else:
            assert "feasible_count" not in payload
            assert payload["log10_feasible_count"] == pytest.approx(log10_count, rel=1e-12)

    def test_values(self, tmp_path, capsys):
        out = tmp_path / "base.json"
        assert main(["baselines", "--n", "3", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["m"] == 3 and payload["feasible_count"] == 6
        assert payload["model_a_trials"] == 4.5
        assert payload["model_b_trials"] == pytest.approx(513 / 7)

    @pytest.mark.parametrize("n", ["-3", "0", "1"])
    def test_n_below_two_names_the_flag(self, n, capsys):
        assert main(["baselines", "--n", n]) == 1
        assert capsys.readouterr().err.strip() == f"--n must be >= 2, got {n}"

    @pytest.mark.parametrize("flag", [["--m", "2"], ["--feasible-count", "100"]])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["baselines", "--n", "3", *flag])
        assert exc.value.code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "unrecognized arguments" in err


def test_benchmark_probe_stamps_the_first_circuit(instance_file, tmp_path):
    # perfbench/probe.py times set-up by patching layers.run_circuit and
    # phqc.run_circuit; in setup mode it writes the stamp and exits 0 at the
    # first circuit, so a solve that stops calling them by those names fails here
    probe = SRC.parent / "perfbench" / "probe.py"
    stamp = tmp_path / "setup.stamp"
    proc = run_python(
        str(probe), str(stamp), "setup", "--",
        "solve", str(instance_file), "--out", str(tmp_path / "r.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert float(stamp.read_text()) > 0.0
