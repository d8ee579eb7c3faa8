import itertools
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ceqaoa.cli as cli
from ceqaoa import layers, phqc, verify
from ceqaoa.cli import main, parse_grid_spec
from ceqaoa.encoded import BlockLayout
from ceqaoa.hamiltonian import TspInstance, anchor
from ceqaoa.layers import Column
from ceqaoa.phqc import (
    INTERPRETER_BYTES,
    LEVEL_BYTES,
    POINT_BYTES,
    SHOT_BYTES,
    TOUR_BYTES,
    default_shots,
    phqc_solve,
)

from oracles import random_asymmetric_instance, random_symmetric_instance

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
        assert meta["simd_targets"] == cli.simd_targets()
        csv_path = out.with_suffix(".costs.csv")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "grid_index,gamma,beta,cost,count"
        assert len(lines) > 1

    def test_simd_targets_name_the_complex_loops(self, monkeypatch):
        if hasattr(np.lib, "introspect"):  # numpy 2.x
            targets = cli.simd_targets()
            assert set(targets) == {"absolute", "multiply"}
            assert all(isinstance(t, str) and t for sigs in targets.values() for t in sigs.values())
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)  # as on numpy 1.x
        assert cli.simd_targets() is None

    def test_a_failed_json_write_removes_the_csv(self, instance_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        write = cli.write_text_atomic

        def refuse_the_json(path, chunks, parts=()):
            if path == out:
                assert out.with_suffix(".costs.csv").exists()
                raise OSError(f"cannot write {path}")
            write(path, chunks, parts)

        monkeypatch.setattr(cli, "write_text_atomic", refuse_the_json)
        assert main(["solve", str(instance_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == f"cannot write {out}"
        assert [p.name for p in tmp_path.iterdir()] == ["ex4.json"]

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
        enc = anchor(TspInstance("ex4", np.asarray(MATRIX_4, float)), 0)
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

    @pytest.mark.parametrize("n_cities", [100, 1500])
    def test_instance_over_the_cap_ends_in_one_short_line(
        self, tmp_path, monkeypatch, capsys, n_cities
    ):
        # the cap line names 99**99 (198 digits) and 1499**1499 (4,762 digits,
        # more than Python turns into a str) without their values
        monkeypatch.delenv("CEQAOA_MAX_DIM", raising=False)
        path = tmp_path / "big.json"
        ones = (np.ones((n_cities, n_cities), dtype=int) - np.eye(n_cities, dtype=int)).tolist()
        path.write_text(json.dumps({"matrix": ones}))
        out = tmp_path / "x.json"
        assert main(["solve", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert f"{n_cities - 1}**{n_cities - 1}, over the cap" in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "name,body,message",
        [
            ("list.json", "[[0, 1], [1, 0]]", ": top-level JSON value must be an object"),
            ("nomatrix.json", '{"n": 3}', ': missing "matrix" key'),
            ("one.json", '{"matrix": [[0]]}', ": instance 'one' needs at least 2 cities"),
            ("dim.tsp", "DIMENSION: three\n", ": bad DIMENSION value 'three'"),
            (
                "coord.tsp",
                "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0\n",
                ":4: coordinate line needs 3 fields: '1 0'",
            ),
            (
                "weight.tsp",
                "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
                "EDGE_WEIGHT_SECTION\n0 1\n1 x\n",
                ":6: bad weight entry: '1 x'",
            ),
            ("line.tsp", "NAME: x\nhello\n", ":2: unrecognized line: 'hello'"),
            ("nodim.tsp", "NAME: x\nEDGE_WEIGHT_TYPE: EUC_2D\nEOF\n", ": missing DIMENSION header"),
            (
                "count.tsp",
                "DIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n",
                ":3: NODE_COORD_SECTION has 3 nodes, expected 4",
            ),
            (
                "shuffled.tsp",
                "DIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
                "1 0 0\n3 1 0\n2 0 1\n4 1 1\nEOF\n",
                ":5: node id '3' is not 2 (ids run 1..DIMENSION in order)",
            ),
            (
                "repeated.tsp",
                "DIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
                "1 0 0\n1 1 0\n1 0 1\n1 1 1\nEOF\n",
                ":5: node id '1' is not 2 (ids run 1..DIMENSION in order)",
            ),
            (
                "letters.tsp",
                "DIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
                "A 0 0\nB 1 0\nC 0 1\nD 1 1\nEOF\n",
                ":4: node id 'A' is not 1 (ids run 1..DIMENSION in order)",
            ),
        ],
        ids=[
            "json-not-object",
            "json-no-matrix",
            "json-one-city",
            "tsplib-bad-dimension",
            "tsplib-short-coordinate",
            "tsplib-bad-weight",
            "tsplib-unrecognized-line",
            "tsplib-no-dimension",
            "tsplib-node-count",
            "tsplib-shuffled-ids",
            "tsplib-repeated-ids",
            "tsplib-non-numeric-ids",
        ],
    )
    def test_instance_check_ends_in_its_one_line(self, tmp_path, capsys, name, body, message):
        path = tmp_path / name
        path.write_text(body)
        assert main(["solve", str(path), "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == f"{path}{message}\n"

    def test_euclid_exact_keeps_unrounded_distances(self, tmp_path):
        coords = [(0, 0), (3, 1), (1, 4), (5, 5)]
        path = tmp_path / "e4.tsp"
        path.write_text(
            "NAME: e4\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
            + "".join(f"{i + 1} {x} {y}\n" for i, (x, y) in enumerate(coords))
            + "EOF\n"
        )
        out = tmp_path / "r.json"
        assert main(["solve", str(path), "--euclid-exact", "--out", str(out)]) == 0

        def exact(tour):
            # the scalar tour sum, start edge first, of unrounded distances
            total = 0.0
            for a, b in zip(tour, tour[1:]):
                (xa, ya), (xb, yb) = coords[a], coords[b]
                total += math.sqrt((xa - xb) ** 2 + (ya - yb) ** 2)
            return total

        result = read_json(out)
        tours = [(0, *perm, 0) for perm in itertools.permutations(range(1, 4))]
        assert result["best_cost"] == exact(result["best_tour"]) == min(map(exact, tours))
        assert result["best_cost"] != int(result["best_cost"])

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

    def test_level_table_is_counted_up_to_the_largest_energy(self, tmp_path, monkeypatch):
        # n = 7 (D = 46656) with distances 1 to 3: energies are at most
        # 7 * 3 + 21 * (6 * 5) = 651, so the phase's level table holds at
        # most 652 levels, not the D // 16 = 2916 it may take.  A memory of
        # exactly the estimate with 652 is enough to run.
        matrix = 1 + np.add.outer(np.arange(7), np.arange(7)) % 3
        np.fill_diagonal(matrix, 0)
        instance = tmp_path / "r7.json"
        instance.write_text(json.dumps({"name": "r7", "matrix": matrix.tolist()}))
        estimate = (
            INTERPRETER_BYTES
            + 20 * 6**6
            + 16 * 652 + 8 * 8192
            + layers.mixer_bytes(BlockLayout(6, 6))
            + POINT_BYTES + LEVEL_BYTES * math.factorial(6)
            + math.factorial(6) * TOUR_BYTES
            + default_shots(7) * SHOT_BYTES
        )
        monkeypatch.setattr(cli, "available_memory", lambda: estimate)
        out = tmp_path / "r.json"
        assert main(["solve", str(instance), "--grid", "list:1.0,0.5", "--out", str(out)]) == 0
        assert read_json(out)["metadata"]["peak_estimate_mb"] == estimate / 2**20

    def test_readers(self):
        avail = cli.available_memory()
        assert avail is None or avail > 0
        assert cli.peak_rss_mb() > 0.0

    @pytest.mark.parametrize(
        "line", [None, "MemAvailable: many kB\n", "MemAvailable:\n"], ids=["absent", "word", "bare"]
    )
    def test_unreadable_proc_line_reads_none(self, tmp_path, line):
        path = tmp_path / "meminfo"
        if line is not None:
            path.write_text("MemTotal: 8 kB\n" + line)
        assert cli._proc_kb(str(path), "MemAvailable") is None

    def test_unknown_available_memory_passes_any_estimate(self, monkeypatch):
        monkeypatch.setattr(cli, "available_memory", lambda: None)
        cli.check_memory(1 << 200)

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
        # the instance's integer distances give int32 energies, 4 bytes a
        # label, and a level table of up to D // 16 complex values, and of
        # at most one more than the largest energy, with its 8192 level
        # indices; 5120 shots a point can hold every 7! tour cost
        # The default grid takes the closed form instead: the phase, the
        # marginal chain and its tour buffers (layers.tour_amplitude_bytes
        # for 9 betas) and the gate's tour amplitudes.
        matrix = random_symmetric_instance(8, 3).round()
        levels = int(anchor(TspInstance("r8", matrix)).energy_bound) + 1
        layout, tours = BlockLayout(7, 7), math.factorial(7)
        circuits = layers.mixer_bytes(layout)
        closed = layers.tour_amplitude_bytes(layout, tours, 9) + 16 * tours - 16 * 7**7
        for grid, per_label, held, points in (
            ("list:1.0,0.5", 20, circuits, 1), ("3x3", 36, circuits, 9), ("n+1", 20, closed, 81)
        ):
            meta = self.solve_metadata(tmp_path, 3, "--grid", grid)
            estimate = (
                INTERPRETER_BYTES
                + per_label * 7**7
                + 16 * min(7**7 // 16, levels) + 8 * 8192
                + held
                + points * (POINT_BYTES + LEVEL_BYTES * tours)
                + tours * TOUR_BYTES
                + default_shots(8) * SHOT_BYTES
            )
            assert meta["peak_estimate_mb"] == estimate / 2**20
            assert meta["peak_rss_mb"] <= meta["peak_estimate_mb"], grid

    def test_histogram_traced_peak_stays_under_estimate(self, tmp_path, monkeypatch):
        # every buffer this process allocates after its check, traced, so
        # the interpreter's allowance cannot hide a gap; n = 8 (D = 823543)
        # has int32 energies, 28 bytes a label in the estimate.  With two
        # CPUs this process formats the 5120 shots' rows and the first half
        # of the never-drawn ones, a chunk at a time, then appends the
        # worker's half; the worker's own memory is not traced here.
        instance = write_instance(tmp_path / "r8.json", 8)
        estimates = []
        check = cli.check_memory
        monkeypatch.setattr(cli, "check_memory", lambda e: (estimates.append(e), check(e))[1])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        argv = ["histogram", str(instance), "--angles", "1.0,0.5", "--out", str(tmp_path / "h.csv")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= estimates[0] - INTERPRETER_BYTES

    @staticmethod
    def traced_solve(tmp_path, monkeypatch, matrix, *args):
        """(traced peak, checked estimate less INTERPRETER_BYTES) of a solve run in process.

        A one-point solve runs first, untraced, so that imports made on a
        first run, which INTERPRETER_BYTES covers, are not charged.
        """
        warm_up = write_instance(tmp_path / "r5.json", 5)
        assert main(["solve", str(warm_up), "--grid", "list:1,0.5", "--out", str(tmp_path / "w.json")]) == 0
        instance = tmp_path / "traced.json"
        instance.write_text(json.dumps({"name": "traced", "matrix": matrix.tolist()}))
        estimates = []
        check = cli.check_memory
        monkeypatch.setattr(cli, "check_memory", lambda e: (estimates.append(e), check(e))[1])
        tracemalloc.start()
        try:
            code = main(["solve", str(instance), *args, "--out", str(tmp_path / "r.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak, estimates[-1] - INTERPRETER_BYTES

    def test_cost_histograms_traced_peak_stays_under_estimate(self, tmp_path, monkeypatch):
        # fractional asymmetric distances: a point can draw each of the 5!
        # tour costs, and 400 points keep their histograms to the end
        matrix = random_asymmetric_instance(6, 3)
        peak, estimate = self.traced_solve(
            tmp_path, monkeypatch, matrix, "--grid", "20x20", "--shots", "5000"
        )
        assert peak <= estimate

    def test_closed_form_traced_peak_stays_under_estimate(self, tmp_path, monkeypatch):
        # n = 8 (D = 823543) on its default grid, which takes the closed
        # form, with fractional distances: float64 energies, filled
        # directly, and 5120 shots a point
        matrix = random_symmetric_instance(8, 5)
        peak, estimate = self.traced_solve(tmp_path, monkeypatch, matrix)
        assert peak <= estimate

    def test_mixed_grid_traced_peak_stays_under_estimate(self, tmp_path, monkeypatch):
        # n = 8 (D = 823543): a column of 4 betas takes the closed form after
        # a column of 1 beta runs its circuit, so run_circuit's buffers must
        # be freed before the closed form allocates its own
        matrix = random_symmetric_instance(8, 5)
        grid = "list:" + ";".join(f"1.0,{b}" for b in (0.3, 0.9, 1.6, 2.4)) + ";0.5,0.7"
        peak, estimate = self.traced_solve(tmp_path, monkeypatch, matrix, "--grid", grid)
        assert peak <= estimate

    def test_phase_table_traced_peak_stays_under_estimate(self, tmp_path, monkeypatch):
        # n = 8 (D = 823543), integer distances below 140: the phase gathers
        # from a table of 42586 energy levels, near its limit of D // 16.
        # 100 shots a point keep the histograms' term below the table's.
        matrix = random_symmetric_instance(8, 0, 1.0, 140.0).round()
        peak, estimate = self.traced_solve(tmp_path, monkeypatch, matrix, "--shots", "100")
        assert peak <= estimate

    @pytest.mark.parametrize("n_cities", [7, 8])
    def test_histogram_peak_rss_stays_under_estimate(self, tmp_path, n_cities):
        # n = 7 formats its D = 46656 rows in 46 chunks, n = 8 in 805, split
        # between this process and a worker a CPU past the first; the
        # estimate is the one the command checked before allocating.  A
        # forked worker's RSS counts the pages it shares with this process.
        instance = write_instance(tmp_path / f"r{n_cities}.json", n_cities)
        script = (
            "import os, resource, sys\n"
            "import ceqaoa.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "estimates = []\n"
            "check = cli.check_memory\n"
            "cli.check_memory = lambda estimate: (estimates.append(estimate), check(estimate))\n"
            "code = cli.main(sys.argv[1:])\n"
            "workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
            "print(code, estimates[0] / 2**20, cli.peak_rss_mb(), workers)\n"
        )
        proc = run_python(
            "-c", script, "histogram", str(instance), "--angles", "1.0,0.5",
            "--out", str(tmp_path / "hist.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        code, estimate_mb, peak_mb, workers_mb = proc.stdout.splitlines()[-1].split()
        assert code == "0"
        assert float(peak_mb) <= float(estimate_mb)
        assert 0 < float(workers_mb) <= float(estimate_mb)

    def test_peak_rss_does_not_depend_on_the_instance(self, tmp_path):
        # 16 grid points of 5120 shots: when D-sized buffers were freed onto
        # the allocator's heap, such runs peaked 6 or 12 MB apart (one or
        # two float D-vectors) from one instance to the next
        peaks = [
            self.solve_metadata(tmp_path, seed, "--grid", "4x4", "--shots", "5120")["peak_rss_mb"]
            for seed in range(4)
        ]
        assert max(peaks) - min(peaks) < 2.0, peaks


def refuse_the_d_sized_work(monkeypatch):
    """Make the memory check and the cost diagonal fail the test when they run."""

    def runs(*args):
        raise AssertionError("the run went on with a weight anchor refuses")

    monkeypatch.setattr(cli, "build_cost_diagonal", runs)
    monkeypatch.setattr(phqc, "build_cost_diagonal", runs)
    monkeypatch.setattr(cli, "check_memory", runs)


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
        # some of their sums are not, so anchor refuses the weight
        (["solve", "--lambda", "2.9e307"], "penalty weight 2.9e+307 overflows", 1e307),
        (["histogram", "--angles", "0,0", "--lambda", "2.9e307"], "penalty weight 2.9e+307", 1e307),
    ],
    ids=["solve-lambda-inf", "solve-lambda-1e308", "solve-gamma-1e308",
         "histogram-lambda-inf", "histogram-lambda-1e308", "histogram-gamma-1e308",
         "solve-energy-sum-overflows", "histogram-energy-sum-overflows"],
)
def test_non_finite_energies_end_in_one_line(
    instance_file, tmp_path, monkeypatch, capsys, argv, value, distance
):
    command, *rest = argv
    if "--lambda" in rest:  # anchor refuses each of these weights
        refuse_the_d_sized_work(monkeypatch)
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


@pytest.mark.parametrize("command", [["solve"], ["histogram", "--angles", "0.5,0.5"]])
def test_a_weight_whose_penalty_overflows_ends_before_the_diagonal(
    tmp_path, monkeypatch, capsys, command
):
    # at n = 6 the largest penalty count is 5 * 4 = 20, and 20 * 1e307 is
    # inf: anchor refuses the weight, before the memory check or the solve
    refuse_the_d_sized_work(monkeypatch)
    path = tmp_path / "r6.json"
    matrix = random_symmetric_instance(6, 3).tolist()
    path.write_text(json.dumps({"name": "r6", "n": 6, "matrix": matrix}))
    argv = [*command, str(path), "--lambda", "1e307", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err == (
        "bad --lambda value 1e+307 (instance 'r6': penalty weight 1e+307 overflows the largest "
        "energy)"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["r6.json"]


def test_a_default_weight_that_overflows_ends_in_one_line(tmp_path, monkeypatch, capsys):
    # 9 distances of 1e306 are a finite tour, but the default weight, 9e306,
    # times the largest penalty count, 8 * 7, is not
    refuse_the_d_sized_work(monkeypatch)
    path = tmp_path / "huge9.json"
    matrix = (1e306 * (1 - np.eye(9))).tolist()
    path.write_text(json.dumps({"name": "huge9", "n": 9, "matrix": matrix}))
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "instance 'huge9': penalty weight 9e+306 overflows the largest energy"


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


@pytest.mark.parametrize(
    "argv,named",
    [
        (["baselines", "--n", "1" + "0" * 5000], "argument --n: invalid int value: '1000"),
        (["solve", "{file}", "--grid", "x" * 3000, "--out", "{out}"], "bad --grid value 'xxx"),
        (["histogram", "{file}", "--angles", "1" * 3000, "--out", "{out}"], "bad --angles value '111"),
        (["verify", "x" * 3000], "unknown suite 'xxx"),
    ],
    ids=["baselines-n", "solve-grid", "histogram-angles", "verify-suite"],
)
def test_long_bad_values_are_clipped_in_their_one_line(instance_file, tmp_path, capsys, argv, named):
    # each value alone is thousands of characters; the line echoes its start
    out = tmp_path / "out"
    try:
        code = main([arg.format(file=instance_file, out=out) for arg in argv])
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert named in err and "..." in err
    assert not out.exists()


LONG = "9" * 4000  # int() reads up to 4300 digits


@pytest.mark.parametrize(
    "argv,named",
    [
        (["solve", "{file}", "--start-city", LONG], "--start-city must lie in [0, 4), got 999"),
        (["histogram", "{file}", "--angles", "0,0", "--start-city", "-" + LONG], "got -999"),
        (["solve", "{file}", "--seed", "-" + LONG], "--seed must be >= 0, got -999"),
        (["histogram", "{file}", "--angles", "0,0", "--depth", "-" + LONG], "--depth must be >= 1"),
        (["solve", "{file}", "--shots", "-" + LONG], "--shots must be >= 1, got -999"),
        (["histogram", "{file}", "--angles", "0,0", "--shots", "-" + LONG], "--shots must be >= 0"),
        (["baselines", "--n", "-" + LONG], "--n must be >= 2, got -999"),
        # the estimates of these run to hundreds or thousands of digits
        (["solve", "{file}", "--shots", "9" * 200], "estimated peak memory "),
        (["histogram", "{file}", "--angles", "0,0", "--shots", LONG], "estimated peak memory "),
        (["solve", "{file}", "--grid", f"{'9' * 200}x{'9' * 200}"], "estimated peak memory "),
        (["solve", "{file}", "--grid", f"{'9' * 3000}x{'9' * 3000}"], "estimated peak memory "),
    ],
    ids=["solve-start-city", "histogram-start-city", "solve-seed", "histogram-depth",
         "solve-shots", "histogram-shots", "baselines-n", "solve-shots-estimate",
         "histogram-shots-estimate", "solve-grid-estimate", "solve-grid-past-the-str-limit"],
)
def test_long_numbers_are_clipped_in_their_one_line(instance_file, tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    code = main([arg.format(file=instance_file) for arg in argv] + ["--out", str(out)])
    assert code in (1, 3)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 200 and "Traceback" not in err
    assert named in err and "..." in err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv,flag,given,reason",
    [
        (["solve", "--out", "{tmp}/nodir/r.json"], "--out", "{tmp}/nodir/r.json", "no directory"),
        (["solve", "--hist-out", "{tmp}/nodir/c.csv"], "--hist-out", "{tmp}/nodir/c.csv", "no directory"),
        (["histogram", "--angles", "0.5,0.5", "--out", "{tmp}/nodir/h.csv"], "--out",
         "{tmp}/nodir/h.csv", "no directory"),
        (["solve", "--out", "{tmp}/ro/r.json"], "--out", "{tmp}/ro/r.json", "not writable"),
        (["histogram", "--angles", "0.5,0.5", "--out", "{tmp}/ro/h.csv"], "--out",
         "{tmp}/ro/h.csv", "not writable"),
        (["baselines", "--n", "3", "--out", "{tmp}/ro"], "--out", "{tmp}/ro", "is a directory"),
        (["baselines", "--n", "3", "--out", "{tmp}/nodir/b.json"], "--out",
         "{tmp}/nodir/b.json", "no directory"),
        (["baselines", "--n", "3", "--out", "{tmp}/ro/b.json"], "--out", "{tmp}/ro/b.json",
         "not writable"),
        (["baselines", "--n", "3", "--out", "{tmp}/fifo"], "--out", "{tmp}/fifo",
         "is not a regular file"),
        (["solve", "--hist-out", "{tmp}/fifo"], "--hist-out", "{tmp}/fifo", "is not a regular file"),
        (["solve", "--out", "{tmp}/link"], "--out", "{tmp}/link", "is not a regular file"),
        (["histogram", "--angles", "0.5,0.5", "--out", "{tmp}/link"], "--out", "{tmp}/link",
         "is not a regular file"),
    ],
    ids=["solve-out", "solve-hist-out", "histogram-out", "solve-read-only", "histogram-read-only",
         "baselines-directory", "baselines-no-directory", "baselines-read-only", "baselines-fifo",
         "solve-hist-out-fifo", "solve-symlink", "histogram-symlink"],
)
def test_unwritable_output_path_ends_before_the_run(
    instance_file, tmp_path, monkeypatch, capsys, argv, flag, given, reason
):
    def runs(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setattr(cli, "phqc_solve", runs)
    monkeypatch.setattr(cli, "run_circuit", runs)
    monkeypatch.setattr(cli, "classical_baselines", runs)
    (tmp_path / "ro").mkdir()
    # the output is renamed over its path, which would replace a FIFO or a
    # symbolic link (here to a file) by a new file
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "target.json").write_text("{}\n")
    (tmp_path / "link").symlink_to(tmp_path / "target.json")
    # the suite may run as root, for whom every directory is writable
    writable = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: Path(path).name != "ro" and writable(path, mode))
    before = sorted(tmp_path.rglob("*"))
    command, *rest = (arg.format(tmp=tmp_path) for arg in argv)
    if command in ("solve", "histogram"):
        rest.insert(0, str(instance_file))
    assert main([command, *rest]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"{flag} {given.format(tmp=tmp_path)!r}") and reason in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "fifo").is_fifo() and (tmp_path / "link").is_symlink()


def run_within(seconds, argv):
    """main(argv), failing the test when it has not returned after seconds."""

    def late(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(seconds)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv", [["histogram", "{dir}/r7.json", "--angles", "1.0,0.5"], ["baselines", "--n", "3"]],
    ids=["histogram", "baselines"],
)
def test_files_beside_the_output_are_left_alone(tmp_path, monkeypatch, argv):
    # a FIFO and a link at guessable temporary names beside the output:
    # opening the FIFO would block, and writing through the link would fill
    # its target
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    (tmp_path / "clean").mkdir()
    write_instance(tmp_path / "r7.json", 7)
    os.mkfifo(tmp_path / "out.tmp")
    (tmp_path / "target.txt").write_text("kept\n")
    (tmp_path / "out.tmp.2").symlink_to(tmp_path / "target.txt")
    command = [arg.format(dir=tmp_path) for arg in argv]
    assert run_within(30, [*command, "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "clean", "out", "out.tmp", "out.tmp.2", "r7.json", "target.txt"]
    assert (tmp_path / "out.tmp").is_fifo() and (tmp_path / "out.tmp.2").is_symlink()
    assert (tmp_path / "target.txt").read_text() == "kept\n"
    assert run_within(30, [*command, "--out", str(tmp_path / "clean" / "out")]) == 0
    assert not (tmp_path / "out").is_symlink()
    assert (tmp_path / "out").read_bytes() == (tmp_path / "clean" / "out").read_bytes()


def test_a_write_during_another_to_the_same_path_ends_with_the_later_rename(tmp_path):
    # the inner write starts and finishes while the outer one is half
    # written; each has a forked writer
    out = tmp_path / "h.csv"

    def outer():
        yield "outer 1\n"
        cli.write_text_atomic(out, ["inner 1\n"], [["inner 2\n"]])
        assert out.read_text() == "inner 1\ninner 2\n"
        yield "outer 2\n"

    cli.write_text_atomic(out, outer(), [["outer 3\n"]])
    assert out.read_text() == "outer 1\nouter 2\nouter 3\n"
    assert [p.name for p in tmp_path.iterdir()] == ["h.csv"]


def test_an_output_name_of_the_longest_length_is_written(tmp_path, capsys):
    out = tmp_path / ("b" * os.pathconf(tmp_path, "PC_NAME_MAX"))
    assert main(["baselines", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_output_mode_follows_the_umask(tmp_path):
    umask = os.umask(0o027)
    try:
        cli.write_text_atomic(tmp_path / "out", ["text\n"])
        (tmp_path / "plain").write_text("text\n")
    finally:
        os.umask(umask)
    assert os.stat(tmp_path / "out").st_mode == os.stat(tmp_path / "plain").st_mode


class TestHistogramWriters:
    """The never-drawn rows split among forked writers, and what a failed writer leaves."""

    @staticmethod
    def run(tmp_path, monkeypatch, cpus, fail_at=None, fail_here=None):
        """An n = 7 histogram (46 chunks) with the CPU set cut to `cpus`.

        Formatting the chunk that starts at flat `fail_at` raises, in this
        process when fail_here is True and in a worker when it is False.
        """
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        here, format_rows = os.getpid(), cli.format_rows

        def failing(rows, flats, counts):
            if counts is None and flats.size and flats[0] == fail_at and (os.getpid() == here) == fail_here:
                raise OSError(f"no rows from {fail_at}")
            return format_rows(rows, flats, counts)

        monkeypatch.setattr(cli, "format_rows", failing)
        instance = write_instance(tmp_path / "r7.json", 7)
        return main(["histogram", str(instance), "--angles", "1.0,0.5", "--out", str(tmp_path / "h.csv")])

    @staticmethod
    def assert_nothing_left(tmp_path):
        assert [p.name for p in tmp_path.iterdir()] == ["r7.json"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("part,chunk", [(2, 15), (3, 30), (2, 16)], ids=["2", "3", "2-second-chunk"])
    def test_failed_worker_ends_in_one_line(self, tmp_path, monkeypatch, capsys, part, chunk):
        # three writers over chunks [0, 15), [15, 30) and [30, 46): either
        # worker fails at its first chunk, the first while the second may
        # run, or writer 2 at its second, after its first chunk's rows
        assert self.run(tmp_path, monkeypatch, 3, fail_at=chunk * 1024, fail_here=False) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"writing {tmp_path / 'h.csv'} failed in writer {part}: no rows from {chunk * 1024}"
        self.assert_nothing_left(tmp_path)

    def test_failure_in_this_process_kills_and_reaps_the_workers(self, tmp_path, monkeypatch, capsys):
        assert self.run(tmp_path, monkeypatch, 3, fail_at=0, fail_here=True) == 1
        assert capsys.readouterr().err.strip() == "no rows from 0"
        self.assert_nothing_left(tmp_path)

    def test_each_worker_is_charged_to_the_estimate(self, tmp_path, monkeypatch):
        estimates = []
        check = cli.check_memory
        monkeypatch.setattr(cli, "check_memory", lambda e: (estimates.append(e), check(e))[1])
        for cpus in (1, 3, 64):  # 64 CPUs still give one writer a chunk: 46
            assert self.run(tmp_path, monkeypatch, cpus) == 0
        one = estimates[0]
        assert estimates[1:] == [one + 2 * cli.HISTOGRAM_WRITER_BYTES, one + 45 * cli.HISTOGRAM_WRITER_BYTES]


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

    def test_one_design_runs_each_layout_in_one_sweep(self, monkeypatch):
        calls, circuits = [], []

        def counted(diag, columns):
            calls.append(diag.layout)
            for state in layers.run_circuit(diag, columns):
                circuits.append(state.layout)
                yield state

        monkeypatch.setattr(verify, "run_circuit", counted)
        assert main(["verify", "one_design"]) == 0
        assert len(calls) == 4 and len(circuits) == 33

    @pytest.mark.parametrize("second_passes", [True, False])
    def test_all_runs_every_suite_in_order(self, monkeypatch, capsys, second_passes):
        def suite(name, *passed):
            return lambda: [
                verify.CheckResult(name, f"check_{i}", ok, i, "any") for i, ok in enumerate(passed)
            ]

        # not in name order, so the output order is the dict's
        suites = {"zeta": suite("zeta", True, True), "alpha": suite("alpha", second_passes)}
        monkeypatch.setattr(verify, "SUITES", suites)
        assert main(["verify", "all"]) == (0 if second_passes else 1)
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] zeta:check_0  measured=0  target=any",
            "[PASS] zeta:check_1  measured=1  target=any",
            f"[{'PASS' if second_passes else 'FAIL'}] alpha:check_0  measured=0  target=any",
            f"{2 + second_passes}/3 checks passed",
        ]

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

    def test_count_past_the_exact_budget_is_never_formed(self, capsys, monkeypatch):
        # 10**7! has 65.7M decimal digits and took minutes to form; its
        # log10 comes from lgamma instead
        factorial = math.factorial

        def small_factorial(n):
            assert n < 10**4, f"formed {n}!"
            return factorial(n)

        monkeypatch.setattr(math, "factorial", small_factorial)
        assert main(["baselines", "--n", "10000000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "feasible_count" not in payload
        log10_count = math.lgamma(10**7 + 1) / math.log(10)
        assert payload["log10_feasible_count"] == log10_count
        assert payload["log10_model_a"] == pytest.approx(7 * 10**7 - log10_count, rel=1e-12)
        assert payload["model_a_trials"] == payload["model_b_trials"] == math.inf

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

    @pytest.mark.parametrize("n", [10**155, 10**400], ids=["1e155", "1e400"])
    def test_n_whose_square_overflows_a_float_names_the_flag(self, n, capsys):
        assert main(["baselines", "--n", str(n)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "--n must be at most about 1.34e154, so that n * n fits a float"

    def test_largest_n_whose_square_fits_a_float(self, capsys):
        n = math.isqrt(int(sys.float_info.max))
        assert main(["baselines", "--n", str(n)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == n and payload["model_b_trials"] == math.inf

    @pytest.mark.parametrize("flag", [["--m", "2"], ["--feasible-count", "100"]])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["baselines", "--n", "3", *flag])
        assert exc.value.code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "unrecognized arguments" in err


def test_benchmark_probe_stamps_the_first_circuit(instance_file, tmp_path):
    # perfbench/probe.py times set-up by patching layers.run_circuit, which
    # layers.point_probabilities calls through the module; in setup mode it
    # writes the stamp and exits 0 at the first circuit, so a solve that
    # stops calling it by that name fails here
    probe = SRC.parent / "perfbench" / "probe.py"
    stamp = tmp_path / "setup.stamp"
    proc = run_python(
        str(probe), str(stamp), "setup", "--",
        "solve", str(instance_file), "--out", str(tmp_path / "r.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert float(stamp.read_text()) > 0.0
