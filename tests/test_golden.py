"""Byte-for-byte pins of the CLI outputs for fixed seeds.

Solve, histogram, verify and baselines outputs are all pinned.

Any refactor must reproduce the files under tests/golden/ exactly; a change
that means to alter an output replaces them on purpose and says so.  The
result JSON is compared with its `metadata` field (wall time, timestamp)
removed and re-serialized the way the CLI writes it.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ceqaoa.cli import main
from ceqaoa.hamiltonian import anchor, build_cost_diagonal
from ceqaoa.instances import parse_instance

from oracles import reference_cost_diagonal

GOLDEN = Path(__file__).parent / "golden"

SOLVES = [
    ("solve_n5", "golden5.json", ["--seed", "5"]),
    ("solve_n6", "golden6.json", ["--seed", "6"]),
    # depth 2 over gammas (0.5, 0.5, 0.9, 0.5): a phase reused inside a circuit
    # and across points, a miss, and a return to an earlier gamma
    (
        "solve_n5_depth2",
        "golden5.json",
        ["--depth", "2", "--grid", "list:0.5,0.3;0.5,1.1;0.9,0.3;0.5,0.7", "--seed", "7"],
    ),
    # depth 1 over gammas (0.5, 0.5, 0.0, -0.0, 0.5): a run of equal gammas,
    # two zeros whose signs differ, and a return to an earlier gamma
    (
        "solve_n5_list_runs",
        "golden5.json",
        ["--grid", "list:0.5,0.3;0.5,1.1;0.0,0.2;-0.0,0.2;0.5,0.7", "--seed", "9"],
    ),
    # integer distances 1..12 at n = 7: the energies span at most D // 16
    # integer levels, so the phase can come from a table of them
    ("solve_n7_table", "golden7.json", ["--grid", "4x4", "--shots", "300", "--seed", "8"]),
    # energies that are not all integers, held as float64: a non-integral
    # penalty weight, and fractional distances (whose default weight is
    # fractional too)
    ("solve_n5_lambda_7_5", "golden5.json", ["--lambda", "7.5", "--seed", "10"]),
    ("solve_n5_frac", "golden5_frac.json", ["--seed", "11"]),
    # a start city other than 0 and an integral user weight: int32 energies
    # from a weight that is not the default
    (
        "solve_n5_start2_lambda40",
        "golden5.json",
        ["--start-city", "2", "--lambda", "40", "--seed", "12"],
    ),
]


def stripped_json(path: Path) -> str:
    payload = json.loads(path.read_text())
    payload.pop("metadata")
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name,instance,extra", SOLVES, ids=[s[0] for s in SOLVES])
def test_solve_matches_golden(name, instance, extra, tmp_path):
    out = tmp_path / "result.json"
    assert main(["solve", str(GOLDEN / instance), "--out", str(out), *extra]) == 0
    assert stripped_json(out) == (GOLDEN / f"{name}.json").read_text()
    costs = out.with_suffix(".costs.csv").read_bytes()
    assert costs == (GOLDEN / f"{name}.costs.csv").read_bytes()


def test_no_feasible_solve_matches_golden(tmp_path):
    # one shot at each of two points on one gamma, none of them feasible:
    # exit 2, and the winner's fields written as null
    out = tmp_path / "result.json"
    argv = ["--grid", "list:0,0;0,0.7", "--shots", "1", "--seed", "1"]
    assert main(["solve", str(GOLDEN / "golden5.json"), "--out", str(out), *argv]) == 2
    assert stripped_json(out) == (GOLDEN / "solve_n5_no_feasible.json").read_text()
    costs = out.with_suffix(".costs.csv").read_bytes()
    assert costs == (GOLDEN / "solve_n5_no_feasible.costs.csv").read_bytes()


def test_table_golden_spans_few_energy_levels():
    enc = anchor(parse_instance(GOLDEN / "golden7.json"))
    diag = build_cost_diagonal(enc)
    objective, count = reference_cost_diagonal(enc)
    energy = diag.energy
    assert np.array_equal(energy, objective + enc.penalty_weight * count.astype(np.float64))
    assert np.array_equal(energy, np.round(energy))
    assert energy.max() - energy.min() + 1 <= diag.layout.D // 16


def test_histogram_matches_golden(tmp_path):
    out = tmp_path / "hist.csv"
    argv = ["histogram", str(GOLDEN / "golden5.json"), "--angles", "0.9,1.7", "--seed", "55"]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "histogram_n5.csv").read_bytes()


@pytest.mark.parametrize(
    "name,instance,extra",
    [
        ("histogram_n5_lambda_7_5", "golden5.json", ["--lambda", "7.5", "--seed", "56"]),
        ("histogram_n5_frac", "golden5_frac.json", ["--seed", "57"]),
    ],
    ids=["lambda_7_5", "frac"],
)
def test_float_energy_histogram_matches_golden(name, instance, extra, tmp_path):
    out = tmp_path / "hist.csv"
    argv = ["histogram", str(GOLDEN / instance), "--angles", "0.9,1.7", *extra]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_start_city_and_integral_weight_histogram_matches_golden(tmp_path):
    out = tmp_path / "hist.csv"
    argv = ["histogram", str(GOLDEN / "golden5.json"), "--angles", "0.5,0.5"]
    argv += ["--start-city", "2", "--lambda", "40", "--seed", "12", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / "histogram_n5_start2_lambda40.csv").read_bytes()


@pytest.mark.parametrize("suite", ["encoder", "mixer", "one_design", "baselines"])
def test_verify_matches_golden(suite, capsys):
    assert main(["verify", suite]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_{suite}.txt").read_text()


@pytest.mark.parametrize("n", [8, 40])
def test_baselines_match_golden(n, capsys):
    assert main(["baselines", "--n", str(n)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"baselines_n{n}.json").read_text()


def test_baselines_on_a_python_without_the_int_to_str_limit(capsys, monkeypatch):
    # sys.get_int_max_str_digits came in 3.11 and 3.10.7; without it nothing is limited
    monkeypatch.delattr("sys.get_int_max_str_digits")
    assert main(["baselines", "--n", "8"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "baselines_n8.json").read_text()


# sha256 of histogram CSVs too large to commit: n = 7 formats 46 chunks,
# with drawn rows (3430 shots) before the never-drawn ones; n = 6 draws
# nothing, so its optima are rows with count 0 and is_optimal 1
HISTOGRAM_DIGESTS = [
    (
        "golden7.json",
        ["--seed", "58"],
        "8e6ca17ab27bbb29c8aa8910d11cf107121ffc0cd12dbbd5c06c60784752f2c2",
    ),
    (
        "golden6.json",
        ["--seed", "59", "--shots", "0"],
        "4c9731551e5e96bea158da78c3884f723b366ea5498b0b47ea2819804a5d699e",
    ),
]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "instance,extra,digest", HISTOGRAM_DIGESTS, ids=["n7", "n6_no_shots"]
)
def test_histogram_matches_golden_digest(instance, extra, digest, cpus, tmp_path, monkeypatch):
    # the rows never drawn are split among as many writers as there are CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out = tmp_path / "hist.csv"
    argv = ["histogram", str(GOLDEN / instance), "--angles", "0.9,1.7", *extra, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert [p.name for p in tmp_path.iterdir()] == ["hist.csv"]
