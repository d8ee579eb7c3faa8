"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 12 needs external benchmark instance files and skips
when they are absent.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ceqaoa import verify
from ceqaoa.hamiltonian import TspInstance, anchor, brute_force_optimum, build_cost_diagonal
from ceqaoa.instances import parse_instance
from ceqaoa.layers import Column, run_circuit
from ceqaoa.phqc import derive_seed, phqc_solve, required_shots

from oracles import (
    exact_success_probability,
    held_karp_cycle,
    random_symmetric_instance,
    solved_cost,
)


def _finish(criterion, description, t0, ok, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {description} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"
    return elapsed


def test_criterion_01_encoder_exactness():
    t0 = time.perf_counter()
    checks = verify.check_encoder()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(1, "encoder exactness (fidelity and n-1 two-qubit gates, n=2..10)", t0,
                      not failed, str(failed))
    assert elapsed < 1.0


def test_criterion_02_cross_representation():
    t0 = time.perf_counter()
    checks = verify.check_cross_representation()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(2, "dense 9-qubit preparation projects to the uniform encoded state", t0,
                      not failed, str(failed))
    assert elapsed < 1.0


def test_criterion_03_mixer_spectrum():
    t0 = time.perf_counter()
    checks = verify.check_mixer_spectrum()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(3, "mixer spectrum {n-1, -1 x (n-1)} and unit normalized gap, n=2..16", t0,
                      not failed, str(failed))
    assert elapsed < 1.0


def test_criterion_04_ergodicity():
    t0 = time.perf_counter()
    checks = verify.check_ergodicity()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(4, "angle-averaged transition matrix matches the closed form, n=2..8", t0,
                      not failed, str(failed))
    assert elapsed < 5.0


def test_criterion_05_exact_one_design():
    t0 = time.perf_counter()
    checks = verify.check_one_design()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(5, "permutation twirl hits 1/D (exhaustive n=3 m=2; Monte Carlo n=4 m=3)", t0,
                      not failed, str(failed))
    assert elapsed < 30.0


def test_criterion_06_existence_bound():
    t0 = time.perf_counter()
    checks = verify.check_existence_bound()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(6, "best blockwise permutation reaches overlap >= 1/D (n=3, m in {2,3})", t0,
                      not failed, str(failed))
    assert elapsed < 60.0


def test_criterion_07_solver_oracle_equivalence():
    t0 = time.perf_counter()
    sizes = (4, 5, 6)
    runs = hits_small = hits_large = 0
    for n_cities in sizes:
        for i in range(20):
            matrix = random_symmetric_instance(n_cities, 100 * n_cities + i)
            enc = anchor(TspInstance(f"r{n_cities}_{i}", n_cities, matrix), 0)
            # Held-Karp shares no code with the cost diagonal the solve scores on
            best = held_karp_cycle(matrix, 0)
            runs += 1
            cost = solved_cost(phqc_solve(enc, shots_per_point=10 * n_cities**3, master_seed=i))
            if cost is not None and math.isclose(cost, best, rel_tol=1e-9):
                hits_small += 1
            cost = solved_cost(phqc_solve(enc, shots_per_point=10 * n_cities**4, master_seed=i))
            if cost is not None and math.isclose(cost, best, rel_tol=1e-9):
                hits_large += 1
    ok = hits_small >= math.ceil(0.95 * runs) and hits_large == runs
    elapsed = _finish(
        7,
        "grid search matches Held-Karp on 20 random instances per size {4,5,6}",
        t0,
        ok,
        f"hits at 10n^3: {hits_small}/{runs}, at 10n^4: {hits_large}/{runs}",
    )
    assert elapsed < 600.0


def test_criterion_08_chernoff_shot_calculus():
    t0 = time.perf_counter()
    matrix = np.array(
        [[0, 10, 15, 20], [10, 0, 35, 25], [15, 35, 0, 30], [20, 25, 30, 0]], dtype=float
    )
    enc = anchor(TspInstance("ex4", 4, matrix), 0)
    column = Column(0.9, (1.2,))
    diag = build_cost_diagonal(enc)
    p_opt, _ = exact_success_probability(diag, column)
    delta = math.exp(-10)
    shots = required_shots(p_opt, delta)

    (state,) = run_circuit(diag, [column])
    probs = state.probabilities()
    feasible = brute_force_optimum(diag)
    optimal = set(feasible.flats[: feasible.degeneracy].tolist())
    trials = 500
    hits = 0
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(20_240_817, trial))
        draws = rng.choice(enc.layout.D, size=shots, p=probs / probs.sum())
        if optimal.intersection(draws.tolist()):
            hits += 1
    threshold = 1.0 - delta - 3.0 * math.sqrt(delta / trials)
    rate = hits / trials
    elapsed = _finish(
        8,
        f"required_shots(p_opt={p_opt:.4f}, delta=e^-10) = {shots} recovers the optimum",
        t0,
        rate >= threshold,
        f"empirical rate {rate:.5f} vs threshold {threshold:.5f}",
    )
    assert elapsed < 120.0


def test_criterion_09_per_block_two_design_moments():
    t0 = time.perf_counter()
    checks = verify.check_two_design_moments()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(9, "random block circuits reach Haar moments (5% mean, 10% second)", t0,
                      not failed, str(failed))
    assert elapsed < 300.0


def test_criterion_10_controllability():
    t0 = time.perf_counter()
    checks = verify.check_lie_dimension()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(10, "Lie closure dimension equals n^2 - 1 for n in {3,4,5}", t0,
                      not failed, str(failed))
    assert elapsed < 30.0


def test_criterion_11_classical_baselines():
    t0 = time.perf_counter()
    checks = verify.check_baselines()
    failed = [c for c in checks if not c.passed]
    elapsed = _finish(11, "raw-bitstring baseline 513/7 and log10 separations, n <= 12", t0,
                      not failed, str(failed))
    assert elapsed < 1.0


# Benchmark rows: instance -> (shots, expected cost, fine angles, expected p_opt)
BENCHMARK_ROWS = {
    "wi4": (160, 6700.0, (1.57, 2.36), 6.3e-2),
    "wi5": (250, 6786.0, (2.20, 2.44), 3.9e-2),
    "wi6": (360, 9815.0, (1.01, 1.75), 4.2e-3),
    "wi7": (733, 7245.0, (1.35, 2.69), 3.4e-4),
}


def _benchmark_dir():
    env = os.environ.get("CEQAOA_QOPTLIB_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "qoptlib"


def test_criterion_12_conditional_benchmark_reproduction():
    t0 = time.perf_counter()
    base = _benchmark_dir()
    paths = {}
    for name in BENCHMARK_ROWS:
        for ext in (".json", ".tsp"):
            cand = base / f"{name}{ext}"
            if cand.is_file():
                paths[name] = cand
                break
    missing = sorted(set(BENCHMARK_ROWS) - set(paths))
    if missing:
        print(f"[SKIP] criterion 12: benchmark files missing ({', '.join(missing)}) in {base}")
        pytest.skip(f"benchmark instance files not available: {missing}")

    failures = []
    for name, (shots, expected_cost, angles, expected_p) in BENCHMARK_ROWS.items():
        enc = anchor(parse_instance(paths[name]), 0)
        cost = solved_cost(phqc_solve(enc, shots_per_point=shots, master_seed=1))
        if cost is None or not math.isclose(cost, expected_cost, rel_tol=1e-6):
            failures.append(f"{name}: best_cost {cost} != {expected_cost}")
        p_opt, _ = exact_success_probability(build_cost_diagonal(enc), Column(angles[0], (angles[1],)))
        if abs(p_opt - expected_p) > 0.25 * expected_p:
            failures.append(f"{name}: p_opt {p_opt:.3e} not within 25% of {expected_p:.3e}")
    elapsed = _finish(12, "benchmark tour costs and success probabilities", t0,
                      not failures, "; ".join(failures))
    assert elapsed < 1800.0
