"""Self-test of the benchmark's output checks.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs `ceqaoa solve` and `ceqaoa histogram` on a 5-city instance, shows that
the real outputs pass every check, then feeds in one corrupted copy per
check and shows that the targeted check rejects it.  Exits 1 if a clean
output fails or a corruption slips through.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
N_CITIES, SHOTS, SEED = 5, 1250, 3
DIM = (N_CITIES - 1) ** (N_CITIES - 1)


def run_cli(args: list[str], tmp: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ceqaoa.cli", *args], cwd=tmp, env=env, capture_output=True
    )
    return proc.returncode


def with_row(text: str, index: int, edit) -> str:
    """Apply `edit` to the fields of data row `index` of a histogram CSV."""
    lines = text.splitlines()
    fields = lines[2 + index].split(",")
    edit(fields)
    lines[2 + index] = ",".join(fields)
    return "\n".join(lines) + "\n"


def main() -> int:
    inst = checks.make_instance(N_CITIES, SEED)
    matrix = inst["matrix"]
    opt = checks.enumerate_optimum(matrix)
    scratch = ROOT / "perfbench" / "out"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as name:
        tmp = Path(name)
        (tmp / "inst.json").write_text(json.dumps(inst))
        common = ["inst.json", "--shots", str(SHOTS), "--seed", str(SEED)]
        codes = [
            run_cli(["solve", *common, "--out", "r.json"], tmp),
            run_cli(["histogram", *common, "--angles", "1.0,0.5", "--out", "h.csv"], tmp),
        ]
        if codes != [0, 0]:
            print(f"ceqaoa exited with {codes}", file=sys.stderr)
            return 1
        result = json.loads((tmp / "r.json").read_text())
        hist = (tmp / "h.csv").read_text()
    n_points = (N_CITIES + 1) ** 2

    def solve_fails(res):
        return checks.check_solve(res, matrix, opt, n_points)

    def hist_fails(text):
        return checks.check_histogram(checks.summarize_histogram(text, matrix, opt), opt, DIM, SHOTS)

    def corrupt(edit):
        res = copy.deepcopy(result)
        edit(res)
        return res

    def bump(fields, col, delta):
        fields[col] = repr(type(delta)(fields[col]) + delta)

    def first_optimal_row(text):
        return next(i for i, line in enumerate(text.splitlines()[2:]) if line.endswith(",1"))

    other = corrupt(lambda r: r.update(feasible_fraction=r["feasible_fraction"] + 1e-12))
    same_meta = corrupt(lambda r: r["metadata"].update(wall_time_s=-1.0))
    digest = checks.result_digest
    clean = {
        "exit code 0": checks.check_exit(0),
        "solve result": solve_fails(result),
        "histogram CSV": hist_fails(hist),
        "metadata-only difference": checks.check_same([digest(result), digest(same_meta)]),
    }
    cases = [
        ("exit_code", checks.check_exit(1)),
        ("tour_cycle", solve_fails(corrupt(lambda r: r["best_tour"].__setitem__(0, 1)))),
        ("tour_cycle", solve_fails(corrupt(lambda r: r["best_tour"].__setitem__(1, r["best_tour"][2])))),
        ("tour_cost", solve_fails(corrupt(lambda r: r.update(best_cost=r["best_cost"] + 1)))),
        ("above_optimum", solve_fails(corrupt(lambda r: r.update(best_cost=opt.cost - 1)))),
        ("grid_rows", solve_fails(corrupt(lambda r: r["grid_table"].pop()))),
        ("fraction_range", solve_fails(corrupt(lambda r: r["grid_table"][0].update(feasible_fraction=1.5)))),
        ("fraction_range", solve_fails(corrupt(lambda r: r.update(feasible_fraction=-0.1)))),
        ("hist_rows", hist_fails(hist.rstrip("\n").rsplit("\n", 1)[0] + "\n")),
        ("hist_counts", hist_fails(with_row(hist, 0, lambda f: bump(f, 2, 1)))),
        ("hist_probs", hist_fails(with_row(hist, 0, lambda f: bump(f, 3, 1e-6)))),
        ("hist_optimal", hist_fails(with_row(hist, first_optimal_row(hist), lambda f: f.__setitem__(4, "0")))),
        ("same_result", checks.check_same([digest(result), digest(other)])),
    ]

    ok = True
    for name, fails in clean.items():
        print(f"clean {name}: {'passes' if not fails else f'FAILS {fails}'}")
        ok &= not fails
    for target, fails in cases:
        hit = target in {check_id for check_id, _ in fails}
        print(f"corrupted for {target}: {'rejected' if hit else f'NOT rejected {fails}'}")
        ok &= hit
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
