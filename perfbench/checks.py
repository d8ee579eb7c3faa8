"""Benchmark inputs and output checks, independent of the ceqaoa package.

Instances are random Euclidean TSPs with distances rounded to integers.  The
optimum comes from an `itertools` enumeration here, never from the
program's own oracle.  Every check returns a list of `(check_id, message)`
failures; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass

START_CITY = 0
PROB_SUM_TOL = 1e-9


def make_instance(n_cities: int, seed: int) -> dict:
    """Instance JSON for `n_cities` points drawn uniformly from [0, 100)^2."""
    rng = random.Random(f"ceqaoa-bench:{n_cities}:{seed}")
    pts = [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(n_cities)]
    matrix = [
        [0 if i == j else math.floor(math.dist(p, q) + 0.5) for j, q in enumerate(pts)]
        for i, p in enumerate(pts)
    ]
    return {"name": f"rand{n_cities}-s{seed}", "n": n_cities, "matrix": matrix}


def cycle_cost(matrix, tour) -> float:
    """Cost of a closed city sequence (first city repeated at the end)."""
    return float(sum(matrix[a][b] for a, b in zip(tour[:-1], tour[1:])))


@dataclass(frozen=True)
class Optimum:
    cost: float
    tours: frozenset[tuple[int, ...]]  # every optimal closed tour, both directions

    @property
    def degeneracy(self) -> int:
        return len(self.tours)


def enumerate_optimum(matrix) -> Optimum:
    """Exhaustive search over the (n-1)! tours anchored at START_CITY."""
    n = len(matrix)
    rest = [c for c in range(n) if c != START_CITY]
    best, tours = math.inf, set()
    for perm in itertools.permutations(rest):
        tour = (START_CITY, *perm, START_CITY)
        cost = cycle_cost(matrix, tour)
        if cost < best:
            best, tours = cost, {tour}
        elif cost == best:
            tours.add(tour)
    return Optimum(best, frozenset(tours))


def result_digest(result: dict) -> str:
    """Hash of a result JSON outside `metadata`."""
    body = {k: v for k, v in result.items() if k != "metadata"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def check_exit(code: int) -> list[tuple[str, str]]:
    return [] if code == 0 else [("exit_code", f"exit code {code}")]


def check_solve(result: dict, matrix, opt: Optimum, n_points: int) -> list[tuple[str, str]]:
    """Checks on a `ceqaoa solve` result JSON."""
    fails = []
    n = len(matrix)
    tour = result.get("best_tour")
    if (
        not isinstance(tour, list)
        or len(tour) != n + 1
        or tour[0] != START_CITY
        or tour[-1] != START_CITY
        or sorted(tour[:-1]) != list(range(n))
    ):
        fails.append(("tour_cycle", f"best_tour {tour} is not a cycle from city {START_CITY}"))
    else:
        cost = cycle_cost(matrix, tour)
        if cost != result.get("best_cost"):
            fails.append(("tour_cost", f"tour costs {cost}, best_cost is {result.get('best_cost')}"))
    best = result.get("best_cost")
    if not isinstance(best, (int, float)) or best < opt.cost:
        fails.append(("above_optimum", f"best_cost {best} below the optimum {opt.cost}"))
    table = result.get("grid_table")
    if not isinstance(table, list) or len(table) != n_points:
        rows = len(table) if isinstance(table, list) else table
        fails.append(("grid_rows", f"grid_table has {rows} rows, expected {n_points}"))
    fractions = [row.get("feasible_fraction") for row in table or []]
    fractions.append(result.get("feasible_fraction"))
    if not all(isinstance(f, (int, float)) and 0.0 <= f <= 1.0 for f in fractions):
        fails.append(("fraction_range", "a feasible fraction lies outside [0, 1]"))
    return fails


@dataclass(frozen=True)
class HistogramSummary:
    rows: int
    count_sum: int
    prob_sum: float
    optimal_rows: int
    p_opt: float  # exact mass on the enumerated optimal tours
    feasible_count: int  # shots on labels that visit every city once
    best_sampled_cost: float | None  # cheapest feasible tour with a nonzero count


def summarize_histogram(text: str, matrix, opt: Optimum) -> HistogramSummary:
    """Parse `ceqaoa histogram` CSV text; raises ValueError when malformed."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# uniform_probability,"):
        raise ValueError("missing histogram preamble")
    optimal_seqs = {"-".join(map(str, t)) for t in opt.tours}
    n = len(matrix)
    count_sum = optimal_rows = feasible = 0
    probs = []
    opt_probs = []
    best = None
    for line in lines[2:]:
        _, seq, count, prob, is_opt = line.split(",")
        count, prob = int(count), float(prob)
        count_sum += count
        probs.append(prob)
        optimal_rows += int(is_opt)
        if seq in optimal_seqs:
            opt_probs.append(prob)
        if count > 0:
            tour = [int(c) for c in seq.split("-")]
            if len(set(tour[:-1])) == n:
                feasible += count
                cost = cycle_cost(matrix, tour)
                best = cost if best is None else min(best, cost)
    return HistogramSummary(
        len(lines) - 2, count_sum, math.fsum(probs), optimal_rows, math.fsum(opt_probs),
        feasible, best,
    )


def check_histogram(
    summary: HistogramSummary, opt: Optimum, dim: int, shots: int
) -> list[tuple[str, str]]:
    """Checks on a parsed `ceqaoa histogram` CSV."""
    fails = []
    if summary.rows != dim:
        fails.append(("hist_rows", f"{summary.rows} rows, expected D = {dim}"))
    if summary.count_sum != shots:
        fails.append(("hist_counts", f"counts sum to {summary.count_sum}, expected {shots}"))
    if abs(summary.prob_sum - 1.0) > PROB_SUM_TOL:
        fails.append(("hist_probs", f"probabilities sum to {summary.prob_sum!r}"))
    if summary.optimal_rows != opt.degeneracy:
        fails.append(
            ("hist_optimal", f"{summary.optimal_rows} optimal rows, degeneracy {opt.degeneracy}")
        )
    return fails


def check_same(digests: list[str]) -> list[tuple[str, str]]:
    """All outputs of one set must agree outside `metadata`."""
    if len(set(digests)) > 1:
        return [("same_result", f"{len(set(digests))} different results in one set")]
    return []
