"""Statistical gates: a solve's sampled outputs against their exact law.

At fixed angles every grid point draws S independent shots from its exact
state.  With p_i the exact mass on the optimal tours at point i and F_i
its exact feasible mass:
- a solve returns an optimum with probability -expm1(S * sum_i log1p(-p_i));
- point i's feasible fraction has mean F_i and variance F_i (1 - F_i) / S;
- point i's shots fall on each cost level, and on the infeasible labels,
  by the exact masses of those classes.
Solves over RUNS master seeds must agree with each within 5 sigma.  The law
comes from tests/oracles.py: run_circuit's exact probabilities over an
independent enumeration of the tours.
"""

import math
from collections import Counter

import numpy as np
import pytest

from ceqaoa.hamiltonian import TspInstance, anchor, build_cost_diagonal
from ceqaoa.layers import Column
from ceqaoa.phqc import pair_columns, phqc_solve

from oracles import enumerated_tours, solved_cost, tour_probabilities

# three one-beta columns, which run circuits, and one of four betas, which
# takes the closed form
PAIRS = [(0.6, 0.4), (1.2, 0.9), (2.0, 2.5)] + [(1.7, b) for b in (0.3, 1.1, 1.9, 2.6)]
RUNS = 1000
SIGMAS = 5.0


def euclidean_integer_instance(n_cities, seed):
    """Points drawn uniformly from [0, 100)^2, distances rounded to the nearest integer."""
    pts = np.random.default_rng(seed).uniform(0.0, 100.0, (n_cities, 2))
    dist = np.floor(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1) + 0.5)
    return TspInstance(f"e{n_cities}-s{seed}", dist)


@pytest.fixture(scope="module")
def law():
    """The exact law of each point, the shot count S and RUNS solves at it."""
    enc = anchor(euclidean_integer_instance(5, 501), 0)
    diag = build_cost_diagonal(enc)
    tours = enumerated_tours(enc)
    flats = np.array(sorted(tours), dtype=np.int64)
    costs = np.array([tours[f] for f in flats.tolist()])
    best = float(costs.min())
    probs = [tour_probabilities(diag, Column(g, (b,)), flats) for g, b in PAIRS]
    p_opt = [float(p[costs == best].sum()) for p in probs]
    log_miss = sum(math.log1p(-p) for p in p_opt)
    # the shots that put P(returns an optimum) nearest 1/2
    shots = round(math.log(2.0) / -log_miss)
    p_solve = -math.expm1(shots * log_miss)
    assert 0.4 < p_solve < 0.6
    columns = pair_columns(PAIRS)
    runs = [phqc_solve(enc, columns, shots, seed) for seed in range(RUNS)]
    return {
        "costs": costs,
        "best": best,
        "probs": probs,
        "shots": shots,
        "p_solve": p_solve,
        "runs": runs,
    }


def test_optimum_hit_count(law):
    # the weakest gate: a sampler that draws from |psi| or takes F = m!/D
    # as the feasible mass still lands within 5 sigma here
    hits = sum(solved_cost(res) == law["best"] for res in law["runs"])
    p = law["p_solve"]
    assert abs(hits - RUNS * p) <= SIGMAS * math.sqrt(RUNS * p * (1 - p))


@pytest.mark.parametrize("point", range(len(PAIRS)))
def test_feasible_fraction_mean(law, point):
    mass = float(law["probs"][point].sum())
    hits = sum(res.points[point].scored.feasible_shots for res in law["runs"])
    mean = hits / (law["shots"] * RUNS)
    sigma = math.sqrt(mass * (1 - mass) / (law["shots"] * RUNS))
    assert abs(mean - mass) <= SIGMAS * sigma


@pytest.mark.parametrize("point", range(len(PAIRS)))
def test_pooled_cost_histogram(law, point):
    costs, probs, total = law["costs"], law["probs"][point], law["shots"] * RUNS
    observed = Counter()
    for res in law["runs"]:
        for cost, count in res.points[point].scored.cost_counts:
            observed[cost] += count
    assert set(observed) <= set(costs.tolist())
    expected = {c: total * float(probs[costs == c].sum()) for c in np.unique(costs).tolist()}
    observed[None] = total - sum(observed.values())  # the infeasible shots
    expected[None] = total - sum(expected.values())
    # classes expected fewer than 5 times share one bin
    rare = [c for c in expected if expected[c] < 5]
    bins = [(observed[c], expected[c]) for c in expected if c not in rare]
    if rare:
        bins.append((sum(observed[c] for c in rare), sum(expected[c] for c in rare)))
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    assert (chi2 - dof) / math.sqrt(2 * dof) < SIGMAS
