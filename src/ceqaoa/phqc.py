"""Grid-search hybrid solver: shot sampling, deterministic checking, shot calculus.

Every grid point takes the exact probabilities of the tours
(layers.point_probabilities), draws shots from them, keeps the feasible
samples, and scores them with the tour objective.  A single appearance of
the optimum suffices; the choice of the best sample never consults frequency.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoded import BlockLayout
from .hamiltonian import (
    AnchoredTsp,
    FeasibleSet,
    brute_force_optimum,
    build_cost_diagonal,
    phase_table_bytes,
)
from .layers import Column, point_probabilities, point_probability_bytes


def pair_columns(pairs: Sequence[tuple[float, float]], depth: int = 1) -> list[Column]:
    """One column per run of consecutive (gamma, beta) pairs whose gammas are the same float.

    The columns' points come in pair order.  0.0 and -0.0 are different
    gammas, and a return to an earlier gamma starts a new column.  A
    non-finite angle raises ValueError.
    """
    runs: list[tuple[float, list[float]]] = []
    for gamma, beta in pairs:
        gamma, beta = float(gamma), float(beta)
        if not (math.isfinite(gamma) and math.isfinite(beta)):
            raise ValueError(f"non-finite angle pair ({gamma}, {beta})")
        if runs and runs[-1][0].hex() == gamma.hex():
            runs[-1][1].append(beta)
        else:
            runs.append((gamma, [beta]))
    return [Column(gamma, tuple(betas), depth) for gamma, betas in runs]


def square_grid(points_per_axis: int, depth: int = 1) -> list[Column]:
    """N x N points {j pi / (N - 1)} over [0, pi]^2, N = points_per_axis.

    One column per gamma, gamma-major, every column sharing one betas tuple.
    The paper's default grid is N = n_cities + 1: angles j pi / n.
    """
    if points_per_axis < 2:
        raise ValueError("need at least 2 points per axis")
    pts = tuple(j * math.pi / (points_per_axis - 1) for j in range(points_per_axis))
    return [Column(g, pts, depth) for g in pts]


def default_shots(n_cities: int) -> int:
    """Shots per grid point unless stated: 10 n^3, n the original city count."""
    return 10 * n_cities**3


# per grid point: its statistics and its JSON row, about 1.7 kB measured on a
# 150 x 150 grid at n = 5
POINT_BYTES = 2048
# per distinct cost a point drew: its level and its count (ScoredShots),
# at most min(shots, tours) of them
LEVEL_BYTES = 16
# per tour: the feasible set's flat and cost (16 bytes), and a point's gather
# of its complex amplitudes and their moduli (24), measured at n = 7..9
TOUR_BYTES = 40
# per shot of one point: the uniform draws and their indices, their costs,
# and np.unique's sorted copy, mask and outputs, 26 bytes measured when
# every shot is feasible
SHOT_BYTES = 32
# the interpreter, numpy and ceqaoa: a one-point solve at n = 5 (D = 256)
# peaks at 36.9 MB with numpy 2.4 on Linux, and larger runs stay that far
# above the rest of the estimate up to n = 9
INTERPRETER_BYTES = 40 << 20


def peak_bytes(
    layout: BlockLayout, columns: Sequence[Column], shots: int, energy: np.dtype, bound: float
) -> int:
    """Estimated peak bytes of a process that samples the columns' points, each shots times.

    energy is the diagonal's dtype and bound its largest energy (an anchored
    problem's energy_dtype and energy_bound).
    INTERPRETER_BYTES, the diagonal's energies (4 bytes a label for int32,
    8 for float64), the phase's level table (hamiltonian.phase_table_bytes)
    and the points' probability buffers (layers.point_probability_bytes).
    Then POINT_BYTES per grid point and LEVEL_BYTES per cost level it can
    hold, TOUR_BYTES per feasible label (the feasible set and one point's
    gather) and SHOT_BYTES per shot, one point's shots alive at a time.
    """
    points = sum(len(col.betas) for col in columns)
    tours = math.perm(layout.n, layout.m)
    return (
        INTERPRETER_BYTES
        + np.dtype(energy).itemsize * layout.D
        + phase_table_bytes(layout, energy, bound)
        + point_probability_bytes(layout, columns, tours)
        + points * (POINT_BYTES + LEVEL_BYTES * min(shots, tours))
        + tours * TOUR_BYTES
        + shots * SHOT_BYTES
    )


def derive_seed(master_seed: int, grid_index: int) -> int:
    """Stable per-grid-point seed, so grid points are independent streams."""
    ss = np.random.SeedSequence([int(master_seed), int(grid_index)])
    return int(ss.generate_state(1)[0])


def required_shots(p_min: float, delta: float) -> int:
    """ceil(ln(1/delta) / p_min): shots so the target appears at least once w.p. >= 1 - delta."""
    if not 0.0 < p_min <= 1.0:
        raise ValueError(f"p_min must lie in (0, 1], got {p_min}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(math.log(1.0 / delta) / p_min)


@dataclass(frozen=True, eq=False)
class ScoredShots:
    """One grid point: the exact mass on its optima, and its checked shots.

    levels holds every distinct feasible cost drawn, ascending (float64),
    and counts the number of shots that drew a tour of each (int64), as
    np.unique returns them: 16 bytes a level.
    """

    p_opt: float
    best_cost: float | None
    best_flat: int | None
    feasible_shots: int
    levels: np.ndarray
    counts: np.ndarray

    @property
    def cost_counts(self) -> tuple[tuple[float, int], ...]:
        """(cost, count) pairs of Python numbers, cheapest first."""
        return tuple(zip(self.levels.tolist(), self.counts.tolist()))


def sample_tours(p: np.ndarray, feasible: FeasibleSet, total_shots: int, seed: int) -> ScoredShots:
    """Draw total_shots shots from a point and check them, drawing only the feasible ones.

    p holds the point's probabilities |psi|**2 at the tours, in feasible.flats
    order (layers.point_probabilities), and is overwritten.  They give its
    exact optimum mass (the first feasible.degeneracy entries, summed in
    ascending flat order), its feasible mass F = sum(p), the number of
    feasible shots K ~ Binomial(total_shots, F), and those K shots, drawn
    over the tours by rng.choice with p / F.  An infeasible shot reaches the
    checker only as a count, so the outcome has the law of drawing every
    shot over all D labels and keeping the feasible ones.  The tours come
    cheapest first, so the least drawn index is the best sample: ties on
    cost go to the lowest flat index, and frequency never decides.
    """
    if np.shape(p) != feasible.flats.shape:
        raise ValueError(f"{np.shape(p)} probabilities for the {feasible.flats.size} tours")
    if total_shots < 1:
        raise ValueError(f"total_shots must be >= 1, got {total_shots}")
    rng = np.random.default_rng(seed)
    optima = np.argsort(feasible.flats[: feasible.degeneracy])
    p_opt = float(p[optima].sum())
    mass = float(p.sum())
    hits = int(rng.binomial(total_shots, min(mass, 1.0)))
    if hits == 0:
        return ScoredShots(p_opt, None, None, 0, np.empty(0), np.empty(0, dtype=np.int64))
    p /= mass
    draws = rng.choice(p.size, hits, p=p)
    best = int(draws.min())
    return ScoredShots(
        p_opt,
        float(feasible.costs[best]),
        int(feasible.flats[best]),
        hits,
        *np.unique(feasible.costs[draws], return_counts=True),
    )


@dataclass(frozen=True)
class GridPointStat:
    """One grid point: its angles and its checked shots."""

    gamma: float
    beta: float
    scored: ScoredShots


@dataclass(frozen=True, eq=False)
class PhqcResult:
    """Every grid point of a solve, in grid order, and which one won.

    winner is the index of the point whose best sample is cheapest (ties
    to the lower flat index, then the lower grid index); None when no
    point drew a feasible shot.  Its scored.best_flat is the best feasible
    sample (hamiltonian.tour_cities gives its tour) and its scored.p_opt
    the simulator-exact mass on all degeneracy optima at its angles.
    timings holds the wall seconds of the solve's stages: diagonal_s (cost
    diagonal), oracle_s (the feasible set: the tours' enumeration and sort)
    and sweep_s (every grid point).
    """

    points: tuple[GridPointStat, ...]
    winner: int | None
    degeneracy: int
    timings: dict[str, float]


def phqc_solve(
    enc: AnchoredTsp, columns: Sequence[Column], shots_per_point: int, master_seed: int
) -> PhqcResult:
    """Grid-search solve: sample every grid point, return them with the winner.

    The grid points are the columns' (gamma, beta) pairs, numbered column
    by column in beta order; each column builds its phase once.  Per-point
    seeds derive from (master_seed, grid_index), so any evaluation order
    gives identical output.  The points' tour probabilities come from
    layers.point_probabilities, whose gate may raise ValueError.
    """
    if shots_per_point < 1:
        raise ValueError(f"shots_per_point must be >= 1, got {shots_per_point}")
    if not columns:
        raise ValueError("empty column list")

    t_start = time.perf_counter()
    diag = build_cost_diagonal(enc)
    t_diag = time.perf_counter()
    feasible = brute_force_optimum(diag)
    t_oracle = time.perf_counter()
    scored = {
        i: sample_tours(p, feasible, shots_per_point, derive_seed(master_seed, i))
        for i, p in point_probabilities(diag, columns, feasible.flats)
    }
    angles = [(col.gamma, beta) for col in columns for beta in col.betas]
    points = tuple(GridPointStat(g, b, scored[i]) for i, (g, b) in enumerate(angles))
    t_sweep = time.perf_counter()
    winner = min(
        (i for i, p in enumerate(points) if p.scored.best_flat is not None),
        key=lambda i: (points[i].scored.best_cost, points[i].scored.best_flat, i),
        default=None,
    )
    return PhqcResult(
        points,
        winner,
        feasible.degeneracy,
        {
            "diagonal_s": t_diag - t_start,
            "oracle_s": t_oracle - t_diag,
            "sweep_s": t_sweep - t_oracle,
        },
    )
