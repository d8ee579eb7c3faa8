"""Grid-search hybrid solver: shot sampling, deterministic checking, shot calculus.

Every grid point runs the exact circuit, draws shots from the exact
probabilities, keeps the feasible samples, and scores them with the tour
objective.  A single appearance of the optimum suffices; the choice of the
best sample never consults frequency.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoded import BlockLayout, EncodedState
from .hamiltonian import AnchoredTsp, FeasibleSet, brute_force_optimum, build_cost_diagonal
from .layers import Column, mixer_bytes, run_circuit


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


def default_grid(n_cities: int, depth: int = 1) -> list[Column]:
    """(n+1) x (n+1) points {j pi / n} over [0, pi]^2, n the original city count.

    One column per gamma, gamma-major, every column sharing one betas tuple.
    """
    if n_cities < 3:
        raise ValueError(f"need at least 3 cities, got {n_cities}")
    pts = tuple(j * math.pi / n_cities for j in range(n_cities + 1))
    return [Column(g, pts, depth) for g in pts]


def square_grid(points_per_axis: int, depth: int = 1) -> list[Column]:
    """Evenly spaced points_per_axis x points_per_axis grid over [0, pi]^2, as default_grid's."""
    if points_per_axis < 2:
        raise ValueError("need at least 2 points per axis")
    pts = tuple(float(v) for v in np.linspace(0.0, math.pi, points_per_axis))
    return [Column(g, pts, depth) for g in pts]


def default_shots(n_cities: int) -> int:
    """Shots per grid point unless stated: 10 n^3, n the original city count."""
    return 10 * n_cities**3


# per grid point: its statistics with their cost histogram, and its JSON row,
# about 1.7 kB measured on a 150 x 150 grid at n = 5
POINT_BYTES = 2048
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
    layout: BlockLayout, columns: Sequence[Column], shots: int, energy: np.dtype
) -> int:
    """Estimated peak bytes of a process that runs the columns' circuits, each sampled shots times.

    energy is the diagonal's dtype, hamiltonian.energy_dtype.
    INTERPRETER_BYTES, then per label: the diagonal's energy (4 bytes for
    int32, 8 for float64), and the buffers of layers.run_circuit: the
    complex amplitudes (16) and the complex phase when some column reuses
    it (Column.reuses_phase, 16).  Then the mixer's block-sized slice sums
    (layers.mixer_bytes), POINT_BYTES per grid point, TOUR_BYTES per
    feasible label (the feasible set and one point's gather) and SHOT_BYTES
    per shot, one point's shots alive at a time.
    """
    points = sum(len(col.betas) for col in columns)
    phase = 16 if any(col.reuses_phase for col in columns) else 0
    held = np.dtype(energy).itemsize + 16 + phase
    return (
        INTERPRETER_BYTES
        + layout.D * held
        + mixer_bytes(layout)
        + points * POINT_BYTES
        + math.perm(layout.n, layout.m) * TOUR_BYTES
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


@dataclass(frozen=True)
class ScoredShots:
    """One grid point: the exact mass on its optima, and its checked shots.

    cost_counts pairs every distinct feasible cost, ascending, with the
    number of shots that drew a tour of that cost.
    """

    p_opt: float
    best_cost: float | None
    best_flat: int | None
    feasible_shots: int
    cost_counts: tuple[tuple[float, int], ...]


def sample_tours(
    state: EncodedState, feasible: FeasibleSet, total_shots: int, seed: int
) -> ScoredShots:
    """Draw total_shots shots from the state and check them, drawing only the feasible ones.

    One O(m!) gather, p = |amplitudes[feasible.flats]|**2, gives the
    point's exact optimum mass (the first feasible.degeneracy entries,
    summed in ascending flat order), its feasible mass F = sum(p), the
    number of feasible shots K ~ Binomial(total_shots, F), and those K
    shots, drawn over the tours by rng.choice with p / F.  An infeasible
    shot reaches the checker only as a count, so the outcome has the law
    of drawing every shot over all D labels and keeping the feasible ones.
    The tours come cheapest first, so the least drawn index is the best
    sample: ties on cost go to the lowest flat index, and frequency never
    decides.  The state is left as it is.
    """
    if state.layout != feasible.layout:
        raise ValueError("state and feasible set layouts must agree")
    if total_shots < 1:
        raise ValueError(f"total_shots must be >= 1, got {total_shots}")
    rng = np.random.default_rng(seed)
    p = np.abs(state.amplitudes[feasible.flats])
    np.square(p, out=p)
    optima = np.argsort(feasible.flats[: feasible.degeneracy])
    p_opt = float(p[optima].sum())
    mass = float(p.sum())
    hits = int(rng.binomial(total_shots, min(mass, 1.0)))
    if hits == 0:
        return ScoredShots(p_opt, None, None, 0, ())
    p /= mass
    draws = rng.choice(p.size, hits, p=p)
    best = int(draws.min())
    levels, counts = np.unique(feasible.costs[draws], return_counts=True)
    return ScoredShots(
        p_opt,
        float(feasible.costs[best]),
        int(feasible.flats[best]),
        hits,
        tuple(zip(levels.tolist(), counts.tolist())),
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
    shots_per_point is every point's shot count.  penalty_weight is the
    cost diagonal's.  timings holds the wall seconds of the solve's
    stages: diagonal_s (cost diagonal), oracle_s (the feasible set: the
    tours' enumeration and sort) and sweep_s (every grid point).
    """

    points: tuple[GridPointStat, ...]
    winner: int | None
    shots_per_point: int
    degeneracy: int
    penalty_weight: float
    timings: dict[str, float]


def phqc_solve(
    enc: AnchoredTsp,
    columns: Sequence[Column] | None = None,
    shots_per_point: int | None = None,
    master_seed: int = 0,
    penalty_weight: float | None = None,
) -> PhqcResult:
    """Grid-search solve: sample every grid point, return them with the winner.

    The grid points are the columns' (gamma, beta) pairs, numbered column
    by column in beta order; each column builds its phase once.  The
    default is the depth-1 default grid, one column per gamma.  Per-point
    seeds derive from (master_seed, grid_index), so any evaluation order
    gives identical output.
    """
    if shots_per_point is None:
        shots_per_point = default_shots(enc.instance.n_cities)
    if shots_per_point < 1:
        raise ValueError(f"shots_per_point must be >= 1, got {shots_per_point}")
    if columns is None:
        columns = default_grid(enc.instance.n_cities)
    if not columns:
        raise ValueError("empty column list")

    t_start = time.perf_counter()
    diag = build_cost_diagonal(enc, penalty_weight)
    t_diag = time.perf_counter()
    feasible = brute_force_optimum(diag)
    t_oracle = time.perf_counter()
    angles = [(col.gamma, beta) for col in columns for beta in col.betas]
    states = run_circuit(diag, columns)
    points = tuple(
        GridPointStat(g, b, sample_tours(s, feasible, shots_per_point, derive_seed(master_seed, i)))
        for i, ((g, b), s) in enumerate(zip(angles, states, strict=True))
    )
    t_sweep = time.perf_counter()
    winner = min(
        (i for i, p in enumerate(points) if p.scored.best_flat is not None),
        key=lambda i: (points[i].scored.best_cost, points[i].scored.best_flat, i),
        default=None,
    )
    return PhqcResult(
        points,
        winner,
        shots_per_point,
        feasible.degeneracy,
        diag.penalty_weight,
        {
            "diagonal_s": t_diag - t_start,
            "oracle_s": t_oracle - t_diag,
            "sweep_s": t_sweep - t_oracle,
        },
    )
