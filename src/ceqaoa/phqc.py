"""Grid-search hybrid solver: shot sampling, deterministic checking, shot calculus.

Every grid point takes the exact amplitudes of its circuit at the tours,
draws shots from the exact probabilities, keeps the feasible samples, and
scores them with the tour objective.  A single appearance of the optimum
suffices; the choice of the best sample never consults frequency.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoded import BlockLayout, EncodedState
from .hamiltonian import (
    AnchoredTsp,
    FeasibleSet,
    brute_force_optimum,
    build_cost_diagonal,
    phase_table_bytes,
)
from .layers import Column, mixer_bytes, run_circuit, tour_amplitude_bytes, tour_amplitudes

# Depth-1 columns of at least this many betas take the closed form
# (layers.tour_amplitudes): one column of it costs about as much as 1 to 3
# circuits at n_cities = 5..9 (BENCH_25.json), so from 4 betas on it never
# loses.  The rest run layers.run_circuit.
CLOSED_FORM_BETAS = 4
# how far the closed form may stray from the gate's circuit, relative to the
# circuit's largest tour amplitude
GATE_TOL = 1e-12


def closed_form(column: Column) -> bool:
    """True when a solve takes the column's tour amplitudes from layers.tour_amplitudes."""
    return column.depth == 1 and len(column.betas) >= CLOSED_FORM_BETAS


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
    """Estimated peak bytes of a process that runs the columns' circuits, each sampled shots times.

    energy is the diagonal's dtype (hamiltonian.energy_dtype) and bound its
    largest energy (hamiltonian.energy_bound).
    INTERPRETER_BYTES, the diagonal's energies (4 bytes a label for int32,
    8 for float64) and the phase's level table
    (hamiltonian.phase_table_bytes), then the larger of two sets of
    buffers, which are never alive at once.  The buffers of
    layers.run_circuit, which runs the columns that do not take the closed
    form and the gate: the complex amplitudes (16 a label), the complex
    phase when one of those columns reuses it (Column.reuses_phase, 16)
    and the mixer's block-sized slice sums (layers.mixer_bytes).  The
    buffers of layers.tour_amplitudes (layers.tour_amplitude_bytes).
    When some column takes the closed form, the gate's tour amplitudes
    (16 a tour) are held beside either set.
    Then POINT_BYTES per grid point and LEVEL_BYTES per cost level it can
    hold, TOUR_BYTES per feasible label (the feasible set and one point's
    gather) and SHOT_BYTES per shot, one point's shots alive at a time.
    """
    points = sum(len(col.betas) for col in columns)
    tours = math.perm(layout.n, layout.m)
    formed = [col for col in columns if closed_form(col)]
    circuits = [col for col in columns if not closed_form(col)]
    phase = 16 if any(col.reuses_phase for col in circuits) else 0
    held = (16 + phase) * layout.D + mixer_bytes(layout)
    if formed:
        betas = max(len(col.betas) for col in formed)
        held = max(held, tour_amplitude_bytes(layout, tours, betas)) + 16 * tours
    return (
        INTERPRETER_BYTES
        + np.dtype(energy).itemsize * layout.D
        + phase_table_bytes(layout, energy, bound)
        + held
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


def sample_tours(
    amplitudes: np.ndarray, feasible: FeasibleSet, total_shots: int, seed: int
) -> ScoredShots:
    """Draw total_shots shots from a state and check them, drawing only the feasible ones.

    amplitudes are the state's at the tours, in feasible.flats order.
    Their squared moduli p give the point's exact optimum mass (the first
    feasible.degeneracy entries, summed in ascending flat order), its
    feasible mass F = sum(p), the number of feasible shots
    K ~ Binomial(total_shots, F), and those K shots, drawn over the tours
    by rng.choice with p / F.  An infeasible
    shot reaches the checker only as a count, so the outcome has the law
    of drawing every shot over all D labels and keeping the feasible ones.
    The tours come cheapest first, so the least drawn index is the best
    sample: ties on cost go to the lowest flat index, and frequency never
    decides.  The amplitudes are left as they are.
    """
    if np.shape(amplitudes) != feasible.flats.shape:
        raise ValueError(f"{np.shape(amplitudes)} amplitudes for the {feasible.flats.size} tours")
    return _draw_tours(np.abs(amplitudes), feasible, total_shots, seed)


def sample_state(
    state: EncodedState, feasible: FeasibleSet, total_shots: int, seed: int
) -> ScoredShots:
    """sample_tours on state.amplitudes[feasible.flats], a gather freed once its moduli are taken."""
    if state.layout != feasible.layout:
        raise ValueError("state and feasible set layouts must agree")
    return _draw_tours(np.abs(state.amplitudes[feasible.flats]), feasible, total_shots, seed)


def _draw_tours(p: np.ndarray, feasible: FeasibleSet, total_shots: int, seed: int) -> ScoredShots:
    """sample_tours on the moduli p of the tours' amplitudes, which it overwrites."""
    if total_shots < 1:
        raise ValueError(f"total_shots must be >= 1, got {total_shots}")
    rng = np.random.default_rng(seed)
    np.square(p, out=p)
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
    penalty_weight is the cost diagonal's.  timings holds the wall
    seconds of the solve's stages: diagonal_s (cost diagonal), oracle_s
    (the feasible set: the tours' enumeration and sort) and sweep_s (every
    grid point).
    """

    points: tuple[GridPointStat, ...]
    winner: int | None
    degeneracy: int
    penalty_weight: float
    timings: dict[str, float]


def _check_gate(circuit: np.ndarray, closed: np.ndarray, column: Column) -> None:
    """Raise ValueError when the closed form strays from the circuit by more than GATE_TOL."""
    largest = float(np.abs(circuit).max())
    error = float(np.abs(closed - circuit).max())
    if not error <= GATE_TOL * largest:
        raise ValueError(
            f"the closed-form tour amplitudes at gamma {column.gamma!r}, beta {column.betas[0]!r} "
            f"differ from the circuit's by {error:.3g}, over {GATE_TOL:g} of its largest "
            f"{largest:.3g}; the solve stops"
        )


def phqc_solve(
    enc: AnchoredTsp,
    columns: Sequence[Column],
    shots_per_point: int,
    master_seed: int,
    penalty_weight: float | None = None,
) -> PhqcResult:
    """Grid-search solve: sample every grid point, return them with the winner.

    The grid points are the columns' (gamma, beta) pairs, numbered column
    by column in beta order; each column builds its phase once.  Per-point
    seeds derive from (master_seed, grid_index), so any evaluation order
    gives identical output.

    The columns that take the closed form (closed_form) read their points'
    tour amplitudes from layers.tour_amplitudes, the rest from the states
    of one run_circuit call.  That call first runs the gate: the circuit
    at the middle point of the middle closed-form column, norm-checked as
    every state is.  When the closed form's amplitudes there stray from
    the gate's by more than GATE_TOL of the largest, the solve raises
    ValueError before any closed-form point is sampled.
    """
    if shots_per_point < 1:
        raise ValueError(f"shots_per_point must be >= 1, got {shots_per_point}")
    if not columns:
        raise ValueError("empty column list")

    t_start = time.perf_counter()
    diag = build_cost_diagonal(enc, penalty_weight)
    t_diag = time.perf_counter()
    feasible = brute_force_optimum(diag)
    t_oracle = time.perf_counter()
    starts = itertools.accumulate((len(col.betas) for col in columns), initial=0)
    numbered = list(zip(starts, columns))  # each column with the index of its first point
    formed = [(i, col) for i, col in numbered if closed_form(col)]
    circuits = [(i, col) for i, col in numbered if not closed_form(col)]
    gate: list[Column] = []
    if formed:
        # the gate is the middle point of the middle closed-form column, so
        # on a square grid neither gamma 0, where the phase is flat and a
        # marginal read at any index gives the same value, nor beta 0,
        # where kappa is 0 and the pass adds nothing.  Its column goes first.
        formed.insert(0, formed.pop(len(formed) // 2))
        column = formed[0][1]
        gate = [Column(column.gamma, (column.betas[len(column.betas) // 2],))]
    states = run_circuit(diag, gate + [col for _, col in circuits])
    if gate:
        expected = next(states).amplitudes[feasible.flats]
    points = (i + k for i, col in circuits for k in range(len(col.betas)))
    # a comprehension's names end with it, so no state outlives the spent
    # generator: its buffers are freed before the closed form allocates its own
    scored = {
        i: sample_state(state, feasible, shots_per_point, derive_seed(master_seed, i))
        for i, state in zip(points, states, strict=True)
    }
    amplitudes = tour_amplitudes(diag, [col for _, col in formed], feasible.flats)
    # zip asks formed first, so without a closed-form column no pass starts
    for (i, _), amps in zip(formed, amplitudes):
        if i == formed[0][0]:
            _check_gate(expected, amps[len(amps) // 2], gate[0])
        for k, row in enumerate(amps, i):
            scored[k] = sample_tours(row, feasible, shots_per_point, derive_seed(master_seed, k))
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
        diag.penalty_weight,
        {
            "diagonal_s": t_diag - t_start,
            "oracle_s": t_oracle - t_diag,
            "sweep_s": t_sweep - t_oracle,
        },
    )
