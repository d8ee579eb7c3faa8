"""TSP instances, the anchored reduction, and diagonal cost/penalty energies.

Anchoring fixes the start city, leaving m = n_cities - 1 tour positions
(blocks), each choosing among the n_cities - 1 remaining cities (symbols).
A label is feasible when its symbols are pairwise distinct; the per-block
one-hot constraint is structural in the encoding, so only the symbol
multiplicity penalty survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoded import BlockLayout, index_to_label

# Absorbs summation-order noise when counting exactly degenerate tours
# (e.g. the reversal of a tour on a symmetric instance).
TIE_TOL = 1e-12
PHASE_CHUNK = 8192  # labels per chunk of the phase fill
EXACT_INTEGERS = 2.0**53  # float64 holds every integer of smaller magnitude


@dataclass(frozen=True, eq=False)
class TspInstance:
    """A (possibly asymmetric) TSP instance given by its distance matrix."""

    name: str
    n_cities: int
    distances: np.ndarray

    def __post_init__(self) -> None:
        dist = np.asarray(self.distances, dtype=np.float64)
        object.__setattr__(self, "distances", dist)
        n = self.n_cities
        if n < 2:
            raise ValueError(f"instance {self.name!r} needs at least 2 cities")
        if dist.shape != (n, n):
            raise ValueError(
                f"instance {self.name!r}: distance matrix shape {dist.shape} != ({n}, {n})"
            )
        if not np.all(np.isfinite(dist)):
            raise ValueError(f"instance {self.name!r}: non-finite distance entry")
        if np.any(dist < 0):
            raise ValueError(f"instance {self.name!r}: negative distance entry")
        # a tour sums n distances; the factor 2 covers rounding in the running sum
        if not math.isfinite(2.0 * n * float(dist.max())):
            raise ValueError(
                f"instance {self.name!r}: distances up to {float(dist.max())!r} overflow a tour cost"
            )
        if np.any(np.diagonal(dist) != 0):
            raise ValueError(f"instance {self.name!r}: nonzero diagonal entry")

    @property
    def max_distance(self) -> float:
        return float(self.distances.max())


@dataclass(frozen=True, eq=False)
class AnchoredTsp:
    """TSP with a fixed start city; blocks index tour positions 1..n_cities-1."""

    instance: TspInstance
    start_city: int
    layout: BlockLayout
    city_of_symbol: tuple[int, ...]


def anchor(instance: TspInstance, start: int = 0) -> AnchoredTsp:
    """Fix the start city; symbols map to the remaining cities in ascending order."""
    if instance.n_cities < 3:
        raise ValueError("need at least 3 cities for a nontrivial tour")
    if not 0 <= start < instance.n_cities:
        raise ValueError(f"start city {start} outside [0, {instance.n_cities})")
    rest = tuple(c for c in range(instance.n_cities) if c != start)
    n_red = instance.n_cities - 1
    return AnchoredTsp(instance, start, BlockLayout(n_red, n_red), rest)


def tour_cities(enc: AnchoredTsp, flat: int) -> tuple[int, ...]:
    """Full city cycle for a flat label index, starting and ending at the start city."""
    mid = tuple(enc.city_of_symbol[j] for j in index_to_label(enc.layout, flat))
    return (enc.start_city,) + mid + (enc.start_city,)


@dataclass(frozen=True, eq=False)
class CostDiagonal:
    """Objective energies and penalty counts over every encoded basis label.

    penalty_count[x] is the int16 count k = sum_a (c_a - 1)**2 over the
    symbol counts c_a of x, zero exactly when x is feasible; the penalty
    energy is penalty_weight * k.  The objective extends the cyclic tour
    formula to infeasible labels as well, because the phase layer acts on
    the whole encoded space.  Only these two D-vectors are held (10 bytes
    per label); the total energy is formed when a phase needs it.
    """

    layout: BlockLayout
    objective: np.ndarray
    penalty_count: np.ndarray
    penalty_weight: float
    _energy_range: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        obj = np.asarray(self.objective, dtype=np.float64)
        count = np.asarray(self.penalty_count)
        if obj.shape != (self.layout.D,) or count.shape != (self.layout.D,):
            raise ValueError("diagonal vectors must have length layout.D")
        if not np.issubdtype(count.dtype, np.integer):
            raise ValueError(f"penalty counts must be integers, got dtype {count.dtype}")
        top = int(count.max())
        if count.min() < 0 or top > np.iinfo(np.int16).max:
            raise ValueError("penalty counts must lie in [0, 32767]")
        weight = float(self.penalty_weight)
        if not weight > 0:
            raise ValueError(f"penalty weight must be positive, got {self.penalty_weight}")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "penalty_count", count.astype(np.int16, copy=False))
        object.__setattr__(self, "penalty_weight", weight)
        obj_lo, obj_hi = float(obj.min()), float(obj.max())
        # every energy lies in [lo, hi]: both ends go through the phase's own
        # two roundings (weight * k, then + objective), and rounding is monotone
        lo = weight * float(count.min()) + obj_lo
        object.__setattr__(self, "_energy_range", (lo, weight * float(top) + obj_hi))

    def phase(self, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
        """Fill out with exp(-i gamma (objective + penalty_weight * penalty_count)).

        out is a complex D-vector (None: a fresh one) and is returned.  A
        gamma whose product with the largest energy is not finite raises
        ValueError before out is written.

        The energies E are formed in float64, PHASE_CHUNK labels at a time.
        When the energy range [lo, hi] starts at an integer, lies within
        +-2**53 and holds T = hi - lo + 1 <= D // 16 integers (a table of at
        most one byte per label), the exponentials of the T levels are
        computed once and a chunk of integral energies gathers its entries
        by E - lo.  Any other chunk takes the product and exponential on
        (E, +0) in out itself; each table entry comes from the same
        operations on the same number, so the two are bitwise equal.
        """
        gamma = float(gamma)
        lo, hi = self._energy_range
        bound = max(abs(lo), abs(hi))  # not finite when any energy is not
        if not math.isfinite(gamma * bound):
            raise ValueError(f"gamma {gamma!r} times the largest energy {bound!r} is not finite")
        dim = self.layout.D
        vec = np.empty(dim, dtype=np.complex128) if out is None else out
        table = None
        if lo.is_integer() and bound < EXACT_INTEGERS and hi - lo + 1 <= dim // 16:
            # the levels lo, lo + 1, ..., hi as (E, +0)
            table = np.arange(int(hi - lo) + 1, dtype=np.complex128)
            table += lo
            np.multiply(-1j * gamma, table, out=table)
            np.exp(table, out=table)
        energy = np.empty(min(PHASE_CHUNK, dim))
        level = np.empty(energy.shape, dtype=np.int64)
        exact = np.empty(energy.shape, dtype=bool)
        for start in range(0, dim, PHASE_CHUNK):
            stop = min(start + PHASE_CHUNK, dim)
            e, k, ok = energy[: stop - start], level[: stop - start], exact[: stop - start]
            v = vec[start:stop]
            np.multiply(self.penalty_count[start:stop], self.penalty_weight, out=e)
            np.add(e, self.objective[start:stop], out=e)
            if table is not None:
                # truncation keeps the value only of an integral energy (|E| < 2**53)
                np.copyto(k, e, casting="unsafe")
                if np.equal(k, e, out=ok).all():
                    k -= int(lo)
                    np.take(table, k, out=v)
                    continue
            np.multiply(-1j * gamma, e, out=v)
            np.exp(v, out=v)
        return vec


def default_penalty_weight(instance: TspInstance) -> float:
    """n_cities * max distance (at least 1), dominating any objective gap."""
    return max(float(instance.n_cities) * instance.max_distance, 1.0)


def build_cost_diagonal(enc: AnchoredTsp, penalty_weight: float | None = None) -> CostDiagonal:
    """Evaluate the cyclic objective and the symbol-multiplicity penalty on all labels.

    The objective is built over label prefixes: the costs of every k-block
    prefix, reshaped so its last symbol is an axis, broadcast-add the n x n
    step matrix to give every (k+1)-block prefix; the return edge is added
    last.  Each label's cost is thus summed left to right (start edge, inner
    edges, return edge), the order of a scalar tour sum, so scalar and
    vectorized costs agree bitwise.

    The penalty count at a label with symbol counts (c_0, ..., c_{n-1}) is
    sum_a (c_a - 1)**2 = n - m + 2 * #{block pairs with equal symbols}.  It
    is built over label prefixes too: every k-block prefix carries its count
    (int16) and twice its symbol counts (int8, shape (n**k, n)), and
    appending symbol s to prefix p adds twice p's count of s, the pairs the
    new block makes.  The values are exact small integers, and only the
    last two steps write D entries.
    """
    lam = default_penalty_weight(enc.instance) if penalty_weight is None else float(penalty_weight)
    if lam <= 0:
        raise ValueError(f"penalty weight must be positive, got {lam}")
    n, m = enc.layout.n, enc.layout.m
    if not math.isfinite(lam * (n - m + m * (m - 1))):
        raise ValueError(f"penalty weight {lam!r} makes the largest penalty non-finite")
    C = enc.instance.distances
    cities = np.asarray(enc.city_of_symbol, dtype=np.int64)
    step = C[np.ix_(cities, cities)]

    objective = C[enc.start_city, cities]
    for _ in range(m - 1):
        objective = (objective.reshape(-1, n, 1) + step).reshape(-1)
    objective.reshape(-1, n)[...] += C[cities, enc.start_city]

    twice_eye = 2 * np.eye(n, dtype=np.int8)
    count = np.full(n, n - m, dtype=np.int16)
    twice_symbols = twice_eye
    for k in range(1, m):
        count = (count.reshape(-1, 1) + twice_symbols).reshape(-1)
        if k + 1 < m:
            twice_symbols = (twice_symbols.reshape(-1, 1, n) + twice_eye).reshape(-1, n)
    return CostDiagonal(enc.layout, objective, count, lam)


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """The tours (feasible labels) of a cost diagonal, cheapest first: 16 bytes per tour.

    flats holds the int64 flat index of each feasible label, sorted by
    (cost, flat), and costs their float64 objectives in the same order.
    The first degeneracy tours are the optima: those within the tie
    tolerance of the best cost.
    """

    layout: BlockLayout
    flats: np.ndarray
    costs: np.ndarray
    degeneracy: int


def _tie_threshold(best: float) -> float:
    return TIE_TOL * max(1.0, abs(best))


def brute_force_optimum(diag: CostDiagonal) -> FeasibleSet:
    """Scan the diagonal's feasible labels and sort them by cost, ties in flat order.

    The feasible labels (penalty count 0) are exactly the anchored tours,
    and their objectives are the scalar tour sums, bitwise.  Exact ties
    (degenerate optima) are counted with a tolerance that only absorbs
    float summation-order noise; with integer distances the tie set is
    exact.
    """
    feasible = np.flatnonzero(diag.penalty_count == 0)
    costs = diag.objective[feasible]
    order = np.argsort(costs, kind="stable")
    flats, costs = feasible[order], costs[order]
    best = float(costs[0])
    degeneracy = int(np.searchsorted(costs, best + _tie_threshold(best), side="right"))
    return FeasibleSet(diag.layout, flats, costs, degeneracy)
