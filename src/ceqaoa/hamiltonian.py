"""TSP instances, the anchored reduction, and diagonal cost/penalty energies.

Anchoring fixes the start city, leaving m = n_cities - 1 tour positions
(blocks), each choosing among the n_cities - 1 remaining cities (symbols).
A label is feasible when its symbols are pairwise distinct; the per-block
one-hot constraint is structural in the encoding, so only the symbol
multiplicity penalty survives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .encoded import BlockLayout, index_to_label, labels_to_indices

# Absorbs summation-order noise when counting exactly degenerate tours
# (e.g. the reversal of a tour on a symmetric instance).
TIE_TOL = 1e-12
PHASE_CHUNK = 8192  # labels per chunk of the phase fill


@dataclass(frozen=True, eq=False)
class TspInstance:
    """A (possibly asymmetric) TSP instance given by its distance matrix.

    n_cities is the matrix's side, read from it once.
    """

    name: str
    distances: np.ndarray
    n_cities: int = field(init=False)

    def __post_init__(self) -> None:
        dist = np.asarray(self.distances, dtype=np.float64)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError(
                f"instance {self.name!r}: distance matrix is not square (shape {dist.shape})"
            )
        n = dist.shape[0]
        object.__setattr__(self, "distances", dist)
        object.__setattr__(self, "n_cities", n)
        if n < 2:
            raise ValueError(f"instance {self.name!r} needs at least 2 cities")
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


class EnergyOverflowError(ValueError):
    """A penalty weight that puts an anchored problem's largest energy past the float range."""


@dataclass(frozen=True, eq=False)
class AnchoredTsp:
    """TSP with a fixed start city; blocks index tour positions 1..n_cities-1.

    The instance, the start city and penalty_weight (a float, weighing the
    symbol-multiplicity penalty) define the problem; the rest comes from
    them, once.  layout has n_cities - 1 blocks of n_cities - 1 symbols,
    and city_of_symbol maps the symbols to the other cities in ascending
    order.  energy_bound is the largest energy build_cost_diagonal can give
    (n_cities distances plus weight * (n - m + m*(m-1)); must be finite),
    and energy_dtype is int32 for integral distances and weight and a bound
    below 2**31, else float64.
    """

    instance: TspInstance
    start_city: int
    penalty_weight: float
    layout: BlockLayout = field(init=False)
    city_of_symbol: tuple[int, ...] = field(init=False)
    energy_bound: float = field(init=False)
    energy_dtype: np.dtype = field(init=False)

    def __post_init__(self) -> None:
        inst, start = self.instance, self.start_city
        if inst.n_cities < 3:
            raise ValueError("need at least 3 cities for a nontrivial tour")
        if not 0 <= start < inst.n_cities:
            raise ValueError(f"start city {start} outside [0, {inst.n_cities})")
        n = m = inst.n_cities - 1
        object.__setattr__(self, "layout", BlockLayout(n, m))
        rest = tuple(c for c in range(inst.n_cities) if c != start)
        object.__setattr__(self, "city_of_symbol", rest)
        weight = float(self.penalty_weight)
        if not weight > 0:
            raise ValueError(f"penalty weight must be positive, got {self.penalty_weight}")
        bound = inst.n_cities * inst.max_distance + weight * (n - m + m * (m - 1))
        if not math.isfinite(bound):
            raise EnergyOverflowError(
                f"instance {inst.name!r}: penalty weight {weight!r} overflows the largest energy"
            )
        integral = weight.is_integer() and np.array_equal(inst.distances, np.trunc(inst.distances))
        dtype = np.dtype(np.int32 if integral and bound < 2**31 else np.float64)
        object.__setattr__(self, "penalty_weight", weight)
        object.__setattr__(self, "energy_bound", bound)
        object.__setattr__(self, "energy_dtype", dtype)


def default_penalty_weight(instance: TspInstance) -> float:
    """n_cities * max distance (at least 1), dominating any objective gap."""
    return max(float(instance.n_cities) * instance.max_distance, 1.0)


def anchor(
    instance: TspInstance, start: int = 0, penalty_weight: float | None = None
) -> AnchoredTsp:
    """The anchored problem at start and penalty_weight (None: default_penalty_weight)."""
    weight = default_penalty_weight(instance) if penalty_weight is None else penalty_weight
    return AnchoredTsp(instance, start, weight)


def tour_cities(enc: AnchoredTsp, flat: int) -> tuple[int, ...]:
    """Full city cycle for a flat label index, starting and ending at the start city."""
    mid = tuple(enc.city_of_symbol[j] for j in index_to_label(enc.layout, flat))
    return (enc.start_city,) + mid + (enc.start_city,)


@dataclass(frozen=True, eq=False)
class CostDiagonal:
    """The cost Hamiltonian's diagonal: one energy per encoded basis label.

    For an anchored problem (build_cost_diagonal), energy[x] = objective[x]
    + penalty_weight * k[x], where k = sum_a (c_a - 1)**2 over the symbol
    counts c_a of x is zero exactly when x is feasible.  The objective
    extends the cyclic tour formula to infeasible labels as well, because
    the phase layer acts on the whole encoded space.  Only this D-vector
    is held: int32 (4 bytes per label) when it is given so, as
    build_cost_diagonal gives integral energies below 2**31; any other
    vector is held as float64 (8 bytes per label).
    """

    layout: BlockLayout
    energy: np.ndarray
    _energy_range: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        energy = np.asarray(self.energy)
        if energy.dtype != np.int32:
            energy = np.asarray(energy, dtype=np.float64)
        if energy.shape != (self.layout.D,):
            raise ValueError("the energy vector must have length layout.D")
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "_energy_range", (float(energy.min()), float(energy.max())))

    def phase(self, gamma: float, out: np.ndarray) -> np.ndarray:
        """Fill out, a complex D-vector, with exp(-i gamma energy) and return it.

        A gamma whose product with the largest energy is not finite raises
        ValueError before out is written.

        The labels go PHASE_CHUNK at a time.  When the energies are int32
        and their range [lo, hi] holds T = hi - lo + 1 <= D // 16 integers
        (a table of at most one byte per label), the exponentials of the T
        levels are computed once and each chunk gathers its entries by
        E - lo, indices in range by construction, so the gather clips
        rather than checks them: with out and the default mode="raise",
        np.take fills a hidden copy of out and copies it back, and that
        128 KiB copy, at the mmap threshold, is mapped afresh for every
        chunk in some heap layouts (150k more page faults at n = 9).
        Otherwise each chunk takes the product and exponential on
        (E, +0) in out itself; each table entry comes from the same
        operations on the same number, so the two are bitwise equal.
        """
        gamma = float(gamma)
        lo, hi = self._energy_range
        bound = max(abs(lo), abs(hi))  # not finite when any energy is not
        if not math.isfinite(gamma * bound):
            raise ValueError(f"gamma {gamma!r} times the largest energy {bound!r} is not finite")
        dim = self.layout.D
        if self.energy.dtype == np.int32 and hi - lo + 1 <= dim // 16:
            # the levels lo, lo + 1, ..., hi as (E, +0)
            table = np.arange(int(hi - lo) + 1, dtype=np.complex128)
            table += lo
            np.multiply(-1j * gamma, table, out=table)
            np.exp(table, out=table)
            level = np.empty(min(PHASE_CHUNK, dim), dtype=np.intp)
            for start in range(0, dim, PHASE_CHUNK):
                stop = min(start + PHASE_CHUNK, dim)
                k = level[: stop - start]
                np.subtract(self.energy[start:stop], int(lo), out=k, dtype=np.intp)
                np.take(table, k, out=out[start:stop], mode="clip")
            return out
        for start in range(0, dim, PHASE_CHUNK):
            v = out[start : start + PHASE_CHUNK]
            np.multiply(-1j * gamma, self.energy[start : start + PHASE_CHUNK], out=v)
            np.exp(v, out=v)
        return out


def phase_table_bytes(layout: BlockLayout, energy: np.dtype, bound: float) -> int:
    """Most bytes CostDiagonal.phase allocates besides out, for energies of the given dtype.

    int32 energies may take the level table and its chunk of level indices;
    float64 take none.  The table holds at most D // 16 complex values (one
    byte a label), and, as energies lie in [0, bound] (AnchoredTsp.energy_bound),
    at most bound + 1.
    """
    if np.dtype(energy) != np.int32:
        return 0
    return 16 * min(layout.D // 16, int(bound) + 1) + 8 * min(PHASE_CHUNK, layout.D)


def build_cost_diagonal(enc: AnchoredTsp) -> CostDiagonal:
    """Evaluate the energy, cyclic objective plus weighted penalty, on all labels.

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
    new block makes.  The counts are exact small integers.  The last block's
    counts k are formed about PHASE_CHUNK labels at a time, and k * weight
    is added to the objective in place.  Both steps run in enc.energy_dtype:
    int32 sums are exact, as no energy reaches 2**31; in float64 each
    energy takes the roundings of weight * k + objective, finite below the bound.
    """
    n, m = enc.layout.n, enc.layout.m
    dtype = enc.energy_dtype
    C = enc.instance.distances.astype(dtype)
    cities = np.asarray(enc.city_of_symbol, dtype=np.int64)
    step = C[np.ix_(cities, cities)]

    energy = C[enc.start_city, cities]
    for _ in range(m - 1):
        energy = (energy.reshape(-1, n, 1) + step).reshape(-1)
    rows = energy.reshape(-1, n)  # row p: the labels that extend the (m-1)-block prefix p
    rows += C[cities, enc.start_city]

    twice_eye = 2 * np.eye(n, dtype=np.int8)
    count = np.full(n, n - m, dtype=np.int16)
    twice_symbols = twice_eye
    for _ in range(m - 2):
        count = (count.reshape(-1, 1) + twice_symbols).reshape(-1)
        twice_symbols = (twice_symbols.reshape(-1, 1, n) + twice_eye).reshape(-1, n)
    per_chunk = max(1, PHASE_CHUNK // n)
    weight = dtype.type(enc.penalty_weight)
    for p in range(0, count.size, per_chunk):
        k = count[p : p + per_chunk, None] + twice_symbols[p : p + per_chunk]
        # dtype is named: NumPy 1 would size k * weight by the weight's
        # value, so an int16-sized weight would wrap in int16
        rows[p : p + per_chunk] += np.multiply(k, weight, dtype=dtype)
    return CostDiagonal(enc.layout, energy)


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """The tours (feasible labels) of a cost diagonal, cheapest first: 16 bytes per tour.

    flats holds the int64 flat index of each feasible label, sorted by
    (cost, flat), and costs their float64 objectives in the same order.
    The first degeneracy tours are the optima: those within the tie
    tolerance of the best cost.
    """

    flats: np.ndarray
    costs: np.ndarray
    degeneracy: int


def _tie_threshold(best: float) -> float:
    return TIE_TOL * max(1.0, abs(best))


def brute_force_optimum(diag: CostDiagonal) -> FeasibleSet:
    """Enumerate the layout's feasible labels and sort them by cost, ties in flat order.

    The feasible labels, whose symbols are pairwise distinct, are exactly
    the anchored tours; itertools.permutations yields them in ascending
    flat order.  Their penalty is zero, so their energies are the scalar
    tour sums, bitwise.  Exact ties (degenerate optima) are counted with a
    tolerance that only absorbs float summation-order noise; with integer
    distances the tie set is exact.
    """
    n, m = diag.layout.n, diag.layout.m
    symbols = itertools.chain.from_iterable(itertools.permutations(range(n), m))
    labels = np.fromiter(symbols, dtype=np.int64, count=m * math.perm(n, m))
    feasible = labels_to_indices(diag.layout, labels.reshape(-1, m))
    costs = diag.energy[feasible].astype(np.float64, copy=False)
    order = np.argsort(costs, kind="stable")
    flats, costs = feasible[order], costs[order]
    best = float(costs[0])
    degeneracy = int(np.searchsorted(costs, best + _tie_threshold(best), side="right"))
    return FeasibleSet(flats, costs, degeneracy)
