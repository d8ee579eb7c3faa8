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
from itertools import islice, permutations

import numpy as np

from .encoded import BlockLayout, Label, index_to_label, labels_to_indices

# Absorbs summation-order noise when counting exactly degenerate tours
# (e.g. the reversal of a tour on a symmetric instance).
TIE_TOL = 1e-12
BRUTE_FORCE_CHUNK = 200_000  # tours scored per vectorized batch


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


def tour_cities(enc: AnchoredTsp, label) -> tuple[int, ...]:
    """Full city cycle for a label, starting and ending at the start city."""
    label = enc.layout.validate_label(label)
    mid = tuple(enc.city_of_symbol[j] for j in label)
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
    _energy_bound: float = field(init=False, repr=False)

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
        # bounds |objective + weight * count| everywhere; NaN when any energy is NaN
        bound = max(float(obj.max()), -float(obj.min())) + weight * float(top)
        object.__setattr__(self, "_energy_bound", bound)

    def phase(self, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
        """Fill out with exp(-i gamma (objective + penalty_weight * penalty_count)).

        out is a complex D-vector (None: a fresh one) and is returned.  The
        energy, product and exponential are formed in that one buffer.  A
        gamma whose product with the largest energy is not finite raises
        ValueError before out is written.
        """
        if not math.isfinite(float(gamma) * self._energy_bound):
            raise ValueError(
                f"gamma {gamma!r} times the largest energy {self._energy_bound!r} is not finite"
            )
        vec = np.empty(self.layout.D, dtype=np.complex128) if out is None else out
        # the float64 sum objective + weight * k, held in the complex buffer
        # (real part, +0 imaginary), so no float temporary is made
        np.multiply(self.penalty_count, self.penalty_weight, out=vec)
        np.add(vec, self.objective, out=vec)
        np.multiply(-1j * float(gamma), vec, out=vec)
        np.exp(vec, out=vec)
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
    sum_a (c_a - 1)**2, computed through the pair-collision identity
    sum_a (c_a - 1)**2 = n - m + 2 * #{block pairs with equal symbols}; the
    collision count is an int16 (n,)*m tensor that gains an identity matrix
    broadcast over the two axes of each block pair, then becomes the
    penalty count in place.
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

    collisions = np.zeros((n,) * m, dtype=np.int16)
    eye = np.eye(n, dtype=np.int16)
    for i in range(m):
        for j in range(i + 1, m):
            shape = [1] * m
            shape[i] = shape[j] = n
            collisions += eye.reshape(shape)
    count = collisions.reshape(-1)
    count *= 2
    count += n - m
    return CostDiagonal(enc.layout, objective, count, lam)


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """Every optimal tour, as labels and as the ascending int64 array of their flat indices."""

    best_label: Label
    best_cost: float
    degeneracy: int
    optimal_labels: tuple[Label, ...]
    optimal_flats: np.ndarray


def _tie_threshold(best: float) -> float:
    return TIE_TOL * max(1.0, abs(best))


def brute_force_optimum(enc: AnchoredTsp) -> BruteForceResult:
    """Enumerate all (n_cities - 1)! anchored tours and collect every optimum.

    Exact ties (degenerate optima) are counted with a tolerance that only
    absorbs float summation-order noise; with integer distances the tie set
    is exact.  Refuses m > 10 (factorial blow-up).
    """
    m = enc.layout.m
    if m > 10:
        raise ValueError(f"refusing factorial enumeration for m={m} > 10")
    C = enc.instance.distances
    cities = np.asarray(enc.city_of_symbol, dtype=np.int64)
    start = enc.start_city

    best = math.inf
    cand_flats: list[np.ndarray] = []
    cand_costs: list[np.ndarray] = []
    gen = permutations(range(m))
    while True:
        chunk = list(islice(gen, BRUTE_FORCE_CHUNK))
        if not chunk:
            break
        sym = np.asarray(chunk, dtype=np.int64)
        seq = cities[sym]
        cost = C[start, seq[:, 0]]
        for b in range(1, m):
            cost = cost + C[seq[:, b - 1], seq[:, b]]
        cost = cost + C[seq[:, -1], start]
        best = min(best, float(cost.min()))
        near = cost <= best + _tie_threshold(best)
        cand_flats.append(labels_to_indices(enc.layout, sym[near]))
        cand_costs.append(cost[near])

    flats = np.concatenate(cand_flats)
    costs = np.concatenate(cand_costs)
    sel = costs <= best + _tie_threshold(best)
    flats = np.sort(flats[sel])
    labels = tuple(index_to_label(enc.layout, int(f)) for f in flats)
    return BruteForceResult(labels[0], best, len(labels), labels, flats)
