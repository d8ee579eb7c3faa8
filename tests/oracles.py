"""Independent oracles the tests check the package against.

Deliberately written from scratch (subset DP, dense eigendecomposition
exponentials, explicit Kronecker products) so they share no code path
with the implementations under test.  exact_success_probability is the
one exception: a test helper built on the simulator itself.
"""

import math
from itertools import permutations

import numpy as np

from ceqaoa.hamiltonian import TIE_TOL, brute_force_optimum
from ceqaoa.layers import run_circuit

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
XX = np.kron(X, X)
YY = np.kron(Y, Y)


def expm_hermitian(h, t):
    """exp(-i t h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def held_karp_cycle(dist, start=0):
    """Exact minimum cycle cost through all cities, anchored at start."""
    n = len(dist)
    others = [c for c in range(n) if c != start]
    k = len(others)
    dp = {}
    for i in range(k):
        dp[(1 << i, i)] = dist[start][others[i]]
    for mask in range(1, 1 << k):
        for i in range(k):
            if not mask & (1 << i) or (mask, i) not in dp:
                continue
            base = dp[(mask, i)]
            for j in range(k):
                if mask & (1 << j):
                    continue
                nm = mask | (1 << j)
                cand = base + dist[others[i]][others[j]]
                if cand < dp.get((nm, j), np.inf):
                    dp[(nm, j)] = cand
    full = (1 << k) - 1
    return min(dp[(full, i)] + dist[others[i]][start] for i in range(k))


def _symbols(layout, label):
    """label as a tuple of ints; ValueError unless it holds m symbols in [0, n)."""
    label = tuple(int(j) for j in label)
    if len(label) != layout.m or not all(0 <= j < layout.n for j in label):
        raise ValueError(f"label {label} is not {layout.m} symbols in [0, {layout.n})")
    return label


def label_to_index(layout, label):
    """Flat index of one label, block 0 the most significant digit: the scalar codec tests use."""
    label = _symbols(layout, label)
    idx = 0
    for j in label:
        idx = idx * layout.n + j
    return idx


def is_feasible(enc, label):
    """True when all symbols are pairwise distinct (a permutation for m == n)."""
    label = _symbols(enc.layout, label)
    return len(set(label)) == enc.layout.m


def tour_cost(enc, label):
    """Cyclic tour cost of a feasible label, the scalar reference of the cost diagonal.

    Sums left to right: start edge, inner edges, return edge, the order
    build_cost_diagonal keeps, so the two agree bitwise.
    """
    label = _symbols(enc.layout, label)
    if not is_feasible(enc, label):
        raise ValueError(f"label {label} repeats a city; filter with is_feasible first")
    return _cycle_cost(enc, [enc.city_of_symbol[j] for j in label])


def enumerated_tours(enc):
    """{flat: cost} over every tour, by enumerating the permutations of the m symbols.

    Each cost is tour_cost's scalar sum.  The flat index of a label is its
    base-n reading, block 0 most significant.
    """
    n, m = enc.layout.n, enc.layout.m
    return {
        sum(s * n ** (m - 1 - b) for b, s in enumerate(perm)): tour_cost(enc, perm)
        for perm in permutations(range(m))
    }


def enumerated_optimum(enc):
    """(best cost, ascending flat indices of every optimal tour) by enumerating all tours.

    Keeps the tours of enumerated_tours within TIE_TOL * max(1, |best|) of
    the best, the tie rule of brute_force_optimum.
    """
    costs = enumerated_tours(enc)
    best = min(costs.values())
    return best, sorted(f for f, c in costs.items() if c <= best + TIE_TOL * max(1.0, abs(best)))


def _cycle_cost(enc, cities):
    C = enc.instance.distances
    cost = C[enc.start_city, cities[0]]
    for a, b in zip(cities[:-1], cities[1:]):
        cost = cost + C[a, b]
    return float(cost + C[cities[-1], enc.start_city])


def dense_block_mixer(n, angle):
    """exp(-i angle A(K_n)) on one block, via eigendecomposition."""
    return expm_hermitian(np.ones((n, n)) - np.eye(n), angle)


def kron_mixer(n, m, angle):
    """Full D x D mixer as an explicit Kronecker product, block 0 leftmost."""
    u = dense_block_mixer(n, angle)
    out = u
    for _ in range(m - 1):
        out = np.kron(out, u)
    return out


def reference_phase(diag, gamma):
    """exp(-i gamma E) formed directly on all D energies, out of place.

    The product with -1j * gamma and the exponential act on the complex
    form (E, +0) of each energy, int32 or float64: the operations, in
    their order, that CostDiagonal.phase must match bit for bit however it
    forms the vector.
    """
    return np.exp(-1j * float(gamma) * diag.energy)


def reference_circuit(diag, pairs):
    """Amplitudes after one layer per (gamma, beta) pair, built out of place, one layer at a time.

    Keeps the expressions of the in-place kernels, in the same operand
    order, so the kernels must match it bit for bit.  Complex multiplies are
    not bitwise commutative, so each product names its order: phase first,
    as numpy's temporary elision evaluated the former amps * exp(...) for
    states of 16384 amplitudes or more; the mixer's slice sums times kappa;
    the state times b**m.  The mixer is the factorised b * (I + kappa * J)
    per block, kappa = (a / b - 1) / n, with each axis's slices summed one
    by one, left to right.  At m = 1 the sum is a numpy scalar, whose
    product takes numpy's scalar loop, as the kernel's one-element in-place
    product does (a one-element array product out of place takes the vector
    loop, whose bits differ).
    """
    n, m, dim = diag.layout.n, diag.layout.m, diag.layout.D
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    for gamma, beta in pairs:
        amps = reference_phase(diag, gamma) * amps
        bp = float(beta) * (1.0 / n)
        a, b = complex(np.exp(-1j * bp * (n - 1))), complex(np.exp(1j * bp))
        kappa = (a / b - 1) / n
        arr = amps.reshape((n,) * m)
        for axis in range(m):
            parts = [arr[(slice(None),) * axis + (i,)] for i in range(n)]
            total = parts[0] + parts[1]
            for part in parts[2:]:
                total = total + part
            arr = arr + np.expand_dims(total * kappa, axis)
        amps = (arr * b**m).reshape(-1)
    return amps


def exact_success_probability(diag, column):
    """(p_opt, degeneracy): the exact mass on every optimal label after a one-beta column.

    Not independent of the package: it composes the diagonal's scan for the
    optima with the simulator, as the solver does for its winning point.
    """
    feasible = brute_force_optimum(diag)
    optimal = np.sort(feasible.flats[: feasible.degeneracy])
    (state,) = run_circuit(diag, [column])
    return float((np.abs(state.amplitudes[optimal]) ** 2).sum()), feasible.degeneracy


def solved_cost(result):
    """The best sampled cost of a solve, its winning point's; None when no shot was feasible."""
    return None if result.winner is None else result.points[result.winner].scored.best_cost


def tour_probabilities(diag, column, flats):
    """Exact probabilities of the given flat labels after a one-beta column, from run_circuit."""
    (state,) = run_circuit(diag, [column])
    return np.abs(state.amplitudes[np.asarray(flats, dtype=np.int64)]) ** 2


def former_mixer(layout, amps, beta):
    """The block mixer as b * psi + (a - b) * mean_over_axis(psi), one axis at a time, out of place."""
    n, m = layout.n, layout.m
    bp = float(beta) * (1.0 / n)
    a, b = complex(np.exp(-1j * bp * (n - 1))), complex(np.exp(1j * bp))
    arr = amps.reshape((n,) * m)
    for axis in range(m):
        arr = b * arr + (a - b) * arr.mean(axis=axis, keepdims=True)
    return arr.reshape(-1)


def reference_cost_diagonal(enc):
    """(objective, penalty count) over all labels from length-D symbol columns.

    Gathers each block's cities for every flat index and sums the tour left
    to right (start edge, inner edges, return edge); the penalty count
    n - m + 2 * collisions counts equal-symbol block pairs by comparing the
    columns pairwise.
    """
    layout = enc.layout
    n, m = layout.n, layout.m
    C = enc.instance.distances
    cities = np.asarray(enc.city_of_symbol, dtype=np.int64)
    # block b's symbol is the b-th most significant base-n digit of the index;
    # spelled out here so the reference shares nothing with the package codec
    idx = np.arange(layout.D, dtype=np.int64)
    sym = [(idx // n ** (m - 1 - b) % n).astype(np.int8) for b in range(m)]

    prev = cities[sym[0]]
    objective = C[enc.start_city, prev]
    for b in range(1, m):
        cur = cities[sym[b]]
        objective = objective + C[prev, cur]
        prev = cur
    objective = objective + C[prev, enc.start_city]

    collisions = np.zeros(layout.D, dtype=np.int16)
    for i in range(m):
        for j in range(i + 1, m):
            collisions += sym[i] == sym[j]
    return objective, n - m + 2 * collisions.astype(np.int64)


def reference_tour_sample(amplitudes, tours, total_shots, seed):
    """(flat, 1) per feasible shot, replaying the per-point sampler's draws over given tours.

    tours is {flat: cost}, as enumerated_tours gives it.  The tours are
    ordered by (cost, flat), and the draws take the sampler's steps: K ~
    Binomial(total_shots, F) feasible shots, F the tours' total
    probability, then K draws by Generator.choice over the tours'
    probabilities divided by F.
    """
    order = sorted(tours, key=lambda flat: (tours[flat], flat))
    probs = np.abs(amplitudes[np.array(order, dtype=np.int64)]) ** 2
    mass = float(probs.sum())
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(total_shots, min(mass, 1.0)))
    if hits == 0:
        return []
    return [(order[i], 1) for i in rng.choice(len(order), hits, p=probs / mass).tolist()]


def scalar_score(penalty_count, objective, flat_counts):
    """The checker as a plain loop over (flat, count) pairs in any order.

    Returns (best cost, best flat, feasible shots, cost histogram); ties on
    cost go to the lowest flat index, the histogram is the ascending
    (cost, shots) pairs, and (None, None, 0, ()) means no feasible sample.
    """
    best = None
    feasible = 0
    histogram = {}
    for flat, cnt in flat_counts:
        if penalty_count[flat] != 0:
            continue
        feasible += cnt
        key = (float(objective[flat]), flat)
        histogram[key[0]] = histogram.get(key[0], 0) + cnt
        if best is None or key < best:
            best = key
    if best is None:
        return None, None, 0, ()
    return best[0], best[1], feasible, tuple(sorted(histogram.items()))


def random_symmetric_instance(n_cities, seed, lo=1.0, hi=10.0):
    rng = np.random.default_rng(seed)
    m = rng.uniform(lo, hi, (n_cities, n_cities))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return m


def random_asymmetric_instance(n_cities, seed, lo=1.0, hi=10.0):
    rng = np.random.default_rng(seed)
    m = rng.uniform(lo, hi, (n_cities, n_cities))
    np.fill_diagonal(m, 0.0)
    return m
