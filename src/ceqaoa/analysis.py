"""Estimators verifying the design, spectral, controllability, and baseline claims."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .encoded import EncodedState, index_to_label, labels_to_indices
from .layers import mixer_block_matrix

EXHAUSTIVE_TWIRL_LIMIT = 1_000_000
EXACT_INT_BITS = 1 << 16  # larger baseline integers are handled in log10 space
LIE_TOL = 1e-8  # Gram-Schmidt residual below which a generator is in the span
QUADRATURE_POINTS = 4096  # betas of angle_averaged_transition's uniform rule


def twirl_average(state: EncodedState, target) -> float:
    """Average overlap on the permuted target over all blockwise symbol permutations.

    The averaged quantity is |<target| P^dag psi>|^2 = prob(psi) at
    P(target), psi the state, summed exactly over all (n!)**m blockwise
    permutations (refused above EXHAUSTIVE_TWIRL_LIMIT).
    """
    layout = state.layout
    target = layout.validate_label(target)
    count = math.factorial(layout.n) ** layout.m
    if count > EXHAUSTIVE_TWIRL_LIMIT:
        raise ValueError(f"exhaustive twirl over {count} permutations refused")
    # the image of the target under every permutation tuple, in
    # product(permutations, repeat=m) order: block 0 varies slowest
    perms = np.array(list(permutations(range(layout.n))))
    images = np.meshgrid(*(perms[:, j] for j in target), indexing="ij")
    flats = labels_to_indices(layout, np.stack(images, axis=-1).reshape(count, layout.m))
    # cumsum adds strictly in order, as a running Python sum would
    return float(np.cumsum(state.probabilities()[flats])[-1]) / count


def find_good_permutation(state: EncodedState, target) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Blockwise permutation lifting the target overlap to the state's histogram peak.

    The image P(target) ranges over every basis label as P ranges over all
    blockwise permutations, so the best permutation reads off the argmax of
    the probability vector (first index wins ties).  Returns perms, P
    sending block b's symbol j to perms[b][j], and the overlap, which the
    averaging identity guarantees is >= 1/D.
    """
    layout = state.layout
    target = layout.validate_label(target)
    probs = state.probabilities()
    flat = int(np.argmax(probs))
    best = index_to_label(layout, flat)
    perms = []
    for jt, jb in zip(target, best):
        p = list(range(layout.n))
        p[jt], p[jb] = p[jb], p[jt]
        perms.append(tuple(p))
    return tuple(perms), float(probs[flat])


def transition_closed_form(n: int) -> np.ndarray:
    """Doubly stochastic angle-averaged transition matrix: diag 1 - 2/n + 2/n^2, off 2/n^2."""
    out = np.full((n, n), 2.0 / n**2)
    np.fill_diagonal(out, 1.0 - 2.0 / n + 2.0 / n**2)
    return out


def angle_averaged_transition(n: int) -> np.ndarray:
    """Average |U(beta)_{ij}|^2 over beta in [0, 2pi) on a uniform grid.

    With the unit gap the integrand is a trigonometric polynomial of period
    2pi in beta and short degree, so the uniform rule is exact to roundoff
    once QUADRATURE_POINTS exceeds its degree.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    acc = np.zeros((n, n))
    for k in range(QUADRATURE_POINTS):
        beta = 2.0 * math.pi * k / QUADRATURE_POINTS
        acc += np.abs(mixer_block_matrix(n, beta)) ** 2
    return acc / QUADRATURE_POINTS


@dataclass(frozen=True)
class MomentReport:
    mean_overlap: float
    second_moment: float
    haar_mean: float  # 1/D with D = n on a single block
    haar_second: float  # 2/(D(D+1))
    n_samples: int
    std_errors: tuple[float, float]


def block_design_moments(n: int, pulse_layers: int, trials: int, seed: int = 0) -> MomentReport:
    """Moments of X = |<0| U |uniform>|^2 under random in-block circuits.

    Each layer draws a uniformly random pair (i, j), an angle theta for the
    rotation exp(-i theta (|i><j| + |j><i|)), and a site k with phase
    exp(-i phi |k><k|), theta and phi uniform on [0, 2pi).  All trials
    evolve in one vectorized batch.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"block size {n} outside [2, 8]")
    if trials < 1 or pulse_layers < 0:
        raise ValueError("need trials >= 1 and pulse_layers >= 0")
    rng = np.random.default_rng(seed)
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.int64)
    states = np.full((trials, n), 1.0 / math.sqrt(n), dtype=np.complex128)
    rows = np.arange(trials)
    for _ in range(pulse_layers):
        edge = pairs[rng.integers(0, len(pairs), trials)]
        i, j = edge[:, 0], edge[:, 1]
        theta = rng.uniform(0.0, 2.0 * math.pi, trials)
        c = np.cos(theta)
        s = -1j * np.sin(theta)
        vi = states[rows, i]
        vj = states[rows, j]
        states[rows, i] = c * vi + s * vj
        states[rows, j] = s * vi + c * vj
        k = rng.integers(0, n, trials)
        states[rows, k] *= np.exp(-1j * rng.uniform(0.0, 2.0 * math.pi, trials))
    x = np.abs(states[:, 0]) ** 2
    x2 = x**2
    if trials > 1:
        se = (
            float(x.std(ddof=1) / math.sqrt(trials)),
            float(x2.std(ddof=1) / math.sqrt(trials)),
        )
    else:
        se = (math.inf, math.inf)
    return MomentReport(
        float(x.mean()), float(x2.mean()), 1.0 / n, 2.0 / (n * (n + 1)), trials, se
    )


def lie_algebra_dimension(n: int, diagonal) -> int:
    """Real dimension of the Lie closure of the pair-hop and diagonal generators.

    Generators: i(E_ij + E_ji) for i < j, plus i * diag(d) made traceless;
    d must not be proportional to the all-ones vector.  Closure under
    commutators, with membership decided by twice-reorthogonalized
    Gram-Schmidt residuals against LIE_TOL.
    """
    if not 2 <= n <= 6:
        raise ValueError(f"block size {n} outside [2, 6]")
    d = np.asarray(diagonal, dtype=np.float64)
    if d.shape != (n,):
        raise ValueError(f"diagonal generator must have length {n}")
    if np.allclose(d, d.mean()):
        raise ValueError("diagonal generator is proportional to the identity")

    gens: list[np.ndarray] = []
    for i in range(n):
        for j in range(i + 1, n):
            g = np.zeros((n, n), dtype=np.complex128)
            g[i, j] = g[j, i] = 1.0
            gens.append(1j * g)
    gens.append(1j * np.diag(d - d.mean()))

    basis_vecs: list[np.ndarray] = []  # orthonormal over the reals
    basis_mats: list[np.ndarray] = []

    def try_add(mat: np.ndarray) -> bool:
        v = np.concatenate([mat.real.ravel(), mat.imag.ravel()])
        nrm = float(np.linalg.norm(v))
        if nrm < LIE_TOL:
            return False
        v /= nrm
        for _ in range(2):
            for b in basis_vecs:
                v = v - (b @ v) * b
        res = float(np.linalg.norm(v))
        if res < LIE_TOL:
            return False
        basis_vecs.append(v / res)
        basis_mats.append(mat / nrm)
        return True

    for g in gens:
        try_add(g)
    grew = True
    while grew:
        grew = False
        mats = list(basis_mats)
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                if try_add(comm):
                    grew = True
    return len(basis_vecs)


def _pow10(log10: float) -> float:
    try:
        return 10.0**log10
    except OverflowError:
        return math.inf


def _trials(
    base: int, exp: int, extra: int, den: int | None, log10_den: float
) -> tuple[float, float]:
    """(value, log10 of value) of (base**exp + extra) / den, log10_den being log10(den).

    Exact integer arithmetic while base**exp has at most EXACT_INT_BITS
    bits; beyond that the numerator is built in log10 space, where extra
    no longer shows, and den may be None.  A value that overflows a float
    is inf.
    """
    if exp * base.bit_length() <= EXACT_INT_BITS:
        num = base**exp + extra
        try:
            value = num / den
        except OverflowError:
            value = math.inf
        return value, math.log10(num) - log10_den
    log10 = exp * math.log10(base) - log10_den
    return _pow10(log10), log10


@dataclass(frozen=True)
class BaselineReport:
    """Expected-trial counts for the two classical sampling models.

    model_a draws uniformly from the encoded domain of size D = n**m and
    needs D/|F| trials to hit the feasible set F; model_b sees only raw
    n*n-bit strings and needs (2**(n*n) + 1)/(|F| + 1).  Values that
    overflow a float are reported as inf, with their magnitudes in the
    log10 fields (exact logs of the integers up to EXACT_INT_BITS bits).
    feasible_count is n!, or None past EXACT_INT_BITS bits, where only its
    log10 is formed.
    """

    n: int
    m: int
    feasible_count: int | None
    log10_feasible_count: float
    model_a_trials: float
    model_b_trials: float
    separation_ratio: float  # (2**n / n)**n
    log10_model_a: float
    log10_model_b: float
    log10_separation: float


def classical_baselines(n: int) -> BaselineReport:
    """The baselines for n blocks of n symbols, whose feasible set is the n! permutations."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if math.lgamma(n + 1) <= EXACT_INT_BITS * math.log(2.0):
        count = math.factorial(n)
        log10_count, log10_b_den = math.log10(count), math.log10(count + 1)
        b_den = count + 1
    else:  # n! + 1 and n! agree to far below a float's precision
        count = b_den = None
        log10_count = log10_b_den = math.lgamma(n + 1) / math.log(10.0)
    model_a, log10_a = _trials(n, n, 0, count, log10_count)
    model_b, log10_b = _trials(2, n * n, 1, b_den, log10_b_den)
    log10_sep = n * (n * math.log10(2.0) - math.log10(n))
    return BaselineReport(
        n=n,
        m=n,
        feasible_count=count,
        log10_feasible_count=log10_count,
        model_a_trials=model_a,
        model_b_trials=model_b,
        separation_ratio=_pow10(log10_sep),
        log10_model_a=log10_a,
        log10_model_b=log10_b,
        log10_separation=log10_sep,
    )
