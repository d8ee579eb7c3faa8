"""Circuit layers on the encoded space: diagonal phase and the block XY mixer.

The per-block mixer generator is the complete-graph adjacency on the n
symbols scaled by 1/n, so its spectral gap is 1; its exponential has the
rank-1 closed form a * J/n + b * (I - J/n) with crossing phases
a = exp(-i beta' (n-1)) and b = exp(+i beta'), beta' = beta / n, which
factorises as b * (I + kappa * J) with kappa = (a / b - 1) / n.  The full
mixer then runs in O(D * m) additions: per block axis, the sum of the
axis's n slices, scaled by kappa and added back to every slice; one
multiply by b**m closes it.  No D x D matrix is materialized.  Every axis
works on cache-sized pieces (apply_mixer), and the slice sums, the mixer's
one buffer, hold at most one block.  At depth 1 the same factorisation
gives the amplitudes at chosen labels without a state (tour_amplitudes).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .encoded import BlockLayout, EncodedState, squared_moduli
from .hamiltonian import CostDiagonal


@dataclass(frozen=True)
class Column:
    """One gamma, the betas swept at it and the depth: circuits that share one phase.

    Circuit k runs depth layers, each the phase exp(-i gamma E) then the
    mixer at betas[k].  gamma and depth are checked here.  The betas are
    checked once where they enter the program (phqc.pair_columns; the
    rectangular grids make their own), so the columns of a grid, which
    share one betas tuple, cost O(1) each; a non-finite beta would still
    fail the norm gate.
    """

    gamma: float
    betas: tuple[float, ...]
    depth: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "betas", tuple(self.betas))
        if not math.isfinite(self.gamma):
            raise ValueError(f"non-finite gamma {self.gamma}")
        if not self.betas:
            raise ValueError("a column needs at least one beta")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")

    @property
    def reuses_phase(self) -> bool:
        """True when the phase is applied more than once, so it needs a buffer of its own."""
        return self.depth > 1 or len(self.betas) > 1


def apply_phase(state: EncodedState, phase: np.ndarray) -> EncodedState:
    """Diagonal layer: amplitude[x] *= phase[x]; probabilities unchanged.

    phase is a vector CostDiagonal.phase filled, exp(-i gamma E).  Updates
    the amplitudes in place and consumes the input state: the returned
    state shares its buffer.
    """
    amps = state.amplitudes
    if phase.shape != amps.shape:
        raise ValueError(f"phase shape {phase.shape} does not match the state's {amps.shape}")
    # Complex multiplies are not bitwise commutative here.  Phase first is the
    # order the former out-of-place amps * exp(...) took once numpy elided
    # its temporary, which it does for states of 16384 amplitudes or more.
    np.multiply(phase, amps, out=amps)
    return EncodedState(state.layout, amps)


def _crossing_phases(n: int, beta: float) -> tuple[complex, complex]:
    # beta times the rounded 1/n, not beta / n: the two differ in the last
    # bit for some betas, and every output depends on it
    bp = float(beta) * (1.0 / n)
    return complex(np.exp(-1j * bp * (n - 1))), complex(np.exp(1j * bp))


def _mixer_factors(n: int, beta: float) -> tuple[complex, complex]:
    """(kappa, b): the block mixer is b * (I + kappa * J), kappa = (a / b - 1) / n."""
    a, b = _crossing_phases(n, beta)
    return (a / b - 1) / n, b


def mixer_block_matrix(n: int, beta: float) -> np.ndarray:
    """Closed-form one-block mixer a * J/n + b * (I - J/n); unitary by construction."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a, b = _crossing_phases(n, beta)
    return b * np.eye(n, dtype=np.complex128) + ((a - b) / n) * np.ones((n, n), np.complex128)


# bytes of one block, one core's L2: the axes after the leading ones are
# mixed block by block, so each block stays in cache
_BLOCK_BYTES = 2 << 20
# most labels per column chunk of a leading axis; at least 4, so no chunk is
# a single label, which numpy (2.4, AVX-512) multiplies in place by another
# loop than longer arrays, one whose last bits differ
_CHUNK = 4096


def _mixer_plan(layout: BlockLayout) -> tuple[int, int]:
    """(leading axes, slice-sum elements) of the layout's mixer.

    The leading axes are the fewest that leave blocks of at most
    _BLOCK_BYTES, and at most m - 1, so every block keeps an axis.  The
    slice sums hold one column chunk of a leading axis or one slice of a
    block, whichever is larger.
    """
    n, m = layout.n, layout.m
    lead = 0
    while lead < m - 1 and 16 * n ** (m - lead) > _BLOCK_BYTES:
        lead += 1
    block = n ** (m - lead)
    return lead, max(min(_CHUNK, n ** (m - 1)) if lead else 0, block // n)


def mixer_bytes(layout: BlockLayout) -> int:
    """Bytes of the mixer's slice sums, block-sized at most."""
    return 16 * _mixer_plan(layout)[1]


def apply_mixer(state: EncodedState, beta: float, sums: np.ndarray | None = None) -> EncodedState:
    """Apply the block mixer on every block axis via the factorised rank-1 update.

    The block matrix is b * (I + kappa * J) with kappa = (a / b - 1) / n, so
    per axis: psi += kappa * (the sum of the axis's n slices, added one by
    one), and after the last axis psi *= b**m.  The leading axes, those
    over the whole state, run one at a time in column chunks of at most
    _CHUNK labels.  The later axes run block by block, blocks of at most
    _BLOCK_BYTES unless one axis alone is larger, and each block takes its
    b**m while still in cache.  Every amplitude sees the same operations in
    the same order, so the bits do not depend on the blocking.  Updates the
    amplitudes in place and consumes the input state: the returned state
    shares its buffer.  The slice sums go in sums, of mixer_bytes(layout)
    bytes at least (None allocates them for the call).
    """
    layout = state.layout
    n, m = layout.n, layout.m
    kappa, b = _mixer_factors(n, beta)
    closing = b**m
    lead, size = _mixer_plan(layout)
    if sums is None:
        sums = np.empty(size, dtype=np.complex128)
    amps = state.tensor().reshape(-1)
    for axis in range(lead):
        _mix_lead_axis(amps.reshape(n**axis, n, -1), kappa, sums)
    for block in amps.reshape((-1,) + (n,) * (m - lead)):
        for axis in range(m - lead):
            _mix_axis(block, axis, kappa, sums)
        np.multiply(block, closing, out=block)
    return EncodedState(layout, amps)


def _mix_lead_axis(arr: np.ndarray, kappa: complex, sums: np.ndarray) -> None:
    """_mix_axis on axis 1 of an (outer, n, columns) array, in near-equal column chunks."""
    cols = arr.shape[2]
    chunks = -(-cols // _CHUNK)
    bounds = [cols * i // chunks for i in range(chunks + 1)]
    for part in arr:
        for lo, hi in zip(bounds, bounds[1:]):
            _mix_axis(part[:, lo:hi], 0, kappa, sums)


def _mix_axis(arr: np.ndarray, axis: int, kappa: complex, buf: np.ndarray) -> None:
    """arr += kappa * (sum of arr's slices along axis), summed slice by slice."""
    shape = arr.shape[:axis] + arr.shape[axis + 1 :]
    sums = _sum_slices(arr, axis, buf[: math.prod(shape)].reshape(shape))
    np.multiply(sums, kappa, out=sums)
    np.add(arr, np.expand_dims(sums, axis), out=arr)


def _sum_slices(arr: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """out = the sum of arr's slices along axis, added one by one from the first."""
    before = (slice(None),) * axis
    np.add(arr[before + (0,)], arr[before + (1,)], out=out)
    for i in range(2, arr.shape[axis]):
        np.add(out, arr[before + (i,)], out=out)
    return out


def tour_amplitudes(
    diag: CostDiagonal, columns: Sequence[Column], flats: np.ndarray
) -> Iterator[np.ndarray]:
    """Yield, per depth-1 column, the amplitudes at the labels flats after each of its circuits.

    The closed form of a depth-1 circuit: with the block matrix
    b * (I + kappa * J), psi(y) = b**m / sqrt(D) * sum_k kappa**k T_k(y),
    where T_k(y) sums, over the k-subsets S of blocks, the phase vector's
    marginal over S (its sum over the blocks in S) read at y.  Per column,
    one depth-first pass over the 2**m subsets forms each marginal from
    its parent's by summing one more block axis, slice by slice as
    apply_mixer does, and gathers it at the labels into the
    (m + 1, len(flats)) sums T; then each beta is a Horner step over T.  So
    a column costs about n * D * ((1 + 1/n)**m - 1) additions, once, and
    O(m * len(flats)) per beta, where circuits cost O(D * m) per beta.  The
    phase comes from CostDiagonal.phase; nothing is summed by a BLAS call
    or a reduction, so the bits do not depend on the CPU.  They differ from
    run_circuit's in the last places: near beta = pi the terms reach about
    3**m times the amplitudes they cancel to, so the rounding grows with m
    (at most 4e-14 of the largest amplitude on the default grids up to
    m = 7).  The amplitudes are not norm-checked.  The gathers clip their
    indices, in range by construction, for the reason CostDiagonal.phase
    gives: each would otherwise fill and copy back a hidden copy of its out.

    Yields a (len(betas), len(flats)) complex array per column.  Every
    column runs in the same buffers, tour_amplitude_bytes of them for the
    most betas a column has, allocated when the first column is asked for,
    so each array yielded is overwritten by the next.
    """
    layout = diag.layout
    n, m = layout.n, layout.m
    flats = np.asarray(flats, dtype=np.int64)
    # suffix[j]: the number the digits of blocks j..m-1 make, so the index
    # of a label in a marginal over blocks < j drops block j by
    # (index - suffix[j]) // n + suffix[j + 1]
    suffix = [flats % n ** (m - j) for j in range(m + 1)]
    phase = np.empty(layout.D, dtype=np.complex128)
    marginals = [np.empty(n ** (m - k), dtype=np.complex128) for k in range(1, m + 1)]
    indices = [np.empty(flats.size, dtype=np.int64) for _ in range(m)]
    gathered = np.empty(flats.size, dtype=np.complex128)
    sums = np.empty((m + 1, flats.size), dtype=np.complex128)
    betas = max((len(col.betas) for col in columns), default=0)
    amps = np.empty((betas, flats.size), dtype=np.complex128)

    def visit(parent: np.ndarray, index: np.ndarray, k: int, first: int) -> None:
        # parent: the marginal over k blocks, all before first; its label
        # indices are index
        for j in range(first, m):
            slices = parent.reshape(n ** (j - k), n, n ** (m - 1 - j))
            child = marginals[k]
            _sum_slices(slices, 1, child.reshape(slices.shape[0], slices.shape[2]))
            at = indices[k]
            np.subtract(index, suffix[j], out=at)
            np.floor_divide(at, n, out=at)
            np.add(at, suffix[j + 1], out=at)
            np.take(child, at, out=gathered, mode="clip")
            np.add(sums[k + 1], gathered, out=sums[k + 1])
            visit(child, at, k + 1, j + 1)

    scale = 1.0 / math.sqrt(layout.D)
    for column in columns:
        if column.depth != 1:
            raise ValueError(f"the closed form is for depth 1, got depth {column.depth}")
        diag.phase(column.gamma, phase)
        np.take(phase, flats, out=sums[0], mode="clip")
        sums[1:] = 0
        visit(phase, flats, 0, 0)
        for row, beta in zip(amps, column.betas):
            kappa, b = _mixer_factors(n, beta)
            np.multiply(sums[m], kappa, out=row)
            for k in range(m - 1, 0, -1):
                np.add(row, sums[k], out=row)
                np.multiply(row, kappa, out=row)
            np.add(row, sums[0], out=row)
            np.multiply(row, b**m * scale, out=row)
        yield amps[: len(column.betas)]


def tour_amplitude_bytes(layout: BlockLayout, labels: int, betas: int) -> int:
    """Bytes of tour_amplitudes' buffers, at most betas betas a column, labels labels.

    The complex phase (16 per label of the layout), the marginal chain (one
    per subset size, 16 * (D - 1) / (n - 1) in all), and per label gathered:
    its m + 1 sums and one gather (16 each), its m indices and m + 1 suffixes
    (8 each) and its betas amplitudes (16 each).
    """
    n, m, dim = layout.n, layout.m, layout.D
    per_label = 16 * (m + 2) + 8 * (2 * m + 1) + 16 * betas
    return 16 * dim + 16 * (dim - 1) // (n - 1) + labels * per_label


def run_circuit(diag: CostDiagonal, columns: Sequence[Column]) -> Iterator[EncodedState]:
    """Yield the state after each circuit of the grid: column by column, one per beta.

    Each circuit starts from the uniform state and alternates phase then
    mixer.  Every circuit runs in the same buffers, allocated once when the
    first state is asked for: the complex amplitudes, the mixer's slice
    sums, and a complex phase buffer, made at the first column that reuses
    its phase (Column.reuses_phase).  So every state yielded is overwritten
    by the next, and a grid allocates no D-sized buffer per point.  Each
    column builds its phase once: into the amplitude buffer when it uses it
    once (one beta at depth 1), else into the phase buffer, from which
    every layer reads it.  The first layer is phase * (1/sqrt(D)), phase
    first, bitwise the product of the phase with a uniform state.  A caller
    of a one-point grid unpacks (state,) = run_circuit(...), which runs the
    generator to its end, so it holds no other buffer afterwards.
    """
    layout = diag.layout
    amps = np.empty(layout.D, dtype=np.complex128)
    sums = np.empty(_mixer_plan(layout)[1], dtype=np.complex128)
    phase_buf = None
    for column in columns:
        if not column.reuses_phase:
            phase = diag.phase(column.gamma, amps)
        else:
            if phase_buf is None:
                phase_buf = np.empty(layout.D, dtype=np.complex128)
            phase = diag.phase(column.gamma, phase_buf)
        for beta in column.betas:
            np.multiply(phase, 1.0 / math.sqrt(layout.D), out=amps)
            state = apply_mixer(EncodedState(layout, amps), beta, sums)
            for _ in range(column.depth - 1):
                state = apply_mixer(apply_phase(state, phase), beta, sums)
            yield state


# Depth-1 columns of at least this many betas take the closed form: one
# column of it costs about as much as 1 to 3 circuits at n_cities = 5..9
# (BENCH_25.json), so from 4 betas on it never loses
CLOSED_FORM_BETAS = 4
# the closed form's largest error at the gate, relative to the circuit's largest tour amplitude
GATE_TOL = 1e-12


def closed_form(column: Column) -> bool:
    """True when point_probabilities takes the column's amplitudes from tour_amplitudes."""
    return column.depth == 1 and len(column.betas) >= CLOSED_FORM_BETAS


def point_probabilities(
    diag: CostDiagonal, columns: Sequence[Column], flats: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (grid index, p) for every point of the columns, p a fresh |psi|**2 at flats.

    Points are numbered column by column in beta order.  Columns that take
    the closed form (closed_form) read tour_amplitudes, the rest the states
    of one run_circuit call, whose first circuit is the gate at the middle
    point of the middle closed-form column.  The circuit points come first,
    and no state outlives them; then the closed-form points, the gate's
    column first.  ValueError ends the generator before them when the closed
    form strays from the gate by more than GATE_TOL of its largest amplitude.
    """
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
        expected = next(states).amplitudes[flats]
    points = (i + k for i, col in circuits for k in range(len(col.betas)))
    # a generator expression's names end with it, so no state outlives the spent
    # run_circuit: its buffers are freed before the closed form allocates its own
    yield from (
        (i, squared_moduli(state.amplitudes[flats]))
        for i, state in zip(points, states, strict=True)
    )
    amplitudes = tour_amplitudes(diag, [col for _, col in formed], flats)
    # zip asks formed first, so without a closed-form column no pass starts
    for (i, _), amps in zip(formed, amplitudes):
        if i == formed[0][0]:  # the gate's column
            largest = float(np.abs(expected).max())
            error = float(np.abs(amps[len(amps) // 2] - expected).max())
            if not error <= GATE_TOL * largest:
                raise ValueError(
                    f"the closed-form tour amplitudes at gamma {gate[0].gamma!r}, beta "
                    f"{gate[0].betas[0]!r} differ from the circuit's by {error:.3g}, over "
                    f"{GATE_TOL:g} of its largest {largest:.3g}; the solve stops"
                )
        for k, row in enumerate(amps, i):
            yield k, squared_moduli(row)


def point_probability_bytes(layout: BlockLayout, columns: Sequence[Column], tours: int) -> int:
    """Peak bytes of point_probabilities' buffers over the columns, at tours labels.

    The larger of two sets, never alive at once: run_circuit's (the complex
    amplitudes, the complex phase when a column not in closed form reuses
    it, 16 bytes a label each, and mixer_bytes) and tour_amplitude_bytes.
    With a closed form, the gate's tour amplitudes (16 a tour) beside them.
    """
    phase = 16 if any(col.reuses_phase for col in columns if not closed_form(col)) else 0
    held = (16 + phase) * layout.D + mixer_bytes(layout)
    betas = max((len(col.betas) for col in columns if closed_form(col)), default=0)
    if betas:
        held = max(held, tour_amplitude_bytes(layout, tours, betas)) + 16 * tours
    return held


@dataclass(frozen=True)
class MixerSpectrum:
    eigenvalues: np.ndarray  # ascending
    gap: float  # top eigenvalue minus the second one


def mixer_spectrum(n: int) -> MixerSpectrum:
    """Numerical eigenvalues of the complete-graph generator over n and its gap (1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    gen = (1.0 / n) * (np.ones((n, n)) - np.eye(n))
    eig = np.linalg.eigvalsh(gen)
    return MixerSpectrum(eig, float(eig[-1] - eig[-2]))
