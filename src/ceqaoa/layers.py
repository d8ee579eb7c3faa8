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
one buffer, hold at most one block.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .encoded import BlockLayout, EncodedState
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
    a, b = _crossing_phases(n, beta)
    kappa = (a / b - 1) / n
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
    sums = buf[: math.prod(shape)].reshape(shape)
    before = (slice(None),) * axis
    np.add(arr[before + (0,)], arr[before + (1,)], out=sums)
    for i in range(2, arr.shape[axis]):
        np.add(sums, arr[before + (i,)], out=sums)
    np.multiply(sums, kappa, out=sums)
    np.add(arr, np.expand_dims(sums, axis), out=arr)


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
