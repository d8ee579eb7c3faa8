"""Circuit layers on the encoded space: diagonal phase and the block XY mixer.

The per-block mixer generator is the complete-graph adjacency on the n
symbols (optionally scaled by 1/n or 1/(n-1)); its exponential has the
rank-1 closed form a * J/n + b * (I - J/n) with crossing phases
a = exp(-i beta' (n-1)) and b = exp(+i beta'), which factorises as
b * (I + kappa * J) with kappa = (a / b - 1) / n.  The full mixer then
runs in O(D * m) additions: per block axis, the sum of the axis's n slices,
scaled by kappa and added back to every slice; one multiply by b**m
closes it.  No D x D matrix is materialized.  Once a state is larger than
a cache-sized block, the later axes run block by block.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .encoded import BlockLayout, EncodedState
from .hamiltonian import CostDiagonal


class MixerNormalization(Enum):
    """Scaling applied to the complete-graph block generator."""

    RAW = "raw"
    OVER_N = "over_n"
    OVER_N_MINUS_1 = "over_n_minus_1"

    def scale(self, n: int) -> float:
        if self is MixerNormalization.RAW:
            return 1.0
        if self is MixerNormalization.OVER_N:
            return 1.0 / n
        return 1.0 / (n - 1)


DEFAULT_NORMALIZATION = MixerNormalization.OVER_N


@dataclass(frozen=True)
class LayerSchedule:
    """Angle pairs (gamma, beta), one per layer."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple((float(g), float(b)) for g, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("schedule needs at least one layer")
        for g, b in pairs:
            if not (math.isfinite(g) and math.isfinite(b)):
                raise ValueError(f"non-finite angle pair ({g}, {b})")

    @classmethod
    def constant(cls, gamma: float, beta: float, depth: int = 1) -> "LayerSchedule":
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        return cls(((gamma, beta),) * depth)

    @property
    def depth(self) -> int:
        return len(self.pairs)


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


def phase_key(gamma: float) -> str:
    """Key of a phase vector: the exact float, whose hex form keeps 0.0 and -0.0 apart."""
    return float(gamma).hex()


def _crossing_phases(n: int, beta: float, norm: MixerNormalization) -> tuple[complex, complex]:
    bp = float(beta) * norm.scale(n)
    return complex(np.exp(-1j * bp * (n - 1))), complex(np.exp(1j * bp))


def mixer_block_matrix(
    n: int, beta: float, norm: MixerNormalization = DEFAULT_NORMALIZATION
) -> np.ndarray:
    """Closed-form one-block mixer a * J/n + b * (I - J/n); unitary by construction."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a, b = _crossing_phases(n, beta, norm)
    return b * np.eye(n, dtype=np.complex128) + ((a - b) / n) * np.ones((n, n), np.complex128)


# bytes of one cache-sized block: the axes after the leading ones that make a
# block this small are mixed block by block, so each block stays in cache
_BLOCK_BYTES = 4 << 20


def apply_mixer(
    state: EncodedState,
    beta: float,
    norm: MixerNormalization = DEFAULT_NORMALIZATION,
    scratch: np.ndarray | None = None,
) -> EncodedState:
    """Apply the block mixer on every block axis via the factorised rank-1 update.

    The block matrix is b * (I + kappa * J) with kappa = (a / b - 1) / n, so
    per axis: psi += kappa * (the sum of the axis's n slices, added one by
    one), and after the last axis psi *= b**m.  Axes past the leading ones
    that cut the state into blocks of at most _BLOCK_BYTES run block by
    block; every element sees the same operations in the same order, so the
    bits do not depend on the blocking.  Updates the amplitudes in place and
    consumes the input state: the returned state shares its buffer.  The
    slice sums live in scratch, a contiguous float64 buffer of at least
    2 * D / n elements (D / n complex); None allocates one for the call.
    """
    layout = state.layout
    n, m = layout.n, layout.m
    a, b = _crossing_phases(n, beta, norm)
    kappa = (a / b - 1) / n
    arr = state.tensor()
    need = 2 * (layout.D // n)
    sums = (np.empty(need) if scratch is None else scratch[:need]).view(np.complex128)
    lead = 0
    while 16 * n ** (m - lead) > _BLOCK_BYTES:
        lead += 1
    for axis in range(lead):
        _mix_axis(arr, axis, kappa, sums)
    for block in arr.reshape((-1,) + arr.shape[lead:]):
        for axis in range(m - lead):
            _mix_axis(block, axis, kappa, sums)
    np.multiply(arr, b**m, out=arr)
    return EncodedState(layout, arr.reshape(-1))


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


@dataclass(eq=False)
class Workspace:
    """Every D-sized buffer of a run of circuits, reused from one circuit to the next.

    amps is the complex amplitude buffer.  scratch is a float64 buffer of D
    elements: it holds the mixer's slice sums (2D/n elements, at most D for
    every n >= 2) during a circuit and the sampling CDF after it.  phase is
    a complex buffer for exp(-i gamma E), or None when the run holds no
    phase vector beside the amplitudes (holds_phase).  A solve that keeps one workspace allocates
    no D-sized buffer per grid point.
    """

    amps: np.ndarray
    scratch: np.ndarray
    phase: np.ndarray | None = None
    # the diagonal and phase_key(gamma) whose phase the buffer holds
    _held: tuple[CostDiagonal, str] | None = field(default=None, init=False, repr=False)

    @classmethod
    def for_schedules(cls, layout: BlockLayout, schedules: Sequence[LayerSchedule]) -> "Workspace":
        return cls(
            np.empty(layout.D, dtype=np.complex128),
            np.empty(layout.D),
            np.empty(layout.D, dtype=np.complex128) if holds_phase(schedules) else None,
        )

    def phase_for(self, diag: CostDiagonal, gamma: float) -> np.ndarray:
        """The phase buffer holding diag.phase(gamma); filled only when it holds another."""
        key = (diag, phase_key(gamma))
        if self._held != key:
            self._held = None  # an interrupted fill leaves no stale key
            diag.phase(gamma, self.phase)
            self._held = key
        return self.phase


def run_circuit(
    diag: CostDiagonal,
    schedule: LayerSchedule,
    norm: MixerNormalization = DEFAULT_NORMALIZATION,
    workspace: Workspace | None = None,
) -> EncodedState:
    """Alternate phase then mixer per layer, starting from the uniform state.

    The circuit runs in workspace (None: a fresh one for this schedule), so
    the state returned is overwritten by the next circuit run in it.  The
    first layer is phase * (1/sqrt(D)), phase first, bitwise the product of
    the phase with a uniform state.  With a phase buffer, every layer takes
    its phase from there, recomputed only when the gamma changes.  Without
    one, the only phase is built straight into the amplitude buffer, so a
    phase used once needs no second D-vector; a schedule of depth > 1 then
    raises ValueError.
    """
    work = Workspace.for_schedules(diag.layout, [schedule]) if workspace is None else workspace
    (gamma, beta), *rest = schedule.pairs
    if work.phase is None:
        if rest:
            raise ValueError("a schedule of depth > 1 needs a workspace with a phase buffer")
        phase = diag.phase(gamma, work.amps)
    else:
        phase = work.phase_for(diag, gamma)
    amps = np.multiply(phase, 1.0 / math.sqrt(diag.layout.D), out=work.amps)
    state = apply_mixer(EncodedState(diag.layout, amps), beta, norm, work.scratch)
    for gamma, beta in rest:
        state = apply_phase(state, work.phase_for(diag, gamma))
        state = apply_mixer(state, beta, norm, work.scratch)
    return state


def holds_phase(schedules: Sequence[LayerSchedule]) -> bool:
    """True when a run of these schedules holds a phase vector beside the amplitudes.

    That is needed by every layer after the first, and pays when
    consecutive depth-1 points share a gamma, whose phase is then built once.
    """
    if any(sched.depth > 1 for sched in schedules):
        return True
    gammas = [sched.pairs[0][0] for sched in schedules]
    return any(phase_key(a) == phase_key(b) for a, b in zip(gammas, gammas[1:]))


@dataclass(frozen=True)
class MixerSpectrum:
    eigenvalues: np.ndarray  # ascending
    gap: float  # top eigenvalue minus the second one


def mixer_spectrum(n: int, norm: MixerNormalization = DEFAULT_NORMALIZATION) -> MixerSpectrum:
    """Numerical eigenvalues of the scaled complete-graph generator and its gap."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    gen = norm.scale(n) * (np.ones((n, n)) - np.eye(n))
    eig = np.linalg.eigvalsh(gen)
    return MixerSpectrum(eig, float(eig[-1] - eig[-2]))
