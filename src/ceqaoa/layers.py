"""Circuit layers on the encoded space: diagonal phase and the block XY mixer.

The per-block mixer generator is the complete-graph adjacency on the n
symbols (optionally scaled by 1/n or 1/(n-1)); its exponential has the
rank-1 closed form a * J/n + b * (I - J/n) with crossing phases
a = exp(-i beta' (n-1)) and b = exp(+i beta'), which lets the full mixer
run in O(D * m) arithmetic without materializing any D x D matrix.
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


# numpy's temporary elision threshold (NPY_MIN_ELIDE_BYTES): an expression
# whose temporary operand holds this many bytes or more computes in place
_ELIDE_BYTES = 256 * 1024


def mixer_scratch_size(layout: BlockLayout) -> int:
    """float64 elements apply_mixer's scratch needs: two complex block means of D/n each."""
    return 4 * (layout.D // layout.n)


def apply_mixer(
    state: EncodedState,
    beta: float,
    norm: MixerNormalization = DEFAULT_NORMALIZATION,
    scratch: np.ndarray | None = None,
) -> EncodedState:
    """Apply the block mixer on every block axis via the rank-1 update.

    Per axis: psi <- b * psi + (a - b) * mean_over_axis(psi), which equals
    multiplying that axis by the closed-form block matrix.  Updates the
    amplitudes in place and consumes the input state: the returned state
    shares its buffer.  The block means live in scratch, a contiguous
    float64 buffer of at least mixer_scratch_size(layout) elements; None
    allocates one for the call.
    """
    layout = state.layout
    a, b = _crossing_phases(layout.n, beta, norm)
    arr = state.tensor()
    size, need = layout.D // layout.n, mixer_scratch_size(layout)
    means = (np.empty(need) if scratch is None else scratch[:need]).view(np.complex128)
    for axis in range(layout.m):
        # Bitwise the former b * arr + (a - b) * arr.mean(...): b stays the
        # first operand (arr *= b rounds differently).  Complex multiplies
        # are not bitwise commutative, and numpy (in builds that elide
        # temporaries, such as Linux ones) scaled a temporary mean of
        # _ELIDE_BYTES or more in place, as mean * (a - b); a smaller one
        # got a fresh (a - b) * mean.  Both orders are kept.
        shape = arr.shape[:axis] + (1,) + arr.shape[axis + 1 :]
        mean = arr.mean(axis=axis, keepdims=True, out=means[:size].reshape(shape))
        if mean.nbytes >= _ELIDE_BYTES:
            scaled = np.multiply(mean, a - b, out=mean)
        else:
            scaled = np.multiply(a - b, mean, out=means[size:].reshape(shape))
        np.multiply(b, arr, out=arr)
        arr += scaled
    return EncodedState(layout, arr.reshape(-1))


@dataclass(eq=False)
class Workspace:
    """Every D-sized buffer of a run of circuits, reused from one circuit to the next.

    amps is the complex amplitude buffer.  scratch is a float64 buffer of
    max(D, 4D/n) elements: it holds the mixer's block means during a
    circuit and the sampling CDF after it.  phase is a complex buffer for
    exp(-i gamma E), or None when the run holds no phase vector beside the
    amplitudes (holds_phase).  A solve that keeps one workspace allocates
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
            np.empty(max(layout.D, mixer_scratch_size(layout))),
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
