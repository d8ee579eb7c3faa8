"""Circuit layers on the encoded space: diagonal phase and the block XY mixer.

The per-block mixer generator is the complete-graph adjacency on the n
symbols (optionally scaled by 1/n or 1/(n-1)); its exponential has the
rank-1 closed form a * J/n + b * (I - J/n) with crossing phases
a = exp(-i beta' (n-1)) and b = exp(+i beta'), which lets the full mixer
run in O(D * m) arithmetic without materializing any D x D matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .encoded import EncodedState, uniform_initial_state
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


def apply_phase(state: EncodedState, gamma: float, diag: CostDiagonal) -> EncodedState:
    """Diagonal layer: amplitude[x] *= exp(-i gamma E(x)); probabilities unchanged.

    Updates the amplitudes in place and consumes the input state: the
    returned state shares its buffer.
    """
    if diag.layout != state.layout:
        raise ValueError("cost diagonal layout does not match the state layout")
    amps = state.amplitudes
    # Complex multiplies are not bitwise commutative here.  Phase first is the
    # order the former out-of-place amps * exp(...) took once numpy elided
    # its temporary, which it does for states of 16384 amplitudes or more.
    np.multiply(diag.phase(gamma), amps, out=amps)
    return EncodedState(state.layout, amps)


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


def apply_mixer(
    state: EncodedState, beta: float, norm: MixerNormalization = DEFAULT_NORMALIZATION
) -> EncodedState:
    """Apply the block mixer on every block axis via the rank-1 update.

    Per axis: psi <- b * psi + (a - b) * mean_over_axis(psi), which equals
    multiplying that axis by the closed-form block matrix.  Updates the
    amplitudes in place and consumes the input state: the returned state
    shares its buffer.
    """
    layout = state.layout
    a, b = _crossing_phases(layout.n, beta, norm)
    arr = state.tensor()
    for axis in range(layout.m):
        # Bitwise the former b * arr + (a - b) * mean: b stays the first
        # operand (arr *= b rounds differently), and the mean keeps its
        # out-of-place scaling (in place, a one-element mean at m == 1
        # rounds differently).
        mean = (a - b) * arr.mean(axis=axis, keepdims=True)
        np.multiply(b, arr, out=arr)
        arr += mean
    return EncodedState(layout, arr.reshape(-1))


def run_circuit(
    diag: CostDiagonal,
    schedule: LayerSchedule,
    norm: MixerNormalization = DEFAULT_NORMALIZATION,
) -> EncodedState:
    """Alternate phase then mixer per layer, starting from the uniform state.

    The circuit owns its buffer (a fresh uniform state), so the in-place
    layers touch no caller's amplitudes.
    """
    state = uniform_initial_state(diag.layout)
    for gamma, beta in schedule.pairs:
        state = apply_phase(state, gamma, diag)
        state = apply_mixer(state, beta, norm)
    return state


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
