"""States and labels on the block one-hot product space.

An (n, m) layout describes m blocks carrying n symbols each; the encoded
space has dimension D = n**m.  A basis label is a tuple of m symbols, and
labels map to flat indices in mixed radix with block 0 as the most
significant digit.  index_to_label and the array forms indices_to_labels
and labels_to_indices are the only conversions between the two.  A q-qubit
register is the layout (n=2, m=q), with qubit 0 the most significant bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

Label = tuple[int, ...]

DEFAULT_MAX_DIM = 1 << 25
NORM_TOL = 1e-10


class DimensionCapError(ValueError):
    """Requested encoded dimension exceeds the amplitude cap."""


def max_dimension() -> int:
    """Amplitude cap for encoded states; CEQAOA_MAX_DIM overrides the default."""
    raw = os.environ.get("CEQAOA_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    msg = f"CEQAOA_MAX_DIM must be a positive integer, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(msg) from None
    if cap < 1:
        raise ValueError(msg)
    return cap


def clipped(text: str, limit: int = 40) -> str:
    """text cut to limit characters (ending in "...") when longer, for one-line errors."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


def encoded_dimension(n: int, m: int) -> int:
    """D = n**m, or DimensionCapError once the product of its factors passes max_dimension().

    A huge n or m thus costs a few multiplications, and the error never holds the power.
    """
    if n < 2:
        return n**m
    cap, dim = max_dimension(), 1
    for _ in range(m):
        dim *= n
        if dim > cap:
            raise DimensionCapError(
                f"encoded dimension {clipped(str(n), 20)}**{clipped(str(m), 20)}, over the cap "
                f"{cap} (override with CEQAOA_MAX_DIM)"
            )
    return dim


@dataclass(frozen=True)
class BlockLayout:
    """Geometry of the encoded space: m blocks of n symbols each, D = n**m labels."""

    n: int
    m: int
    D: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2 symbols per block, got n={self.n}")
        if self.m < 1:
            raise ValueError(f"need m >= 1 blocks, got m={self.m}")
        object.__setattr__(self, "D", encoded_dimension(self.n, self.m))

    def validate_label(self, label) -> Label:
        label = tuple(int(j) for j in label)
        if len(label) != self.m:
            raise ValueError(f"label {label} has {len(label)} symbols, expected {self.m}")
        for j in label:
            if not 0 <= j < self.n:
                raise ValueError(f"symbol {j} outside [0, {self.n}) in label {label}")
        return label


def index_to_label(layout: BlockLayout, index: int) -> Label:
    """Label of a flat index; block 0 is the most significant digit."""
    index = int(index)
    if not 0 <= index < layout.D:
        raise ValueError(f"index {index} outside [0, {layout.D})")
    symbols = [0] * layout.m
    for b in range(layout.m - 1, -1, -1):
        index, symbols[b] = divmod(index, layout.n)
    return tuple(symbols)


def _radix(layout: BlockLayout) -> np.ndarray:
    return layout.n ** np.arange(layout.m - 1, -1, -1, dtype=np.int64)


def indices_to_labels(layout: BlockLayout, flats) -> np.ndarray:
    """(k, m) int64 array whose row i equals index_to_label(layout, flats[i])."""
    return np.asarray(flats, dtype=np.int64)[:, None] // _radix(layout) % layout.n


def labels_to_indices(layout: BlockLayout, labels) -> np.ndarray:
    """Inverse of indices_to_labels: the int64 flat index of every row of a (k, m) array.

    Symbols are not validated; callers pass arrays they built themselves.
    """
    return np.asarray(labels, dtype=np.int64) @ _radix(layout)


@dataclass(frozen=True, eq=False)
class EncodedState:
    """Complex amplitudes over the D basis labels of a layout.

    The squared norm must equal 1 within NORM_TOL; NaN and inf fail.
    Construction re-checks the norm instead of renormalizing, so a
    non-unitary pipeline fails loudly instead of being masked.
    """

    layout: BlockLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.layout.D,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.layout.D},)"
            )
        # einsum on the real view is numpy's own single-threaded loop, where a
        # BLAS dot would start a thread pool for one reduction.
        v = np.ascontiguousarray(amps).view(np.float64)
        norm_sq = float(np.einsum("i,i->", v, v))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"squared norm {norm_sq!r} deviates from 1 by more than {NORM_TOL}")

    def tensor(self) -> np.ndarray:
        """Amplitudes viewed as an m-way tensor with one axis per block."""
        return self.amplitudes.reshape((self.layout.n,) * self.layout.m)

    def probabilities(self) -> np.ndarray:
        """|amplitude|**2 per label, in a float64 D-vector of its own."""
        return squared_moduli(self.amplitudes)


def squared_moduli(amplitudes: np.ndarray) -> np.ndarray:
    """|a|**2 of every entry a, in a float64 array of its own."""
    probs = np.abs(amplitudes)
    return np.square(probs, out=probs)


def uniform_initial_state(layout: BlockLayout) -> EncodedState:
    """Product of per-block uniform states: every amplitude is 1/sqrt(D)."""
    amp = 1.0 / math.sqrt(layout.D)
    return EncodedState(layout, np.full(layout.D, amp, dtype=np.complex128))

