"""Dense full-Hilbert-space reference simulator for the block one-hot circuits.

A q-qubit register is an EncodedState over BlockLayout(2, q), one
two-symbol block per qubit, so qubit 0 is the most significant bit of a
basis index: for q = 3 the string |100> (excitation on qubit 0) is index 4.
One-hot block b of an (n, m) layout occupies qubits [b*n, (b+1)*n); the
one-hot state with symbol j in block b has qubit b*n + j set.

Gate semantics (angles in radians):

  X             Pauli X
  PHASE(phi)    diag(1, exp(i phi))
  CX            controlled X on (control, target)
  CRY(theta)    controlled RY(theta) on (control, target)
  XYROT(theta)  identity on {|00>,|11>}; the rotation
                [[cos(theta/2), -i sin(theta/2)], [-i sin(theta/2), cos(theta/2)]]
                on {|01>,|10>}, which is exp(-i theta/4 (XX + YY)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoded import BlockLayout, EncodedState, indices_to_labels, labels_to_indices

MAX_QUBITS = 20

_GATE_ARITY = {"X": 1, "PHASE": 1, "CX": 2, "CRY": 2, "XYROT": 2}
_NEEDS_ANGLE = {"PHASE", "CRY", "XYROT"}


@dataclass(frozen=True)
class GateOp:
    """A single gate: kind, target qubits (control first), optional angle."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(int(t) for t in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != _GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_GATE_ARITY[self.kind]} qubits, got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{self.kind} targets must be distinct, got {qubits}")
        if (self.angle is None) == (self.kind in _NEEDS_ANGLE):
            raise ValueError(f"{self.kind} angle mismatch (got {self.angle!r})")
        if self.angle is not None:
            object.__setattr__(self, "angle", float(self.angle))

    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


def gate_matrix(op: GateOp) -> np.ndarray:
    """Unitary of one gate in the basis |q_first q_second>."""
    if op.kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if op.kind == "PHASE":
        return np.array([[1, 0], [0, np.exp(1j * op.angle)]], dtype=complex)
    if op.kind == "CX":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if op.kind == "CRY":
        c, s = math.cos(op.angle / 2), math.sin(op.angle / 2)
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = [[c, -s], [s, c]]
        return out
    # XYROT
    c, s = math.cos(op.angle / 2), math.sin(op.angle / 2)
    out = np.eye(4, dtype=complex)
    out[1:3, 1:3] = [[c, -1j * s], [-1j * s, c]]
    return out


def zero_state(q: int) -> EncodedState:
    """|0...0> on q qubits: an EncodedState over the register layout BlockLayout(2, q)."""
    if not 1 <= q <= MAX_QUBITS:
        raise ValueError(f"qubit count {q} outside [1, {MAX_QUBITS}]")
    amps = np.zeros(1 << q, dtype=np.complex128)
    amps[0] = 1.0
    return EncodedState(BlockLayout(2, q), amps)


def apply_gate(state: EncodedState, op: GateOp) -> EncodedState:
    layout = state.layout
    if layout.n != 2:
        raise ValueError(f"gates act on qubit registers (n=2), got a layout with n={layout.n}")
    for t in op.qubits:
        if not 0 <= t < layout.m:
            raise ValueError(f"gate targets qubit {t} outside [0, {layout.m})")
    k = len(op.qubits)
    arr = np.moveaxis(state.tensor(), op.qubits, range(k))
    shape = arr.shape
    out = (gate_matrix(op) @ arr.reshape(1 << k, -1)).reshape(shape)
    out = np.moveaxis(out, range(k), op.qubits)
    return EncodedState(layout, np.ascontiguousarray(out).reshape(-1))


def run_gates(q: int, ops, initial: EncodedState | None = None) -> EncodedState:
    """Apply a gate list to |0...0> (or a supplied initial state)."""
    state = zero_state(q) if initial is None else initial
    if state.layout != BlockLayout(2, q):
        raise ValueError(f"initial state layout {state.layout} is not a {q}-qubit register")
    for op in ops:
        state = apply_gate(state, op)
    return state


def fidelity(a: EncodedState, b: EncodedState) -> float:
    """|<a|b>|**2."""
    if a.layout != b.layout:
        raise ValueError("states differ in layout")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def count_two_qubit_gates(ops) -> int:
    return sum(1 for op in ops if op.is_two_qubit())


def one_hot_block_prepare(n: int, variant: str = "xyrot") -> list[GateOp]:
    """Gate list preparing the uniform single-excitation state on n qubits.

    A cascade of n-1 two-qubit rotations with angles 2*arccos(1/sqrt(n-k))
    fixes amplitude 1/sqrt(n) on each site.  The XY rotation adds a -i per
    hop, so trailing single-qubit phases (free under the two-qubit count)
    cancel them, leaving all amplitudes real and positive.  variant="cry"
    emits the controlled-RY form, which is real from the start but spends
    two entangling gates per step.
    """
    if not 2 <= n <= 12:
        raise ValueError(f"block size {n} outside [2, 12]")
    if variant not in ("xyrot", "cry"):
        raise ValueError(f"unknown variant {variant!r}")
    ops = [GateOp("X", (0,))]
    for k in range(n - 1):
        theta = 2.0 * math.acos(1.0 / math.sqrt(n - k))
        if variant == "xyrot":
            ops.append(GateOp("XYROT", (k, k + 1), theta))
        else:
            ops.append(GateOp("CRY", (k, k + 1), theta))
            ops.append(GateOp("CX", (k + 1, k)))
    if variant == "xyrot":
        for k in range(1, n):
            if k % 4:
                ops.append(GateOp("PHASE", (k,), (k % 4) * math.pi / 2.0))
    return ops


def multi_block_prepare(n: int, m: int) -> list[GateOp]:
    """The XY-rotation block preparation repeated on qubit ranges [b*n, (b+1)*n)."""
    q = n * m
    if q > MAX_QUBITS:
        raise ValueError(f"{q} qubits exceed the {MAX_QUBITS}-qubit budget")
    ops: list[GateOp] = []
    for b in range(m):
        for op in one_hot_block_prepare(n):
            ops.append(GateOp(op.kind, tuple(t + b * n for t in op.qubits), op.angle))
    return ops


def block_xy_mixer_gates(n: int, m: int, beta: float) -> list[GateOp]:
    """One sweep of XYROT(4 beta) = exp(-i beta (XX + YY)) over the in-block qubit pairs."""
    q = n * m
    if q > MAX_QUBITS:
        raise ValueError(f"{q} qubits exceed the {MAX_QUBITS}-qubit budget")
    ops: list[GateOp] = []
    for b in range(m):
        for i in range(n):
            for j in range(i + 1, n):
                ops.append(GateOp("XYROT", (b * n + i, b * n + j), 4.0 * beta))
    return ops


def encoded_basis_indices(layout: BlockLayout) -> np.ndarray:
    """Ambient basis index of every one-hot label, in flat-label order.

    Label (j_0, ..., j_{m-1}) sets qubit b*n + j_b; its bit string, read as a
    label of the register BlockLayout(2, n*m), gives the index.
    """
    labels = indices_to_labels(layout, np.arange(layout.D))
    bits = np.eye(layout.n, dtype=np.int64)[labels].reshape(layout.D, -1)
    return labels_to_indices(BlockLayout(2, layout.n * layout.m), bits)


def project_to_encoded(
    state: EncodedState, layout: BlockLayout
) -> tuple[EncodedState | None, float]:
    """Read the one-hot-sector amplitudes of a qubit register into an EncodedState.

    Returns (normalized encoded state, leaked mass outside the sector); the
    state is None when the sector carries no mass at all.
    """
    if state.layout != BlockLayout(2, layout.n * layout.m):
        raise ValueError(
            f"state layout {state.layout} is not the {layout.n * layout.m}-qubit register"
            f" the layout (n={layout.n}, m={layout.m}) needs"
        )
    sub = state.amplitudes[encoded_basis_indices(layout)]
    mass = float(np.real(np.vdot(sub, sub)))
    leaked = max(0.0, 1.0 - mass)
    if mass <= 0.0:
        return None, 1.0
    return EncodedState(layout, sub / math.sqrt(mass)), leaked
