"""Argument checks of the library, one case each: each raises ValueError naming the fault."""

import math

import numpy as np
import pytest

from ceqaoa import analysis, layers, qubitref
from ceqaoa.hamiltonian import TspInstance, anchor
from ceqaoa.layers import Column
from ceqaoa.phqc import phqc_solve


def equal_4():
    return anchor(TspInstance("eq4", np.ones((4, 4)) - np.eye(4)), 0)


CHECKS = {
    "transition-n1": (lambda: analysis.angle_averaged_transition(1), "need n >= 2, got 1"),
    "lie-size": (lambda: analysis.lie_algebra_dimension(7, range(7)), r"block size 7 outside \[2, 6\]"),
    "lie-diagonal-length": (
        lambda: analysis.lie_algebra_dimension(3, [0.0, 1.0]),
        "diagonal generator must have length 3",
    ),
    "baselines-n1": (lambda: analysis.classical_baselines(1), "need n >= 2, got 1"),
    "mixer-block-n1": (lambda: layers.mixer_block_matrix(1, 0.5), "need n >= 2, got 1"),
    "mixer-spectrum-n1": (lambda: layers.mixer_spectrum(1), "need n >= 2, got 1"),
    "solve-no-shots": (
        lambda: phqc_solve(equal_4(), [Column(0.0, (0.0,))], 0, 0),
        "shots_per_point must be >= 1, got 0",
    ),
    "solve-no-columns": (lambda: phqc_solve(equal_4(), [], 1, 0), "empty column list"),
    "gate-qubit": (
        lambda: qubitref.apply_gate(qubitref.zero_state(2), qubitref.GateOp("X", (2,))),
        r"gate targets qubit 2 outside \[0, 2\)",
    ),
    "gates-layout": (
        lambda: qubitref.run_gates(2, [], initial=qubitref.zero_state(3)),
        "is not a 2-qubit register",
    ),
    "fidelity-layouts": (
        lambda: qubitref.fidelity(qubitref.zero_state(2), qubitref.zero_state(3)),
        "states differ in layout",
    ),
    "encoder-variant": (
        lambda: qubitref.one_hot_block_prepare(3, "swap"),
        "unknown variant 'swap'",
    ),
    "mixer-gates-budget": (
        lambda: qubitref.block_xy_mixer_gates(qubitref.MAX_QUBITS, 2, 0.1),
        f"{2 * qubitref.MAX_QUBITS} qubits exceed the {qubitref.MAX_QUBITS}-qubit budget",
    ),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_refuses_bad_arguments(name):
    call, message = CHECKS[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_one_trial_has_infinite_standard_errors():
    # no spread can be estimated from one sample
    rep = analysis.block_design_moments(3, 2, 1, seed=4)
    assert rep.n_samples == 1 and rep.std_errors == (math.inf, math.inf)
    assert 0.0 <= rep.mean_overlap <= 1.0 and rep.second_moment == rep.mean_overlap**2
