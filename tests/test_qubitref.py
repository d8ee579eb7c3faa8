import math

import numpy as np
import pytest

from ceqaoa.encoded import BlockLayout, uniform_initial_state
from ceqaoa.layers import apply_mixer
from ceqaoa.qubitref import (
    MAX_QUBITS,
    GateOp,
    apply_gate,
    block_xy_mixer_gates,
    count_two_qubit_gates,
    encoded_basis_indices,
    fidelity,
    gate_matrix,
    multi_block_prepare,
    one_hot_block_prepare,
    project_to_encoded,
    run_gates,
    zero_state,
)

from oracles import XX, YY, expm_hermitian


def w_state_vector(n):
    v = np.zeros(1 << n, dtype=complex)
    for k in range(n):
        v[1 << (n - 1 - k)] = 1 / math.sqrt(n)
    return v


class TestGateOps:
    def test_validation(self):
        with pytest.raises(ValueError):
            GateOp("HADAMARD", (0,))
        with pytest.raises(ValueError):
            GateOp("X", (0, 1))
        with pytest.raises(ValueError):
            GateOp("CX", (1, 1))
        with pytest.raises(ValueError):
            GateOp("XYROT", (0, 1))  # missing angle
        with pytest.raises(ValueError):
            GateOp("X", (0,), 0.5)  # spurious angle

    def test_rxx_ryy_product_is_xy_exponential(self):
        # XX and YY commute, so one XYROT is the exact two-local exponential
        for beta in (0.3, 1.1, -0.7):
            xyrot = gate_matrix(GateOp("XYROT", (0, 1), 4 * beta))
            exact = expm_hermitian(XX + YY, beta)
            assert np.max(np.abs(xyrot - exact)) < 1e-12

    def test_all_gates_unitary(self):
        ops = [
            GateOp("X", (0,)),
            GateOp("PHASE", (0,), 0.7),
            GateOp("CX", (0, 1)),
            GateOp("CRY", (0, 1), 1.2),
            GateOp("XYROT", (0, 1), 0.9),
        ]
        for op in ops:
            u = gate_matrix(op)
            assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-14


class TestRegister:
    @pytest.mark.parametrize("q", [0, MAX_QUBITS + 1])
    def test_zero_state_qubit_bounds(self, q):
        with pytest.raises(ValueError, match="qubit count"):
            zero_state(q)

    def test_gates_reject_non_qubit_layouts(self):
        state = uniform_initial_state(BlockLayout(3, 2))
        with pytest.raises(ValueError, match="n=3"):
            apply_gate(state, GateOp("X", (0,)))


class TestBlockPrepare:
    def test_angle_formula(self):
        ops = one_hot_block_prepare(3)
        rots = [op for op in ops if op.kind == "XYROT"]
        assert rots[0].angle == pytest.approx(1.9106332362490186, abs=1e-12)
        assert rots[1].angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_w_state_amplitudes(self):
        state = run_gates(3, one_hot_block_prepare(3))
        expected = w_state_vector(3)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_two_qubit_gate_count(self, n):
        assert count_two_qubit_gates(one_hot_block_prepare(n)) == n - 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_variant_equivalence(self, n):
        a = run_gates(n, one_hot_block_prepare(n, "xyrot"))
        b = run_gates(n, one_hot_block_prepare(n, "cry"))
        assert fidelity(a, b) >= 1 - 1e-10

    def test_size_limits(self):
        with pytest.raises(ValueError):
            one_hot_block_prepare(1)
        with pytest.raises(ValueError):
            one_hot_block_prepare(13)


class TestMultiBlock:
    def test_three_blocks_of_three(self):
        state = run_gates(9, multi_block_prepare(3, 3))
        lay = BlockLayout(3, 3)
        probs = state.probabilities()
        onehot = encoded_basis_indices(lay)
        assert np.allclose(probs[onehot], 1 / 27, atol=1e-12)
        off = np.delete(probs, onehot)
        assert np.max(off) < 1e-24

    def test_two_blocks_of_two(self):
        state = run_gates(4, multi_block_prepare(2, 2))
        lay = BlockLayout(2, 2)
        probs = state.probabilities()[encoded_basis_indices(lay)]
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_budget(self):
        with pytest.raises(ValueError):
            multi_block_prepare(4, 6)  # 24 qubits


class TestMixerGates:
    def test_beta_zero_identity(self):
        state = run_gates(3, one_hot_block_prepare(3))
        out = run_gates(3, block_xy_mixer_gates(3, 1, 0.0), initial=state)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-14

    def test_excitation_conserved(self):
        lay = BlockLayout(3, 2)
        prep = multi_block_prepare(3, 2)
        state = run_gates(6, prep + block_xy_mixer_gates(3, 2, 0.9))
        _, leaked = project_to_encoded(state, lay)
        assert leaked < 1e-10

    def test_trotter_convergence_to_encoded_mixer(self):
        # one gate sweep at angle beta approximates the encoded unit-gap mixer
        # at angle 2*n*beta (the two-local identity carries a factor 2, the
        # unit gap a factor n)
        n, beta = 3, 0.7
        lay = BlockLayout(n, 1)
        prep = multi_block_prepare(n, 1)
        start, _ = project_to_encoded(run_gates(n, prep), lay)
        exact = apply_mixer(start, 2 * beta * n)

        def trotter_error(k):
            ops = list(prep)
            for _ in range(k):
                ops += block_xy_mixer_gates(n, 1, beta / k)
            approx, leaked = project_to_encoded(run_gates(n, ops), lay)
            assert leaked < 1e-10
            ov = abs(np.vdot(exact.amplitudes, approx.amplitudes))
            return math.sqrt(max(0.0, 2 - 2 * ov))

        errs = [trotter_error(k) for k in (8, 16, 32)]
        for a, b in zip(errs, errs[1:]):
            assert 0.4 < b / a < 0.6  # first-order error halves as k doubles


class TestProjection:
    def test_zero_state_has_no_one_hot_mass(self):
        enc, leaked = project_to_encoded(zero_state(4), BlockLayout(2, 2))
        assert enc is None
        assert leaked == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_to_encoded(zero_state(5), BlockLayout(2, 2))

    def test_projection_matches_uniform(self):
        enc, leaked = project_to_encoded(run_gates(8, multi_block_prepare(4, 2)), BlockLayout(4, 2))
        uniform = uniform_initial_state(BlockLayout(4, 2))
        assert leaked < 1e-12
        assert np.max(np.abs(enc.amplitudes - uniform.amplitudes)) < 1e-10
