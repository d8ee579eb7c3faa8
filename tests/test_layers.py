import numpy as np
import pytest

from ceqaoa.encoded import BlockLayout, EncodedState, uniform_initial_state
from ceqaoa.hamiltonian import TspInstance, anchor, build_cost_diagonal
from ceqaoa.layers import (
    Column,
    Workspace,
    apply_mixer,
    apply_phase,
    mixer_block_matrix,
    mixer_spectrum,
    run_circuit,
)

from oracles import dense_block_mixer, kron_mixer, random_symmetric_instance

def small_diag(n_cities=4, seed=0, start=0):
    inst = TspInstance("t", n_cities, random_symmetric_instance(n_cities, seed))
    return build_cost_diagonal(anchor(inst, start))


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.D) + 1j * rng.normal(size=layout.D)
    return EncodedState(layout, amps / np.linalg.norm(amps))


class TestColumn:
    def test_fields(self):
        col = Column(1, (0.1, 0.2), 3)
        assert col.gamma == 1.0 and isinstance(col.gamma, float)
        assert col.betas == (0.1, 0.2) and col.depth == 3

    def test_rejects_no_beta_nonfinite_gamma_and_zero_depth(self):
        with pytest.raises(ValueError):
            Column(0.0, ())
        with pytest.raises(ValueError):
            Column(np.inf, (0.0,))
        with pytest.raises(ValueError):
            Column(np.nan, (0.0,))
        with pytest.raises(ValueError):
            Column(0, (0.0,), 0)

    def test_reuses_phase(self):
        assert not Column(1.0, (0.5,)).reuses_phase
        assert Column(1.0, (0.5, 0.6)).reuses_phase  # a second beta
        assert Column(1.0, (0.5,), 2).reuses_phase  # a second layer


class TestPhase:
    def test_gamma_zero_identity(self):
        diag = small_diag()
        state = uniform_initial_state(diag.layout)
        before = state.amplitudes.copy()  # the kernel updates in place
        out = apply_phase(state, diag.phase(0.0))
        assert np.array_equal(out.amplitudes, before)

    def test_probabilities_unchanged(self):
        diag = small_diag(seed=3)
        state = random_state(diag.layout, 4)
        before = state.probabilities()
        out = apply_phase(state, diag.phase(1.234))
        assert np.allclose(out.probabilities(), before, atol=1e-14)

    def test_phase_arithmetic(self):
        # energy 2 at gamma pi/2 multiplies the amplitude by -1
        lay = BlockLayout(2, 1)
        diag_vec = np.array([2.0, 0.0])
        from ceqaoa.hamiltonian import CostDiagonal

        diag = CostDiagonal(lay, diag_vec, 1.0)
        state = EncodedState(lay, np.array([1.0, 0.0], dtype=complex))
        out = apply_phase(state, diag.phase(np.pi / 2))
        assert abs(out.amplitudes[0] + 1.0) < 1e-15

    def test_layout_mismatch(self):
        diag = small_diag()
        with pytest.raises(ValueError):
            apply_phase(uniform_initial_state(BlockLayout(3, 2)), diag.phase(0.1))


class TestMixerBlockMatrix:
    def test_beta_zero_identity(self):
        assert np.allclose(mixer_block_matrix(4, 0.0), np.eye(4), atol=1e-15)

    def test_worked_column(self):
        u = mixer_block_matrix(3, 3 * np.pi)
        assert np.allclose(u[:, 0], [-1 / 3, 2 / 3, 2 / 3], atol=1e-12)

    def test_unitarity_sweep(self):
        rng = np.random.default_rng(5)
        for n in range(2, 17):
            for beta in rng.uniform(-2 * np.pi, 2 * np.pi, 100):
                u = mixer_block_matrix(n, n * beta)
                assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12

    def test_against_eigendecomposition(self):
        rng = np.random.default_rng(6)
        for n in range(2, 9):
            for beta in rng.uniform(-np.pi, np.pi, 10):
                dense = dense_block_mixer(n, beta)
                assert np.max(np.abs(dense - mixer_block_matrix(n, n * beta))) < 1e-10


class TestApplyMixer:
    def test_beta_zero(self):
        lay = BlockLayout(3, 2)
        state = random_state(lay, 7)
        before = state.amplitudes.copy()  # the kernel updates in place
        out = apply_mixer(state, 0.0)
        assert np.allclose(out.amplitudes, before, atol=1e-15)

    def test_uniform_is_eigenvector(self):
        lay = BlockLayout(4, 3)
        state = uniform_initial_state(lay)
        before = state.amplitudes.copy()  # the kernel updates in place
        beta = 0.77
        out = apply_mixer(state, beta)
        phase = np.exp(-1j * (beta / lay.n) * (lay.n - 1) * lay.m)
        assert np.max(np.abs(out.amplitudes - phase * before)) < 1e-12
        assert np.max(np.abs(out.probabilities() - 1 / lay.D)) < 1e-12

    def test_single_block_example(self):
        lay = BlockLayout(3, 1)
        state = EncodedState(lay, np.array([1, 0, 0], dtype=complex))
        out = apply_mixer(state, 3 * np.pi)
        assert np.allclose(out.probabilities(), [1 / 9, 4 / 9, 4 / 9], atol=1e-12)

    def test_factorization_against_kron(self):
        lay = BlockLayout(3, 2)
        for seed, beta in [(8, 0.3), (9, 1.9), (10, -0.8)]:
            state = random_state(lay, seed)
            expected = kron_mixer(3, 2, beta) @ state.amplitudes
            out = apply_mixer(state, 3 * beta)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_norm_preserved(self):
        lay = BlockLayout(5, 3)
        state = random_state(lay, 11)
        out = apply_mixer(state, 2.1)
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1) < 1e-10


class TestRunCircuit:
    def test_zero_angles_give_uniform(self):
        diag = small_diag()
        (out,) = run_circuit(diag, Column(0.0, (0.0,)))
        assert np.allclose(out.amplitudes, uniform_initial_state(diag.layout).amplitudes, atol=1e-14)

    def test_gamma_zero_keeps_uniform_probabilities(self):
        diag = small_diag(seed=12)
        for out in run_circuit(diag, Column(0.0, (0.4, 1.3, 2.9))):
            assert np.max(np.abs(out.probabilities() - 1 / diag.layout.D)) < 1e-12

    def test_norm_across_depths(self):
        diag = small_diag(seed=13)
        rng = np.random.default_rng(14)
        for p in (1, 2, 5):
            col = Column(rng.uniform(0, np.pi), tuple(rng.uniform(0, np.pi, 2)), p)
            for out in run_circuit(diag, col):
                assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1) < 1e-10

    def test_order_phase_then_mixer(self):
        diag = small_diag(seed=15)
        manual = apply_mixer(
            apply_phase(uniform_initial_state(diag.layout), diag.phase(0.8)), 0.5
        )
        (auto,) = run_circuit(diag, Column(0.8, (0.5,)))
        assert np.array_equal(auto.amplitudes, manual.amplitudes)

    def test_phase_is_built_when_the_first_state_is_asked_for(self):
        diag = small_diag(seed=17)
        work = Workspace(diag.layout)
        work.amps.fill(0.0)
        states = run_circuit(diag, Column(0.8, (0.5,)), work)
        assert not work.amps.any()
        next(states)
        assert work.amps.any()

    def test_depth_two_needs_a_phase_buffer(self):
        # so do several betas; the workspace allocates the buffer at the
        # first column that needs it and keeps it for the next
        diag = small_diag(seed=16)
        work = Workspace(diag.layout)
        (_,) = run_circuit(diag, Column(0.8, (0.5,)), work)
        assert work.phase is None  # built into the amplitudes
        (_,) = run_circuit(diag, Column(0.8, (0.5,), 2), work)
        phase = work.phase
        assert phase is not None
        for _ in run_circuit(diag, Column(0.9, (0.5, 0.6)), work):
            assert work.phase is phase  # allocated once per workspace


class TestSpectrum:
    def test_raw_examples(self):
        # the adjacency's spectrum and gap are n times the mixer's
        s = mixer_spectrum(4)
        assert np.allclose(np.sort(4 * s.eigenvalues), [-1, -1, -1, 3], atol=1e-9)
        assert abs(4 * s.gap - 4) < 1e-9
        assert abs(2 * mixer_spectrum(2).gap - 2) < 1e-12

    def test_normalized_gap(self):
        for n in range(2, 17):
            assert abs(mixer_spectrum(n).gap - 1.0) < 1e-12
