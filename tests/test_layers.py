import hashlib
import tracemalloc

import numpy as np
import pytest

from ceqaoa import layers
from ceqaoa.encoded import BlockLayout, EncodedState, uniform_initial_state
from ceqaoa.hamiltonian import CostDiagonal, TspInstance, anchor, build_cost_diagonal
from ceqaoa.layers import (
    Column,
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

    @pytest.mark.parametrize(
        "n, m, block_bytes, seed, digest",
        [
            # states of more than one 2 MiB block, which no golden solve reaches
            (7, 7, None, 77, "33b1ad88239dc5f3a7ddf4a7ca0c68eb2a7cb3afb33a2fd36379cc805fb9852e"),
            (8, 6, None, 86, "3178418b07e9c5411e5517bd3e5e03101f28555b21eb6c88641e6665e08e82c0"),
            # 32-byte blocks, smaller than one axis of 3 labels (48 bytes)
            (3, 3, 16 * 2, 33, "78efd378004934a45d2fa59ceee357d7db83081dba09275441dd7caa753ed714"),
        ],
        ids=["7-7", "8-6", "3-3-block32"],
    )
    def test_blocked_mixer_matches_pinned_digest(self, monkeypatch, n, m, block_bytes, seed, digest):
        # the output bytes of the blocked mixer, pinned so a change to its
        # blocking must keep every bit
        if block_bytes is not None:
            monkeypatch.setattr(layers, "_BLOCK_BYTES", block_bytes)
        out = apply_mixer(random_state(BlockLayout(n, m), seed), 0.9).amplitudes
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest


class TestRunCircuit:
    def test_zero_angles_give_uniform(self):
        diag = small_diag()
        (out,) = run_circuit(diag, [Column(0.0, (0.0,))])
        assert np.allclose(out.amplitudes, uniform_initial_state(diag.layout).amplitudes, atol=1e-14)

    def test_gamma_zero_keeps_uniform_probabilities(self):
        diag = small_diag(seed=12)
        for out in run_circuit(diag, [Column(0.0, (0.4, 1.3, 2.9))]):
            assert np.max(np.abs(out.probabilities() - 1 / diag.layout.D)) < 1e-12

    def test_norm_across_depths(self):
        diag = small_diag(seed=13)
        rng = np.random.default_rng(14)
        for p in (1, 2, 5):
            col = Column(rng.uniform(0, np.pi), tuple(rng.uniform(0, np.pi, 2)), p)
            for out in run_circuit(diag, [col]):
                assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1) < 1e-10

    def test_order_phase_then_mixer(self):
        diag = small_diag(seed=15)
        manual = apply_mixer(
            apply_phase(uniform_initial_state(diag.layout), diag.phase(0.8)), 0.5
        )
        (auto,) = run_circuit(diag, [Column(0.8, (0.5,))])
        assert np.array_equal(auto.amplitudes, manual.amplitudes)

    def test_phase_is_built_when_the_first_state_is_asked_for(self, monkeypatch):
        # and each column's phase when its own first state is
        diag = small_diag(seed=17)
        built = []
        fill = CostDiagonal.phase
        monkeypatch.setattr(
            CostDiagonal, "phase", lambda self, gamma, out=None: built.append(gamma) or fill(self, gamma, out)
        )
        states = run_circuit(diag, [Column(0.8, (0.5,)), Column(0.9, (0.5, 0.6))])
        assert built == []
        for expected in ([0.8], [0.8, 0.9], [0.8, 0.9]):
            next(states)
            assert built == expected

    def test_depth_two_needs_a_phase_buffer(self):
        # so do several betas.  A grid whose columns each use their phase
        # once allocates one complex D-vector, the amplitudes; one that
        # reuses a phase allocates exactly one more, however many columns
        # it has.  The rest is the slice sums (4 bytes a label here) and
        # numpy's casting buffers, 24.1 bytes a label in all.
        layout = BlockLayout(4, 8)
        diag = CostDiagonal(layout, np.arange(layout.D, dtype=np.float64) % 50, 7.0)
        vector = 16 * layout.D

        def traced_peak(columns):
            tracemalloc.start()
            try:
                for _ in run_circuit(diag, columns):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        once = traced_peak([Column(0.8, (0.5,)), Column(0.9, (0.6,)), Column(1.0, (0.7,))])
        assert vector <= once < 2 * vector
        for columns in (
            [Column(0.8, (0.5,), 2)],
            [Column(0.8, (0.5, 0.6))],
            [Column(0.8, (0.5,)), Column(0.9, (0.5, 0.6)), Column(1.0, (0.7,), 2)],
        ):
            assert abs(traced_peak(columns) - once - vector) < layout.D // 2


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
