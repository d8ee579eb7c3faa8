import numpy as np
import pytest

from ceqaoa.encoded import (
    DEFAULT_MAX_DIM,
    BlockLayout,
    DimensionCapError,
    EncodedState,
    encoded_dimension,
    indices_to_labels,
    labels_to_indices,
    uniform_initial_state,
)
from ceqaoa.hamiltonian import TspInstance, anchor

from oracles import label_to_index


class TestBlockLayout:
    def test_dimension(self):
        assert BlockLayout(3, 3).D == 27
        assert BlockLayout(4, 3).D == 64

    @pytest.mark.parametrize("n,m", [(1, 3), (0, 1), (3, 0)])
    def test_rejects_bad_geometry(self, n, m):
        with pytest.raises(ValueError):
            BlockLayout(n, m)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("CEQAOA_MAX_DIM", "100")
        with pytest.raises(DimensionCapError):
            BlockLayout(5, 3)
        BlockLayout(4, 3)  # 64 <= 100

    def test_cap_env_override_allows_more(self, monkeypatch):
        monkeypatch.setenv("CEQAOA_MAX_DIM", str(12**12))
        BlockLayout(12, 12)

    @pytest.mark.parametrize(
        "n,m,dim", [(2, 25, 2**25), (3, 3, 27), (1, 10**100, 1), (0, 0, 1), (0, 5, 0)]
    )
    def test_encoded_dimension(self, monkeypatch, n, m, dim):
        # n below 2 returns at once: a loop over m = 10**100 factors would never end
        monkeypatch.delenv("CEQAOA_MAX_DIM", raising=False)
        assert encoded_dimension(n, m) == dim

    @pytest.mark.parametrize("n", [26, 1430], ids=["n26", "n1430-past-the-str-limit"])
    def test_cap_error_is_one_short_line_without_the_power(self, monkeypatch, n):
        # 1429**1429 has 4,511 digits, more than Python turns into a str
        monkeypatch.delenv("CEQAOA_MAX_DIM", raising=False)
        inst = TspInstance("ones", np.ones((n, n)) - np.eye(n))
        with pytest.raises(DimensionCapError) as err:
            anchor(inst)
        assert str(err.value) == (
            f"encoded dimension {n - 1}**{n - 1}, over the cap {DEFAULT_MAX_DIM} "
            "(override with CEQAOA_MAX_DIM)"
        )

    def test_huge_factors_cost_a_multiplication_and_are_clipped(self, monkeypatch):
        monkeypatch.setenv("CEQAOA_MAX_DIM", "100")
        huge = 10**4000 + 1  # a loop over its factors, or the power itself, would never end
        with pytest.raises(DimensionCapError) as err:
            encoded_dimension(huge, huge)
        message = str(err.value)
        assert len(message) < 200 and message.startswith("encoded dimension 10000")


class TestLabelIndexing:
    def test_examples(self):
        lay = BlockLayout(3, 3)
        assert label_to_index(lay, (0, 0, 0)) == 0
        assert label_to_index(lay, (1, 2, 0)) == 15  # 1*9 + 2*3 + 0
        assert label_to_index(lay, (2, 2, 2)) == 26

    def test_inverse_examples(self):
        lay = BlockLayout(3, 3)
        labels = indices_to_labels(lay, [0, 15, 26])
        assert labels.tolist() == [[0, 0, 0], [1, 2, 0], [2, 2, 2]]

    def test_round_trip_exhaustive(self):
        lay = BlockLayout(3, 4)
        for idx, label in enumerate(indices_to_labels(lay, np.arange(lay.D))):
            assert label_to_index(lay, label) == idx

    def test_out_of_range(self):
        lay = BlockLayout(3, 2)
        with pytest.raises(ValueError):
            label_to_index(lay, (0, 3))
        with pytest.raises(ValueError):
            label_to_index(lay, (0, 0, 0))

    def test_label_arrays_match_scalar_codec(self):
        lay = BlockLayout(4, 3)
        flats = np.arange(0, lay.D, 7)
        labels = indices_to_labels(lay, flats)
        for idx, row in zip(flats, labels):
            assert label_to_index(lay, row) == idx
        back = labels_to_indices(lay, labels)
        assert back.dtype == np.int64 and np.array_equal(back, flats)


class TestEncodedState:
    def test_uniform_values(self):
        lay = BlockLayout(3, 3)
        state = uniform_initial_state(lay)
        assert np.allclose(state.probabilities(), 1 / 27, atol=1e-15)
        assert np.all(state.amplitudes.imag == 0)
        assert np.all(state.amplitudes.real > 0)

    def test_uniform_small_cases(self):
        s = uniform_initial_state(BlockLayout(2, 1))
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2)] * 2)
        s = uniform_initial_state(BlockLayout(4, 3))
        assert np.allclose(s.probabilities(), 1 / 64)

    def test_norm_checked(self):
        lay = BlockLayout(2, 1)
        with pytest.raises(ValueError):
            EncodedState(lay, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            EncodedState(lay, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_rejected(self, bad):
        lay = BlockLayout(2, 1)
        with pytest.raises(ValueError):
            EncodedState(lay, np.array([bad, bad]))
        with pytest.raises(ValueError):
            EncodedState(lay, np.array([1.0, complex(0.0, bad)]))

    def test_strided_amplitudes_checked(self):
        amps = np.array([1.0, 5.0, 0.0, 5.0])
        EncodedState(BlockLayout(2, 1), amps[::2])

    def test_norm_tolerance_is_tight(self):
        lay = BlockLayout(2, 1)
        EncodedState(lay, np.array([1.0 + 4e-11, 0.0]))  # within 1e-10 on the square
        with pytest.raises(ValueError):
            EncodedState(lay, np.array([1.0 + 1e-9, 0.0]))


class TestOverlap:
    """|<x|psi>|^2 is the probability at x's flat index."""

    def test_uniform(self):
        lay = BlockLayout(3, 3)
        probs = uniform_initial_state(lay).probabilities()
        assert abs(probs[label_to_index(lay, (0, 1, 2))] - 1 / 27) < 1e-15

    def test_basis_state(self):
        lay = BlockLayout(3, 2)
        amps = np.zeros(lay.D, dtype=complex)
        amps[label_to_index(lay, (2, 1))] = 1.0
        probs = EncodedState(lay, amps).probabilities()
        assert probs[label_to_index(lay, (2, 1))] == 1.0
        assert probs[label_to_index(lay, (0, 0))] == 0.0
