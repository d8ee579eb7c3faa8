import math
import weakref

import numpy as np
import pytest

from ceqaoa.encoded import BlockLayout, index_to_label
from ceqaoa.hamiltonian import (
    CostDiagonal,
    TspInstance,
    anchor,
    brute_force_optimum,
    build_cost_diagonal,
    default_penalty_weight,
    tour_cities,
)

from oracles import (
    enumerated_optimum,
    enumerated_tours,
    held_karp_cycle,
    is_feasible,
    label_to_index,
    random_asymmetric_instance,
    random_symmetric_instance,
    reference_cost_diagonal,
    tour_cost,
)

MATRIX_4 = np.array(
    [[0, 10, 15, 20], [10, 0, 35, 25], [15, 35, 0, 30], [20, 25, 30, 0]], dtype=float
)


def example_4():
    return anchor(TspInstance("ex4", 4, MATRIX_4), 0)


class TestTspInstance:
    def test_rejects_negative(self):
        m = MATRIX_4.copy()
        m[0, 1] = -1
        with pytest.raises(ValueError):
            TspInstance("bad", 4, m)

    def test_rejects_distances_that_overflow_a_tour(self):
        m = MATRIX_4.copy()
        m[0, 1] = 1e308
        with pytest.raises(ValueError, match="overflow a tour cost"):
            TspInstance("big", 4, m)

    def test_rejects_nonzero_diagonal(self):
        m = MATRIX_4.copy()
        m[2, 2] = 5
        with pytest.raises(ValueError):
            TspInstance("bad", 4, m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            TspInstance("bad", 4, MATRIX_4[:3])

    def test_asymmetric_admitted(self):
        m = MATRIX_4.copy()
        m[0, 1] = 99
        TspInstance("atsp", 4, m)


class TestAnchor:
    def test_four_cities(self):
        enc = example_4()
        assert enc.layout.n == enc.layout.m == 3
        assert enc.city_of_symbol == (1, 2, 3)

    def test_start_two_of_five(self):
        inst = TspInstance("r5", 5, random_symmetric_instance(5, 0))
        enc = anchor(inst, 2)
        assert enc.city_of_symbol == (0, 1, 3, 4)
        assert enc.layout.n == enc.layout.m == 4

    def test_start_out_of_range(self):
        inst = TspInstance("ex4", 4, MATRIX_4)
        with pytest.raises(ValueError):
            anchor(inst, 7)

    def test_too_few_cities(self):
        inst = TspInstance("tiny", 2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            anchor(inst, 0)


class TestFeasibility:
    def test_examples(self):
        enc = example_4()
        assert is_feasible(enc, (0, 1, 2))
        assert not is_feasible(enc, (0, 0, 2))

    @pytest.mark.parametrize("n_cities", [3, 4, 5, 6])
    def test_feasible_count_is_factorial(self, n_cities):
        enc = anchor(TspInstance("r", n_cities, random_symmetric_instance(n_cities, 1)), 0)
        lay = enc.layout
        count = sum(is_feasible(enc, index_to_label(lay, i)) for i in range(lay.D))
        assert count == math.factorial(lay.n)


class TestTourCost:
    def test_worked_examples(self):
        enc = example_4()
        # symbols (0, 2, 1) visit cities (1, 3, 2)
        assert tour_cost(enc, (0, 2, 1)) == 80.0
        # symbols (0, 1, 2) visit cities (1, 2, 3)
        assert tour_cost(enc, (0, 1, 2)) == 95.0

    def test_all_equal_distances(self):
        m = np.ones((3, 3)) - np.eye(3)
        enc = anchor(TspInstance("eq3", 3, m), 0)
        for label in [(0, 1), (1, 0)]:
            assert tour_cost(enc, label) == 3.0

    def test_infeasible_rejected(self):
        enc = example_4()
        with pytest.raises(ValueError):
            tour_cost(enc, (0, 0, 1))

    def test_tour_cities_cycle(self):
        enc = example_4()
        assert tour_cities(enc, label_to_index(enc.layout, (0, 2, 1))) == (0, 1, 3, 2, 0)

    def test_reversal_invariance_symmetric(self):
        for seed in range(5):
            enc = anchor(TspInstance("r", 6, random_symmetric_instance(6, seed)), 0)
            rng = np.random.default_rng(seed)
            label = tuple(int(v) for v in rng.permutation(enc.layout.m))
            assert tour_cost(enc, label) == pytest.approx(
                tour_cost(enc, label[::-1]), rel=1e-12
            )


class TestCostDiagonal:
    def test_penalty_worked_examples(self):
        enc = example_4()
        lam = 7.0
        diag = build_cost_diagonal(enc, lam)
        assert diag.penalty_weight == lam
        assert diag.energy.dtype == np.float64 and diag.energy.shape == (enc.layout.D,)
        # symbols (0, 0, 0) visit cities (1, 1, 1): objective 10 + 0 + 0 + 10, count 6
        assert diag.energy[label_to_index(enc.layout, (0, 0, 0))] == 20.0 + 6 * lam
        # (0, 0, 1) visits (1, 1, 2): objective 10 + 0 + 35 + 15, count 2
        assert diag.energy[label_to_index(enc.layout, (0, 0, 1))] == 60.0 + 2 * lam
        # (0, 1, 2) visits (1, 2, 3), a tour: 10 + 35 + 30 + 20, count 0
        assert diag.energy[label_to_index(enc.layout, (0, 1, 2))] == 95.0

    @pytest.mark.parametrize("n_cities", [3, 4, 5, 6])
    def test_penalty_zero_iff_feasible(self, n_cities):
        # the energy above the reference objective is the penalty
        enc = anchor(TspInstance("r", n_cities, random_symmetric_instance(n_cities, 2)), 0)
        diag = build_cost_diagonal(enc)
        objective, _ = reference_cost_diagonal(enc)
        lay = enc.layout
        for idx in range(lay.D):
            feas = is_feasible(enc, index_to_label(lay, idx))
            assert (diag.energy[idx] == objective[idx]) == feas

    def test_objective_matches_tour_cost_bitwise(self):
        enc = example_4()
        diag = build_cost_diagonal(enc)
        lay = enc.layout
        for idx in range(lay.D):
            label = index_to_label(lay, idx)
            if is_feasible(enc, label):
                assert diag.energy[idx] == tour_cost(enc, label)

    def test_objective_defined_on_infeasible_labels(self):
        enc = example_4()
        diag = build_cost_diagonal(enc)
        # symbols (0, 0, 1) visit cities (1, 1, 2): 10 + 0 + 35 + 15, and
        # the default weight 4 * 35 times the count 2
        assert diag.energy[label_to_index(enc.layout, (0, 0, 1))] == 60.0 + 2 * 140.0

    def test_default_weight(self):
        inst = TspInstance("ex4", 4, MATRIX_4)
        assert default_penalty_weight(inst) == 4 * 35.0

    def test_rejects_nonpositive_weight(self):
        enc = example_4()
        with pytest.raises(ValueError):
            build_cost_diagonal(enc, 0.0)

    def test_penalty_dominates_objective(self):
        # with the default weight, every infeasible energy exceeds every tour cost
        enc = example_4()
        diag = build_cost_diagonal(enc)
        feas = reference_cost_diagonal(enc)[1] == 0
        assert diag.energy[~feas].min() > diag.energy[feas].max()

    def test_rejects_an_energy_of_another_length(self):
        lay = BlockLayout(2, 2)
        for bad in (np.zeros(3), np.zeros(5), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="length layout.D"):
                CostDiagonal(lay, bad, 1.0)
        for weight in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="penalty weight"):
                CostDiagonal(lay, np.zeros(4), weight)
        diag = CostDiagonal(lay, [0, 1, 2, 3], 2)
        assert diag.energy.dtype == np.float64 and diag.penalty_weight == 2.0

    def test_phase_fills_out(self):
        diag = build_cost_diagonal(example_4())
        out = np.full(diag.layout.D, np.nan, dtype=np.complex128)
        assert diag.phase(0.3, out) is out
        fresh = diag.phase(0.3)
        assert fresh is not out
        assert np.array_equal(out.view(np.uint64), fresh.view(np.uint64))  # bitwise
        filled = weakref.ref(out)
        del out
        assert filled() is None  # the diagonal keeps no reference to it


def optimum(enc):
    return brute_force_optimum(build_cost_diagonal(enc))


def oracle_instance(kind, n_cities, seed):
    """A distance matrix of one kind: symmetric, asymmetric, all-equal or small-integer."""
    if kind == "symmetric":
        return random_symmetric_instance(n_cities, seed)
    if kind == "asymmetric":
        return random_asymmetric_instance(n_cities, seed)
    if kind == "all-equal":
        return np.ones((n_cities, n_cities)) - np.eye(n_cities)
    # distances 1..3: many tours share the optimal cost
    return np.rint(random_asymmetric_instance(n_cities, seed, 1.0, 3.0))


def optimal_flats(res):
    """The optima of a feasible set as ascending flat indices."""
    return sorted(res.flats[: res.degeneracy].tolist())


class TestBruteForce:
    def test_worked_example(self):
        enc = example_4()
        res = optimum(enc)
        assert res.costs[0] == 80.0
        assert res.degeneracy == 2  # a symmetric tour and its reversal
        expected = [label_to_index(enc.layout, lab) for lab in [(0, 2, 1), (1, 2, 0)]]
        assert optimal_flats(res) == expected
        assert res.layout == enc.layout and res.flats.size == res.costs.size == 6

    def test_all_equal_distances_fully_degenerate(self):
        for n_cities in (4, 5):
            m = np.ones((n_cities, n_cities)) - np.eye(n_cities)
            res = optimum(anchor(TspInstance("eq", n_cities, m), 0))
            assert res.degeneracy == math.factorial(n_cities - 1)

    @pytest.mark.parametrize("n_cities", [5, 6, 7, 8, 9])
    def test_matches_held_karp(self, n_cities):
        m = random_symmetric_instance(n_cities, 40 + n_cities)
        res = optimum(anchor(TspInstance("hk", n_cities, m), 0))
        assert res.costs[0] == pytest.approx(held_karp_cycle(m, 0), rel=1e-10)

    def test_optimal_labels_are_feasible_minima(self):
        enc = anchor(TspInstance("r6", 6, random_symmetric_instance(6, 11)), 0)
        res = optimum(enc)
        for flat in optimal_flats(res):
            label = index_to_label(enc.layout, flat)
            assert is_feasible(enc, label)
            assert tour_cost(enc, label) == pytest.approx(res.costs[0], rel=1e-12)

    @pytest.mark.parametrize("n_cities", [4, 5, 6, 7])
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "all-equal", "small-integer"])
    def test_scan_matches_enumeration(self, kind, n_cities):
        # the scan reads the cost diagonal; the reference enumerates the
        # permutations and sums each tour with the scalar tour_cost
        for seed in range(3):
            enc = anchor(TspInstance(kind, n_cities, oracle_instance(kind, n_cities, seed)), 0)
            res = optimum(enc)
            best, flats = enumerated_optimum(enc)
            assert res.costs[0] == best
            assert optimal_flats(res) == flats
            assert res.degeneracy == len(flats)
            # every tour, sorted by (cost, flat)
            tours = enumerated_tours(enc)
            order = sorted(tours, key=lambda flat: (tours[flat], flat))
            assert res.flats.dtype == np.int64
            assert res.flats.tolist() == order
            assert res.costs.tolist() == [tours[flat] for flat in order]
