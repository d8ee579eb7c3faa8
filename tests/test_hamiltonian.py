import dataclasses
import math
import weakref

import numpy as np
import pytest

from ceqaoa.encoded import BlockLayout, index_to_label
from ceqaoa.hamiltonian import (
    AnchoredTsp,
    CostDiagonal,
    EnergyOverflowError,
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
    return anchor(TspInstance("ex4", MATRIX_4), 0)


class TestTspInstance:
    def test_rejects_negative(self):
        m = MATRIX_4.copy()
        m[0, 1] = -1
        with pytest.raises(ValueError):
            TspInstance("bad", m)

    def test_rejects_distances_that_overflow_a_tour(self):
        m = MATRIX_4.copy()
        m[0, 1] = 1e308
        with pytest.raises(ValueError, match="overflow a tour cost"):
            TspInstance("big", m)

    def test_rejects_nonzero_diagonal(self):
        m = MATRIX_4.copy()
        m[2, 2] = 5
        with pytest.raises(ValueError):
            TspInstance("bad", m)

    def test_rejects_wrong_shape(self):
        for shape in [(3, 4), (4,), (2, 2, 2)]:
            with pytest.raises(ValueError) as err:
                TspInstance("bad", np.zeros(shape))
            assert str(err.value) == f"instance 'bad': distance matrix is not square (shape {shape})"

    def test_cities_are_read_from_the_matrix(self):
        inst = TspInstance("ex4", MATRIX_4)
        assert inst.n_cities == 4
        assert dataclasses.replace(inst, distances=MATRIX_4[:3, :3]).n_cities == 3
        with pytest.raises(TypeError):  # not a constructor argument
            TspInstance("ex4", MATRIX_4, n_cities=4)

    def test_asymmetric_admitted(self):
        m = MATRIX_4.copy()
        m[0, 1] = 99
        TspInstance("atsp", m)


class TestAnchor:
    def test_four_cities(self):
        enc = example_4()
        assert enc.layout.n == enc.layout.m == 3
        assert enc.city_of_symbol == (1, 2, 3)

    def test_start_two_of_five(self):
        inst = TspInstance("r5", random_symmetric_instance(5, 0))
        enc = anchor(inst, 2)
        assert enc.city_of_symbol == (0, 1, 3, 4)
        assert enc.layout.n == enc.layout.m == 4

    def test_start_out_of_range(self):
        inst = TspInstance("ex4", MATRIX_4)
        with pytest.raises(ValueError):
            anchor(inst, 7)

    def test_too_few_cities(self):
        inst = TspInstance("tiny", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            anchor(inst, 0)

    def test_penalty_weight_is_held_as_a_float(self):
        inst = TspInstance("ex4", MATRIX_4)
        assert anchor(inst).penalty_weight == default_penalty_weight(inst) == 4 * 35.0
        weight = anchor(inst, 0, np.int64(7)).penalty_weight
        assert weight == 7.0 and type(weight) is float

    # n = m = 3: the largest penalty count is 6, and 6 * 1e308 is inf
    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf"), 1e308])
    def test_anchor_rejects_a_weight_not_positive_or_with_an_infinite_penalty(self, weight):
        with pytest.raises(ValueError, match="penalty weight"):
            anchor(TspInstance("ex4", MATRIX_4), 0, weight)

    def test_replace_checks_the_weight_too(self):
        enc = example_4()
        with pytest.raises(ValueError, match="penalty weight must be positive"):
            dataclasses.replace(enc, penalty_weight=0.0)
        assert dataclasses.replace(enc, penalty_weight=3).penalty_weight == 3.0

    def test_replace_recomputes_the_bound_and_the_dtype(self):
        enc = example_4()
        assert enc.energy_dtype == np.int32 and enc.energy_bound == 4 * 35 + 6 * 140.0
        moved = dataclasses.replace(enc, penalty_weight=7.5)
        assert moved.energy_dtype == np.float64 and moved.energy_bound == 4 * 35 + 6 * 7.5
        with pytest.raises(TypeError):  # neither is a constructor argument
            AnchoredTsp(enc.instance, 0, 7.0, energy_bound=1.0)

    @pytest.mark.parametrize("field", ["layout", "city_of_symbol"])
    def test_the_layout_and_the_symbol_map_are_not_constructor_arguments(self, field):
        enc = example_4()
        with pytest.raises(TypeError):
            AnchoredTsp(enc.instance, 0, 7.0, **{field: getattr(enc, field)})

    @pytest.mark.parametrize("start, symbols", [(0, (1, 2, 3)), (2, (0, 1, 3)), (3, (0, 1, 2))])
    def test_replace_derives_the_symbol_map_of_the_new_start(self, start, symbols):
        enc = dataclasses.replace(example_4(), start_city=start)
        assert enc.start_city == start and enc.city_of_symbol == symbols
        assert enc.layout == BlockLayout(3, 3)
        assert sorted(tour_cities(enc, 5)[1:-1]) == list(symbols)

    @pytest.mark.parametrize("start", [-1, 4, 7])
    def test_replace_refuses_a_start_out_of_range(self, start):
        with pytest.raises(ValueError, match=rf"start city {start} outside \[0, 4\)"):
            dataclasses.replace(example_4(), start_city=start)

    def test_an_energy_sum_past_the_float_range_is_refused_by_name(self):
        # 4 cities at distance 1e307: a tour costs 4e307 and the largest
        # penalty, 6 * 2.9e307, is finite, but their sum is not
        inst = TspInstance("far4", 1e307 * (np.ones((4, 4)) - np.eye(4)))
        message = "instance 'far4': penalty weight 2.9e+307 overflows the largest energy"
        with pytest.raises(EnergyOverflowError) as exc:
            anchor(inst, 0, 2.9e307)
        assert str(exc.value) == message

    def test_the_largest_accepted_weight_builds_finite_energies(self):
        # the labels on one symbol reach 2e307 + 6 w, under the bound
        # 4e307 + 6 w; build_cost_diagonal has no errstate, so an overflow
        # would warn, which the suite makes an error
        inst = TspInstance("far4", 1e307 * (np.ones((4, 4)) - np.eye(4)))

        def accepted(weight):
            try:
                return anchor(inst, 0, weight)
            except EnergyOverflowError:
                return None

        lo, hi = 1e307, 1e308  # accepted, refused
        while np.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        enc = accepted(lo)
        energy = build_cost_diagonal(enc).energy
        assert enc.energy_dtype == np.float64 and math.isfinite(enc.energy_bound)
        assert energy.max() == 2e307 + 6 * enc.penalty_weight
        assert np.all(np.isfinite(energy)) and energy.max() <= enc.energy_bound


class TestFeasibility:
    def test_examples(self):
        enc = example_4()
        assert is_feasible(enc, (0, 1, 2))
        assert not is_feasible(enc, (0, 0, 2))

    @pytest.mark.parametrize("n_cities", [3, 4, 5, 6])
    def test_feasible_count_is_factorial(self, n_cities):
        enc = anchor(TspInstance("r", random_symmetric_instance(n_cities, 1)), 0)
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
        enc = anchor(TspInstance("eq3", m), 0)
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
            enc = anchor(TspInstance("r", random_symmetric_instance(6, seed)), 0)
            rng = np.random.default_rng(seed)
            label = tuple(int(v) for v in rng.permutation(enc.layout.m))
            assert tour_cost(enc, label) == pytest.approx(
                tour_cost(enc, label[::-1]), rel=1e-12
            )


class TestCostDiagonal:
    def test_penalty_worked_examples(self):
        # integer distances and an integral weight give int32 energies
        for lam, dtype in ((7.0, np.int32), (7.5, np.float64)):
            enc = anchor(TspInstance("ex4", MATRIX_4), 0, lam)
            diag = build_cost_diagonal(enc)
            assert diag.energy.dtype == dtype and diag.energy.shape == (enc.layout.D,)
            # symbols (0, 0, 0) visit cities (1, 1, 1): objective 10 + 0 + 0 + 10, count 6
            assert diag.energy[label_to_index(enc.layout, (0, 0, 0))] == 20.0 + 6 * lam
            # (0, 0, 1) visits (1, 1, 2): objective 10 + 0 + 35 + 15, count 2
            assert diag.energy[label_to_index(enc.layout, (0, 0, 1))] == 60.0 + 2 * lam
            # (0, 1, 2) visits (1, 2, 3), a tour: 10 + 35 + 30 + 20, count 0
            assert diag.energy[label_to_index(enc.layout, (0, 1, 2))] == 95.0

    @pytest.mark.parametrize("n_cities", [3, 4, 5, 6])
    def test_penalty_zero_iff_feasible(self, n_cities):
        # the energy above the reference objective is the penalty
        enc = anchor(TspInstance("r", random_symmetric_instance(n_cities, 2)), 0)
        diag = build_cost_diagonal(enc)
        objective, _ = reference_cost_diagonal(enc)
        lay = enc.layout
        for idx in range(lay.D):
            feas = is_feasible(enc, index_to_label(lay, idx))
            assert (diag.energy[idx] == objective[idx]) == feas

    @pytest.mark.parametrize(
        "distance, lam, dtype",
        [
            # the default weight 5 d: the bound 5 d + 12 * 5 d is 2**31 - 63, then 2**31 + 2
            (33038209.0, None, np.int32),
            (33038210.0, None, np.float64),
            # 5 * 10 + 12 w is 2**31 - 6, then 2**31 + 6
            (10.0, 178956966.0, np.int32),
            (10.0, 178956967.0, np.float64),
        ],
    )
    def test_energy_dtype_at_the_int32_bound(self, distance, lam, dtype):
        # all-equal distances at n = 5 (n = m = 4): the labels on one symbol
        # reach 2 d + 12 * weight, over 95% of the bound, so an int32 that
        # wrapped around would show as a negative energy.  The problem's
        # energy_dtype and energy_bound come from the weight anchor holds.
        matrix = distance * (np.ones((5, 5)) - np.eye(5))
        enc = anchor(TspInstance("b5", matrix), 0, lam)
        diag = build_cost_diagonal(enc)
        assert diag.energy.dtype == enc.energy_dtype == dtype
        assert enc.energy_bound == 5 * distance + 12 * enc.penalty_weight
        assert (enc.energy_bound < 2**31) == (dtype == np.int32)
        objective, count = reference_cost_diagonal(enc)
        energy = objective + enc.penalty_weight * count.astype(np.float64)
        assert np.array_equal(diag.energy, energy)
        assert diag.energy.max() == 2 * distance + 12 * enc.penalty_weight > 0.95 * 2**31

    def test_penalties_past_int16_with_an_int16_weight(self):
        # the default weight 5000 fits int16 but k * 5000 does not for k >= 7
        # (k reaches 12 at n = 5), so the fold must multiply in int32
        enc = anchor(TspInstance("w5", 1000.0 * (np.ones((5, 5)) - np.eye(5))), 0)
        diag = build_cost_diagonal(enc)
        assert diag.energy.dtype == np.int32 and enc.penalty_weight == 5000.0
        objective, count = reference_cost_diagonal(enc)
        assert np.array_equal(diag.energy, objective + enc.penalty_weight * count)
        assert diag.energy.max() == 2000 + 12 * 5000

    @pytest.mark.parametrize("fraction, lam", [(0.25, None), (0.0, 7.5), (0.0, 0.5)])
    def test_a_fractional_distance_or_weight_gives_float64(self, fraction, lam):
        matrix = MATRIX_4.copy()
        matrix[2, 3] += fraction
        enc = anchor(TspInstance("f4", matrix), 0, lam)
        diag = build_cost_diagonal(enc)
        assert diag.energy.dtype == enc.energy_dtype == np.float64
        objective, count = reference_cost_diagonal(enc)
        assert np.array_equal(diag.energy, objective + enc.penalty_weight * count)

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
        inst = TspInstance("ex4", MATRIX_4)
        assert default_penalty_weight(inst) == 4 * 35.0

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
                CostDiagonal(lay, bad)
        assert CostDiagonal(lay, [0, 1, 2, 3]).energy.dtype == np.float64
        # an int32 vector is held as it is; other integers become float64
        ints = np.arange(4, dtype=np.int32)
        assert CostDiagonal(lay, ints).energy is ints
        assert CostDiagonal(lay, ints.astype(np.int16)).energy.dtype == np.float64

    def test_phase_fills_out(self):
        diag = build_cost_diagonal(example_4())
        out = np.full(diag.layout.D, np.nan, dtype=np.complex128)
        assert diag.phase(0.3, out) is out
        other = diag.phase(0.3, np.zeros_like(out))
        assert np.array_equal(out.view(np.uint64), other.view(np.uint64))  # bitwise
        with pytest.raises(TypeError):
            diag.phase(0.3)  # out is required
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
        assert res.flats.size == res.costs.size == 6

    def test_all_equal_distances_fully_degenerate(self):
        for n_cities in (4, 5):
            m = np.ones((n_cities, n_cities)) - np.eye(n_cities)
            res = optimum(anchor(TspInstance("eq", m), 0))
            assert res.degeneracy == math.factorial(n_cities - 1)

    @pytest.mark.parametrize("n_cities", [5, 6, 7, 8, 9])
    def test_matches_held_karp(self, n_cities):
        m = random_symmetric_instance(n_cities, 40 + n_cities)
        res = optimum(anchor(TspInstance("hk", m), 0))
        assert res.costs[0] == pytest.approx(held_karp_cycle(m, 0), rel=1e-10)

    def test_optimal_labels_are_feasible_minima(self):
        enc = anchor(TspInstance("r6", random_symmetric_instance(6, 11)), 0)
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
            enc = anchor(TspInstance(kind, oracle_instance(kind, n_cities, seed)), 0)
            res = optimum(enc)
            best, flats = enumerated_optimum(enc)
            assert res.costs[0] == best
            assert optimal_flats(res) == flats
            assert res.degeneracy == len(flats)
            # every tour, sorted by (cost, flat)
            tours = enumerated_tours(enc)
            order = sorted(tours, key=lambda flat: (tours[flat], flat))
            assert res.flats.dtype == np.int64 and res.costs.dtype == np.float64
            assert res.flats.tolist() == order
            assert res.costs.tolist() == [tours[flat] for flat in order]
