import math

import numpy as np
import pytest

import ceqaoa.phqc as phqc
from ceqaoa.encoded import (
    BlockLayout,
    EncodedState,
    index_to_label,
    uniform_initial_state,
)
from ceqaoa.hamiltonian import (
    CostDiagonal,
    TspInstance,
    anchor,
    brute_force_optimum,
    build_cost_diagonal,
    default_penalty_weight,
    energy_dtype,
)
from ceqaoa.layers import Column, mixer_bytes, run_circuit
from ceqaoa.phqc import (
    INTERPRETER_BYTES,
    POINT_BYTES,
    SHOT_BYTES,
    TOUR_BYTES,
    default_grid,
    default_shots,
    derive_seed,
    pair_columns,
    peak_bytes,
    phqc_solve,
    required_shots,
    sample_tours,
    square_grid,
)

from oracles import (
    exact_success_probability,
    held_karp_cycle,
    label_to_index,
    random_asymmetric_instance,
    random_symmetric_instance,
    reference_cost_diagonal,
    solved_cost,
    tour_cost,
)

MATRIX_4 = np.array(
    [[0, 10, 15, 20], [10, 0, 35, 25], [15, 35, 0, 30], [20, 25, 30, 0]], dtype=float
)

FLOAT, INT = np.dtype(np.float64), np.dtype(np.int32)


def example_4():
    return anchor(TspInstance("ex4", 4, MATRIX_4), 0)


def point_count(columns):
    return sum(len(col.betas) for col in columns)


def gammas(columns):
    return [col.gamma for col in columns]


class TestGrids:
    def test_default_grid_points(self):
        cols = default_grid(4)
        assert len(cols) == len(cols[0].betas) == 5
        assert math.pi / 2 in gammas(cols) and 3 * math.pi / 4 in cols[0].betas
        assert point_count(cols) == 25

    def test_default_grid_n6_contains_table_angles(self):
        cols = default_grid(6)
        assert 5 * math.pi / 6 in gammas(cols) and 4 * math.pi / 6 in cols[0].betas

    def test_default_grid_n3_has_16_points(self):
        assert point_count(default_grid(3)) == 16

    def test_square_grid(self):
        cols = square_grid(20, 2)
        assert point_count(cols) == 400
        # gamma-major: one column per gamma, every one sharing one betas
        # tuple, and the gamma axis equal to the beta axis
        assert gammas(cols) == list(cols[0].betas)
        assert all(c.betas is cols[0].betas and c.depth == 2 for c in cols)
        assert cols[0].gamma == 0.0 and cols[-1].gamma == pytest.approx(math.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_grid(2)
        with pytest.raises(ValueError):
            square_grid(1)
        with pytest.raises(ValueError):
            square_grid(3, depth=0)

    def test_pair_columns(self):
        pairs = [(0.5, 0.3), (0.5, 1.1), (0.0, 0.2), (-0.0, 0.2), (0.5, 0.7), (0.5, 0.1)]
        cols = pair_columns(pairs, 2)
        # a run of equal gammas is one column; 0.0 and -0.0 split; a return
        # to an earlier gamma starts a new column
        assert [(c.gamma, c.betas) for c in cols] == [
            (0.5, (0.3, 1.1)),
            (0.0, (0.2,)),
            (-0.0, (0.2,)),
            (0.5, (0.7, 0.1)),
        ]
        assert [math.copysign(1.0, c.gamma) for c in cols] == [1.0, 1.0, -1.0, 1.0]
        assert all(c.depth == 2 for c in cols)
        # grid order is pair order
        assert [(c.gamma, b) for c in cols for b in c.betas] == pairs
        assert pair_columns([]) == []


def basis_mix(layout, label_probs):
    """State whose probability on each given label is as given, with phases from label order."""
    amps = np.zeros(layout.D, dtype=complex)
    for k, (label, prob) in enumerate(label_probs.items()):
        amps[label_to_index(layout, label)] = np.sqrt(prob) * np.exp(0.7j * k)
    return EncodedState(layout, amps)


def checked(scored):
    return (scored.best_cost, scored.best_flat, scored.feasible_shots, scored.cost_counts)


class TestSampling:
    def test_basis_state_all_shots_equal(self):
        # a basis state on one tour gets every shot
        enc = example_4()
        feasible = brute_force_optimum(build_cost_diagonal(enc))
        flat = label_to_index(enc.layout, (1, 0, 2))
        scored = sample_tours(basis_mix(enc.layout, {(1, 0, 2): 1.0}), feasible, 50, seed=1)
        cost = tour_cost(enc, (1, 0, 2))
        assert checked(scored) == (cost, flat, 50, ((cost, 50),))
        assert scored.p_opt == 0.0

    def test_uniform_counts_within_five_sigma(self):
        # every tour of this instance has its own cost, so the cost
        # histogram counts the shots of each tour
        enc = anchor(TspInstance("a5", 5, random_asymmetric_instance(5, 4)), 0)
        feasible = brute_force_optimum(build_cost_diagonal(enc))
        tours, dim, shots = feasible.flats.size, enc.layout.D, 25600
        assert np.unique(feasible.costs).size == tours == 24
        scored = sample_tours(uniform_initial_state(enc.layout), feasible, shots, seed=2)
        mass = tours / dim
        assert abs(scored.feasible_shots - shots * mass) <= 5 * math.sqrt(
            shots * mass * (1 - mass)
        )
        assert len(scored.cost_counts) == tours
        sigma = math.sqrt(shots * (1 / dim) * (1 - 1 / dim))
        for _, cnt in scored.cost_counts:
            assert abs(cnt - shots / dim) <= 5 * sigma

    def test_same_seed_identical(self):
        enc = example_4()
        feasible = brute_force_optimum(build_cost_diagonal(enc))
        state = uniform_initial_state(enc.layout)
        before = state.amplitudes.copy()
        a = sample_tours(state, feasible, 500, seed=7)
        b = sample_tours(state, feasible, 500, seed=7)
        assert a == b
        assert np.array_equal(state.amplitudes, before)  # the state is left as it is

    def test_rejects_zero_shots(self):
        enc = example_4()
        feasible = brute_force_optimum(build_cost_diagonal(enc))
        with pytest.raises(ValueError, match="total_shots"):
            sample_tours(uniform_initial_state(enc.layout), feasible, 0, seed=0)


class TestRequiredShots:
    def test_worked_examples(self):
        delta = math.exp(-10)
        assert required_shots(1 / 27, delta) == 270
        assert required_shots(0.01, delta) == 1000
        assert required_shots(1.0, 0.01) == math.ceil(math.log(100))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            required_shots(0.0, 0.5)
        with pytest.raises(ValueError):
            required_shots(0.5, 1.0)


class TestScoring:
    def test_injected_optimum_is_found(self):
        enc = example_4()
        diag = build_cost_diagonal(enc)
        feasible = brute_force_optimum(diag)
        flat = label_to_index(enc.layout, (0, 2, 1))
        # the optimum holds 1% of the mass, an infeasible label 80%
        state = basis_mix(enc.layout, {(0, 0, 0): 0.8, (0, 1, 2): 0.19, (0, 2, 1): 0.01})
        scored = sample_tours(state, feasible, 2000, seed=3)
        assert scored.best_flat == flat
        assert scored.best_cost == 80.0
        assert scored.p_opt == pytest.approx(0.01, abs=1e-15)
        # the cost histogram counts the feasible shots by cost, ascending
        levels = [cost for cost, _ in scored.cost_counts]
        assert levels == [80.0, tour_cost(enc, (0, 1, 2))]
        assert sum(cnt for _, cnt in scored.cost_counts) == scored.feasible_shots

    def test_tie_breaks_to_lowest_flat_index(self):
        enc = example_4()
        feasible = brute_force_optimum(build_cost_diagonal(enc))
        # (0, 2, 1) and (1, 2, 0) are the two degenerate optima
        state = basis_mix(enc.layout, {(1, 2, 0): 0.5, (0, 2, 1): 0.5})
        scored = sample_tours(state, feasible, 100, seed=4)
        flat = label_to_index(enc.layout, (0, 2, 1))
        assert checked(scored) == (80.0, flat, 100, ((80.0, 100),))

    def test_no_feasible_samples(self):
        # a state with no mass on any tour draws no feasible shot
        enc = example_4()
        feasible = brute_force_optimum(build_cost_diagonal(enc))
        state = basis_mix(enc.layout, {(0, 0, 0): 0.6, (1, 1, 2): 0.4})
        scored = sample_tours(state, feasible, 5, seed=5)
        assert checked(scored) == (None, None, 0, ())
        assert scored.p_opt == 0.0

    def test_rejects_a_diagonal_of_another_layout(self):
        three = anchor(TspInstance("t3", 3, np.ones((3, 3)) - np.eye(3)), 0)
        feasible = brute_force_optimum(build_cost_diagonal(three))
        with pytest.raises(ValueError, match="layouts must agree"):
            sample_tours(uniform_initial_state(example_4().layout), feasible, 2, seed=0)

    def test_optimum_mass_sums_the_optima_in_flat_order(self):
        # 24 optimal tours whose costs lie within the tie tolerance but
        # fall as the flat index grows: the set's optimum prefix runs
        # against flat order, and the mass is still summed in flat order
        enc = anchor(TspInstance("eq5", 5, np.ones((5, 5)) - np.eye(5)), 0)
        base = build_cost_diagonal(enc)
        tours = np.flatnonzero(reference_cost_diagonal(enc)[1] == 0)
        # the integral energies come as int32; a float64 copy holds the ties
        energy = base.energy.astype(np.float64)
        energy[tours] = 10.0 + 1e-14 * np.arange(tours.size)[::-1]
        diag = CostDiagonal(enc.layout, energy, base.penalty_weight)
        feasible = brute_force_optimum(diag)
        assert feasible.degeneracy == 24
        assert feasible.flats.tolist() == tours[::-1].tolist()
        rng = np.random.default_rng(6)
        reversed_differs = False
        for seed in range(10):
            amps = rng.normal(size=enc.layout.D) + 1j * rng.normal(size=enc.layout.D)
            state = EncodedState(enc.layout, amps / np.linalg.norm(amps))
            probs = np.abs(state.amplitudes[tours]) ** 2
            p_opt = sample_tours(state, feasible, 1, seed).p_opt
            assert p_opt == float(probs.sum())
            reversed_differs |= float(probs[::-1].sum()) != p_opt
        assert reversed_differs  # the summation order shows in the bits


class TestSolve:
    def test_recovers_brute_force_on_example(self):
        enc = example_4()
        res = phqc_solve(enc, master_seed=5)
        best = res.points[res.winner].scored
        assert best.best_cost == 80.0
        assert best.best_cost == tour_cost(enc, index_to_label(enc.layout, best.best_flat))
        assert res.degeneracy == 2
        assert len(res.points) == 25 and res.shots_per_point == 640
        assert 0 < sum(p.scored.feasible_shots for p in res.points) < 25 * 640
        assert res.penalty_weight == default_penalty_weight(enc.instance)

    def test_best_is_min_over_grid_stats(self):
        res = phqc_solve(example_4(), master_seed=6)
        observed = [p.scored.best_cost for p in res.points if p.scored.best_cost is not None]
        assert solved_cost(res) == min(observed)
        # the winner is the first point, in grid order, with the cheapest
        # sample, ties to the lower flat index
        keys = [(p.scored.best_cost, p.scored.best_flat) for p in res.points]
        assert keys.index(min(k for k in keys if k[1] is not None)) == res.winner
        # each point's cost histogram holds its feasible shots, cheapest first
        for p in res.points:
            assert sum(count for _, count in p.scored.cost_counts) == p.scored.feasible_shots
            assert p.scored.best_cost == (p.scored.cost_counts[0][0] if p.scored.cost_counts else None)

    def test_deterministic_given_seed(self):
        a = phqc_solve(example_4(), master_seed=9)
        b = phqc_solve(example_4(), master_seed=9)
        assert a.winner == b.winner
        assert a.points == b.points

    def test_single_shot_semantics(self):
        enc = example_4()
        columns = [Column(0.0, (0.0,))]
        found_feasible = found_empty = False
        for seed in range(40):
            res = phqc_solve(enc, columns, shots_per_point=1, master_seed=seed)
            (point,) = res.points
            hits = point.scored.feasible_shots
            assert hits in (0, 1)
            if res.winner is None:
                assert hits == 0 and point.scored.best_flat is None
                found_empty = True
            else:
                assert hits == 1 and res.winner == 0
                flat = point.scored.best_flat
                assert point.scored.best_cost == tour_cost(enc, index_to_label(enc.layout, flat))
                found_feasible = True
            if found_feasible and found_empty:
                break
        assert found_feasible and found_empty

    def test_explicit_schedule_list(self):
        enc = example_4()
        columns = [Column(0.0, (0.0,)), Column(1.1, (0.6,))]
        res = phqc_solve(enc, shots_per_point=500, master_seed=3, columns=columns)
        assert solved_cost(res) == 80.0
        assert [(p.gamma, p.beta) for p in res.points] == [(0.0, 0.0), (1.1, 0.6)]

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)
        assert derive_seed(1, 2) != derive_seed(1, 3)
        assert derive_seed(2, 2) != derive_seed(1, 2)

    def test_one_circuit_per_grid_point(self, monkeypatch):
        # from one run_circuit call over the whole grid
        calls, states = [], []
        original = phqc.run_circuit

        def counting(*args, **kwargs):
            calls.append(args)
            for state in original(*args, **kwargs):
                states.append(state)
                yield state

        monkeypatch.setattr(phqc, "run_circuit", counting)
        enc = example_4()
        columns = square_grid(3)
        res = phqc_solve(enc, columns, shots_per_point=200, master_seed=4)
        assert len(calls) == 1
        assert len(states) == point_count(columns) == len(res.points)
        best = res.points[res.winner]
        col = Column(best.gamma, (best.beta,))
        assert best.scored.p_opt == exact_success_probability(build_cost_diagonal(enc), col)[0]

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("path", ["direct", "table"])
    def test_one_exponential_per_gamma(self, monkeypatch, path, depth):
        # a gamma-major grid computes each gamma's phase once, a list grid
        # once per run of equal gammas, and at depth 2 the second layer
        # reuses the first layer's.  Non-integer distances exponentiate all
        # D energies; integer ones whose energies span at most D // 16
        # levels exponentiate only the levels.
        if path == "direct":
            inst, lam = TspInstance("r5", 5, random_symmetric_instance(5, 3)), None
        else:
            inst, lam = TspInstance("i6", 6, np.rint(random_symmetric_instance(6, 3, 1, 5))), 6.0
        enc = anchor(inst, 0)
        shapes = []
        original = np.exp

        def counting(x, *args, **kwargs):
            if isinstance(x, np.ndarray):
                shapes.append(x.shape)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        # four runs: a repeated gamma, two signed zeros, a return to 0.5
        pairs = [(0.5, 0.3), (0.5, 1.1), (0.0, 0.2), (-0.0, 0.2), (0.5, 0.7)]
        for columns, phases in (
            (default_grid(inst.n_cities, depth), inst.n_cities + 1),
            (pair_columns(pairs, depth), 4),
        ):
            shapes.clear()
            phqc_solve(enc, columns, shots_per_point=50, penalty_weight=lam)
            assert len(shapes) == phases
            assert all((shape == (enc.layout.D,)) == (path == "direct") for shape in shapes)

    @pytest.mark.parametrize("n_cities", [4, 5])
    def test_oracle_equivalence_small(self, n_cities):
        # Held-Karp shares no code with the cost diagonal the solve scores on
        matrix = random_symmetric_instance(n_cities, 60 + n_cities)
        enc = anchor(TspInstance("r", n_cities, matrix), 0)
        res = phqc_solve(enc, shots_per_point=default_shots(n_cities), master_seed=77)
        assert solved_cost(res) == pytest.approx(held_karp_cycle(matrix, 0), rel=1e-12)


class TestMemoryPlan:
    def test_default_shots(self):
        assert default_shots(8) == 5120

    def test_peak_bytes(self):
        one = [Column(1.0, (0.5,))]
        base = INTERPRETER_BYTES + POINT_BYTES
        # the energy and the amplitudes: 24 bytes per label with float64
        # energies, 20 with int32.
        # The mixer adds one column chunk of slice sums (4096 labels), and
        # the 8! tours their own term.
        mixer = 16 * 4096
        tours = math.factorial(8) * TOUR_BYTES
        lay = BlockLayout(8, 8)
        assert peak_bytes(lay, one, 0, FLOAT) == base + 24 * 8**8 + mixer + tours
        assert peak_bytes(lay, one, 0, INT) == base + 20 * 8**8 + mixer + tours
        # a column that reuses its phase adds a phase buffer of 16
        reused = [Column(1.0, (0.5,), 2)]
        assert peak_bytes(lay, reused, 0, FLOAT) == base + 40 * 8**8 + mixer + tours
        assert peak_bytes(lay, reused, 0, INT) == base + 36 * 8**8 + mixer + tours
        # a state of one block needs only the slice sums of one axis, D / n;
        # 10 blocks of 2 symbols hold no tour
        assert peak_bytes(BlockLayout(2, 10), one, 0, FLOAT) == base + 24 * 2**10 + 16 * 2**9
        # grid points and the shots of one point add their own terms
        grid = square_grid(9)
        grown = peak_bytes(BlockLayout(2, 10), grid, 5120, FLOAT) - INTERPRETER_BYTES - 40 * 2**10
        assert grown == 16 * 2**9 + 81 * POINT_BYTES + 5120 * SHOT_BYTES

    @pytest.mark.parametrize("energy, held", [(FLOAT, 24), (INT, 20)])
    def test_peak_bytes_counts_the_energy_dtype_of_the_instance(self, energy, held):
        # the diagonal the solve builds has the dtype the estimate counts
        matrix = MATRIX_4 if energy == INT else MATRIX_4 + 0.5 - 0.5 * np.eye(4)
        enc = anchor(TspInstance("m4", 4, matrix), 0)
        assert energy_dtype(enc) == build_cost_diagonal(enc).energy.dtype == energy
        one = [Column(1.0, (0.5,))]
        rest = INTERPRETER_BYTES + POINT_BYTES + mixer_bytes(enc.layout) + 6 * TOUR_BYTES
        assert peak_bytes(enc.layout, one, 0, energy_dtype(enc)) == rest + held * 27

    @pytest.mark.parametrize("depth", [1, 2])
    def test_phase_buffer_only_when_a_column_reuses_its_phase(self, depth):
        layout = BlockLayout(2, 10)

        def phase_bytes(columns):
            points = point_count(columns) * POINT_BYTES
            rest = INTERPRETER_BYTES + 24 * layout.D + mixer_bytes(layout) + points
            return peak_bytes(layout, columns, 0, FLOAT) - rest

        # one point per gamma, 0.0 and -0.0 among them: at depth 1 each
        # phase is used once, and built into the amplitudes
        once = 16 * layout.D if depth > 1 else 0
        assert phase_bytes([Column(g, (0.5,), depth) for g in (-0.0, 0.0, 1.0)]) == once
        assert phase_bytes(pair_columns([(0.0, 0.5), (-0.0, 0.5), (0.0, 0.5)], depth)) == once
        # consecutive points on one gamma share its phase
        assert phase_bytes(square_grid(3, depth)) == 16 * layout.D
        assert phase_bytes(pair_columns([(1.0, 0.5), (1.0, 0.6)], depth)) == 16 * layout.D


class TestExactSuccess:
    def test_uniform_angles_give_degeneracy_over_dimension(self):
        diag = build_cost_diagonal(example_4())
        p, k = exact_success_probability(diag, Column(0.0, (0.0,)))
        assert k == 2
        assert p == pytest.approx(2 / 27, abs=1e-13)

    def test_unique_optimum_asymmetric(self):
        inst = TspInstance("a4", 4, random_asymmetric_instance(4, 1))
        diag = build_cost_diagonal(anchor(inst, 0))
        p, k = exact_success_probability(diag, Column(0.0, (0.0,)))
        assert k == 1
        assert p == pytest.approx(1 / 27, abs=1e-13)

    def test_fully_degenerate_instance_mass_is_feasible_mass(self):
        m = np.ones((4, 4)) - np.eye(4)
        enc = anchor(TspInstance("eq4", 4, m), 0)
        diag = build_cost_diagonal(enc)
        for gamma, beta in [(0.0, 0.0), (0.9, 1.7), (2.2, 0.3)]:
            col = Column(gamma, (beta,))
            p, k = exact_success_probability(diag, col)
            assert k == 6
            (state,) = run_circuit(diag, [col])
            probs = state.probabilities()
            feasible_mass = float(probs[reference_cost_diagonal(enc)[1] == 0].sum())
            assert p == pytest.approx(feasible_mass, abs=1e-12)
