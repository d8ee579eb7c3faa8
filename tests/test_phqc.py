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
    TspInstance,
    anchor,
    brute_force_optimum,
    build_cost_diagonal,
    default_penalty_weight,
)
from ceqaoa.layers import Column, mixer_bytes, run_circuit
from ceqaoa.phqc import (
    INTERPRETER_BYTES,
    POINT_BYTES,
    SHOT_BYTES,
    ShotSet,
    default_grid,
    default_shots,
    derive_seed,
    pair_columns,
    peak_bytes,
    phqc_solve,
    required_shots,
    sample_shots,
    score_shots,
    square_grid,
)

from oracles import (
    exact_success_probability,
    held_karp_cycle,
    label_to_index,
    random_asymmetric_instance,
    random_symmetric_instance,
    tour_cost,
)

MATRIX_4 = np.array(
    [[0, 10, 15, 20], [10, 0, 35, 25], [15, 35, 0, 30], [20, 25, 30, 0]], dtype=float
)


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


class TestSampling:
    def test_basis_state_all_shots_equal(self):
        lay = BlockLayout(3, 2)
        flat = label_to_index(lay, (2, 0))
        amps = np.zeros(lay.D, dtype=complex)
        amps[flat] = 1.0
        shots = sample_shots(EncodedState(lay, amps), 50, seed=1)
        assert shots.flats.tolist() == [flat]
        assert shots.counts.tolist() == [50]

    def test_uniform_counts_within_five_sigma(self):
        lay = BlockLayout(3, 3)
        shots = sample_shots(uniform_initial_state(lay), 27000, seed=2)
        sigma = math.sqrt(27000 * (1 / 27) * (26 / 27))
        assert shots.counts.sum() == 27000
        for cnt in shots.counts:
            assert abs(cnt - 1000) <= 5 * sigma

    def test_same_seed_identical(self):
        lay = BlockLayout(3, 3)
        state = uniform_initial_state(lay)
        # sampling consumes its state, so the first draw gets a copy
        a = sample_shots(EncodedState(lay, state.amplitudes.copy()), 500, seed=7)
        b = sample_shots(state, 500, seed=7)
        assert np.array_equal(a.flats, b.flats)
        assert np.array_equal(a.counts, b.counts)

    def test_shotset_validation(self):
        lay = BlockLayout(2, 2)
        flat = label_to_index(lay, (0, 1))
        with pytest.raises(ValueError):
            ShotSet(lay, [flat], [2], 3)  # counts do not sum to total_shots
        with pytest.raises(ValueError):
            ShotSet(lay, [0, flat], [4, -1], 3)  # negative count
        with pytest.raises(ValueError):
            ShotSet(lay, [flat], [3, 0], 3)  # unequal lengths
        with pytest.raises(ValueError):
            ShotSet(lay, [], [], 0)

    @pytest.mark.parametrize(
        "flats",
        [[2, 1], [1, 1], [4], [-1], [[1]]],
        ids=["unsorted", "duplicate", "at_D", "negative", "two_dim"],
    )
    def test_shotset_rejects_bad_flats(self, flats):
        lay = BlockLayout(2, 2)
        counts = np.ones(np.shape(flats), dtype=np.int64)
        with pytest.raises(ValueError):
            ShotSet(lay, flats, counts, int(counts.sum()))

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_shots(uniform_initial_state(BlockLayout(2, 2)), 0, seed=0)


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


def shot_set(layout, label_counts):
    """ShotSet from {label: count}, with flats from label_to_index."""
    flats, counts = zip(*sorted((label_to_index(layout, lab), c) for lab, c in label_counts.items()))
    return ShotSet(layout, flats, counts, sum(counts))


class TestScoring:
    def test_injected_optimum_is_found(self):
        enc = example_4()
        diag = build_cost_diagonal(enc)
        flat = int(brute_force_optimum(diag).optimal_flats[0])
        # the optimum appears once
        optimum = index_to_label(enc.layout, flat)
        shots = shot_set(enc.layout, {(0, 0, 0): 80, (0, 1, 2): 19, optimum: 1})
        scored = score_shots(shots, diag)
        assert scored.best_flat == flat
        assert scored.best_cost == 80.0
        assert scored.feasible_shots == 20
        # the cost histogram counts the feasible shots by cost, ascending
        assert scored.cost_counts == ((80.0, 1), (tour_cost(enc, (0, 1, 2)), 19))

    def test_tie_breaks_to_lowest_flat_index(self):
        enc = example_4()
        # (0, 2, 1) and (1, 2, 0) are the two degenerate optima
        shots = shot_set(enc.layout, {(1, 2, 0): 5, (0, 2, 1): 5})
        scored = score_shots(shots, build_cost_diagonal(enc))
        assert scored.best_flat == label_to_index(enc.layout, (0, 2, 1))
        assert scored.cost_counts == ((80.0, 10),)

    def test_no_feasible_samples(self):
        enc = example_4()
        shots = shot_set(enc.layout, {(0, 0, 0): 3, (1, 1, 2): 2})
        scored = score_shots(shots, build_cost_diagonal(enc))
        assert scored.best_flat is None and scored.best_cost is None
        assert scored.feasible_shots == 0 and scored.cost_counts == ()

    def test_rejects_a_diagonal_of_another_layout(self):
        shots = shot_set(BlockLayout(2, 3), {(0, 1, 1): 2})
        with pytest.raises(ValueError, match="layouts must agree"):
            score_shots(shots, build_cost_diagonal(example_4()))


class TestSolve:
    def test_recovers_brute_force_on_example(self):
        enc = example_4()
        res = phqc_solve(enc, master_seed=5)
        assert res.best_cost == 80.0
        assert res.best_cost == tour_cost(enc, index_to_label(enc.layout, res.best_flat))
        assert res.degenerate_optima == 2
        assert 0 < res.feasible_fraction < 1
        assert len(res.per_grid_stats) == 25
        assert res.penalty_weight == default_penalty_weight(enc.instance)

    def test_best_is_min_over_grid_stats(self):
        res = phqc_solve(example_4(), master_seed=6)
        observed = [s.min_sampled_cost for s in res.per_grid_stats if s.min_sampled_cost is not None]
        assert res.best_cost == min(observed)
        # each point's cost histogram holds its feasible shots, cheapest first
        for s in res.per_grid_stats:
            assert sum(count for _, count in s.cost_counts) == round(s.feasible_fraction * 640)
            assert s.min_sampled_cost == (s.cost_counts[0][0] if s.cost_counts else None)

    def test_deterministic_given_seed(self):
        a = phqc_solve(example_4(), master_seed=9)
        b = phqc_solve(example_4(), master_seed=9)
        assert a.best_flat == b.best_flat
        assert a.best_cost == b.best_cost
        assert a.per_grid_stats == b.per_grid_stats

    def test_single_shot_semantics(self):
        enc = example_4()
        columns = [Column(0.0, (0.0,))]
        found_feasible = found_empty = False
        for seed in range(40):
            res = phqc_solve(enc, columns, shots_per_point=1, master_seed=seed)
            frac = res.per_grid_stats[0].feasible_fraction
            assert frac in (0.0, 1.0)
            if res.best_flat is None:
                assert frac == 0.0 and res.best_angles is None and res.p_opt_exact is None
                found_empty = True
            else:
                assert frac == 1.0
                assert res.best_cost == tour_cost(enc, index_to_label(enc.layout, res.best_flat))
                found_feasible = True
            if found_feasible and found_empty:
                break
        assert found_feasible and found_empty

    def test_explicit_schedule_list(self):
        enc = example_4()
        columns = [Column(0.0, (0.0,)), Column(1.1, (0.6,))]
        res = phqc_solve(enc, shots_per_point=500, master_seed=3, columns=columns)
        assert res.best_cost == 80.0
        assert len(res.per_grid_stats) == 2

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)
        assert derive_seed(1, 2) != derive_seed(1, 3)
        assert derive_seed(2, 2) != derive_seed(1, 2)

    def test_one_circuit_per_grid_point(self, monkeypatch):
        states = []
        original = phqc.run_circuit

        def counting(*args, **kwargs):
            for state in original(*args, **kwargs):
                states.append(state)
                yield state

        monkeypatch.setattr(phqc, "run_circuit", counting)
        enc = example_4()
        columns = square_grid(3)
        res = phqc_solve(enc, columns, shots_per_point=200, master_seed=4)
        assert len(states) == point_count(columns) == len(res.per_grid_stats)
        gamma, beta = res.best_angles
        col = Column(gamma, (beta,))
        assert res.p_opt_exact == exact_success_probability(build_cost_diagonal(enc), col)[0]

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
        assert res.best_cost == pytest.approx(held_karp_cycle(matrix, 0), rel=1e-12)


class TestMemoryPlan:
    def test_default_shots(self):
        assert default_shots(8) == 5120

    def test_peak_bytes(self):
        one = [Column(1.0, (0.5,))]
        base = INTERPRETER_BYTES + POINT_BYTES
        # objective, penalty count and the amplitudes, which then hold the
        # CDF: 26 bytes per label.  The mixer adds one column chunk of
        # slice sums (4096 labels) and one transposed block (8**5 labels).
        mixer = 16 * (4096 + 8**5)
        assert peak_bytes(BlockLayout(8, 8), one, 0) == base + 26 * 8**8 + mixer
        # a column that reuses its phase adds a phase buffer of 16
        reused = [Column(1.0, (0.5,), 2)]
        assert peak_bytes(BlockLayout(8, 8), reused, 0) == base + 42 * 8**8 + mixer
        # a state of one block needs only the slice sums of one axis, D / n
        assert peak_bytes(BlockLayout(2, 10), one, 0) == base + 26 * 2**10 + 16 * 2**9
        # grid points and the shots of one point add their own terms
        grid = square_grid(9)
        grown = peak_bytes(BlockLayout(2, 10), grid, 5120) - INTERPRETER_BYTES - 42 * 2**10
        assert grown == 16 * 2**9 + 81 * POINT_BYTES + 5120 * SHOT_BYTES

    @pytest.mark.parametrize("depth", [1, 2])
    def test_phase_buffer_only_when_a_column_reuses_its_phase(self, depth):
        layout = BlockLayout(2, 10)

        def phase_bytes(columns):
            points = point_count(columns) * POINT_BYTES
            rest = INTERPRETER_BYTES + 26 * layout.D + mixer_bytes(layout) + points
            return peak_bytes(layout, columns, 0) - rest

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
            (state,) = run_circuit(diag, col)
            probs = state.probabilities()
            feasible_mass = float(probs[diag.penalty_count == 0].sum())
            assert p == pytest.approx(feasible_mass, abs=1e-12)
