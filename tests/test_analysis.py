import math

import numpy as np
import pytest

from ceqaoa import analysis
from ceqaoa.analysis import (
    angle_averaged_transition,
    block_design_moments,
    classical_baselines,
    find_good_permutation,
    lie_algebra_dimension,
    transition_closed_form,
    twirl_average,
)
from ceqaoa.encoded import BlockLayout, uniform_initial_state
from ceqaoa.layers import Column, run_circuit
from ceqaoa.verify import check_existence_bound, check_one_design, random_diagonal

from oracles import label_to_index


def columns_for(count, seed):
    rng = np.random.default_rng(seed)
    return [
        Column(g, (b,))
        for g, b in zip(rng.uniform(0, math.pi, count), rng.uniform(0, math.pi, count))
    ]


class TestTwirl:
    def test_exhaustive_equals_uniform_baseline(self):
        lay = BlockLayout(3, 2)
        for state in run_circuit(random_diagonal(lay, 1), columns_for(10, 2)):
            assert abs(twirl_average(state, label_to_index(lay, (1, 2))) - 1 / 9) < 1e-12

    def test_zero_angles_any_mode(self):
        lay = BlockLayout(3, 2)
        (state,) = run_circuit(random_diagonal(lay, 3), [Column(0.0, (0.0,))])
        # every term equals 1/D
        assert abs(twirl_average(state, label_to_index(lay, (0, 1))) - 1 / 9) < 1e-12

    def test_exhaustive_size_guard(self):
        state = uniform_initial_state(BlockLayout(6, 6))  # (6!)^6 permutations
        with pytest.raises(ValueError):
            twirl_average(state, 0)


class TestGoodPermutation:
    def test_zero_angles_hit_baseline_exactly(self):
        lay = BlockLayout(3, 2)
        (state,) = run_circuit(random_diagonal(lay, 12), [Column(0.0, (0.0,))])
        perms, overlap = find_good_permutation(state, label_to_index(lay, (1, 2)))
        assert overlap == pytest.approx(1 / 9, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3])
    def test_overlap_at_least_baseline(self, m):
        lay = BlockLayout(3, m)
        target = label_to_index(lay, range(m))
        slack = 1.0 - 1e-12  # one-ulp margin at exactly degenerate points
        for state in run_circuit(random_diagonal(lay, 13 + m), columns_for(10, 14 + m)):
            perms, overlap = find_good_permutation(state, target)
            assert overlap >= slack / lay.D
            twirl = twirl_average(state, target)
            assert overlap >= slack * twirl  # pigeonhole against the average

    def test_returned_permutation_realizes_overlap(self):
        lay = BlockLayout(3, 2)
        (state,) = run_circuit(random_diagonal(lay, 20), columns_for(1, 21))
        target = (2, 0)
        perms, overlap = find_good_permutation(state, label_to_index(lay, target))
        assert [sorted(p) for p in perms] == [[0, 1, 2]] * lay.m
        # overlap = |<target| P^dag U s0>|^2 = |<P target| U s0>|^2, where
        # P sends block b's symbol j to perms[b][j], and P target is the peak
        moved = label_to_index(lay, [p[j] for p, j in zip(perms, target)])
        probs = state.probabilities()
        assert moved == np.argmax(probs) != label_to_index(lay, target)
        assert probs[moved] == pytest.approx(overlap, abs=1e-15)


@pytest.mark.parametrize("flat", [-1, 9])
@pytest.mark.parametrize("estimator", [twirl_average, find_good_permutation])
def test_target_index_out_of_range_refused(estimator, flat):
    state = uniform_initial_state(BlockLayout(3, 2))
    with pytest.raises(ValueError, match=rf"^index {flat} outside \[0, 9\)$"):
        estimator(state, flat)


def test_verify_passes_the_indices_of_its_labels(monkeypatch):
    seen = []

    def recording(estimator):
        def wrapper(state, target):
            seen.append((estimator.__name__, state.layout, int(target)))
            return estimator(state, target)

        return wrapper

    for estimator in (twirl_average, find_good_permutation):
        monkeypatch.setattr(analysis, estimator.__name__, recording(estimator))
    assert all(r.passed for r in check_one_design() + check_existence_bound())
    expected = {
        ("twirl_average", BlockLayout(3, 2), label_to_index(BlockLayout(3, 2), (1, 2))),
        ("twirl_average", BlockLayout(4, 3), label_to_index(BlockLayout(4, 3), (0, 1, 2))),
    }
    for m in (2, 3):
        lay = BlockLayout(3, m)
        for name in ("twirl_average", "find_good_permutation"):
            expected.add((name, lay, label_to_index(lay, range(m))))
    assert set(seen) == expected


class TestErgodicity:
    def test_closed_form_values(self):
        p = transition_closed_form(3)
        assert p[0, 0] == pytest.approx(5 / 9)
        assert p[0, 1] == pytest.approx(2 / 9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quadrature_matches_closed_form(self, n):
        quad = angle_averaged_transition(n)
        assert np.max(np.abs(quad - transition_closed_form(n))) < 1e-8

    def test_doubly_stochastic(self):
        for n in range(2, 9):
            p = angle_averaged_transition(n)
            assert np.max(np.abs(p.sum(axis=0) - 1)) < 1e-12
            assert np.max(np.abs(p.sum(axis=1) - 1)) < 1e-12

    def test_n2_all_half(self):
        assert np.allclose(angle_averaged_transition(2), 0.5, atol=1e-12)

    def test_uniform_is_stationary(self):
        for n in (3, 6):
            p = angle_averaged_transition(n)
            pi = np.full(n, 1 / n)
            assert np.max(np.abs(pi @ p - pi)) < 1e-12


class TestDesignMoments:
    def test_no_layers_degenerate(self):
        rep = block_design_moments(3, 0, 50, seed=0)
        assert rep.mean_overlap == pytest.approx(1 / 3, abs=1e-12)
        assert rep.second_moment == pytest.approx(1 / 9, abs=1e-12)
        assert rep.second_moment != pytest.approx(rep.haar_second, rel=0.2)

    def test_haar_targets(self):
        rep = block_design_moments(3, 1, 2, seed=0)
        assert rep.haar_mean == pytest.approx(1 / 3)
        assert rep.haar_second == pytest.approx(1 / 6)

    def test_second_moment_approaches_target(self):
        for n in (3, 4, 5):
            errs, ses = [], []
            for layers in (1, n, n * n, 10 * n * n):
                rep = block_design_moments(n, layers, 20_000, seed=1000 + n)
                errs.append(abs(rep.second_moment - rep.haar_second))
                ses.append(rep.std_errors[1])
            for i in range(len(errs) - 1):
                assert errs[i + 1] <= errs[i] + 3 * (ses[i] + ses[i + 1])

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            block_design_moments(9, 1, 1)
        with pytest.raises(ValueError):
            block_design_moments(3, -1, 1)
        with pytest.raises(ValueError):
            block_design_moments(3, 1, 0)


class TestLieDimension:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_full_control(self, n):
        assert lie_algebra_dimension(n, list(range(n))) == n * n - 1

    def test_identity_diagonal_rejected(self):
        with pytest.raises(ValueError):
            lie_algebra_dimension(3, (1.0, 1.0, 1.0))

    def test_generic_diagonals(self):
        rng = np.random.default_rng(30)
        for _ in range(3):
            d = rng.normal(size=4)
            assert lie_algebra_dimension(4, d) == 15


class TestBaselines:
    def test_worked_examples(self):
        rep = classical_baselines(3)
        assert (rep.m, rep.feasible_count) == (3, 6)
        assert rep.model_a_trials == pytest.approx(4.5)
        assert rep.model_b_trials == pytest.approx(513 / 7)
        assert rep.separation_ratio == pytest.approx((8 / 3) ** 3, rel=1e-12)

    def test_defaults_use_factorial(self):
        rep = classical_baselines(4)
        assert rep.feasible_count == 24
        assert rep.model_a_trials == pytest.approx(4**4 / 24)

    def test_log10_fields_for_large_n(self):
        rep = classical_baselines(40)
        assert rep.model_b_trials == math.inf  # 2**1600 overflows a float
        assert rep.log10_model_b == pytest.approx(
            1600 * math.log10(2) - math.log10(math.factorial(40) + 1), rel=1e-9
        )

    def test_log10_space_beyond_exact_size(self):
        # n = 200: past the exact-integer size for model b, still cheap to check exactly
        rep = classical_baselines(200)
        exact = math.log10(2 ** 40000 + 1) - math.log10(math.factorial(200) + 1)
        assert rep.log10_model_b == pytest.approx(exact, rel=1e-12)
        # n = 10**5: 2**(n*n) would be a 1.25 GB integer
        n = 10**5
        rep = classical_baselines(n)
        log10_fact = math.lgamma(n + 1) / math.log(10)
        assert rep.model_a_trials == rep.model_b_trials == math.inf
        assert rep.log10_model_a == pytest.approx(n * math.log10(n) - log10_fact, rel=1e-9)
        assert rep.log10_model_b == pytest.approx(n * n * math.log10(2) - log10_fact, rel=1e-9)

    def test_separation_log10_formula(self):
        for n in range(2, 13):
            rep = classical_baselines(n)
            assert rep.log10_separation == pytest.approx(
                n * (n * math.log10(2) - math.log10(n)), rel=1e-12
            )
