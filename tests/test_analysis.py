import math

import numpy as np
import pytest

from ceqaoa.analysis import (
    angle_averaged_transition,
    block_design_moments,
    classical_baselines,
    find_good_permutation,
    lie_algebra_dimension,
    random_block_permutation_array,
    transition_closed_form,
    twirl_average,
)
from ceqaoa.encoded import BlockLayout
from ceqaoa.layers import Column, run_circuit
from ceqaoa.verify import random_diagonal

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
        diag = random_diagonal(lay, 1)
        for col in columns_for(10, 2):
            est = twirl_average(diag, col, (1, 2), mode="exhaustive")
            assert est.n_terms == 36
            assert abs(est.value - 1 / 9) < 1e-12

    def test_zero_angles_any_mode(self):
        lay = BlockLayout(3, 2)
        diag = random_diagonal(lay, 3)
        col = Column(0.0, (0.0,))
        ex = twirl_average(diag, col, (0, 1), mode="exhaustive")
        mc = twirl_average(diag, col, (0, 1), mode="monte_carlo", n_samples=100, seed=4)
        assert abs(ex.value - 1 / 9) < 1e-12
        assert abs(mc.value - 1 / 9) < 1e-12  # every term equals 1/D

    def test_monte_carlo_three_sigma(self):
        lay = BlockLayout(4, 3)
        diag = random_diagonal(lay, 5)
        est = twirl_average(
            diag, columns_for(1, 6)[0], (0, 1, 2), mode="monte_carlo", n_samples=100_000, seed=7
        )
        assert abs(est.value - 1 / 64) <= 3 * est.std_error

    def test_exhaustive_size_guard(self):
        lay = BlockLayout(6, 6)  # (6!)^6 permutations
        diag = random_diagonal(lay, 8)
        with pytest.raises(ValueError):
            twirl_average(diag, columns_for(1, 9)[0], (0,) * 6, mode="exhaustive")

    def test_unknown_mode(self):
        lay = BlockLayout(3, 2)
        with pytest.raises(ValueError):
            twirl_average(random_diagonal(lay, 1), columns_for(1, 1)[0], (0, 0), mode="median")

    def test_permutation_sampler_uniform_chi_squared(self):
        rng = np.random.default_rng(11)
        perms = random_block_permutation_array(3, 1, 6000, rng)[:, 0, :]
        counts = {}
        for row in perms:
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert len(counts) == 6
        chi2 = sum((c - 1000) ** 2 / 1000 for c in counts.values())
        assert chi2 < 25  # df=5, far beyond the 99.9% quantile only on a bad sampler


class TestGoodPermutation:
    def test_zero_angles_hit_baseline_exactly(self):
        lay = BlockLayout(3, 2)
        diag = random_diagonal(lay, 12)
        perm, overlap = find_good_permutation(diag, Column(0.0, (0.0,)), (1, 2))
        assert overlap == pytest.approx(1 / 9, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3])
    def test_overlap_at_least_baseline(self, m):
        lay = BlockLayout(3, m)
        diag = random_diagonal(lay, 13 + m)
        target = tuple(range(m))
        slack = 1.0 - 1e-12  # one-ulp margin at exactly degenerate points
        for col in columns_for(10, 14 + m):
            perm, overlap = find_good_permutation(diag, col, target)
            assert overlap >= slack / lay.D
            twirl = twirl_average(diag, col, target, mode="exhaustive").value
            assert overlap >= slack * twirl  # pigeonhole against the average

    def test_returned_permutation_realizes_overlap(self):
        lay = BlockLayout(3, 2)
        diag = random_diagonal(lay, 20)
        col = columns_for(1, 21)[0]
        target = (2, 0)
        perm, overlap = find_good_permutation(diag, col, target)
        (state,) = run_circuit(diag, [col])
        probs = state.probabilities()
        # overlap = |<target| P^dag U s0>|^2 = |<P target| U s0>|^2, where
        # P sends block b's symbol j to perms[b][j]
        moved = tuple(p[j] for p, j in zip(perm.perms, target))
        assert probs[label_to_index(lay, moved)] == pytest.approx(overlap, abs=1e-15)


class TestErgodicity:
    def test_closed_form_values(self):
        p = transition_closed_form(3)
        assert p[0, 0] == pytest.approx(5 / 9)
        assert p[0, 1] == pytest.approx(2 / 9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quadrature_matches_closed_form(self, n):
        quad = angle_averaged_transition(n, 4096)
        assert np.max(np.abs(quad - transition_closed_form(n))) < 1e-8

    def test_doubly_stochastic(self):
        for n in range(2, 9):
            p = angle_averaged_transition(n, 4096)
            assert np.max(np.abs(p.sum(axis=0) - 1)) < 1e-12
            assert np.max(np.abs(p.sum(axis=1) - 1)) < 1e-12

    def test_n2_all_half(self):
        assert np.allclose(angle_averaged_transition(2, 512), 0.5, atol=1e-12)

    def test_uniform_is_stationary(self):
        for n in (3, 6):
            p = angle_averaged_transition(n, 2048)
            pi = np.full(n, 1 / n)
            assert np.max(np.abs(pi @ p - pi)) < 1e-12

    def test_quadrature_guard(self):
        with pytest.raises(ValueError):
            angle_averaged_transition(3, 32)


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
