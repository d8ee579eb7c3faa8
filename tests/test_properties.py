"""Property tests against scalar and out-of-place references: the flat-index
shot path and the in-place circuit kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ceqaoa.encoded import BlockLayout, index_to_label, indices_to_labels
from ceqaoa.hamiltonian import CostDiagonal, TspInstance, anchor
from ceqaoa.layers import LayerSchedule, MixerNormalization, run_circuit
from ceqaoa.phqc import ShotSet, score_shots

from oracles import reference_circuit, scalar_score

MAX_D = 50_000


@st.composite
def layouts(draw):
    n = draw(st.integers(2, 12))
    max_m = max(1, int(np.log(MAX_D) / np.log(n)))
    return BlockLayout(n, draw(st.integers(1, max_m)))


@settings(deadline=None)
@given(layout=layouts(), data=st.data())
def test_indices_to_labels_matches_scalar(layout, data):
    flats = data.draw(st.lists(st.integers(0, layout.D - 1), max_size=40))
    labels = indices_to_labels(layout, np.array(flats, dtype=np.int64))
    assert labels.shape == (len(flats), layout.m)
    assert [tuple(row) for row in labels.tolist()] == [index_to_label(layout, f) for f in flats]


@st.composite
def scoring_cases(draw):
    """An anchored instance, a random diagonal with ties and infeasible labels, and shots."""
    n_cities = draw(st.integers(3, 4))
    enc = anchor(TspInstance("p", n_cities, np.ones((n_cities, n_cities)) - np.eye(n_cities)))
    dim = enc.layout.D
    # few distinct costs, so ties between feasible samples are common
    objective = draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
    penalty = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 3.0]), min_size=dim, max_size=dim))
    diag = CostDiagonal(enc.layout, np.array(objective, float), np.array(penalty), 1.0)
    flats = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=min(dim, 30))))
    counts = draw(st.lists(st.integers(0, 9), min_size=len(flats), max_size=len(flats)))
    counts[0] += 1  # total_shots >= 1
    return enc, diag, ShotSet(enc.layout, flats, counts, sum(counts))


@settings(deadline=None)
@given(case=scoring_cases())
def test_score_shots_matches_scalar_loop(case):
    enc, diag, shots = case
    scored = score_shots(enc, shots, diag)
    pairs = zip(shots.flats.tolist(), shots.counts.tolist())
    cost, flat, feasible = scalar_score(diag.penalty, diag.objective, pairs)
    assert (scored.best_cost, scored.best_flat, scored.feasible_shots) == (cost, flat, feasible)
    if flat is None:
        assert scored.best_label is None
    else:
        assert scored.best_label == index_to_label(enc.layout, flat)


angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def circuit_cases(draw):
    """A random diagonal on a small layout and two schedules over two gammas.

    Gamma sequences such as (g1, g2, g1), run back to back on one diagonal,
    hit, miss and replace its cached phase vector.  Layouts reach past 16384
    amplitudes, the size from which numpy elides temporaries.
    """
    layout = draw(layouts())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objective = rng.integers(0, 50, layout.D).astype(float)
    penalty = rng.choice([0.0, 0.0, 7.0, 21.0], layout.D)
    diag = CostDiagonal(layout, objective, penalty, 7.0)
    gammas = (draw(angles), draw(angles))
    schedules = []
    for _ in range(2):
        picks = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
        schedules.append(LayerSchedule(tuple((gammas[i], draw(angles)) for i in picks)))
    return diag, schedules, draw(st.sampled_from(list(MixerNormalization)))


@settings(deadline=None)
@given(case=circuit_cases())
def test_run_circuit_matches_out_of_place_reference_bitwise(case):
    diag, schedules, norm = case
    for sched in schedules:
        expected = reference_circuit(diag, sched, norm)
        assert np.array_equal(run_circuit(diag, sched, norm).amplitudes, expected)
