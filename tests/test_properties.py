"""Property tests against scalar, dense and out-of-place references: the
per-point tour sampler and checker, the rank-1 mixer, the in-place circuit
kernels and the grid's phase buffer, the closed-form depth-1 amplitudes,
the per-chunk phase fill and the prefix-built cost diagonal."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ceqaoa.encoded import (
    BlockLayout,
    EncodedState,
    index_to_label,
    indices_to_labels,
    labels_to_indices,
)
from ceqaoa.hamiltonian import (
    PHASE_CHUNK,
    CostDiagonal,
    TspInstance,
    anchor,
    brute_force_optimum,
    build_cost_diagonal,
)
from ceqaoa import layers
from ceqaoa.layers import (
    Column,
    apply_mixer,
    mixer_block_matrix,
    run_circuit,
    tour_amplitudes,
)
from ceqaoa.phqc import sample_tours, square_grid

from oracles import (
    enumerated_optimum,
    enumerated_tours,
    former_mixer,
    random_asymmetric_instance,
    random_symmetric_instance,
    reference_circuit,
    reference_cost_diagonal,
    reference_phase,
    reference_tour_sample,
    scalar_score,
)

MAX_D = 50_000


@st.composite
def layouts(draw, max_dim=MAX_D):
    n = draw(st.integers(2, 12))
    max_m = max(1, int(np.log(max_dim) / np.log(n)))
    return BlockLayout(n, draw(st.integers(1, max_m)))


@settings(deadline=None)
@given(layout=layouts(), data=st.data())
def test_indices_to_labels_matches_scalar(layout, data):
    flats = data.draw(st.lists(st.integers(0, layout.D - 1), max_size=40))
    labels = indices_to_labels(layout, np.array(flats, dtype=np.int64))
    assert labels.shape == (len(flats), layout.m)
    assert [tuple(row) for row in labels.tolist()] == [index_to_label(layout, f) for f in flats]
    assert labels_to_indices(layout, labels).tolist() == flats


@st.composite
def tour_sampling_cases(draw):
    """An anchored instance, often with tied tours, a normalised state on its layout, shots and a seed.

    The state is random, random with exact zeros, a basis state (on a tour
    or not) or spread over the infeasible labels only.
    """
    n_cities = draw(st.integers(3, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        # distances 1..3: many tours share a cost
        matrix = np.rint(random_asymmetric_instance(n_cities, seed, 1.0, 3.0))
    else:
        matrix = random_symmetric_instance(n_cities, seed)
    enc = anchor(TspInstance("p", matrix))
    dim = enc.layout.D
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["random", "zeros", "basis", "infeasible"]))
    if kind == "basis":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[draw(st.integers(0, dim - 1))] = 1.0
    else:
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if kind == "zeros":
            amps[rng.random(dim) < draw(st.sampled_from([0.5, 0.9]))] = 0.0
            amps[rng.integers(dim)] = 1.0
        elif kind == "infeasible":
            amps[list(enumerated_tours(enc))] = 0.0
        amps /= np.linalg.norm(amps)
    state = EncodedState(enc.layout, amps)
    return enc, state, draw(st.integers(1, 2000)), draw(st.integers(0, 2**63 - 1))


@settings(deadline=None)
@given(case=tour_sampling_cases())
def test_sample_tours_matches_scalar_checker(case):
    # the reference replays the draws over the enumerated tours and scores
    # them with the scalar loop; the optimum mass sums the enumerated optima
    enc, state, total_shots, seed = case
    feasible = brute_force_optimum(build_cost_diagonal(enc))
    scored = sample_tours(state.probabilities()[feasible.flats], feasible, total_shots, seed)
    pairs = reference_tour_sample(state.amplitudes, enumerated_tours(enc), total_shots, seed)
    objective, count = reference_cost_diagonal(enc)
    expected = scalar_score(count, objective, pairs)
    assert (scored.best_cost, scored.best_flat, scored.feasible_shots, scored.cost_counts) == expected
    _, optima = enumerated_optimum(enc)
    assert scored.p_opt == float((np.abs(state.amplitudes[optima]) ** 2).sum())


angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def circuit_cases(draw):
    """A random diagonal on a small layout and two columns of 1-3 betas at depth 1-3.

    The columns take their gammas from two, so sequences such as (g1, g2)
    and (g1, g1), run back to back as one grid, rebuild the phase buffer
    it holds.  Layouts reach past 16384 amplitudes, the size from
    which numpy elides temporaries.
    """
    layout = draw(layouts())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objective = rng.integers(0, 50, layout.D).astype(float)
    count = rng.choice(np.array([0, 0, 1, 3]), layout.D)
    energy = objective + 7.0 * count
    # int32 energies of few levels take the phase from the level table
    diag = CostDiagonal(layout, energy.astype(draw(st.sampled_from([np.float64, np.int32]))))
    gammas = (draw(angles), draw(angles))
    columns = [
        Column(
            gammas[draw(st.integers(0, 1))],
            tuple(draw(st.lists(angles, min_size=1, max_size=3))),
            draw(st.integers(1, 3)),
        )
        for _ in range(2)
    ]
    return diag, columns


def amplitudes_of(column_states):
    """A copy of every state a column yields, each taken before the next overwrites it."""
    return [state.amplitudes.copy() for state in column_states]


@settings(deadline=None)
@given(case=circuit_cases())
def test_run_circuit_matches_out_of_place_reference_bitwise(case):
    """Each column run alone, and the two run as one grid, as in a solve."""
    diag, columns = case
    expected = [
        [reference_circuit(diag, [(col.gamma, b)] * col.depth) for b in col.betas]
        for col in columns
    ]
    for col, want in zip(columns, expected):
        got = amplitudes_of(run_circuit(diag, [col]))
        assert len(got) == len(want)
        assert all(np.array_equal(g, e) for g, e in zip(got, want))
    grid = amplitudes_of(run_circuit(diag, columns))
    want = [e for col_expected in expected for e in col_expected]
    assert len(grid) == len(want)
    assert all(np.array_equal(g, e) for g, e in zip(grid, want))


@settings(deadline=None)
@given(case=circuit_cases())
def test_reused_and_consumed_phases_give_equal_amplitudes(case):
    """Every circuit of a grid, which reads its phase from the phase buffer
    (several betas, or depth > 1) or builds it straight into the
    amplitudes (one beta at depth 1), in buffers an earlier column has
    used, gives bitwise the amplitudes of its beta run alone in a one-beta
    column."""
    diag, columns = case
    points = [(col, beta) for col in columns for beta in col.betas]
    for (col, beta), state in zip(points, run_circuit(diag, columns), strict=True):
        (alone,) = run_circuit(diag, [Column(col.gamma, (beta,), col.depth)])
        assert np.array_equal(state.amplitudes, alone.amplitudes)


@settings(deadline=None)
@given(case=circuit_cases())
def test_returned_phase_is_never_written(case):
    """The phase buffer the circuits read is never written by them: while
    the grid yields, and after it, the one buffer besides the amplitudes
    that a phase is built into holds bitwise a fresh diag.phase of the
    last gamma built into it.  The columns that reuse their phase, and no
    others, build it there; a column that uses its phase once builds it
    into the amplitudes and leaves the phase buffer as it was."""
    diag, columns = case
    built = []  # (gamma, out) of every phase the grid builds
    fill = CostDiagonal.phase

    def recording(self, gamma, out):
        built.append((gamma, out))
        return fill(self, gamma, out)

    amps = None
    with mock.patch.object(CostDiagonal, "phase", recording):
        for state in itertools.chain(run_circuit(diag, columns), [None]):  # and after
            amps = amps if state is None else state.amplitudes
            elsewhere = [(g, out) for g, out in built if not np.shares_memory(out, amps)]
            assert len({id(out) for _, out in elsewhere}) <= 1
            if elsewhere:
                gamma, out = elsewhere[-1]
                fresh = fill(diag, gamma, np.empty_like(out))
                assert np.array_equal(out.view(np.uint64), fresh.view(np.uint64))
    assert [g for g, _ in elsewhere] == [col.gamma for col in columns if col.reuses_phase]


PHASE_KINDS = ["table", "fraction", "weight", "wide", "huge"]


@st.composite
def phase_cases(draw):
    """A diagonal whose energies span T levels, set against D // 16, a gamma,
    the kind and the number of labels the level table must fill.

    "table": int32 energies from a base that may be negative, with
    T <= D // 16; every chunk gathers.  "wide": the same with
    T = D // 16 + 1; no chunk gathers.  The float64 kinds never gather:
    "fraction" (the "table" energies with one non-integral energy, in the
    last chunk or, when D spans 3 or more chunks, in a middle one), "weight"
    (a non-integer penalty weight and an odd count in every chunk) and
    "huge" (energies of 2**53 or more in magnitude).  D lies on both sides
    of the 8192-label chunk.
    """
    shapes = [(4, 3), (3, 8), (2, 13), (2, 14), (3, 9), (6, 6)]  # D = 64 .. 46656
    layout = BlockLayout(*draw(st.sampled_from(shapes)))
    dim, bound = layout.D, layout.D // 16
    kind = draw(st.sampled_from(PHASE_KINDS))
    step = draw(st.integers(1, 2))
    levels = bound + 1 if kind == "wide" else draw(st.integers(step + 2, bound))
    top = draw(st.integers(1, (levels - 2) // step))  # the largest penalty count
    span = levels - 1 - step * top  # the objective's spread, at least 1
    huge = st.sampled_from([2**53, -(2**54)])
    base = draw(huge if kind == "huge" else st.integers(-999, 999))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = rng.integers(0, top + 1, dim)
    objective = (base + rng.integers(0, span + 1, dim)).astype(np.float64)
    count[:2] = 0, top  # both ends of the range [base, base + levels - 1]
    objective[:2] = base, base + span
    weight = step - 0.5 if kind == "weight" else step
    if kind == "weight":
        count[PHASE_CHUNK - 1 :: PHASE_CHUNK] = 1
        count[-1] = 1
    if kind == "fraction":
        chunks = -(-dim // PHASE_CHUNK)
        middle = st.integers(PHASE_CHUNK, (chunks - 1) * PHASE_CHUNK - 1)
        at = draw(middle if chunks >= 3 and draw(st.booleans()) else st.just(dim - 1))
        count[at] = 0
        objective[at] = base + draw(st.sampled_from([0.5, 2.0**-30]))
    energy = objective + weight * count
    if kind in ("table", "wide"):
        energy = energy.astype(np.int32)
    diag = CostDiagonal(layout, energy)
    assert diag.energy.dtype == (np.int32 if kind in ("table", "wide") else np.float64)
    gathered = dim if kind == "table" else 0
    return diag, draw(st.sampled_from([0.0, -0.0]) | angles), kind, gathered


@settings(deadline=None)
@given(case=phase_cases())
def test_phase_matches_direct_reference_bitwise(case):
    """int32 energies of few levels gather from the level table, any others
    fill each chunk directly, and either way give the direct reference's
    bits."""
    diag, gamma, kind, gathered = case
    expected = reference_phase(diag, gamma).view(np.uint64)
    out = np.full(diag.layout.D, np.nan, dtype=np.complex128)
    with mock.patch.object(np, "take", wraps=np.take) as take:
        assert diag.phase(gamma, out) is out
    assert np.array_equal(out.view(np.uint64), expected)
    assert sum(call.kwargs["out"].size for call in take.call_args_list) == gathered, kind


@pytest.mark.parametrize("n, m", [(2, 14), (2, 15), (4, 8), (3, 10)])
def test_mixer_matches_reference_across_the_elision_threshold(n, m):
    """Block means of D/n = 16384 amplitudes (256 KiB) or more are where
    numpy scaled the former mixer's temporary mean in place; on both sides
    of that size the circuit must match the factorised reference bit for
    bit, alone and after a column that built its phase into the amplitudes."""
    layout = BlockLayout(n, m)
    rng = np.random.default_rng(n * 100 + m)
    diag = CostDiagonal(layout, rng.integers(0, 50, layout.D).astype(float))
    col = Column(0.7, (0.4, 2.1), 2)
    expected = [reference_circuit(diag, [(0.7, b)] * 2) for b in col.betas]
    for got in (
        amplitudes_of(run_circuit(diag, [col])),
        amplitudes_of(run_circuit(diag, [Column(1.3, (0.9,)), col]))[1:],
    ):
        assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))


@pytest.mark.parametrize(
    "n, m, block_bytes, chunk",
    [
        # the constants as shipped: 2 leading axes, blocks of 8**5 and 5**7
        # amplitudes; 4096 divides no column count of 5**9
        (8, 7, None, None),
        (5, 9, None, None),
        # 3 or 4 leading axes in chunks of at most 7 to 100 labels, none
        # dividing the columns, and blocks of 3 to 8 axes
        (5, 7, 16 * 5**4, 37),
        (3, 9, 16 * 3**5, 100),
        (4, 6, 16 * 4**3, 7),
        (2, 12, 16 * 2**8, 48),
    ],
    ids=["8-7", "5-9", "5-7-chunk37", "3-9-chunk100", "4-6-chunk7", "2-12-chunk48"],
)
def test_blocked_mixer_matches_unblocked_bitwise(monkeypatch, n, m, block_bytes, chunk):
    """The leading axes run in column chunks, the later ones block by block;
    every amplitude must come out as when each axis runs over the whole
    state."""
    layout = BlockLayout(n, m)
    rng = np.random.default_rng(n * 100 + m)
    amps = rng.normal(size=layout.D) + 1j * rng.normal(size=layout.D)
    amps /= np.linalg.norm(amps)
    for name, value in (("_BLOCK_BYTES", block_bytes), ("_CHUNK", chunk)):
        if value is not None:
            monkeypatch.setattr(layers, name, value)
    assert layers._mixer_plan(layout)[0] >= 2
    blocked = apply_mixer(EncodedState(layout, amps.copy()), 0.9).amplitudes
    monkeypatch.setattr(layers, "_BLOCK_BYTES", 16 * layout.D)
    assert layers._mixer_plan(layout) == (0, layout.D // n)
    unblocked = apply_mixer(EncodedState(layout, amps), 0.9).amplitudes
    assert np.array_equal(blocked.view(np.uint64), unblocked.view(np.uint64))


def test_mixer_buffers_are_block_sized():
    # no D-vector beside the amplitudes, up to the dimension cap
    for n, m in [(2, 25), (5, 10), (7, 7), (8, 8), (64, 4), (2**25, 1)]:
        layout = BlockLayout(n, m)
        assert 16 * layers._mixer_plan(layout)[1] == layers.mixer_bytes(layout) <= layers._BLOCK_BYTES


@settings(deadline=None)
@given(
    layout=layouts(max_dim=1024),  # the dense D x D matrix is 16 MB at D = 1024
    beta=angles,
    seed=st.integers(0, 2**32 - 1),
)
def test_rank1_mixer_matches_dense_kronecker_product(layout, beta, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.D) + 1j * rng.normal(size=layout.D)
    amps /= np.linalg.norm(amps)
    dense = np.ones((1, 1), dtype=np.complex128)
    for _ in range(layout.m):  # block 0 is the leftmost factor
        dense = np.kron(dense, mixer_block_matrix(layout.n, beta))
    expected = dense @ amps
    out = apply_mixer(EncodedState(layout, amps), beta)
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


@settings(deadline=None)
@given(
    layout=layouts(),
    beta=angles,
    seed=st.integers(0, 2**32 - 1),
)
# the layouts of the elision-threshold test, n = 2, m = 15 among them
@example(layout=BlockLayout(2, 14), beta=0.4, seed=1)
@example(layout=BlockLayout(2, 15), beta=4.2, seed=2)
@example(layout=BlockLayout(4, 8), beta=-1.3, seed=3)
@example(layout=BlockLayout(3, 10), beta=0.7, seed=4)
def test_mixer_matches_former_mixer(layout, beta, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.D) + 1j * rng.normal(size=layout.D)
    amps /= np.linalg.norm(amps)
    expected = former_mixer(layout, amps, beta)
    out = apply_mixer(EncodedState(layout, amps.copy()), beta)
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-13


# Every solve's layout has n = m blocks under the dimension cap, so at most
# 8.  The closed form's rounding grows with the blocks: its terms reach
# about 3**m times the amplitudes they cancel to, near beta = pi.
CLOSED_FORM_MAX_M = 8


@st.composite
def closed_form_cases(draw):
    """A random diagonal, whose phase takes either path, on a layout of at
    most CLOSED_FORM_MAX_M blocks, two depth-1 columns of 1-4 betas, signed
    zeros among the angles, and every label in a random order.

    "table": int32 energies of at most D // 16 levels, gathered from the
    level table; "wide": int32 energies of more levels, and "float":
    float64 energies with a fraction, both filled directly.
    """
    layout = draw(layouts())
    assume(layout.m <= CLOSED_FORM_MAX_M)
    dim = layout.D
    kind = draw(st.sampled_from(["table", "wide", "float"]))
    assume(kind != "table" or dim >= 16)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = dim // 16 if kind == "table" else dim // 16 + 1 + draw(st.integers(0, 100))
    energy = rng.integers(0, levels, dim)
    energy[:2] = 0, levels - 1
    if kind == "float":
        energy = energy + 0.25
    diag = CostDiagonal(layout, energy.astype(np.float64 if kind == "float" else np.int32))
    table = diag.energy.dtype == np.int32 and energy.max() - energy.min() + 1 <= dim // 16
    assert table == (kind == "table")
    signed = st.sampled_from([0.0, -0.0]) | angles
    columns = [
        Column(draw(signed), tuple(draw(st.lists(signed, min_size=1, max_size=4))))
        for _ in range(2)
    ]
    return diag, columns, rng.permutation(dim)


@settings(deadline=None)
@given(case=closed_form_cases())
def test_closed_form_matches_run_circuit_at_every_label(case):
    """The closed form, gathered at every label, against the circuit of each
    point, to 1e-12 of the largest amplitude; the second column runs in the
    buffers of the first."""
    diag, columns, flats = case
    closed = tour_amplitudes(diag, columns, flats)
    for col, amps in zip(columns, closed, strict=True):
        assert amps.shape == (len(col.betas), diag.layout.D)
        for row, state in zip(amps, run_circuit(diag, [col]), strict=True):
            want = state.amplitudes[flats]
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n_cities", range(4, 9))
def test_closed_form_matches_run_circuit_on_the_default_grid(n_cities):
    """The default grid's tour amplitudes, from integer distances (int32
    energies, filled from the level table at n_cities >= 6)."""
    matrix = random_symmetric_instance(n_cities, 40 + n_cities, 1.0, 100.0).round()
    diag = build_cost_diagonal(anchor(TspInstance("g", matrix)))
    flats = brute_force_optimum(diag).flats
    columns = square_grid(n_cities + 1)
    closed = itertools.chain.from_iterable(tour_amplitudes(diag, columns, flats))
    for row, state in zip(closed, run_circuit(diag, columns), strict=True):
        want = state.amplitudes[flats]
        assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()


@st.composite
def diagonal_cases(draw):
    """An anchored instance (integer or not, symmetric or not) with a penalty weight.

    Non-integer distances make float addition order visible: a label summed
    in another order than start edge, inner edges, return edge differs in
    the last bits.
    """
    n_cities = draw(st.integers(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dist = rng.uniform(0.0, draw(st.sampled_from([1.0, 100.0, 1e6])), (n_cities, n_cities))
    if draw(st.booleans()):
        dist = (dist + dist.T) / 2.0
    if draw(st.booleans()):
        dist = np.rint(dist)
    np.fill_diagonal(dist, 0.0)
    start = draw(st.integers(0, n_cities - 1))
    weight = draw(st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False))
    return anchor(TspInstance("d", dist), start, weight)


@settings(deadline=None)
@given(enc=diagonal_cases())
def test_cost_diagonal_matches_symbol_column_reference(enc):
    diag = build_cost_diagonal(enc)
    objective, count = reference_cost_diagonal(enc)
    assert np.array_equal(diag.energy, objective + enc.penalty_weight * count.astype(np.float64))


@settings(deadline=None)
@given(enc=diagonal_cases())
def test_feasible_set_matches_the_penalty_count_scan(enc):
    # the tours are the labels of reference count 0, sorted by (cost, flat)
    feasible = brute_force_optimum(build_cost_diagonal(enc))
    objective, count = reference_cost_diagonal(enc)
    tours = np.flatnonzero(count == 0)
    order = np.lexsort((tours, objective[tours]))
    assert np.array_equal(feasible.flats, tours[order])
    assert np.array_equal(feasible.costs, objective[tours[order]])


@st.composite
def integral_cases(draw):
    """An anchored instance with integer distances (symmetric or not) and an
    integral penalty weight, or None for the default weight."""
    n_cities = draw(st.integers(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([3, 100, 10**6]))
    dist = rng.integers(0, top + 1, (n_cities, n_cities)).astype(np.float64)
    if draw(st.booleans()):
        dist = np.triu(dist) + np.triu(dist, 1).T
    np.fill_diagonal(dist, 0.0)
    start = draw(st.integers(0, n_cities - 1))
    weight = draw(st.none() | st.integers(1, 10**4).map(float))
    return anchor(TspInstance("i", dist), start, weight)


@settings(deadline=None)
@given(enc=integral_cases(), gamma=angles)
def test_integral_diagonal_is_int32_with_the_float_bits(enc, gamma):
    """Integer distances and weight give int32 energies equal to the reference
    value for value, whose phase has the bits of the float64 energies'."""
    diag = build_cost_diagonal(enc)
    assert diag.energy.dtype == np.int32
    objective, count = reference_cost_diagonal(enc)
    energy = objective + enc.penalty_weight * count.astype(np.float64)
    assert np.array_equal(diag.energy, energy)
    expected = reference_phase(CostDiagonal(enc.layout, energy), gamma)
    assert np.array_equal(reference_phase(diag, gamma).view(np.uint64), expected.view(np.uint64))
    out = np.empty(enc.layout.D, dtype=np.complex128)
    assert np.array_equal(diag.phase(gamma, out).view(np.uint64), expected.view(np.uint64))
