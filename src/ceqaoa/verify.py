"""Named verification suites behind the `ceqaoa verify` command.

Each check pins its tolerance here; the acceptance test module runs the
same functions, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, qubitref
from .encoded import BlockLayout, EncodedState, uniform_initial_state
from .hamiltonian import CostDiagonal
from .layers import Column, apply_mixer, mixer_block_matrix, mixer_spectrum

@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: str
    target: str


def _check(suite: str, name: str, passed: bool, measured, target) -> CheckResult:
    return CheckResult(suite, name, bool(passed), str(measured), str(target))


def random_diagonal(layout: BlockLayout, seed: int) -> CostDiagonal:
    """Synthetic diagonal for design checks on layouts with m != n.

    Energies are uniform on [0, 1); the penalty weight is nominal.
    """
    rng = np.random.default_rng(seed)
    return CostDiagonal(layout, rng.random(layout.D), 1.0)


def check_encoder() -> list[CheckResult]:
    """Prepared block state vs the uniform one-excitation target, n = 2..10."""
    out = []
    for n in range(2, 11):
        ops = qubitref.one_hot_block_prepare(n)
        state = qubitref.run_gates(n, ops)
        target = np.zeros(1 << n, dtype=np.complex128)
        for k in range(n):
            target[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
        fid = float(abs(np.vdot(target, state.amplitudes)) ** 2)
        count = qubitref.count_two_qubit_gates(ops)
        out.append(
            _check("encoder", f"w_state_fidelity_n{n}", fid >= 1 - 1e-10, f"{fid:.15f}", ">= 1-1e-10")
        )
        out.append(
            _check("encoder", f"two_qubit_count_n{n}", count == n - 1, count, n - 1)
        )
    return out


def check_encoder_variants() -> list[CheckResult]:
    """XY-rotation and controlled-RY encoders agree up to a global phase, n <= 8."""
    out = []
    for n in range(2, 9):
        a = qubitref.run_gates(n, qubitref.one_hot_block_prepare(n, "xyrot"))
        b = qubitref.run_gates(n, qubitref.one_hot_block_prepare(n, "cry"))
        fid = qubitref.fidelity(a, b)
        out.append(
            _check("encoder", f"variant_equivalence_n{n}", fid >= 1 - 1e-10, f"{fid:.15f}", ">= 1-1e-10")
        )
    return out


def check_cross_representation() -> list[CheckResult]:
    """Dense 9-qubit preparation projects onto the uniform encoded state (n=m=3)."""
    layout = BlockLayout(3, 3)
    state = qubitref.run_gates(9, qubitref.multi_block_prepare(3, 3))
    encoded, leaked = qubitref.project_to_encoded(state, layout)
    uniform = uniform_initial_state(layout)
    err = float(np.max(np.abs(encoded.amplitudes - uniform.amplitudes)))
    return [
        _check("encoder", "projection_amplitude_error", err < 1e-10, f"{err:.3e}", "< 1e-10"),
        _check("encoder", "projection_leaked_mass", leaked < 1e-12, f"{leaked:.3e}", "< 1e-12"),
    ]


def check_mixer_spectrum() -> list[CheckResult]:
    """Adjacency eigenvalues {n-1, -1 x (n-1)} (n times the mixer's) and unit gap, n = 2..16."""
    out = []
    for n in range(2, 17):
        spectrum = mixer_spectrum(n)
        expected = np.array([-1.0] * (n - 1) + [float(n - 1)])
        eig_err = float(np.max(np.abs(n * spectrum.eigenvalues - expected)))
        out.append(
            _check("mixer", f"raw_spectrum_n{n}", eig_err < 1e-9, f"{eig_err:.3e}", "< 1e-9")
        )
        gap_err = abs(spectrum.gap - 1.0)
        out.append(
            _check("mixer", f"normalized_gap_n{n}", gap_err < 1e-12, f"{gap_err:.3e}", "< 1e-12")
        )
    return out


def check_mixer_unitarity(seed: int = 7) -> list[CheckResult]:
    """Closed-form block matrix is unitary for n <= 16 over 100 random angles."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(2, 17):
        for beta in rng.uniform(-2 * math.pi, 2 * math.pi, 100):
            u = mixer_block_matrix(n, n * beta)
            worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(n)))))
    return [_check("mixer", "block_unitarity", worst < 1e-12, f"{worst:.3e}", "< 1e-12")]


def check_mixer_closed_form(seed: int = 11) -> list[CheckResult]:
    """Closed form at n * beta vs the eigendecomposed exp(-i beta adjacency), n <= 8."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(2, 9):
        adj = np.ones((n, n)) - np.eye(n)
        evals, evecs = np.linalg.eigh(adj)
        for beta in rng.uniform(-math.pi, math.pi, 20):
            dense = (evecs * np.exp(-1j * beta * evals)) @ evecs.conj().T
            u = mixer_block_matrix(n, n * beta)
            worst = max(worst, float(np.max(np.abs(dense - u))))
    return [_check("mixer", "closed_form_vs_expm", worst < 1e-10, f"{worst:.3e}", "< 1e-10")]


def check_mixer_gates(seed: int = 13) -> list[CheckResult]:
    """Trotterised gate sweeps approach the encoded mixer with first-order error, n = 3, m = 2.

    k sweeps of block_xy_mixer_gates at beta / k on the 6-qubit register,
    started from a random one-hot state, against apply_mixer at 2 n beta
    (the two-local identity carries the factor 2, the unit-gap mixer the
    factor n): the sweeps stay in the one-hot sector, and the error halves
    as k doubles.
    """
    n, m, beta = 3, 2, 0.7
    layout, q = BlockLayout(n, m), n * m
    rng = np.random.default_rng(seed)
    start = rng.normal(size=layout.D) + 1j * rng.normal(size=layout.D)
    start /= np.linalg.norm(start)
    register = np.zeros(1 << q, dtype=np.complex128)
    register[qubitref.encoded_basis_indices(layout)] = start
    initial = EncodedState(BlockLayout(2, q), register)
    exact = apply_mixer(EncodedState(layout, start), 2 * beta * n).amplitudes
    errors, leaked = [], 0.0
    for k in (8, 16, 32):
        sweeps = qubitref.block_xy_mixer_gates(n, m, beta / k) * k
        approx, leak = qubitref.project_to_encoded(qubitref.run_gates(q, sweeps, initial), layout)
        errors.append(float(np.linalg.norm(approx.amplitudes - exact)))
        leaked = max(leaked, leak)
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    return [
        _check("mixer", "gate_sweep_leakage", leaked < 1e-10, f"{leaked:.3e}", "< 1e-10"),
        _check(
            "mixer",
            "gate_sweep_first_order",
            all(0.4 < r < 0.6 for r in ratios),
            "error ratios " + ", ".join(f"{r:.3f}" for r in ratios) + f" (k=32: {errors[-1]:.3e})",
            "each in (0.4, 0.6) as k doubles",
        ),
    ]


def check_ergodicity() -> list[CheckResult]:
    """Quadrature-averaged transition matrix vs closed form, n = 2..8, K = 4096."""
    out = []
    for n in range(2, 9):
        quad = analysis.angle_averaged_transition(n, 4096)
        err = float(np.max(np.abs(quad - analysis.transition_closed_form(n))))
        out.append(
            _check("ergodicity", f"closed_form_n{n}", err < 1e-8, f"{err:.3e}", "< 1e-8")
        )
        row = float(np.max(np.abs(quad.sum(axis=1) - 1.0)))
        col = float(np.max(np.abs(quad.sum(axis=0) - 1.0)))
        out.append(
            _check(
                "ergodicity",
                f"doubly_stochastic_n{n}",
                max(row, col) < 1e-12,
                f"{max(row, col):.3e}",
                "< 1e-12",
            )
        )
    return out


def _random_columns(count: int, seed: int) -> list[Column]:
    rng = np.random.default_rng(seed)
    return [
        Column(float(g), (float(b),))
        for g, b in zip(rng.uniform(0, math.pi, count), rng.uniform(0, math.pi, count))
    ]


def check_one_design() -> list[CheckResult]:
    """Exhaustive twirl equals 1/D at n=3, m=2; Monte Carlo agrees at n=4, m=3."""
    out = []
    layout = BlockLayout(3, 2)
    diag = random_diagonal(layout, seed=101)
    target = (1, 2)
    worst = 0.0
    for col in _random_columns(10, seed=202):
        est = analysis.twirl_average(diag, col, target, mode="exhaustive")
        worst = max(worst, abs(est.value - 1.0 / layout.D))
    out.append(
        _check("one_design", "exhaustive_twirl_36_perms", worst < 1e-12, f"{worst:.3e}", "< 1e-12")
    )

    layout = BlockLayout(4, 3)
    diag = random_diagonal(layout, seed=303)
    col = _random_columns(1, seed=404)[0]
    est = analysis.twirl_average(
        diag, col, (0, 1, 2), mode="monte_carlo", n_samples=100_000, seed=505
    )
    dev = abs(est.value - 1.0 / layout.D)
    out.append(
        _check(
            "one_design",
            "monte_carlo_twirl_n4_m3",
            dev <= 3 * est.std_error,
            f"dev={dev:.3e} se={est.std_error:.3e}",
            "<= 3 std errors of 1/64",
        )
    )
    return out


def check_existence_bound() -> list[CheckResult]:
    """Best permutation overlap >= 1/D for every tested column at n=3, m in {2, 3}."""
    out = []
    for m, seed in ((2, 606), (3, 707)):
        layout = BlockLayout(3, m)
        diag = random_diagonal(layout, seed=seed)
        target = tuple(range(m)) if m <= 3 else (0,) * m
        columns = _random_columns(10, seed=seed + 1) + [Column(0.0, (0.0,))]
        ok = True
        worst = math.inf
        slack = 1.0 - 1e-12  # absorbs one-ulp rounding at exactly degenerate points
        for col in columns:
            _, overlap = analysis.find_good_permutation(diag, col, target)
            twirl = analysis.twirl_average(diag, col, target, mode="exhaustive").value
            worst = min(worst, overlap)
            ok = ok and overlap >= slack / layout.D and overlap >= slack * twirl
        out.append(
            _check(
                "one_design",
                f"existence_bound_n3_m{m}",
                ok,
                f"min overlap {worst:.6f}",
                f">= 1/{layout.D}",
            )
        )
    return out


def check_two_design_moments() -> list[CheckResult]:
    """Random in-block circuits reach the Haar moments, n in {3, 4, 5}."""
    out = []
    for n in (3, 4, 5):
        rep = analysis.block_design_moments(n, pulse_layers=10 * n * n, trials=20_000, seed=n)
        mean_rel = abs(rep.mean_overlap - rep.haar_mean) / rep.haar_mean
        second_rel = abs(rep.second_moment - rep.haar_second) / rep.haar_second
        out.append(
            _check(
                "two_design",
                f"first_moment_n{n}",
                mean_rel < 0.05,
                f"{rep.mean_overlap:.5f} (rel err {mean_rel:.3f})",
                f"{rep.haar_mean:.5f} within 5%",
            )
        )
        out.append(
            _check(
                "two_design",
                f"second_moment_n{n}",
                second_rel < 0.10,
                f"{rep.second_moment:.5f} (rel err {second_rel:.3f})",
                f"{rep.haar_second:.5f} within 10%",
            )
        )
    return out


def check_lie_dimension() -> list[CheckResult]:
    """Lie closure reaches dimension n**2 - 1 for n in {3, 4, 5}."""
    out = []
    for n in (3, 4, 5):
        dim = analysis.lie_algebra_dimension(n, list(range(n)))
        out.append(_check("lie", f"closure_dimension_n{n}", dim == n * n - 1, dim, n * n - 1))
    return out


def check_baselines() -> list[CheckResult]:
    """Raw-bitstring baseline exact small case and log10 separations, n <= 12."""
    out = []
    rep = analysis.classical_baselines(3)
    out.append(
        _check(
            "baselines",
            "model_b_exact_n3",
            abs(rep.model_b_trials - 513.0 / 7.0) < 1e-9,
            f"{rep.model_b_trials:.6f}",
            f"{513/7:.6f}",
        )
    )
    out.append(
        _check(
            "baselines",
            "model_a_n3",
            abs(rep.model_a_trials - 4.5) < 1e-12,
            rep.model_a_trials,
            4.5,
        )
    )
    worst = 0.0
    for n in range(2, 13):
        rep = analysis.classical_baselines(n)
        direct = n * (n * math.log10(2.0) - math.log10(n))
        worst = max(worst, abs(rep.log10_separation - direct))
    out.append(
        _check("baselines", "log10_separation_n_le_12", worst < 1e-9, f"{worst:.3e}", "< 1e-9")
    )
    return out


SUITES = {
    "encoder": lambda: check_encoder() + check_encoder_variants() + check_cross_representation(),
    "mixer": lambda: (
        check_mixer_spectrum()
        + check_mixer_unitarity()
        + check_mixer_closed_form()
        + check_mixer_gates()
    ),
    "ergodicity": check_ergodicity,
    "one_design": lambda: check_one_design() + check_existence_bound(),
    "two_design": check_two_design_moments,
    "lie": check_lie_dimension,
    "baselines": check_baselines,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> list[CheckResult]:
    """The named suite's results, or every suite's for "all"; ValueError for any other name."""
    if name == "all":
        return [result for suite in SUITES.values() for result in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    return SUITES[name]()


def format_results(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.suite}:{r.name:<{width}}  measured={r.measured}  target={r.target}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
