"""Command line front end: solve, verify, histogram, baselines.

Exit codes: 0 success, 1 usage or input error (a flag argparse refuses,
missing file, unknown suite, failed verify), 2 solve finished without any
feasible sample, 3 encoded dimension over the amplitude cap, or an
estimated peak memory over the memory available.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import classical_baselines
from .encoded import BlockLayout, DimensionCapError, indices_to_labels
from .hamiltonian import (
    anchor,
    brute_force_optimum,
    build_cost_diagonal,
    energy_dtype,
    tour_cities,
)
from .instances import parse_instance
from .layers import Column, run_circuit
from .phqc import (
    POINT_BYTES,
    default_grid,
    default_shots,
    pair_columns,
    peak_bytes,
    phqc_solve,
    square_grid,
)
from .verify import SUITE_NAMES, format_results, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_FEASIBLE = 2
EXIT_DIM_CAP = 3

SCHEMA_VERSION = 1
# rows formatted at a time: memory stays bounded for any D, and each of a
# chunk's buffers (the joined text reaches 64 kB at n = 9) stays under the
# mmap threshold (MMAP_THRESHOLD_BYTES), so chunks reuse heap memory
# instead of mapping every buffer afresh
HISTOGRAM_CHUNK = 1 << 10
# per row of a chunk: its Python ints, floats and row strings and the joined
# text, measured with tracemalloc at 297 bytes (n = 7), 341 (n = 8) and 353 (n = 9)
HISTOGRAM_ROW_BYTES = 384


def parse_grid_spec(spec: str, n_cities: int, depth: int) -> tuple[list[Column], dict]:
    """Grid flag: 'n+1' (default), 'NxN', or 'list:g,b;g,b;...' explicit pairs.

    Returns the grid's columns at the given depth and the grid as the
    result JSON records it: its gammas and betas, or for list mode its
    pairs.  A spec of none of these forms raises ValueError naming the flag,
    and an NxN grid whose points alone (POINT_BYTES each) exceed the
    available memory raises DimensionCapError before its angles are built.
    """
    bad = ValueError(f"bad --grid value {spec!r} (want n+1, NxN or list:g,b;...)")
    text = spec.strip()
    if text.startswith("list:"):
        pairs = []
        for chunk in text[5:].split(";"):
            if not chunk.strip():
                continue
            try:
                gamma, beta = (float(v) for v in chunk.split(","))
            except ValueError:
                raise bad from None
            pairs.append((gamma, beta))
        if not pairs:
            raise bad
        try:
            columns = pair_columns(pairs, depth)
        except ValueError as exc:  # a non-finite angle
            raise ValueError(f"bad --grid value {spec!r} ({exc})") from None
        return columns, {"pairs": [[col.gamma, beta] for col in columns for beta in col.betas]}
    if text == "n+1":
        columns = default_grid(n_cities, depth)
    else:
        try:
            rows, cols = (int(v) for v in text.lower().split("x"))
        except ValueError:
            raise bad from None
        if rows != cols:
            raise ValueError(f"only square grids are supported, got {spec!r}")
        if rows < 2:
            raise ValueError(f"bad --grid value {spec!r} (need at least 2 points per axis)")
        check_memory(rows * rows * POINT_BYTES)
        columns = square_grid(rows, depth)
    return columns, {"gammas": [col.gamma for col in columns], "betas": list(columns[0].betas)}


def _proc_kb(path: str, key: str) -> int | None:
    """The number on a "key: N kB" line of a /proc file; None when it cannot be read."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def available_memory() -> int | None:
    """MemAvailable in bytes; None when /proc/meminfo cannot be read."""
    kb = _proc_kb("/proc/meminfo", "MemAvailable")
    return None if kb is None else kb * 1024


def check_memory(estimate: int) -> None:
    """Raise DimensionCapError when the estimated peak exceeds the available memory."""
    avail = available_memory()
    if avail is not None and estimate > avail:
        raise DimensionCapError(
            f"estimated peak memory {estimate / 2**20:.0f} MB exceeds the "
            f"{avail / 2**20:.0f} MB available (MemAvailable)"
        )


M_MMAP_THRESHOLD = -3  # glibc's mallopt parameter number (malloc.h)
MMAP_THRESHOLD_BYTES = 128 * 1024  # glibc's initial threshold


def pin_mmap_threshold() -> None:
    """Give every allocation of 128 KiB or more its own mapping (glibc; a no-op elsewhere).

    glibc raises its mmap threshold to the size of each large block freed,
    after which blocks up to that size come from the brk heap, and which
    freed ones stay resident depends on the small objects allocated between
    them.  Setting the threshold turns that adjustment off: a freed buffer
    goes back to the system, and the peak follows the buffers alive at once.
    main pins it for every command.  A solve allocates every D-sized
    buffer once (layers.run_circuit), but the pin still lowers the peak at
    n = 9: on a 2-core VM, one grid point (D = 16.8M) peaks at
    358.0-358.1 MB with it and 363.5-363.6 MB without (2 instances), while
    default-grid solves at n = 8 peak at 66.2-66.4 MB either way (3
    instances).  histogram's row buffers stay under the threshold
    (HISTOGRAM_CHUNK), so it peaks at 55.3 MB with the pin and 56.1 MB
    without at n = 8 (2 instances).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def peak_rss_mb() -> float:
    """This process's peak RSS in MB: VmHWM from /proc/self/status, else ru_maxrss.

    VmHWM starts afresh at exec; ru_maxrss keeps a spawning parent's peak.
    """
    kb = _proc_kb("/proc/self/status", "VmHWM")
    if kb is None:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kB on Linux
    return kb / 1024.0


def write_text_atomic(path: Path, text) -> None:
    """Write a string, or an iterable of string chunks, through a .tmp file and a rename.

    When the write or the rename fails, the .tmp file is removed.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_json_atomic(path: Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", help="instance file (.json or TSPLIB)")
    p.add_argument("--start-city", type=int, default=0, help="anchored start city (default 0)")
    p.add_argument(
        "--euclid-exact",
        action="store_true",
        help="keep exact EUC_2D distances instead of nearest-integer rounding",
    )
    p.add_argument(
        "--lambda",
        dest="penalty_weight",
        type=float,
        default=None,
        help="penalty weight (default n_cities * max distance)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--depth", type=int, default=1, help="number of layers p (default 1)")
    p.add_argument("--shots", type=int, default=None, help="shots per grid point (default 10 n^3)")


def _load_anchored(args):
    """The instance and its anchoring; the flags are checked here, so each error names its flag."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {args.depth}")
    if args.penalty_weight is not None and not args.penalty_weight > 0:
        raise ValueError(f"--lambda must be positive, got {args.penalty_weight}")
    inst = parse_instance(args.instance, euclidean_rounding=not args.euclid_exact)
    if not 0 <= args.start_city < inst.n_cities:
        raise ValueError(f"--start-city must lie in [0, {inst.n_cities}), got {args.start_city}")
    return inst, anchor(inst, args.start_city)


def cmd_solve(args) -> int:
    out = Path(args.out)
    hist_path = Path(args.hist_out) if args.hist_out else out.with_suffix(".costs.csv")
    if out.resolve() == hist_path.resolve():
        raise ValueError(f"--out and --hist-out name the same file {str(out)!r}")
    inst, enc = _load_anchored(args)
    columns, grid_json = parse_grid_spec(args.grid, inst.n_cities, args.depth)
    shots = args.shots if args.shots is not None else default_shots(inst.n_cities)
    if shots < 1:
        raise ValueError(f"--shots must be >= 1, got {shots}")
    estimate = peak_bytes(enc.layout, columns, shots, energy_dtype(enc, args.penalty_weight))
    check_memory(estimate)
    t0 = time.perf_counter()
    result = phqc_solve(
        enc,
        columns,
        shots_per_point=shots,
        master_seed=args.seed,
        penalty_weight=args.penalty_weight,
    )
    wall = time.perf_counter() - t0
    points = result.points
    best = None if result.winner is None else points[result.winner]

    payload = {
        "schema": SCHEMA_VERSION,
        "instance": inst.name,
        "n_cities": inst.n_cities,
        "start_city": enc.start_city,
        "depth": args.depth,
        "shots_per_point": shots,
        "normalization": "over_n",  # the unit-gap mixer, the only one
        "penalty_weight": result.penalty_weight,
        "seed": args.seed,
        "grid": grid_json,
        "best_tour": None if best is None else list(tour_cities(enc, best.scored.best_flat)),
        "best_cost": None if best is None else best.scored.best_cost,
        "best_angles": None if best is None else [best.gamma, best.beta],
        "p_opt_exact": None if best is None else best.scored.p_opt,
        "degenerate_optima": None if best is None else result.degeneracy,
        "feasible_fraction": sum(p.scored.feasible_shots for p in points) / (shots * len(points)),
        "grid_table": [
            {
                "grid_index": i,
                "gamma": p.gamma,
                "beta": p.beta,
                "feasible_fraction": p.scored.feasible_shots / shots,
                "min_sampled_cost": p.scored.best_cost,
            }
            for i, p in enumerate(points)
        ],
        "metadata": {
            "wall_time_s": wall,
            "created_unix": time.time(),
            "timings": result.timings,
            "peak_rss_mb": peak_rss_mb(),
            "peak_estimate_mb": estimate / 2**20,
        },
    }
    rows = (
        f"{i},{p.gamma!r},{p.beta!r},{cost!r},{count}\n"
        for i, p in enumerate(points)
        for cost, count in p.scored.cost_counts
    )
    # the CSV goes first and is removed when the JSON cannot be written, so
    # a failed solve leaves no result behind
    write_text_atomic(hist_path, itertools.chain(["grid_index,gamma,beta,cost,count\n"], rows))
    try:
        write_json_atomic(out, payload)
    except BaseException:
        with contextlib.suppress(OSError):
            hist_path.unlink()
        raise

    if best is None:
        print(f"no feasible sample in {shots} shots x {len(points)} grid points")
        return EXIT_NO_FEASIBLE
    print(
        f"best cost {best.scored.best_cost} at angles {(best.gamma, best.beta)} "
        f"(tour {payload['best_tour']}); result in {out}"
    )
    return EXIT_OK


def _half_label_strings(n: int, k: int, city_of_symbol) -> tuple[list[str], list[str]]:
    """'-'-joined symbols and cities of every k-symbol label, in flat order (k >= 1)."""
    labels = indices_to_labels(BlockLayout(n, k), np.arange(n**k))
    cities = np.asarray(city_of_symbol)[labels]
    return (
        ["-".join(map(str, row)) for row in labels.tolist()],
        ["-".join(map(str, row)) for row in cities.tolist()],
    )


def cmd_histogram(args) -> int:
    inst, enc = _load_anchored(args)
    try:
        gamma_s, beta_s = args.angles.split(",")
        gamma, beta = float(gamma_s), float(beta_s)
    except ValueError:
        raise ValueError(f"bad --angles value {args.angles!r} (want gamma,beta)") from None
    shots = args.shots if args.shots is not None else default_shots(inst.n_cities)
    if shots < 0:
        raise ValueError(f"--shots must be >= 0, got {shots}")
    try:
        columns = pair_columns([(gamma, beta)], args.depth)
    except ValueError as exc:  # a non-finite angle
        raise ValueError(f"bad --angles value {args.angles!r} ({exc})") from None
    layout = enc.layout
    # the probabilities' own float D-vector, then one chunk of rows.  The
    # sampler's normalised copy and its cumulative sums (two float
    # D-vectors) and the rows' two byte masks come after the diagonal and
    # the amplitudes are freed, and fit in the bytes those held.
    check_memory(
        peak_bytes(layout, columns, shots, energy_dtype(enc, args.penalty_weight))
        + 8 * layout.D
        + min(layout.D, HISTOGRAM_CHUNK) * HISTOGRAM_ROW_BYTES
    )
    diag = build_cost_diagonal(enc, args.penalty_weight)
    feasible = brute_force_optimum(diag)
    (state,) = run_circuit(diag, columns)
    probs = state.probabilities()
    del diag, state  # the rows need only the probabilities and the counts

    rng = np.random.default_rng(args.seed)
    draws = rng.choice(layout.D, shots, p=probs / probs.sum())
    drawn, counts = np.unique(draws, return_counts=True)
    unsampled = np.ones(layout.D, dtype=bool)
    unsampled[drawn] = False
    # most sampled first; the stable sort keeps equal counts in flat order
    by_count = np.argsort(-counts, kind="stable")
    drawn, counts = drawn[by_count], counts[by_count]
    is_optimal = np.zeros(layout.D, dtype=np.int8)
    is_optimal[feasible.flats[: feasible.degeneracy]] = 1
    # A flat index splits into a high half of m // 2 symbols and a low half
    # of the rest; each row joins precomputed '-'-joined strings of the two.
    n, m, start = layout.n, layout.m, enc.start_city
    low_digits = m - m // 2
    hi_syms, hi_cities = _half_label_strings(n, m // 2, enc.city_of_symbol)
    lo_syms, lo_cities = _half_label_strings(n, low_digits, enc.city_of_symbol)

    def rows(flats: np.ndarray, counts: np.ndarray) -> str:
        high, low = np.divmod(flats, n**low_digits)
        fields = zip(
            high.tolist(),
            low.tolist(),
            counts.tolist(),
            probs[flats].tolist(),
            is_optimal[flats].tolist(),
        )
        return "".join(
            f"{hi_syms[h]}-{lo_syms[w]},{start}-{hi_cities[h]}-{lo_cities[w]}-{start},"
            f"{cnt},{p!r},{opt}\n"
            for h, w, cnt, p, opt in fields
        )

    def chunks():
        yield f"# uniform_probability,{1.0 / layout.D!r}\n"
        yield "label,city_sequence,count,exact_probability,is_optimal\n"
        for lo in range(0, drawn.size, HISTOGRAM_CHUNK):
            yield rows(drawn[lo : lo + HISTOGRAM_CHUNK], counts[lo : lo + HISTOGRAM_CHUNK])
        # then every label never drawn, in flat order
        for lo in range(0, layout.D, HISTOGRAM_CHUNK):
            flats = lo + np.flatnonzero(unsampled[lo : lo + HISTOGRAM_CHUNK])
            yield rows(flats, np.zeros_like(flats))

    write_text_atomic(Path(args.out), chunks())
    print(f"wrote {layout.D} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    print(format_results(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_USAGE


def cmd_baselines(args) -> int:
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    rep = classical_baselines(args.n)
    # a count with more decimal digits than Python converts is written as its log10
    limit = sys.get_int_max_str_digits()
    if limit and rep.feasible_count >= 10**limit:
        count_field = {"log10_feasible_count": math.log10(rep.feasible_count)}
    else:
        count_field = {"feasible_count": rep.feasible_count}
    payload = {
        "n": rep.n,
        "m": rep.m,
        **count_field,
        "model_a_trials": rep.model_a_trials,
        "model_b_trials": rep.model_b_trials,
        "separation_ratio": rep.separation_ratio,
        "log10_model_a": rep.log10_model_a,
        "log10_model_b": rep.log10_model_b,
        "log10_separation": rep.log10_separation,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        write_text_atomic(Path(args.out), text + "\n")
    print(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print one stderr line and exit 1, not 2.

    Exit 2 means a solve that found no feasible sample; subcommand parsers
    are made of this class too.
    """

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ceqaoa",
        description="Exact one-hot-encoded QAOA simulator and grid-search TSP solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="grid-search solve of a TSP instance")
    _add_instance_args(p_solve)
    p_solve.add_argument(
        "--grid",
        default="n+1",
        help="grid spec: 'n+1' (default), 'NxN', or 'list:g,b;g,b;...'",
    )
    p_solve.add_argument("--out", default="result.json", help="result JSON path")
    p_solve.add_argument(
        "--hist-out", default=None, help="per-grid-point cost histogram CSV (default <out>.costs.csv)"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_hist = sub.add_parser("histogram", help="exact probabilities and counts at one angle pair")
    _add_instance_args(p_hist)
    p_hist.add_argument("--angles", required=True, help="angle pair 'gamma,beta'")
    p_hist.add_argument("--out", default="histogram.csv", help="output CSV path")
    p_hist.set_defaults(func=cmd_histogram)

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)}, or all")
    p_verify.set_defaults(func=cmd_verify)

    p_base = sub.add_parser("baselines", help="classical sampling baselines")
    p_base.add_argument("--n", type=int, required=True, help="block size and block count")
    p_base.add_argument("--out", default=None, help="optional JSON output path")
    p_base.set_defaults(func=cmd_baselines)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_mmap_threshold()
    try:
        return args.func(args)
    except DimensionCapError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DIM_CAP
    except (OSError, ValueError) as exc:  # ValueError covers InstanceParseError
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
