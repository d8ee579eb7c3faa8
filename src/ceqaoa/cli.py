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
import os
import resource
import shutil
import signal
import stat
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .analysis import classical_baselines
from .encoded import BlockLayout, DimensionCapError, clipped, indices_to_labels
from .hamiltonian import (
    EnergyOverflowError,
    anchor,
    brute_force_optimum,
    build_cost_diagonal,
    tour_cities,
)
from .instances import parse_instance
from .layers import Column, run_circuit
from .phqc import (
    POINT_BYTES,
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
# per row of a chunk: its slots in the chunk's piece buffer, its Python ints,
# floats and probability strings and the joined text, measured with
# tracemalloc at 315 bytes (n = 7), 326 (n = 8) and 335 (n = 9)
HISTOGRAM_ROW_BYTES = 352
# a forked histogram writer's own memory: its chunk of rows and the pages it
# copies from its parent on first write (reference counts, heap pools),
# measured as Private_Dirty in /proc/self/smaps_rollup at the end of its
# rows: 1.8 MB (n = 6), 2.2 (n = 7), 2.6 (n = 8) and 3.3 (n = 9)
HISTOGRAM_WRITER_BYTES = 4 << 20
# a histogram row's is_optimal field and its line end, indexed by the flag
ROW_ENDS = np.array([",0\n", ",1\n"], dtype=object)


def parse_grid_spec(spec: str, n_cities: int, depth: int) -> tuple[list[Column], dict]:
    """Grid flag: 'n+1' (default: the NxN grid with N = n_cities + 1), 'NxN', or 'list:g,b;...'.

    Returns the grid's columns at the given depth and the grid as the
    result JSON records it: its gammas and betas, or for list mode its
    pairs.  A spec of none of these forms raises ValueError naming the flag,
    and an NxN grid whose points alone (POINT_BYTES each) exceed the
    available memory raises DimensionCapError before its angles are built.
    """
    shown = clipped(repr(spec))
    want = "want n+1, NxN or list:g,b;..."
    text = spec.strip()
    if text.startswith("list:"):
        chunks = [chunk for chunk in text[5:].split(";") if chunk.strip()]
        columns = angle_columns("--grid", spec, chunks, want, depth)
        return columns, {"pairs": [[col.gamma, beta] for col in columns for beta in col.betas]}
    if text == "n+1":
        text = f"{n_cities + 1}x{n_cities + 1}"
    try:
        rows, cols = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad --grid value {shown} ({want})") from None
    if rows != cols:
        raise ValueError(f"only square grids are supported, got {shown}")
    if rows < 2:
        raise ValueError(f"bad --grid value {shown} (need at least 2 points per axis)")
    check_memory(rows * rows * POINT_BYTES)
    columns = square_grid(rows, depth)
    return columns, {"gammas": [col.gamma for col in columns], "betas": list(columns[0].betas)}


def angle_columns(flag: str, value: str, chunks: list[str], want: str, depth: int) -> list[Column]:
    """The columns of the 'gamma,beta' pairs in chunks, the pieces of a flag's value.

    ValueError names the flag and its value, and want when a pair is missing or not two floats.
    """
    bad = f"bad {flag} value {clipped(repr(value))}"
    try:
        pairs = [(float(gamma), float(beta)) for gamma, beta in (c.split(",") for c in chunks)]
    except ValueError:
        raise ValueError(f"{bad} ({want})") from None
    if not pairs:
        raise ValueError(f"{bad} ({want})")
    try:
        return pair_columns(pairs, depth)
    except ValueError as exc:  # a non-finite angle
        raise ValueError(f"{bad} ({exc})") from None


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


def shown_int(value: int) -> str:
    """An integer clipped for a one-line error; Decimal has no str(int) digit limit."""
    from decimal import Decimal  # here, not at the top: it adds 0.2 MB to every peak RSS
    return clipped(str(Decimal(value)))


def check_memory(estimate: int) -> None:
    """Raise DimensionCapError when the estimated peak exceeds the available memory."""
    avail = available_memory()
    if avail is not None and estimate > avail:
        raise DimensionCapError(
            f"estimated peak memory {shown_int((estimate + 2**19) >> 20)} MB exceeds the "
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
    (HISTOGRAM_CHUNK), so at n = 8 (2 instances) it peaks at 54.9-55.6 MB
    with the pin and 56.1 MB without.  Its forked writer, whose RSS counts
    the pages it shares with the command, peaks at 31.2-31.7 MB with the
    pin and 42.5-42.6 MB without: the freed buffers the heap keeps are
    mapped in both processes.
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


def check_output_path(flag: str, path: Path) -> None:
    """Raise ValueError naming the flag when path cannot take the output as a regular file.

    That is when path exists and is not a regular file (judged by os.lstat,
    which does not follow a symbolic link), as the finished output is
    renamed over path and would replace a FIFO, a device or a link there,
    or when its directory is missing or read-only.  Run before any work,
    so that a bad path does not end a finished run.
    """
    where = path.parent
    try:
        mode = os.lstat(path).st_mode
    except OSError:  # absent, or its directory is missing or unsearchable: checked below
        mode = stat.S_IFREG
    if stat.S_ISDIR(mode):
        raise ValueError(f"{flag} {str(path)!r} is a directory")
    if not stat.S_ISREG(mode):
        raise ValueError(f"{flag} {str(path)!r} is not a regular file")
    if not where.is_dir():
        raise ValueError(f"{flag} {str(path)!r}: no directory {str(where)!r}")
    if not os.access(where, os.W_OK | os.X_OK):
        raise ValueError(f"{flag} {str(path)!r}: directory {str(where)!r} is not writable")


def _fork_writer(part, chunks) -> int:
    """Fork a worker that writes the string chunks to the open file part; return its pid.

    The worker ends in os._exit and never returns into its caller, so no
    atexit hook or caller's cleanup runs twice.  It exits 0 once its rows
    are written; on any exception it replaces them by the message, with
    descriptor-level calls that no buffered row can follow, and exits 1.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(part.fileno(), "w", closefd=False) as fh:
                fh.writelines(chunks)
            code = 0
        except BaseException as exc:
            with contextlib.suppress(BaseException):
                os.ftruncate(part.fileno(), 0)
                os.pwrite(part.fileno(), clipped(str(exc), USAGE_ERROR_CHARS).encode(), 0)
        finally:
            os._exit(code)
    return pid


def write_text_atomic(path: Path, chunks, parts=()) -> None:
    """Write an iterable of string chunks through a temporary file and a rename.

    The temporary is created next to path with O_EXCL under a random name
    of fixed length: it is never a file, FIFO or link already there, nor
    another run's, and its length does not grow with path's name.
    Each of parts, more iterables of string chunks, is written at the same
    time by a forked worker into an unnamed file in path's directory, then
    appended after chunks, in order.  When anything fails, the workers are
    killed and reaped and the temporary is removed.
    """
    tmp = path.with_name(f"ceqaoa-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    workers = []  # (pid, part file) of each worker not yet reaped, in part order
    try:
        with open(fd, "w") as fh:
            for part in parts:
                spool = tempfile.TemporaryFile(dir=path.parent)
                workers.append((_fork_writer(spool, part), spool))
            fh.writelines(chunks)
            fh.flush()
            for k in range(2, len(parts) + 2):
                pid, spool = workers[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[0]
                with spool:
                    spool.seek(0)
                    if code != 0:
                        why = spool.read(1024).decode(errors="replace") if code == 1 else ""
                        raise OSError(f"writing {path} failed in writer {k}: {why or f'exit code {code}'}")
                    shutil.copyfileobj(spool, fh.buffer)
        os.replace(tmp, path)
    except BaseException:
        for pid, spool in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            spool.close()
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


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
    """The anchored problem; the flags are checked here, so each error names its flag."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {shown_int(args.seed)}")
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {shown_int(args.depth)}")
    if args.penalty_weight is not None and not args.penalty_weight > 0:
        raise ValueError(f"--lambda must be positive, got {args.penalty_weight}")
    inst = parse_instance(args.instance, euclidean_rounding=not args.euclid_exact)
    if not 0 <= args.start_city < inst.n_cities:
        start = shown_int(args.start_city)
        raise ValueError(f"--start-city must lie in [0, {inst.n_cities}), got {start}")
    try:
        return anchor(inst, args.start_city, args.penalty_weight)
    except EnergyOverflowError as exc:
        if args.penalty_weight is None:  # the default weight
            raise
        raise ValueError(f"bad --lambda value {args.penalty_weight!r} ({exc})") from None


def simd_targets() -> dict[str, dict[str, str]] | None:
    """numpy's SIMD target per complex128 multiply and absolute loop; None on numpy 1.x."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name="multiply|absolute", signature="complex128.*")
    return {f: {sig: loop["current"] for sig, loop in sigs.items()} for f, sigs in info.items()}


def cmd_solve(args) -> int:
    out = Path(args.out)
    hist_path = Path(args.hist_out) if args.hist_out else out.with_suffix(".costs.csv")
    if out.resolve() == hist_path.resolve():
        raise ValueError(f"--out and --hist-out name the same file {str(out)!r}")
    check_output_path("--out", out)
    check_output_path("--hist-out", hist_path)
    enc = _load_anchored(args)
    inst = enc.instance
    columns, grid_json = parse_grid_spec(args.grid, inst.n_cities, args.depth)
    shots = args.shots if args.shots is not None else default_shots(inst.n_cities)
    if shots < 1:
        raise ValueError(f"--shots must be >= 1, got {shown_int(shots)}")
    estimate = peak_bytes(enc.layout, columns, shots, enc.energy_dtype, enc.energy_bound)
    check_memory(estimate)
    t0 = time.perf_counter()
    result = phqc_solve(enc, columns, shots, args.seed)
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
        "penalty_weight": enc.penalty_weight,
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
            "simd_targets": simd_targets(),
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
        write_text_atomic(out, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
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


@dataclass(frozen=True)
class HistogramRows:
    """The pieces histogram rows are joined from, and the buffer a chunk of rows is gathered in.

    A flat index splits into a high half of m // 2 symbols and a low half of
    the rest (low_radix = n ** (m - m // 2) values).  The row of label
    (high, low) joins, in order: hi_label[high], lo_label[low],
    hi_cities[high], lo_cities[low], its count and a comma, repr of its
    probability, and ROW_ENDS[is_optimal].
    """

    low_radix: int
    hi_label: np.ndarray  # "{high symbols}-"
    lo_label: np.ndarray  # "{low symbols}"
    hi_cities: np.ndarray  # ",{start}-{high cities}-"
    lo_cities: np.ndarray  # "{low cities}-{start},"
    probs: np.ndarray
    is_optimal: np.ndarray  # int8, 1 at the optima
    buf: np.ndarray  # (HISTOGRAM_CHUNK, 7) objects: one row's pieces a line


def histogram_rows(enc, probs: np.ndarray, is_optimal: np.ndarray) -> HistogramRows:
    """The row pieces of an anchored encoding's labels, over their probabilities and optima."""
    n, m, start = enc.layout.n, enc.layout.m, enc.start_city
    hi_syms, hi_cities = _half_label_strings(n, m // 2, enc.city_of_symbol)
    lo_syms, lo_cities = _half_label_strings(n, m - m // 2, enc.city_of_symbol)

    def pieces(strings) -> np.ndarray:
        return np.array(list(strings), dtype=object)

    return HistogramRows(
        low_radix=n ** (m - m // 2),
        hi_label=pieces(f"{s}-" for s in hi_syms),
        lo_label=pieces(lo_syms),
        hi_cities=pieces(f",{start}-{c}-" for c in hi_cities),
        lo_cities=pieces(f"{c}-{start}," for c in lo_cities),
        probs=probs,
        is_optimal=is_optimal,
        buf=np.empty((min(enc.layout.D, HISTOGRAM_CHUNK), 7), dtype=object),
    )


def format_rows(rows: HistogramRows, flats: np.ndarray, counts: np.ndarray | None) -> str:
    """The rows of at most HISTOGRAM_CHUNK labels as text; counts None for labels never drawn."""
    buf = rows.buf[: flats.size]
    high, low = np.divmod(flats, rows.low_radix)
    buf[:, 0] = rows.hi_label[high]
    buf[:, 1] = rows.lo_label[low]
    buf[:, 2] = rows.hi_cities[high]
    buf[:, 3] = rows.lo_cities[low]
    buf[:, 4] = "0," if counts is None else [f"{c}," for c in counts.tolist()]
    buf[:, 5] = list(map(repr, rows.probs[flats].tolist()))
    buf[:, 6] = ROW_ENDS[rows.is_optimal[flats]]
    return "".join(buf.ravel().tolist())


def cmd_histogram(args) -> int:
    out = Path(args.out)
    check_output_path("--out", out)
    enc = _load_anchored(args)
    columns = angle_columns("--angles", args.angles, [args.angles], "want gamma,beta", args.depth)
    shots = args.shots if args.shots is not None else default_shots(enc.instance.n_cities)
    if shots < 0:
        raise ValueError(f"--shots must be >= 0, got {shown_int(shots)}")
    layout = enc.layout
    # the rows are written by one process for each CPU this one may run on,
    # and at most one a chunk (os.sched_getaffinity is Linux only)
    chunks = -(-layout.D // HISTOGRAM_CHUNK)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    writers = min(cpus, chunks)
    # the probabilities' own float D-vector, one chunk of rows, and each
    # forked writer's own memory.  The sampler's normalised copy and its
    # cumulative sums (two float D-vectors), the rows' two byte masks and
    # their piece tables come after the diagonal and the amplitudes are
    # freed, and fit in the bytes those held.
    check_memory(
        peak_bytes(layout, columns, shots, enc.energy_dtype, enc.energy_bound)
        + 8 * layout.D
        + min(layout.D, HISTOGRAM_CHUNK) * HISTOGRAM_ROW_BYTES
        + (writers - 1) * HISTOGRAM_WRITER_BYTES
    )
    diag = build_cost_diagonal(enc)
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
    rows = histogram_rows(enc, probs, is_optimal)

    def never_drawn(first: int, last: int):
        """The rows of the labels never drawn in chunks [first, last), in flat order."""
        stop = min(last * HISTOGRAM_CHUNK, layout.D)
        for lo in range(first * HISTOGRAM_CHUNK, stop, HISTOGRAM_CHUNK):
            yield format_rows(rows, lo + np.flatnonzero(unsampled[lo : lo + HISTOGRAM_CHUNK]), None)

    head = itertools.chain(
        [f"# uniform_probability,{1.0 / layout.D!r}\n",
         "label,city_sequence,count,exact_probability,is_optimal\n"],
        (
            format_rows(rows, drawn[lo : lo + HISTOGRAM_CHUNK], counts[lo : lo + HISTOGRAM_CHUNK])
            for lo in range(0, drawn.size, HISTOGRAM_CHUNK)
        ),
    )
    # the never-drawn rows, most of them, split into one contiguous run of
    # chunks a writer: this process writes the first after the head, and a
    # forked worker each of the others
    bounds = [chunks * k // writers for k in range(writers + 1)]
    parts = [never_drawn(first, last) for first, last in zip(bounds, bounds[1:])]
    write_text_atomic(out, itertools.chain(head, parts[0]), parts[1:])
    print(f"wrote {layout.D} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    print(format_results(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_USAGE


def cmd_baselines(args) -> int:
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {shown_int(args.n)}")
    if args.n * args.n > sys.float_info.max:  # the log10 arithmetic forms n * n as a float
        raise ValueError("--n must be at most about 1.34e154, so that n * n fits a float")
    if args.out:
        check_output_path("--out", Path(args.out))
    rep = classical_baselines(args.n)
    # a count past the exact-integer budget, or with more decimal digits than
    # Python converts, is written as its log10; Pythons before 3.10.7 have no
    # such limit, nor the function
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exact = rep.feasible_count is not None and not (limit and rep.feasible_count >= 10**limit)
    payload = asdict(rep)
    del payload["log10_feasible_count" if exact else "feasible_count"]
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        write_text_atomic(Path(args.out), [text + "\n"])
    print(text)
    return EXIT_OK


# characters of an argparse message kept in its one stderr line; the
# message echoes the offending value whole, however long
USAGE_ERROR_CHARS = 150


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print one short stderr line and exit 1, not 2.

    Exit 2 means a solve that found no feasible sample; subcommand parsers
    are made of this class too.
    """

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {clipped(message, USAGE_ERROR_CHARS)}\n")


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
