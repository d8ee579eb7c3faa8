"""Outside-in tracing of one in-process `ceqaoa.cli.main` call.

Spans are recorded by swapping the module attributes the program calls
through for timing wrappers, so no source file changes.  Each wrapper keeps
`(name, start, end, parent)` in memory; the caller writes the spans out when
the run ends.  Label calls are counted in a separate pass whose timing is
discarded, because counting wrappers on those hot helpers distort the times.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time

import numpy as np

# "module:attribute" the program calls through -> span name.  Span names are
# the per-layer metric prefixes: the module that defines the function, then
# the function.
SPAN_TARGETS = {
    "ceqaoa.cli:parse_instance": "instances.parse_instance",
    "ceqaoa.cli:anchor": "hamiltonian.anchor",
    "ceqaoa.cli:phqc_solve": "phqc.phqc_solve",
    "ceqaoa.cli:build_cost_diagonal": "hamiltonian.build_cost_diagonal",
    "ceqaoa.cli:run_circuit": "layers.run_circuit",
    "ceqaoa.cli:sample_shots": "phqc.sample_shots",
    "ceqaoa.cli:brute_force_optimum": "hamiltonian.brute_force_optimum",
    "ceqaoa.cli:cmd_histogram": "cli.cmd_histogram",
    "ceqaoa.phqc:build_cost_diagonal": "hamiltonian.build_cost_diagonal",
    "ceqaoa.phqc:run_circuit": "layers.run_circuit",
    "ceqaoa.phqc:sample_shots": "phqc.sample_shots",
    "ceqaoa.phqc:score_shots": "phqc.score_shots",
    "ceqaoa.phqc:brute_force_optimum": "hamiltonian.brute_force_optimum",
    "ceqaoa.layers:apply_phase": "layers.apply_phase",
    "ceqaoa.layers:apply_mixer": "layers.apply_mixer",
    "ceqaoa.layers:uniform_initial_state": "encoded.uniform_initial_state",
    "ceqaoa.encoded:EncodedState.probabilities": "encoded.probabilities",
}
ROOT = "cli.main"
LABEL_HELPERS = ("index_to_label", "label_to_index")  # plus BlockLayout.validate_label


def _resolve(target: str):
    """("ceqaoa.encoded:EncodedState.probabilities") -> (EncodedState, "probabilities").

    The owner is None when the module or class is gone.
    """
    module, _, attr_path = target.partition(":")
    owner = sys.modules.get(module)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return owner, attr


@contextlib.contextmanager
def swapped(replacements):
    """Set `owner.attr = value` for each triple, restoring the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class Tracer:
    """Collects nested spans from wrapped functions in one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.missing: list[str] = []  # targets the program no longer has
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def replacements(self):
        """Wrappers for every target the program still has; the rest go to `missing`."""
        out = []
        for target, name in SPAN_TARGETS.items():
            owner, attr = _resolve(target)
            if owner is None or attr not in vars(owner):
                self.missing.append(target)
                continue
            out.append((owner, attr, self.wrap(name, vars(owner)[attr])))
        return out

    def run(self, cli_module, argv) -> tuple[int, float]:
        """Call `cli.main(argv)` under the wrappers; returns (exit code, wall seconds)."""
        with swapped(self.replacements()):
            root = self.wrap(ROOT, cli_module.main)
            start = time.perf_counter()
            code = root(argv)
            wall = time.perf_counter() - start
        return code, wall


def wrapper_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds a traced call adds to a plain one, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    extra = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        extra.append((time.perf_counter() - start - plain) / calls)
    return max(0.0, statistics.median(extra))


def count_calls(cli_module, argv) -> tuple[int, dict[str, int]]:
    """Run `cli.main(argv)` with counting wrappers; its timing is discarded.

    Counts validate_label, index_to_label and label_to_index calls (every
    binding of them in the ceqaoa modules is replaced, so imported names are
    counted too) and the distinct labels in every ShotSet that sample_shots
    returns.  Returns (exit code, counts).
    """
    counts = {"label_calls": 0, "unique_labels": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            counts["label_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def shot_counting(fn):
        def wrapper(*args, **kwargs):
            shots = fn(*args, **kwargs)
            counts["unique_labels"] += len(shots.counts)
            return shots

        return wrapper

    encoded = sys.modules["ceqaoa.encoded"]
    originals = {name: vars(encoded)[name] for name in LABEL_HELPERS if name in vars(encoded)}
    replacements = []
    if "validate_label" in vars(encoded.BlockLayout):
        replacements.append(
            (encoded.BlockLayout, "validate_label", counting(encoded.BlockLayout.validate_label))
        )
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "ceqaoa" or mod is None:
            continue
        for name, fn in originals.items():
            if vars(mod).get(name) is fn:
                replacements.append((mod, name, counting(fn)))
    for target in ("ceqaoa.cli:sample_shots", "ceqaoa.phqc:sample_shots"):
        owner, attr = _resolve(target)
        if owner is not None and attr in vars(owner):
            replacements.append((owner, attr, shot_counting(vars(owner)[attr])))
    with swapped(replacements):
        code = cli_module.main(argv)
    return code, counts


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds and call durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["durations"].append(end - start)
    return out


def point_times(spans) -> list[float]:
    """Seconds per grid point: a run_circuit start to the end of its score_shots.

    Only spans directly under phqc.phqc_solve count, so the optimum-mass
    recomputation after the loop (a run_circuit with no scoring) is excluded.
    """
    solve = {i for i, s in enumerate(spans) if s[0] == "phqc.phqc_solve"}
    out, start = [], None
    for name, s, e, parent in spans:
        if parent not in solve:
            continue
        if name == "layers.run_circuit":
            start = s
        elif name == "phqc.score_shots" and start is not None:
            out.append(e - start)
            start = None
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def kernel_bytes(dim: int, m: int) -> dict[str, int]:
    """Computed (not measured) compulsory bytes per kernel call.

    apply_phase reads the state (16 B per amplitude) and the diagonal
    (8 B) and writes the state (16 B).  apply_mixer reads and writes the
    state once per block axis.
    """
    return {"layers.apply_phase": 40 * dim, "layers.apply_mixer": 32 * dim * m}


COPY_BYTES = 512 << 20  # about 5x the 105 MiB L3 of the reference machine


def copy_bandwidth(nbytes: int = COPY_BYTES, repeats: int = 5) -> float:
    """GB/s of `np.copyto` between two float64 arrays, counting read plus write."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in both arrays before timing
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * nbytes / statistics.median(times) / 1e9
