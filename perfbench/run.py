"""Benchmark of the `ceqaoa` CLI: end-to-end runs and an outside-in traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-n8 --seed 1 --seconds 10 --trace 0

`--trace 0` starts fresh `python -m ceqaoa.cli ...` processes one at a time
(through perfbench/probe.py, which only adds a timestamp at the first
`run_circuit` entry) for about `--seconds`, checks every output and reports
the medians of the end-to-end metrics; extra children that stop at the first
`run_circuit` add set-up samples.  `--trace 1` runs one full process as the
untraced reference, then calls `ceqaoa.cli.main` in this process twice: with
call counters, then traced with spans.  It reports the per-layer metrics.
Metric names and units come from BENCHMARK.json; the workloads and why each
was chosen are listed there.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Spans, checks and machine
context are written to perfbench/out/<workload>-s<seed>/report.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# The machine has 2 cores; a BLAS pool would contend with the benchmark
# itself.  Set before numpy is imported here or in any child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PROBE = ROOT / "perfbench" / "probe.py"
SETUP_SAMPLES = 15  # set-up times wanted per run
SETUP_SHARE = 0.12  # share of --seconds that setup-only children may take


@dataclass(frozen=True)
class Workload:
    command: str  # "solve" or "histogram"
    n_cities: int
    args: tuple[str, ...]
    shots: int
    points: int  # grid points (1 for histogram)

    @property
    def dim(self) -> int:
        return (self.n_cities - 1) ** (self.n_cities - 1)


WORKLOADS = {
    "solve-n8": Workload("solve", 8, ("--grid", "n+1"), 5120, 81),
    "sweep-n7": Workload("solve", 7, ("--grid", "16x16"), 3430, 256),
    "point-n9": Workload("solve", 9, ("--grid", "list:1.0,0.5"), 7290, 1),
    "histogram-n8": Workload("histogram", 8, ("--angles", "1.0,0.5"), 5120, 1),
}

# Layer groups for the traced shares, and the group each workload is
# expected to spend most time in.
EXPECTED_HEAVY = {
    "solve-n8": "circuit",
    "sweep-n7": "shot_path",
    "point-n9": "circuit",
    "histogram-n8": "histogram_output",
}


@dataclass
class ProgramRun:
    """One execution of the CLI and what the checks made of its outputs."""

    label: str
    code: int
    failures: list = field(default_factory=list)
    digest: str | None = None
    quality: dict = field(default_factory=dict)
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    setup_s: float | None = None


# ---------------------------------------------------------------- context


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def cpu_ticks() -> dict | None:
    """Aggregate `cpu` line of /proc/stat, in clock ticks."""
    text = _read("/proc/stat")
    if not text:
        return None
    fields = text.splitlines()[0].split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return dict(zip(names, map(int, fields)))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if head.startswith("ref: "):
        ref = _read(str(ROOT / ".git" / head[5:]))
        return ref.strip() if ref else None
    return head


def machine_context() -> dict:
    import numpy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.partition(":")[2].strip()
            break
    llc = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_size": llc.strip() if llc else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "child_thread_env": THREAD_ENV,
    }


def load_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "cpu_ticks": cpu_ticks()}


def steal_share(start: dict, end: dict) -> float | None:
    """Share of all CPU ticks between two snapshots that the hypervisor stole."""
    a, b = start["cpu_ticks"], end["cpu_ticks"]
    if not a or not b:
        return None
    total = sum(b.values()) - sum(a.values())
    return (b["steal"] - a["steal"]) / total if total > 0 else 0.0


# ------------------------------------------------------------- program runs


def cli_argv(work: Workload, instance: Path, out: Path, seed: int) -> list[str]:
    return [work.command, str(instance), *work.args, "--shots", str(work.shots),
            "--seed", str(seed), "--out", str(out)]


def output_path(work: Workload, workdir: Path, label: str) -> Path:
    return workdir / (f"{label}.json" if work.command == "solve" else f"{label}.csv")


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], workdir: Path, label: str, mode: str):
    """Run probe.py in a child: (exit code, wall s, rusage, spawn-to-first-circuit s or None)."""
    stamp = workdir / f"{label}.stamp"
    with open(workdir / f"{label}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(stamp), mode, "--", *args],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    first_circuit = float(stamp.read_text()) if stamp.is_file() else None
    return code, wall, usage, (None if first_circuit is None else first_circuit - start)


def run_child(work, instance, workdir, label, seed, ctx) -> ProgramRun:
    out = output_path(work, workdir, label)
    code, wall, usage, setup = spawn(cli_argv(work, instance, out, seed), workdir, label, "full")
    run = ProgramRun(label, code, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / 1024.0, setup_s=setup)
    check_output(run, work, out, ctx)
    if setup is None and code == 0:
        run.failures.append(("setup_probe", "no run_circuit timestamp"))
    return run


def file_sha(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_output(run: ProgramRun, work: Workload, out: Path, ctx: dict) -> None:
    """Apply the checks to one run's outputs, then delete them (the CSVs are large)."""
    run.failures += checks.check_exit(run.code)
    if run.code != 0:
        return
    matrix, opt = ctx["matrix"], ctx["optimum"]
    uniform = opt.degeneracy / work.dim
    try:
        if work.command == "solve":
            result = json.loads(out.read_text())
            costs = out.with_suffix(".costs.csv")
            run.failures += checks.check_solve(result, matrix, opt, work.points)
            run.digest = checks.result_digest(result) + file_sha(costs)
            best, p_opt = result.get("best_cost"), result.get("p_opt_exact")
            feasible = result.get("feasible_fraction")
            costs.unlink()
        else:
            summary = checks.summarize_histogram(out.read_text(), matrix, opt)
            run.failures += checks.check_histogram(summary, opt, work.dim, work.shots)
            run.digest = file_sha(out)
            best, p_opt = summary.best_sampled_cost, summary.p_opt
            feasible = summary.feasible_count / work.shots
        out.unlink()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.failures.append(("output_readable", f"{type(exc).__name__}: {exc}"))
        return
    if isinstance(best, (int, float)):
        run.quality["opt_gap"] = (best - opt.cost) / opt.cost
    if isinstance(p_opt, (int, float)):
        run.quality["p_opt_gain"] = p_opt / uniform
    if isinstance(feasible, (int, float)):
        run.quality["feasible_share"] = feasible


# ------------------------------------------------------------------- modes


def timed_runs(work, instance, workdir, seed, seconds, ctx):
    """Fresh CLI processes, one at a time, for about `seconds`.

    The first full child gives a set-up time and a child length.  Setup-only
    children then add set-up samples within SETUP_SHARE of the budget, and
    full children fill the rest: another one starts while at least half a
    child's length is left.
    """
    start = time.monotonic()
    runs = [run_child(work, instance, workdir, "run0", seed, ctx)]
    setups = [runs[0].setup_s] if runs[0].setup_s is not None else []
    extra_failures = []
    setup_budget = SETUP_SHARE * seconds
    setup_spent = 0.0
    while setups and len(setups) < SETUP_SAMPLES and setup_spent + setups[-1] <= setup_budget:
        label = f"setup{len(setups)}"
        out = output_path(work, workdir, label)
        code, wall, _, setup = spawn(cli_argv(work, instance, out, seed), workdir, label, "setup")
        setup_spent += wall
        if code != 0 or setup is None:
            extra_failures.append(("setup_probe", f"{label}: exit {code}, stamp {setup}"))
            break
        setups.append(setup)
    while time.monotonic() - start + runs[-1].wall_s / 2 <= seconds:
        runs.append(run_child(work, instance, workdir, f"run{len(runs)}", seed, ctx))
        if runs[-1].setup_s is not None:
            setups.append(runs[-1].setup_s)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "setup_s": statistics.median(setups) if setups else 0.0,  # run already failed
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    info = {
        "children": len(runs),
        "setup_samples": setups,
        "points_per_s": work.points / metrics["wall_s"] if work.command == "solve" else None,
        "rows_per_s": work.dim / metrics["wall_s"] if work.command == "histogram" else None,
    }
    return runs, metrics, info, extra_failures


def traced_runs(work, instance, workdir, seed, ctx):
    """Untraced child, then a counting pass and a traced pass in this process."""
    copy_gbs = tracing.copy_bandwidth()
    runs = [run_child(work, instance, workdir, "child", seed, ctx)]

    sys.path.insert(0, str(SRC))
    import ceqaoa.cli as cli

    tracer = tracing.Tracer()
    results = {}
    # The counting pass goes first: its timing is discarded anyway, and it
    # warms this process up before the traced pass.
    for label, call in (
        ("counted", lambda argv: tracing.count_calls(cli, argv)),
        ("traced", lambda argv: tracer.run(cli, argv)),
    ):
        out = output_path(work, workdir, label)
        with contextlib.redirect_stdout(io.StringIO()):
            code, results[label] = call(cli_argv(work, instance, out, seed))
        run = ProgramRun(label, code)
        check_output(run, work, out, ctx)
        runs.append(run)

    # A traced-minus-untraced wall difference drowns in this machine's
    # run-to-run noise, so the overhead is the measured cost of one wrapper
    # call times the number of spans.
    overhead = tracing.wrapper_cost() * len(tracer.spans)
    metrics, shares = layer_metrics(
        work, tracer.spans, results["counted"], runs[-1].quality, copy_gbs, overhead
    )
    info = {
        "traced_wall_s": results["traced"],
        "missing_span_targets": tracer.missing,
        "copy_note": f"np.copyto between two {tracing.COPY_BYTES >> 20} MiB float64 arrays, "
        f"read plus write bytes; LLC {machine_context()['llc_size']}",
        "kernel_bytes_note": "computed from D and m, not measured: "
        "apply_phase 40*D, apply_mixer 32*D*m",
        "shares": shares,
        "spans": tracer.spans,
    }
    return runs, metrics, info, []


def layer_metrics(work, spans, counts, quality, copy_gbs, overhead_s):
    agg = tracing.aggregate(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return agg.get(name, empty)

    shots = work.shots * get("phqc.sample_shots")["calls"]
    points = tracing.point_times(spans)
    metrics = {
        "instances.parse_instance.busy_s": get("instances.parse_instance")["busy_s"],
        "hamiltonian.build_cost_diagonal.busy_s": get("hamiltonian.build_cost_diagonal")["busy_s"],
        "hamiltonian.brute_force_optimum.busy_s": get("hamiltonian.brute_force_optimum")["busy_s"],
        "encoded.uniform_initial_state.busy_s": get("encoded.uniform_initial_state")["busy_s"],
        "encoded.probabilities.busy_s": get("encoded.probabilities")["busy_s"],
        "encoded.label_calls": counts["label_calls"],
        "encoded.label_calls_per_shot": counts["label_calls"] / shots if shots else 0.0,
        "layers.run_circuit.calls": get("layers.run_circuit")["calls"],
        "layers.run_circuit.self_s": get("layers.run_circuit")["self_s"],
    }
    for kernel, nbytes in tracing.kernel_bytes(work.dim, work.n_cities - 1).items():
        k = get(kernel)
        gbs = k["calls"] * nbytes / k["busy_s"] / 1e9 if k["busy_s"] else 0.0
        metrics[f"{kernel}.calls"] = k["calls"]
        metrics[f"{kernel}.busy_s"] = k["busy_s"]
        metrics[f"{kernel}.p50_ms"] = 1e3 * tracing.percentile(k["durations"], 50)
        metrics[f"{kernel}.bytes"] = nbytes
        metrics[f"{kernel}.gbs"] = gbs
    metrics["layers.apply_mixer.bw_frac"] = metrics["layers.apply_mixer.gbs"] / copy_gbs
    metrics.update({
        "phqc.phqc_solve.self_s": get("phqc.phqc_solve")["self_s"],
        "phqc.sample_shots.calls": get("phqc.sample_shots")["calls"],
        "phqc.sample_shots.self_s": get("phqc.sample_shots")["self_s"],
        "phqc.score_shots.calls": get("phqc.score_shots")["calls"],
        "phqc.score_shots.busy_s": get("phqc.score_shots")["busy_s"],
        "phqc.shots": shots,
        "phqc.unique_labels": counts["unique_labels"],
        "phqc.feasible_share": quality.get("feasible_share", 0.0),
        "phqc.point_ms.p50": 1e3 * tracing.percentile(points, 50),
        "phqc.point_ms.p85": 1e3 * tracing.percentile(points, 85),
        "cli.cmd_histogram.self_s": get("cli.cmd_histogram")["self_s"],
        "cli.unattributed_s": get(tracing.ROOT)["self_s"],
        "mem.copy_gbs": copy_gbs,
        "trace.overhead_s": overhead_s,
    })

    wall = get(tracing.ROOT)["busy_s"]
    groups = {
        "circuit": get("layers.run_circuit")["busy_s"],
        "shot_path": get("phqc.sample_shots")["busy_s"] + get("phqc.score_shots")["busy_s"]
        + get("phqc.phqc_solve")["self_s"],
        "cost_diagonal": get("hamiltonian.build_cost_diagonal")["busy_s"],
        "oracle": get("hamiltonian.brute_force_optimum")["busy_s"],
        "histogram_output": get("cli.cmd_histogram")["self_s"],
    }
    shares = {name: t / wall for name, t in groups.items()}
    return metrics, shares


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ceqaoa" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'ceqaoa' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    before = load_snapshot()

    inst = checks.make_instance(work.n_cities, args.seed)
    instance = workdir / "instance.json"
    instance.write_text(json.dumps(inst))
    ctx = {"matrix": inst["matrix"], "optimum": checks.enumerate_optimum(inst["matrix"])}

    if args.trace:
        runs, metrics, info, failures = traced_runs(work, instance, workdir, args.seed, ctx)
    else:
        runs, metrics, info, failures = timed_runs(
            work, instance, workdir, args.seed, args.seconds, ctx
        )

    # Every output of one set (the runs of this invocation) must agree.
    failures += checks.check_same([r.digest for r in runs if r.digest])

    after = load_snapshot()
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    # A set check that fails puts every run of the set in doubt.
    failed = len(runs) if failures else sum(1 for r in runs if r.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_context(),
        "load_start": before,
        "load_end": after,
        "steal_share": steal_share(before, after),
        "optimum": {"cost": ctx["optimum"].cost, "degeneracy": ctx["optimum"].degeneracy},
        "runs": [vars(r) for r in runs],
        "set_failures": failures,
        "metrics": metrics,
        **info,
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=1, default=str))

    print_report(args, report, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def print_report(args, report, units) -> None:
    m = report["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"({m['nproc']} cpu, {m['cpu_model']}, LLC {m['llc_size']}, "
          f"python {m['python']}, numpy {m['numpy']}, commit {m['git_commit']})")
    print(f"# load {report['load_start']['loadavg'][0]:.2f} -> "
          f"{report['load_end']['loadavg'][0]:.2f}, steal share {report['steal_share']}")
    for name, value in report["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    for run in report["runs"]:
        status = "ok" if not run["failures"] else f"FAILED {run['failures']}"
        quality = " ".join(f"{k}={v:.4g}" for k, v in run["quality"].items())
        print(f"# run {run['label']}: {status} {quality}")
    for fail in report["set_failures"]:
        print(f"# set check FAILED {fail}")
    for key in ("copy_note", "kernel_bytes_note"):
        if key in report:
            print(f"# {report[key]}")
    for key in ("points_per_s", "rows_per_s"):
        if report.get(key) is not None:
            print(f"# {key} = {report[key]:.6g}")
    shares = report.get("shares")
    if shares:
        print("# traced shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        unattributed = report["metrics"]["cli.unattributed_s"] / report["traced_wall_s"]
        print(f"# unattributed share {unattributed:.2%} of traced wall "
              f"({'within' if unattributed <= 0.05 else 'OVER'} the 5% limit)")
        expected, heaviest = EXPECTED_HEAVY[args.workload], max(shares, key=shares.get)
        verdict = "confirmed" if heaviest == expected else f"NOT confirmed (heaviest {heaviest})"
        print(f"# expected heavy layer {expected}: {verdict}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
