"""Run `python -m ceqaoa.cli ARGS...` and record when the first circuit starts.

Usage: python3 perfbench/probe.py STAMP_FILE MODE -- ARGS...

The command runs exactly as `python -m ceqaoa.cli` would (same modules, same
`__main__` execution through runpy).  The one addition is a timestamp:
`time.monotonic()` at the first `run_circuit` entry, written to STAMP_FILE.
CLOCK_MONOTONIC is shared by all processes on Linux, so the parent can
subtract its own spawn time from it.

MODE "full" runs the command to the end.  MODE "setup" exits with code 0 at
the first `run_circuit` entry, so a set-up time can be sampled without
paying for the whole solve.
"""

from __future__ import annotations

import atexit
import os
import runpy
import sys
import time


def main() -> None:
    stamp_path, mode, sep, *cli_args = sys.argv[1:]
    if mode not in ("full", "setup") or sep != "--":
        sys.exit("usage: probe.py STAMP_FILE full|setup -- ARGS...")

    import ceqaoa.layers as layers
    import ceqaoa.phqc as phqc

    original = layers.run_circuit
    first: list[float] = []

    def write_stamp() -> None:
        if first:
            with open(stamp_path, "w") as fh:
                fh.write(repr(first[0]))

    def run_circuit(*args, **kwargs):
        if not first:
            first.append(time.monotonic())
            if mode == "setup":
                write_stamp()
                sys.stdout.flush()
                os._exit(0)
        return original(*args, **kwargs)

    # phqc bound the name at import; cli binds it from layers when runpy
    # executes it below, so both call sites see the stamping version.
    layers.run_circuit = phqc.run_circuit = run_circuit
    atexit.register(write_stamp)
    sys.argv = ["ceqaoa", *cli_args]
    runpy.run_module("ceqaoa.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
