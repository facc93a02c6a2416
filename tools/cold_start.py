"""Time fresh ``wavereg`` processes of a base commit and HEAD, alternating.

    python3 tools/cold_start.py --base REF [--runs 7] -- <wavereg args>

Run it from the repository root. Both commits are exported with ``git
archive`` into a temporary directory (as ``tools/bench_compare.py`` does),
so every run measures committed files only. Each of ``--runs`` rounds starts
one ``python3 -m wavereg.cli <wavereg args>`` process per commit, in the
export with its own ``src`` on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``;
every other round starts HEAD first, so a slow drift of the machine hits both
sides alike. A run times the process from start to exit and must exit 0.
Prints every run and the min and median per side, in seconds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_compare import export


def run(checkout, args):
    """Wall seconds of one fresh ``wavereg`` process in ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "wavereg.cli", *args], cwd=checkout, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        raise RuntimeError(f"wavereg {' '.join(args)} in {checkout} exited {done.returncode}:\n{tail}")
    return seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare HEAD against")
    parser.add_argument("--runs", type=int, default=7, help="runs per commit (default 7)")
    parser.add_argument("wavereg_args", nargs=argparse.REMAINDER,
                        help="arguments of wavereg, after --")
    args = parser.parse_args(argv)
    command = args.wavereg_args[1:] if args.wavereg_args[:1] == ["--"] else args.wavereg_args
    if args.runs < 1 or not command:
        parser.error("need --runs >= 1 and wavereg arguments after --")
    with tempfile.TemporaryDirectory(prefix="cold-") as work:
        checkouts = {"base": Path(work) / "base", "HEAD": Path(work) / "head"}
        for side, ref in (("base", args.base), ("HEAD", "HEAD")):
            print(f"{side}: {export(ref, checkouts[side])}")
        times = {side: [] for side in checkouts}
        for i in range(args.runs):
            for side in list(checkouts)[:: 1 if i % 2 == 0 else -1]:
                times[side].append(run(checkouts[side], command))
    print(f"wavereg {' '.join(command)}, {args.runs} fresh processes per commit")
    for side, values in times.items():
        runs = " ".join(f"{t:.3f}" for t in values)
        print(f"{side}: min {min(values):.3f} s, median {statistics.median(values):.3f} s ({runs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
