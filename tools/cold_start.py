"""Time fresh ``wavereg`` processes of a base commit and HEAD, alternating.

    python3 tools/cold_start.py --base REF [--runs 7] -- <wavereg args>

Run it from the repository root. Both commits are exported with ``git
archive`` into a temporary directory (as ``tools/bench_compare.py`` does),
so every run measures committed files only. Each of ``--runs`` rounds starts
one ``python3 -m wavereg.cli <wavereg args>`` process per commit, in the
export with its own ``src`` on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``;
every other round starts HEAD first, so a slow drift of the machine hits both
sides alike. A run times the process from start to exit, reads its peak
resident set size (``ru_maxrss``, through ``os.wait4``) and must exit 0.
Prints every run, the min and median wall time per side in seconds and the
median peak RSS per side in MB (2^20 bytes).
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
    """Wall seconds and peak RSS in MB of one fresh ``wavereg`` process in ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "wavereg.cli", *args], cwd=checkout,
                                env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)  # reaps the process with its own rusage
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            stderr.seek(0)
            tail = "\n".join(stderr.read().decode(errors="replace").splitlines()[-20:])
            raise RuntimeError(f"wavereg {' '.join(args)} in {checkout} exited {proc.returncode}:\n{tail}")
    return seconds, usage.ru_maxrss / 1024.0  # kB on Linux


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
        results = {side: [] for side in checkouts}
        for i in range(args.runs):
            for side in list(checkouts)[:: 1 if i % 2 == 0 else -1]:
                results[side].append(run(checkouts[side], command))
    print(f"wavereg {' '.join(command)}, {args.runs} fresh processes per commit")
    for side, values in results.items():
        times, rss = zip(*values)
        each = " ".join(f"{t:.3f} s/{mb:.1f} MB" for t, mb in values)
        print(f"{side}: min {min(times):.3f} s, median {statistics.median(times):.3f} s, "
              f"median peak RSS {statistics.median(rss):.1f} MB ({each})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
