"""Peak memory of the preset ``wavereg simulate`` on long horizons.

    python3 tools/long_horizon_rss.py [T_END ...]

Runs ``wavereg simulate`` on the built-in preset with ``simulation.t_end``
set to each T_END (400, 2000 and 8000 s by default), each in a fresh Python
process with ``OPENBLAS_NUM_THREADS=1``, and prints one line per run: the
process's peak resident set size (``ru_maxrss``), the wall time from process
start to exit and the size of the CSV it wrote. It imports ``wavereg`` from
the ``src`` directory beside this script and writes into a temporary
directory that it removes afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HORIZONS = (400.0, 2000.0, 8000.0)

# the child runs the command, then reports its own peak RSS (kB on Linux)
CHILD = """
import resource, sys
sys.path.insert(0, {src!r})
from wavereg import cli
code = cli.main(["simulate", "--config", {config!r}, "--out", {out!r}])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def measure(t_end, workdir):
    """Peak RSS in MB, wall seconds and CSV bytes of one preset run to ``t_end``."""
    config, out = workdir / f"t{t_end:g}.json", workdir / f"out_{t_end:g}"
    config.write_text(json.dumps({"simulation": {"t_end": t_end}}))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    child = CHILD.format(src=str(SRC), config=str(config), out=str(out))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"t_end {t_end:g}: exit {proc.returncode}\n{proc.stderr}")
    csv = out / "simulation.csv"
    size = csv.stat().st_size
    csv.unlink()  # free the disk before the next, longer run
    return int(proc.stdout.split()[-1]) / 1024.0, wall, size


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("t_end", type=float, nargs="*", default=HORIZONS, help="horizons in s")
    horizons = parser.parse_args(argv).t_end
    with tempfile.TemporaryDirectory() as tmp:
        for t_end in horizons:
            rss, wall, size = measure(t_end, Path(tmp))
            print(f"t_end {t_end:>8g} s: peak RSS {rss:7.1f} MB, wall {wall:6.2f} s, "
                  f"CSV {size / 1e6:8.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
