"""Write the preset's command outputs into one directory.

    python3 tools/preset_outputs.py OUT

Run it from the repository root of each of two commits, at the same
``OPENBLAS_NUM_THREADS``, and compare the two directories with
``diff -r -x run_meta.json OUT_A OUT_B``. ``run_meta.json`` holds wall-clock
timings; every other file is byte-identical across reruns of one commit at a
fixed BLAS thread count. It imports ``wavereg`` from the ``src`` directory
beside this script, so each checkout measures its own code.

OUT gets one subdirectory per command on the built-in preset: ``simulate``,
``synth``, ``eigs`` and ``figure1``, ``figure3``, ``figure4`` (``wavereg
reproduce``), and ``verify.txt``, the lines of ``wavereg verify --suite all``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wavereg import cli  # noqa: E402

COMMANDS = {  # subdirectory of OUT: wavereg arguments
    "simulate": ["simulate"],
    "synth": ["synth"],
    "eigs": ["eigs"],
    "figure1": ["reproduce", "--figure", "1"],
    "figure3": ["reproduce", "--figure", "3"],
    "figure4": ["reproduce", "--figure", "4"],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory")
    out = parser.parse_args(argv).out
    for subdir, command in COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*command, "--out", str(out / subdir)])
        if code != 0:
            return code
    with contextlib.redirect_stdout(io.StringIO()) as lines:
        cli.main(["verify", "--suite", "all"])
    (out / "verify.txt").write_text(lines.getvalue(), encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
