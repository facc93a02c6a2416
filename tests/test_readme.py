"""The README's benchmark table lists every recorded ``BENCH_<n>.json`` once."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_table_has_one_row_per_bench_file():
    rows = re.findall(r"^\| `(BENCH_\d+\.json)` \|", (ROOT / "README.md").read_text(), re.M)
    files = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
    assert sorted(rows) == files
