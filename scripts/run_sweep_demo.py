#!/usr/bin/env python3
"""Demo driver: sweep a ring outside the unit circle, then cross-validate a
few rows against the integral representation.

Writes ring_sweep.csv to the current directory and prints the spot checks.
"""

import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lerchphi import phi_integral  # noqa: E402
from lerchphi.cli import main  # noqa: E402

OUT = pathlib.Path("ring_sweep.csv")


def run() -> int:
    code = main([
        "sweep",
        "--abs-z", "2:2:1",
        "--arg-z", "0.2:2.9:8",
        "--a-re", "0.4:0.4:1",
        "--a-im", "0:0:1",
        "--n", "3",
        "--out", str(OUT),
    ])
    if code != 0:
        return code
    rows = list(csv.DictReader(OUT.open()))
    print(f"wrote {len(rows)} rows to {OUT}")
    for row in rows[::3]:
        z = complex(float(row["z_re"]), float(row["z_im"]))
        a = complex(float(row["a_re"]), float(row["a_im"]))
        v = complex(float(row["value_re"]), float(row["value_im"]))
        ref = phi_integral(z, int(row["n"]), a, 1e-10).value
        print(
            f"z = {z:.4f}  method = {row['method']:9s}  "
            f"|sweep - integral| = {abs(v - ref):.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
