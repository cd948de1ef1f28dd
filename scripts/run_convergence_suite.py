#!/usr/bin/env python3
"""Run every convergence experiment and write the CSVs under results/.

Covers: the smooth solution s^2 at gamma = 1 for delta in {1/10, 1/2, 9/10},
the rational power solution at gamma in {1/5, 1/8}, the irrational
power at gamma = 1/7 for both fractional orders, the unknown-solution
sin source comparing gamma = 1/6 against gamma = 1, the 2-d subdiffusion
sweeps in M and in N, and the 2-d irrational power's sweeps in N at
gamma = 1/7 and gamma = 1.  Each experiment is one `fracspec convergence` run on
a catalog problem, and each CSV is directly plottable on a semi-log axis.
"""

import pathlib
import sys

from fracspec import cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

# (CSV name, flags of one `fracspec convergence` run), in run order.
STUDIES = (
    ("power2_gamma1_delta1_10.csv", "--problem example1 --delta 0.1 --N 2,4"),
    ("power2_gamma1_delta1_2.csv", "--problem example1 --N 2,4"),
    ("power2_gamma1_delta9_10.csv", "--problem example1 --delta 0.9 --N 2,4"),
    ("power3_5_gamma1_5_delta1_5.csv", "--problem example2a --N 2:20:2"),
    ("power3_5_gamma1_8_delta9_10.csv", "--problem example2a --gamma 1/8 --delta 0.9 --N 2:20:2"),
    ("power_irr_gamma1_7_delta1_5.csv", "--problem example2b --N 4:40:2"),
    ("power_irr_gamma1_7_delta9_10.csv", "--problem example2b --delta 0.9 --N 4:40:2"),
    ("sin_source_gamma1_6.csv", "--problem example3 --gamma 1/6 --ref-N 60 --N 4:30:2"),
    ("sin_source_gamma1.csv", "--problem example3 --gamma 1 --ref-N 60 --N 4:30:2"),
    ("subdiffusion2d_sweepM.csv", "--problem example4 --N 20 --M 4:20:2"),
    ("subdiffusion2d_sweepN.csv", "--problem example4 --N 2:20:2 --M 20"),
    ("subdiffusion2d_irr_gamma1_7_sweepN.csv", "--problem example5 --N 4:40:4 --M 20"),
    ("subdiffusion2d_irr_gamma1_sweepN.csv", "--problem example5 --gamma 1 --N 4:40:4 --M 20"),
)


def main():
    OUT.mkdir(exist_ok=True)
    for name, flags in STUDIES:
        code = cli.main(["convergence", *flags.split(), "--out", str(OUT / name)])
        if code != 0:
            print(f"run_convergence_suite: {name} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
