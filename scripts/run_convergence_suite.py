#!/usr/bin/env python3
"""Run every convergence experiment and write the CSVs under results/.

Covers: the rational power solution at gamma in {1/5, 1/8}, the irrational
power at gamma = 1/7 for both fractional orders, the unknown-solution
sin source comparing gamma = 1/6 against gamma = 1, and the 2-d subdiffusion
sweeps in M and in N.  Each CSV is directly plottable on a semi-log axis.
"""

import math
import pathlib
import sys

import numpy as np

from fracspec.analysis import StudyRequest, run_convergence_study, run_pde_convergence_study
from fracspec.frac_ops import PowerSum, TransformSpec
from fracspec.ode_solver import TimeProblem
from fracspec.pde_solver import manufactured_sine_power

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def write(study, name):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text("\n".join(study.csv_rows()) + "\n", encoding="utf-8")
    final = study.reports[-1]
    print(f"{name}: final Linf {final.linf_error:.3e}, L2 {final.l2_error:.3e}")


def scalar_studies():
    """The scalar studies of the suite, in run order, as (CSV name, StudyRequest) pairs."""
    studies = []
    # rational power, the two rescalings; irrational power
    for sigma, r, delta, ns, name in (
        (0.6, 5, 0.2, range(2, 21, 2), "power3_5_gamma1_5_delta1_5"),
        (0.6, 8, 0.9, range(2, 21, 2), "power3_5_gamma1_8_delta9_10"),
        (math.sqrt(2.0) / 2.0, 7, 0.2, range(4, 41, 2), "power_irr_gamma1_7_delta1_5"),
        (math.sqrt(2.0) / 2.0, 7, 0.9, range(4, 41, 2), "power_irr_gamma1_7_delta9_10"),
    ):
        exact = PowerSum(((1.0, sigma),))
        problem = TimeProblem.manufactured(exact, delta, 1.0, TransformSpec(r, 2.0))
        studies.append((f"{name}.csv", StudyRequest(name, problem, tuple(ns), exact=exact)))
    # unknown solution: rescaled vs classical
    for r, tag in ((6, "gamma1_6"), (1, "gamma1")):
        problem = TimeProblem.from_source(np.sin, 0.5, 1.0, TransformSpec(r, 2.0))
        request = StudyRequest("sin_source", problem, tuple(range(4, 31, 2)), ref_n=60)
        studies.append((f"sin_source_{tag}.csv", request))
    return studies


def main():
    for name, request in scalar_studies():
        write(run_convergence_study(request), name)
    # 2-d subdiffusion: sweep M at fixed N, then N at fixed M
    problem, exact = manufactured_sine_power(0.5, TransformSpec(5, 2.0), 0.6, dimension=2)
    ms = list(range(4, 21, 2))
    write(
        run_pde_convergence_study("subdiffusion_2d", problem, exact, (20,) * len(ms), ms),
        "subdiffusion2d_sweepM.csv",
    )
    ns = list(range(2, 21, 2))
    write(
        run_pde_convergence_study("subdiffusion_2d", problem, exact, ns, (20,) * len(ns)),
        "subdiffusion2d_sweepN.csv",
    )


if __name__ == "__main__":
    sys.exit(main())
