#!/usr/bin/env python3
"""Reproduce the smooth-solution error table: u = s^2, gamma = 1, T = 2.

Prints max-norm and L2 errors of the catalog's example1 for delta in
{0.1, 0.5, 0.9} at N in {2, 4}.
"""

from dataclasses import replace

from fracspec.analysis import error_l2, error_linf
from fracspec.ode_solver import solve
from fracspec.orthopoly import TimeBasis
from fracspec.problems import build_problem, get_entry


def main():
    deltas = (0.1, 0.5, 0.9)
    print("N " + " ".join(f"| delta={d}: Linf       L2        " for d in deltas))
    for n in (2, 4):
        cells = []
        for d in deltas:
            problem, u = build_problem(replace(get_entry("example1"), delta=d))
            sol = solve(problem, TimeBasis(0.0, n, (0.0, problem.transform.b_psi)))
            cells.append(f"| {error_linf(sol, u):.4e} {error_l2(sol, u):.4e}")
        print(f"{n} " + " ".join(cells))


if __name__ == "__main__":
    main()
