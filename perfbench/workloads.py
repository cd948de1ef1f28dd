"""The benchmark's workloads: fixed operation lists and their correctness checks.

Every workload is a list of operations.  `Op.run()` is the timed call into
fracspec; `Op.check(result)` runs afterwards, outside the timed section, and
returns the operation's error together with a list of problems (empty when
the answer is right).  The reference values an answer is checked against are
the ones the seed code produced, stored in `reference.json` next to this file
(`make_reference.py` writes it).

Error rule: an error passes when it is at most ERR_FACTOR times its reference,
with references below ERR_FLOOR raised to ERR_FLOOR.  A last-bit change of
the arithmetic passes; an answer that lost a digit (ten times the error)
fails, unless both sit at roundoff level.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from fracspec import cli, ode_solver, pde_solver
from fracspec.frac_ops import PowerSum, TransformSpec
from fracspec.orthopoly import TimeBasis

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

ERR_FACTOR = math.sqrt(10.0)
ERR_FLOOR = 2e-14
HORIZON_T = 2.0
S_GRID = np.linspace(0.0, HORIZON_T, 1001)
X_GRID = np.linspace(-1.0, 1.0, 33)

# (problem, r, delta, sigma): manufactured solutions u = s^sigma.
ODE_PROBLEMS = (
    ("example1", 1, 0.5, 2.0),
    ("example2a", 5, 0.2, 0.6),
    ("example2b", 7, 0.2, math.sqrt(2.0) / 2.0),
)
ODE_N = (8, 20, 40, 80)
PDE_NM = ((20, 20), (20, 40), (40, 60))
PDE_R, PDE_DELTA, PDE_SIGMA = 5, 0.5, 0.6
CLI_ODE_SIGMA = 0.6  # example2a, the solve-ode command below

CLI_COMMANDS = (
    ("convergence/example3/gamma=1/6",
     ["convergence", "--problem", "example3", "--gamma", "1/6", "--ref-N", "60", "--N", "4:30:2"]),
    ("convergence/example3/gamma=1",
     ["convergence", "--problem", "example3", "--gamma", "1", "--ref-N", "60", "--N", "4:30:2"]),
    ("convergence/example2b",
     ["convergence", "--problem", "example2b", "--N", "4:40:2"]),
    ("solve-ode/example2a/N=8",
     ["solve-ode", "--problem", "example2a", "--N", "8"]),
    ("solve-pde/example4/N=20,M=20",
     ["solve-pde", "--problem", "example4", "--N", "20", "--M", "20"]),
)
# Columns compared exactly; every column named *error is compared by the
# error rule; runtime_ms is wall-clock and skipped.
KEY_COLUMNS = ("N", "M", "s", "x", "y")


def error_within(err: float, ref: float) -> bool:
    return bool(err <= ERR_FACTOR * max(ref, ERR_FLOOR))


class Op:
    """One operation of a workload: a timed `run` and an untimed `check`."""

    name = ""
    ref: dict = {}

    def run(self):
        raise NotImplementedError

    def check(self, result) -> tuple[float, list[str]]:
        raise NotImplementedError

    def refusal_expected(self, exc: BaseException) -> bool:
        """True when the seed code refused this operation with the same error type."""
        return self.ref.get("refused") == type(exc).__name__


class OdeOp(Op):
    """Scalar solve plus evaluation on the 1001-point s-grid."""

    def __init__(self, problem_id: str, r: int, delta: float, sigma: float, n: int):
        self.name = f"{problem_id}/N={n}"
        self.sigma = sigma
        transform = TransformSpec(r, HORIZON_T)
        self.problem = ode_solver.TimeProblem.manufactured(
            PowerSum(((1.0, sigma),)), delta, 1.0, transform
        )
        self.basis = TimeBasis(0.0, n, (0.0, transform.b_psi))

    def run(self):
        sol = ode_solver.solve(self.problem, self.basis)
        return sol.evaluate(S_GRID)

    def check(self, values):
        err = float(np.max(np.abs(np.asarray(values) - S_GRID**self.sigma)))
        problems = []
        if not error_within(err, self.ref["error"]):
            problems.append(f"error {err:.3e} exceeds bound for reference {self.ref['error']:.3e}")
        return err, problems


class PdeOp(Op):
    """Space-time solve plus evaluation on the 33x33 grid at the final time."""

    def __init__(self, n: int, m: int):
        self.name = f"N={n},M={m}"
        transform = TransformSpec(PDE_R, HORIZON_T)
        self.problem, _ = pde_solver.manufactured_sine_power(
            PDE_DELTA, transform, PDE_SIGMA, dimension=2
        )
        self.time_basis = TimeBasis(0.0, n, (0.0, transform.b_psi))
        self.space_basis = pde_solver.SpatialBasis(m, 2)

    def run(self):
        sol = pde_solver.solve_spacetime(self.problem, self.time_basis, self.space_basis)
        return sol.evaluate(X_GRID, X_GRID, [HORIZON_T])

    def check(self, grid):
        sines = np.sin(math.pi * X_GRID)
        exact = np.multiply.outer(sines, sines) * HORIZON_T**PDE_SIGMA
        err = float(np.max(np.abs(np.asarray(grid)[:, :, 0] - exact)))
        problems = []
        if not error_within(err, self.ref["error"]):
            problems.append(f"error {err:.3e} exceeds bound for reference {self.ref['error']:.3e}")
        return err, problems


def _column_digest(columns: list[list[str]]) -> str:
    return hashlib.sha256("\n".join(",".join(col) for col in columns).encode()).hexdigest()


def summarize_csv(text: str) -> dict:
    """What a CLI table is checked by: header, key columns and error columns."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cols = {name: [row[i] for row in body] for i, name in enumerate(header)}
    keys = [cols[k] for k in KEY_COLUMNS if k in cols]
    errors = {
        name: [float(v) for v in vals] for name, vals in cols.items() if name.endswith("error")
    }
    summary = {"header": ",".join(header), "rows": len(body), "key_digest": _column_digest(keys)}
    if "u_numeric" in cols:
        # Grid tables: the largest error stands for the column, and the error
        # is also recomputed here from u_numeric and the closed form.
        summary["errors"] = {name: [max(vals)] for name, vals in errors.items()}
        summary["recomputed_error"] = _grid_error(cols)
    else:
        summary["errors"] = errors
    return summary


def _grid_error(cols: dict) -> float:
    u = np.array(cols["u_numeric"], dtype=float)
    if "s" in cols:
        exact = np.array(cols["s"], dtype=float) ** CLI_ODE_SIGMA
    else:
        x = np.array(cols["x"], dtype=float)
        y = np.array(cols["y"], dtype=float)
        exact = np.sin(math.pi * x) * np.sin(math.pi * y) * HORIZON_T**PDE_SIGMA
    return float(np.max(np.abs(u - exact)))


class CliOp(Op):
    """One in-process `fracspec.cli.main` call writing its CSV to a file."""

    def __init__(self, name: str, argv: list[str], out_dir: str):
        self.name = name
        self.out = os.path.join(out_dir, name.replace("/", "_").replace("=", "") + ".csv")
        self.argv = argv + ["--out", self.out]
        self.console = io.StringIO()

    def run(self):
        self.console.seek(0)
        self.console.truncate()
        with redirect_stdout(self.console), redirect_stderr(self.console):
            return cli.main(self.argv)

    def csv_bytes(self) -> int:
        return os.path.getsize(self.out)

    def check(self, exit_code):
        if exit_code != 0:
            return math.nan, [f"exit code {exit_code}: {self.console.getvalue().strip()[-200:]}"]
        with open(self.out, encoding="utf-8", newline="") as fh:
            got = summarize_csv(fh.read())
        ref = self.ref
        problems = [
            f"{field} differs from reference"
            for field in ("header", "rows", "key_digest")
            if got[field] != ref[field]
        ]
        if problems:
            return math.nan, problems
        for column, ref_vals in ref["errors"].items():
            for i, (e, r) in enumerate(zip(got["errors"][column], ref_vals)):
                if not error_within(e, r):
                    problems.append(f"{column} row {i}: {e:.3e} exceeds bound for reference {r:.3e}")
        if "recomputed_error" in ref and not error_within(
            got["recomputed_error"], ref["recomputed_error"]
        ):
            problems.append(f"u_numeric error {got['recomputed_error']:.3e} exceeds bound")
        # The error an operation reports: the finest row of a convergence
        # table, or the recomputed grid error.
        err = got.get("recomputed_error", got["errors"].get("linf_error", [math.nan])[-1])
        return float(err), problems


class Workload:
    def __init__(self, name: str, ops: list[Op]):
        self.name = name
        self.ops = ops

    def attach_reference(self, reference: dict):
        entries = reference[self.name]
        for op in self.ops:
            op.ref = entries[op.name]


def build(name: str, out_dir: str) -> Workload:
    """The named workload, its operations in their fixed listing order."""
    if name == "ode-sweep":
        ops = [OdeOp(p, r, d, sig, n) for p, r, d, sig in ODE_PROBLEMS for n in ODE_N]
    elif name == "pde-2d":
        ops = [PdeOp(n, m) for n, m in PDE_NM]
    elif name == "cli-study":
        os.makedirs(out_dir, exist_ok=True)
        ops = [CliOp(label, argv, out_dir) for label, argv in CLI_COMMANDS]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, ops)


NAMES = ("ode-sweep", "pde-2d", "cli-study")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
