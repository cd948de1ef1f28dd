"""Command-line front end: solve benchmark problems and emit CSV reports.

Exit codes: 0 success, 2 invalid usage or configuration, 3 numerical failure.
CSV output is plain RFC-4180: comma separators, '.' decimals, scientific
notation with 17 significant digits, one header row, LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    LINF_GRID,
    PDE_GRID,
    StudyRequest,
    error_l2,
    error_linf,
    pde_errors_at_final_time,
    run_convergence_study,
    run_pde_convergence_study,
)
from .errors import DomainError, NumericalFailureError, StudyError
from .ode_solver import solve
from .orthopoly import TimeBasis
from .pde_solver import SpatialBasis, solve_spacetime
from .problems import CATALOG, build_problem, get_entry

__all__ = ["main", "entry"]

GAMMA_GUIDE = (
    "choosing gamma = 1/r: use gamma=1 when the solution itself is smooth; "
    "when only the source is smooth and delta = p/q is rational, gamma = 1/q "
    "(or 1/(n*q)) makes the rescaled solution smooth; for irrational delta "
    "pick gamma = 1/q with q moderately large."
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    """Invalid configuration detected after argument parsing."""


def _gamma_text(r: int) -> str:
    """gamma = 1/r as the CLI reads and writes it."""
    return f"1/{r}" if r > 1 else "1"


# Parsers of a setting's text: parse(key, text) returns the value or raises a
# CliError that names the key.


def _number(rule: str, low: float, high: float = math.inf):
    """A finite number in (low, high); `rule` words that range as '<key> must <rule>'."""

    def parse(key, text):
        try:
            value = float(text)
        except ValueError:
            raise CliError(f"{key} must be a number, got {text!r}") from None
        if not math.isfinite(value):
            raise CliError(f"{key} must be a finite number, got {text!r}")
        if not low < value < high:
            raise CliError(f"{key} must {rule}")
        return value

    return parse


def _integer(minimum: int):
    def parse(key, text):
        try:
            value = int(text)
        except ValueError:
            raise CliError(f"{key} must be an integer, got {text!r}") from None
        if value < minimum:
            raise CliError(f"{key} must be at least {minimum}, got {value}")
        return value

    return parse


def _resolution_list(minimum: int):
    """A tuple of integers, each at least `minimum`: '8', '2,4,8' or 'start:stop[:step]'."""
    entry = _integer(minimum)

    def parse(key, text):
        if ":" not in text:
            return tuple(entry(key, value) for value in text.split(","))
        pieces = text.split(":")
        try:
            start, stop, step = map(int, pieces if len(pieces) == 3 else pieces + ["1"])
        except ValueError:
            step = 0  # refused below
        if step < 1 or stop < start:
            raise CliError(f"{key} range must be start:stop[:step], got {text!r}")
        return tuple(entry(key, value) for value in range(start, stop + 1, step))

    return parse


def _gamma(key, text):
    """'1' or '1/r' with integer r >= 1, as r."""
    one, slash, denominator = text.partition("/")
    try:
        r = int(denominator) if slash else 1
    except ValueError:
        r = 0
    if one.strip() != "1" or r < 1:
        raise CliError(f"{key} must be '1' or '1/r' with integer r >= 1, got {text!r}")
    return r


def _text(key, text):
    if not text:
        raise CliError(f"{key} must not be empty")
    return text


_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _switch(key, text):
    if text not in _SWITCH_VALUES:
        raise CliError(f"{key} must be 1, true, yes, 0, false or no, got {text!r}")
    return _SWITCH_VALUES[text]


# Settings taken from a --key flag or a config-file key=value line:
# (key, dest of the flag, parser of its text, help).  The problem comes
# first: it decides which of the others a run reads.
_SETTINGS = (
    ("problem", "problem", lambda _, text: get_entry(text),
     "problem id from the catalog (see list-problems)"),
    ("delta", "delta", _number("lie in (0,1)", 0.0, 1.0), "fractional order in (0,1)"),
    ("gamma", "gamma", _gamma, "rescaling exponent, written '1' or '1/r'; " + GAMMA_GUIDE),
    ("lambda", "lam", _number("be positive", 0.0), "reaction coefficient (> 0), default 1"),
    ("T", "T", _number("be positive", 0.0), "time horizon, default 2"),
    ("N", "N", _resolution_list(1), "time modes; convergence accepts '2,4,8' or '4:40:2'"),
    ("M", "M", _resolution_list(2), "space degree (PDE); same list syntax for convergence"),
    ("ref-N", "ref_n", _integer(2), "reference resolution when no exact solution"),
    ("out", "out", _text, "CSV output path (default: stdout)"),
    ("weighted-l2", "weighted_l2", _switch,
     "report the L2 error in the rescaled variable against the map weight"),
)


def _read_config(path: str) -> dict:
    """Line-oriented key=value file; '#' starts a comment."""
    keys = {key for key, _, _, _ in _SETTINGS}
    settings = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in keys:
                    raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in settings:
                    raise CliError(f"{path}:{lineno}: repeated config key {key!r}")
                settings[key] = value
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    return settings


def _effective(command: str, args: argparse.Namespace, config: dict) -> dict:
    """Every setting's value by dest, None where not given, and the run's catalog entry.

    The settings this run never reads are refused before any value is parsed.
    Every given text, a flag's or a config line's, goes through its parser,
    and a flag's value wins.  The entry is the catalog entry with any given
    delta, gamma, lambda and T in place of its own.
    """

    def value(key, dest, parse):
        texts = (getattr(args, dest), config.get(key))
        values = [parse(key, text) for text in texts if text is not None]
        return values[0] if values else None

    (key, dest, parse, _), *rows = _SETTINGS
    entry = value(key, dest, parse) or get_entry("example1")
    given = {key for key, dest, _, _ in rows if getattr(args, dest) is not None or key in config}
    _reject_unread(command, entry, given)
    eff = {dest: value(key, dest, parse) for key, dest, parse, _ in rows}
    overrides = {"delta": eff["delta"], "r": eff["gamma"], "lam": eff["lam"], "horizon_T": eff["T"]}
    eff["entry"] = replace(entry, **{k: v for k, v in overrides.items() if v is not None})
    eff["weighted_l2"] = bool(eff["weighted_l2"])
    return eff


def _reject_unread(command: str, entry, given: set):
    """Exit 2 on a setting, given by flag or config key, that this run never reads."""
    ode, pde, exact = command == "solve-ode", entry.kind == "pde-power", entry.has_exact
    pid = entry.problem_id
    for key, unread, reason in (
        ("lambda", pde, "the subdiffusion problem has a fixed reaction coefficient"),
        ("M", not pde, f"{pid} is a scalar problem, with no space degree"),
        ("ref-N", pde or exact or ode, f"{command} uses no reference solution for {pid}"),
        ("weighted-l2", pde or ode and not exact, f"{command} has no weighted L2 error for {pid}"),
    ):
        if unread and key in given:
            raise CliError(f"{reason}; drop --{key}")


def _header_lines(eff, extras: dict) -> list[str]:
    entry = eff["entry"]
    fields = {
        "problem": entry.problem_id,
        "delta": entry.delta,
        "gamma": _gamma_text(entry.r),
        "lambda": entry.lam,
        "T": entry.horizon_T,
        **extras,
    }
    joined = " ".join(f"{k}={v}" for k, v in fields.items())
    return [f"run: {joined}"]


# The printf format of a CSV cell, by column; every other column is %.16e,
# 17 significant digits.
_CELL_FORMATS = {"N": "%d", "M": "%d", "runtime_ms": "%.3f"}


def _emit(columns: dict, out_path, console_lines: list[str]):
    """The named columns as CSV to a file (or stdout when no path); notes to the other stream."""
    row = ",".join(_CELL_FORMATS.get(name, "%.16e") for name in columns) + "\n"
    # Python numbers format faster than numpy scalars, to the same text.
    values = (col.tolist() if isinstance(col, np.ndarray) else col for col in columns.values())
    body = ",".join(columns) + "\n" + "".join(row % cells for cells in zip(*values))
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        for line in console_lines:
            print(line)
    else:
        for line in console_lines:
            print(line, file=sys.stderr)
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _one(eff, key: str, default: int) -> int:
    """The single N or M of a solve command."""
    if eff[key] is not None and len(eff[key]) > 1:
        raise CliError(f"a solve takes one {key}, got {len(eff[key])} values")
    return default if eff[key] is None else eff[key][0]


def _cmd_solve_ode(eff) -> int:
    entry = eff["entry"]
    if entry.kind == "pde-power":
        raise CliError("solve-ode needs a scalar problem; use solve-pde for example4")
    problem, exact = build_problem(entry)
    n = _one(eff, "N", entry.default_n)
    sol = solve(problem, TimeBasis(0.0, n, (0.0, problem.transform.b_psi)))

    s = np.linspace(0.0, problem.transform.horizon_T, LINF_GRID)
    columns = {"s": s, "u_numeric": sol.evaluate(s)}
    console = _header_lines(eff, {"N": n, "grid": s.size})
    if exact is not None:
        columns["u_exact"] = np.asarray(exact(s), dtype=float)
        columns["abs_error"] = np.abs(columns["u_numeric"] - columns["u_exact"])
        linf = error_linf(sol, exact)
        l2 = error_l2(sol, exact, weighted=eff["weighted_l2"])
        console.append(f"linf_error={linf:.16e} l2_error={l2:.16e}")
    _emit(columns, eff["out"], console)
    return EXIT_OK


def _cmd_convergence(eff) -> int:
    entry = eff["entry"]
    problem, exact = build_problem(entry)
    if entry.kind == "pde-power":
        n_values = eff["N"] or (entry.default_n,)
        m_values = eff["M"] or (entry.default_m,)
        # A single N or M is paired with every entry of the other list.
        size = max(len(n_values), len(m_values))
        n_values, m_values = (v * size if len(v) == 1 else v for v in (n_values, m_values))
        study = run_pde_convergence_study(entry.problem_id, problem, exact, n_values, m_values)
        extras = {}
    else:
        ref_n = eff["ref_n"] if eff["ref_n"] is not None else (None if exact else entry.default_ref_n)
        request = StudyRequest(
            problem_id=entry.problem_id,
            problem=problem,
            n_values=eff["N"] or (2, 4, 8, 16),
            exact=exact,
            ref_n=ref_n,
            weighted_l2=eff["weighted_l2"],
        )
        study = run_convergence_study(request)
        extras = {"ref_N": ref_n}
    columns = study.columns()
    resolutions = {key: columns[key] for key in ("N", "M") if key in columns}
    _emit(columns, eff["out"], _header_lines(eff, {**resolutions, **extras}))
    return EXIT_OK


def _cmd_solve_pde(eff) -> int:
    entry = eff["entry"]
    if entry.kind != "pde-power":
        raise CliError("solve-pde needs a space-time problem (example4)")
    problem, exact = build_problem(entry)
    n = _one(eff, "N", entry.default_n)
    m = _one(eff, "M", entry.default_m)
    tb = TimeBasis(0.0, n, (0.0, problem.transform.b_psi))
    sol = solve_spacetime(problem, tb, SpatialBasis(m, problem.dimension))

    T = problem.transform.horizon_T
    xg = np.linspace(-1.0, 1.0, PDE_GRID)
    u_num = sol.evaluate(xg, xg, [T])[:, :, 0].ravel()
    u_ex = exact(xg, xg, [T])[:, :, 0].ravel()
    columns = {
        "x": np.repeat(xg, xg.size),
        "y": np.tile(xg, xg.size),
        "u_numeric": u_num,
        "u_exact": u_ex,
        "abs_error": np.abs(u_num - u_ex),
    }
    linf, l2 = pde_errors_at_final_time(sol, exact)
    console = _header_lines(eff, {"N": n, "M": m})
    console.append(f"grid_linf_error={linf:.16e} grid_l2_error={l2:.16e}")
    _emit(columns, eff["out"], console)
    return EXIT_OK


def _cmd_list_problems() -> int:
    for pid in sorted(CATALOG):
        e = CATALOG[pid]
        exact = "exact known" if e.has_exact else "reference-based"
        print(
            f"{pid}: {e.description} "
            f"[kind={e.kind} delta={e.delta} gamma={_gamma_text(e.r)} lambda={e.lam} T={e.horizon_T} "
            f"N={e.default_n}{'' if e.default_m is None else ' M=%d' % e.default_m}; {exact}]"
        )
    print()
    print(GAMMA_GUIDE)
    return EXIT_OK


# The commands that read settings: name, function, help.
_COMMANDS = (
    ("solve-ode", _cmd_solve_ode, "solve a scalar problem and write s,u CSV"),
    ("convergence", _cmd_convergence, "run a resolution sweep and write an error table"),
    ("solve-pde", _cmd_solve_pde, "solve the 2-d subdiffusion problem and write the final-time grid"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each parse_args call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description=(
            "Spectral solver for rescaled time-fractional problems. "
            "The time variable is rescaled by s = t^(1/gamma) before a Galerkin "
            "spectral discretization; " + GAMMA_GUIDE
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for key, dest, parse, setting_help in _SETTINGS:
            # A switch's flag stands for the config line '<key>=yes'.
            switch = {"action": "store_const", "const": "yes"} if parse is _switch else {}
            p.add_argument("--" + key, dest=dest, help=setting_help, **switch)
        p.add_argument("--config", help="key=value config file; flags take precedence")
    sub.add_parser("list-problems", help="describe the problem catalog and defaults")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-problems":
        return _cmd_list_problems()
    try:
        config = _read_config(args.config) if args.config is not None else {}
        eff = _effective(args.command, args, config)
        # The solvers refuse a non-finite matrix, solution or residual in one
        # line; numpy's floating-point warnings would only repeat it.
        with np.errstate(all="ignore"):
            return args.run(eff)
    except (CliError, DomainError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (NumericalFailureError, StudyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


def entry():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
