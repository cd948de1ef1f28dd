"""Command-line front end: solve benchmark problems and emit CSV reports.

Exit codes: 0 success, 2 invalid usage or configuration, 3 numerical failure.
CSV output is plain RFC-4180: comma separators, '.' decimals, scientific
notation with 17 significant digits, one header row, LF line endings.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
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


def _parse_gamma(text: str) -> int:
    """Accept exactly '1' or '1/r' with integer r >= 1; return r."""
    text = text.strip()
    if text == "1":
        return 1
    parts = text.split("/")
    if len(parts) == 2 and parts[0].strip() == "1":
        try:
            r = int(parts[1])
        except ValueError:
            r = 0
        if r >= 1:
            return r
    raise CliError(f"gamma must be '1' or '1/r' with integer r >= 1, got {text!r}")


def _parse_resolutions(text: str) -> tuple[int, ...]:
    """Resolution list: either comma-separated ('2,4,8') or 'start:stop[:step]'."""
    text = text.strip()
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) not in (2, 3):
            raise CliError(f"bad range {text!r}; use start:stop[:step]")
        try:
            start, stop = int(pieces[0]), int(pieces[1])
            step = int(pieces[2]) if len(pieces) == 3 else 1
        except ValueError:
            raise CliError(f"bad range {text!r}; use start:stop[:step]") from None
        if step < 1 or stop < start:
            raise CliError(f"bad range {text!r}; use start:stop[:step]")
        return tuple(range(start, stop + 1, step))
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise CliError(f"bad resolution list {text!r}") from None
    if not values:
        raise CliError("empty resolution list")
    return values


def _resolutions(eff, key: str, minimum: int, default: tuple[int, ...]) -> tuple[int, ...]:
    """The convergence N or M list, each entry held to the minimum of a single solve."""
    values = _parse_resolutions(str(eff[key + "_raw"])) if eff[key + "_raw"] else default
    for value in values:
        _to_int({key: value}, key, minimum)
    return values


def _read_config(path: str) -> dict:
    """Line-oriented key=value file; '#' starts a comment."""
    settings = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                settings[key.strip()] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    return settings


# Settings taken from a --key flag or a config-file key=value line:
# (key, dest in the parsed and merged settings, help).
_SETTINGS = (
    ("problem", "problem", "problem id from the catalog (see list-problems)"),
    ("delta", "delta", "fractional order in (0,1)"),
    ("gamma", "gamma", "rescaling exponent, written '1' or '1/r'; " + GAMMA_GUIDE),
    ("lambda", "lam", "reaction coefficient (> 0), default 1"),
    ("T", "T", "time horizon, default 2"),
    ("N", "N", "time modes; convergence accepts '2,4,8' or '4:40:2'"),
    ("M", "M", "space degree (PDE); same list syntax for convergence"),
    ("ref-N", "ref_n", "reference resolution when no exact solution"),
    ("quad-guard", "quad_guard", "extra quadrature points (at least 2), default 8"),
    ("alpha", "alpha", "basis parameter (> -1), default 0; solution-invariant"),
    ("out", "out", "CSV output path (default: stdout)"),
    (
        "weighted-l2",
        "weighted_l2",
        "report the L2 error in the rescaled variable against the map weight",
    ),
)
# The key of each dest, for messages that name a setting.
_KEYS = {dest: key for key, dest, _ in _SETTINGS}
# On/off settings: a bare flag, or one of these values in the config file.
_SWITCHES = {"weighted-l2"}
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _merge(args: argparse.Namespace, config: dict) -> dict:
    """Effective settings: flag > config file > catalog default (applied later)."""
    keys = {key for key, _, _ in _SETTINGS}
    for key in config:
        if key not in keys:
            raise CliError(f"unknown config key {key!r}")
    merged = {}
    for key, dest, _ in _SETTINGS:
        flag = getattr(args, dest)
        if key in _SWITCHES:
            value = config.get(key, "0")
            if value not in _SWITCH_VALUES:
                raise CliError(f"{key} must be 1, true, yes, 0, false or no, got {value!r}")
            merged[dest] = flag or _SWITCH_VALUES[value]
        else:
            merged[dest] = flag if flag is not None else config.get(key)
    return merged


def _to_float(settings, dest, validator=None, message=None):
    val = settings.get(dest)
    if val is None:
        return None
    key = _KEYS[dest]
    try:
        out = float(val)
    except (TypeError, ValueError):
        raise CliError(f"{key} must be a number, got {val!r}") from None
    if validator is not None and not validator(out):
        raise CliError(message or f"invalid value for {key}: {out}")
    if not math.isfinite(out):
        raise CliError(f"{key} must be a finite number, got {val!r}")
    return out


def _to_int(settings, dest, minimum=None):
    val = settings.get(dest)
    if val is None:
        return None
    key = _KEYS[dest]
    try:
        out = int(val)
    except (TypeError, ValueError):
        raise CliError(f"{key} must be an integer, got {val!r}") from None
    if minimum is not None and out < minimum:
        raise CliError(f"{key} must be at least {minimum}, got {out}")
    return out


def _effective(settings: dict):
    """Validate the merged settings and apply catalog defaults.

    The returned entry is the catalog entry with any given delta, gamma,
    lambda and T in place of its own.
    """
    problem_id = settings.get("problem") or "example1"
    entry = get_entry(problem_id)
    overrides = {
        "delta": _to_float(settings, "delta", lambda d: 0.0 < d < 1.0, "delta must lie in (0,1)"),
        "lam": _to_float(settings, "lam", lambda v: v > 0, "lambda must be positive"),
        "horizon_T": _to_float(settings, "T", lambda v: v > 0, "T must be positive"),
    }
    alpha = _to_float(settings, "alpha", lambda v: v > -1.0, "alpha must exceed -1")
    if settings.get("gamma") is not None:
        overrides["r"] = _parse_gamma(str(settings["gamma"]))
    quad_guard = _to_int(settings, "quad_guard", minimum=2)
    return {
        "entry": replace(entry, **{k: v for k, v in overrides.items() if v is not None}),
        "given": {key for key, dest, _ in _SETTINGS if settings.get(dest) not in (None, False)},
        "alpha": 0.0 if alpha is None else alpha,
        "quad_guard": 8 if quad_guard is None else quad_guard,
        "out": settings.get("out"),
        "weighted_l2": bool(settings.get("weighted_l2")),
        "N_raw": settings.get("N"),
        "M_raw": settings.get("M"),
        "ref_n": _to_int(settings, "ref_n", minimum=2),
    }


def _header_lines(eff, extras: dict) -> list[str]:
    entry = eff["entry"]
    fields = {
        "problem": entry.problem_id,
        "delta": entry.delta,
        "gamma": f"1/{entry.r}" if entry.r > 1 else "1",
        "lambda": entry.lam,
        "T": entry.horizon_T,
        "alpha": eff["alpha"],
        "quad_guard": eff["quad_guard"],
        **extras,
    }
    joined = " ".join(f"{k}={v}" for k, v in fields.items())
    return [f"run: {joined}"]


def _emit(csv_lines: list[str], out_path, console_lines: list[str]):
    """CSV to file (or stdout when no path); notes to the other stream."""
    body = "\n".join(csv_lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        for line in console_lines:
            print(line)
    else:
        for line in console_lines:
            print(line, file=sys.stderr)
        sys.stdout.write(body)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _reject_unread(command: str, eff):
    """Exit 2 on a setting, given by flag or config key, that this run never reads."""
    entry, ode = eff["entry"], command == "solve-ode"
    pid, pde, exact = entry.problem_id, entry.kind == "pde-power", entry.has_exact
    for key, unread, reason in (
        ("lambda", pde, "the subdiffusion problem has a fixed reaction coefficient"),
        ("M", not pde, f"{pid} is a scalar problem, with no space degree"),
        ("ref-N", pde or exact or ode, f"{command} uses no reference solution for {pid}"),
        ("weighted-l2", pde or ode and not exact, f"{command} has no weighted L2 error for {pid}"),
    ):
        if unread and key in eff["given"]:
            raise CliError(f"{reason}; drop --{key}")


def _cmd_solve_ode(eff) -> int:
    entry = eff["entry"]
    if entry.kind == "pde-power":
        raise CliError("solve-ode needs a scalar problem; use solve-pde for example4")
    problem, exact = build_problem(entry)
    n = _to_int({"N": eff["N_raw"]}, "N", minimum=1) or entry.default_n
    basis = TimeBasis(eff["alpha"], n, (0.0, problem.transform.b_psi))
    sol = solve(problem, basis, eff["quad_guard"])

    s = np.linspace(0.0, problem.transform.horizon_T, 1001)
    u_num = sol.evaluate(s)
    console = _header_lines(eff, {"N": n, "grid": s.size})
    if exact is not None:
        u_ex = np.asarray(exact(s), dtype=float)
        rows = ["s,u_numeric,u_exact,abs_error"]
        rows += [
            f"{_fmt(si)},{_fmt(ui)},{_fmt(ei)},{_fmt(abs(ui - ei))}"
            for si, ui, ei in zip(s, u_num, u_ex)
        ]
        linf = error_linf(sol, exact)
        l2 = error_l2(sol, exact, weighted=eff["weighted_l2"])
        console.append(f"linf_error={_fmt(linf)} l2_error={_fmt(l2)}")
    else:
        rows = ["s,u_numeric"]
        rows += [f"{_fmt(si)},{_fmt(ui)}" for si, ui in zip(s, u_num)]
    _emit(rows, eff["out"], console)
    return EXIT_OK


def _cmd_convergence(eff) -> int:
    entry = eff["entry"]
    problem, exact = build_problem(entry)
    if entry.kind == "pde-power":
        n_values = _resolutions(eff, "N", 1, (entry.default_n,))
        m_values = _resolutions(eff, "M", 2, (entry.default_m,))
        if len(n_values) == 1 and len(m_values) > 1:
            n_values = n_values * len(m_values)
        if len(m_values) == 1 and len(n_values) > 1:
            m_values = m_values * len(n_values)
        study = run_pde_convergence_study(
            entry.problem_id, problem, exact, n_values, m_values, eff["alpha"], eff["quad_guard"]
        )
        console = _header_lines(eff, {"N": list(n_values), "M": list(m_values)})
        _emit(study.csv_rows(), eff["out"], console)
        return EXIT_OK

    n_values = _resolutions(eff, "N", 1, (2, 4, 8, 16))
    ref_n = eff["ref_n"] if eff["ref_n"] is not None else (None if exact else entry.default_ref_n)
    request = StudyRequest(
        problem_id=entry.problem_id,
        problem=problem,
        n_values=tuple(n_values),
        exact=exact,
        ref_n=ref_n,
        alpha=eff["alpha"],
        weighted_l2=eff["weighted_l2"],
        quad_guard=eff["quad_guard"],
    )
    study = run_convergence_study(request)
    console = _header_lines(eff, {"N": list(n_values), "ref_N": ref_n})
    _emit(study.csv_rows(), eff["out"], console)
    return EXIT_OK


def _cmd_solve_pde(eff) -> int:
    entry = eff["entry"]
    if entry.kind != "pde-power":
        raise CliError("solve-pde needs a space-time problem (example4)")
    problem, exact = build_problem(entry)
    n = _to_int({"N": eff["N_raw"]}, "N", minimum=1) or entry.default_n
    m = _to_int({"M": eff["M_raw"]}, "M", minimum=2) or entry.default_m
    tb = TimeBasis(eff["alpha"], n, (0.0, problem.transform.b_psi))
    sb = SpatialBasis(m, problem.dimension)
    sol = solve_spacetime(problem, tb, sb, eff["quad_guard"])

    T = problem.transform.horizon_T
    xg = np.linspace(-1.0, 1.0, 33)
    grid = sol.evaluate(xg, xg, [T])[:, :, 0]
    exact_grid = exact(xg, xg, [T])[:, :, 0]
    rows = ["x,y,u_numeric,u_exact,abs_error"]
    for i, xi in enumerate(xg):
        for j, yj in enumerate(xg):
            ui, ei = grid[i, j], exact_grid[i, j]
            rows.append(f"{_fmt(xi)},{_fmt(yj)},{_fmt(ui)},{_fmt(ei)},{_fmt(abs(ui - ei))}")
    linf, l2 = pde_errors_at_final_time(sol, exact)
    console = _header_lines(eff, {"N": n, "M": m})
    console.append(f"grid_linf_error={_fmt(linf)} grid_l2_error={_fmt(l2)}")
    _emit(rows, eff["out"], console)
    return EXIT_OK


def _cmd_list_problems() -> int:
    for pid in sorted(CATALOG):
        e = CATALOG[pid]
        gamma = f"1/{e.r}" if e.r > 1 else "1"
        exact = "exact known" if e.has_exact else "reference-based"
        print(
            f"{pid}: {e.description} "
            f"[kind={e.kind} delta={e.delta} gamma={gamma} lambda={e.lam} T={e.horizon_T} "
            f"N={e.default_n}{'' if e.default_m is None else ' M=%d' % e.default_m}; {exact}]"
        )
    print()
    print(GAMMA_GUIDE)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description=(
            "Spectral solver for rescaled time-fractional problems. "
            "The time variable is rescaled by s = t^(1/gamma) before a Galerkin "
            "spectral discretization; " + GAMMA_GUIDE
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        for key, dest, help_text in _SETTINGS:
            action = "store_true" if key in _SWITCHES else "store"
            p.add_argument("--" + key, dest=dest, action=action, help=help_text)
        p.add_argument("--config", help="key=value config file; flags take precedence")

    for name, help_text in (
        ("solve-ode", "solve a scalar problem and write s,u CSV"),
        ("convergence", "run a resolution sweep and write an error table"),
        ("solve-pde", "solve the 2-d subdiffusion problem and write the final-time grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
    sub.add_parser("list-problems", help="describe the problem catalog and defaults")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-problems":
        return _cmd_list_problems()
    try:
        config = _read_config(args.config) if args.config else {}
        eff = _effective(_merge(args, config))
        _reject_unread(args.command, eff)
        # The solvers refuse a non-finite matrix, solution or residual in one
        # line; numpy's floating-point warnings would only repeat it.
        with np.errstate(all="ignore"):
            if args.command == "solve-ode":
                return _cmd_solve_ode(eff)
            if args.command == "convergence":
                return _cmd_convergence(eff)
            if args.command == "solve-pde":
                return _cmd_solve_pde(eff)
        raise CliError(f"unknown command {args.command!r}")
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
