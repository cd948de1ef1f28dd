import csv
import importlib.util
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracspec
import fracspec.cli as cli_mod
from fracspec.analysis import error_linf
from fracspec.cli import _build_parser, _effective, _read_config, main
from fracspec.ode_solver import solve
from fracspec.orthopoly import TimeBasis
from fracspec.problems import build_problem, get_entry

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


suite = load_script("run_convergence_suite")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_lines(path):
    return path.read_text(encoding="utf-8").split("\n")


# ---------------------------------------------------------------------------
# solve-ode
# ---------------------------------------------------------------------------


def test_solve_ode_example1_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    code, stdout, _ = run_cli(
        capsys, "solve-ode", "--problem", "example1", "--delta", "0.5", "--N", "4", "--out", str(out)
    )
    assert code == 0
    summary = [l for l in stdout.splitlines() if l.startswith("linf_error=")]
    assert len(summary) == 1
    linf = float(summary[0].split()[0].split("=")[1])
    assert linf <= 1e-13
    # The printed maximum of the abs_error column is error_linf's value, bit for bit.
    problem, exact = build_problem(get_entry("example1"))
    sol = solve(problem, TimeBasis(0.0, 4, (0.0, problem.transform.b_psi)))
    assert linf == error_linf(sol, exact)
    lines = read_lines(out)
    assert lines[0] == "s,u_numeric,u_exact,abs_error"
    assert len([l for l in lines if l]) == 1002  # header + 1001 rows
    assert lines[-1] == ""  # trailing LF


def test_solve_ode_row_count_without_out_path(capsys):
    code, stdout, stderr = run_cli(
        capsys, "solve-ode", "--problem", "example2a", "--gamma", "1/5", "--delta", "0.2", "--N", "8"
    )
    assert code == 0
    rows = [l for l in stdout.splitlines() if l]
    assert rows[0] == "s,u_numeric,u_exact,abs_error"
    assert len(rows) == 1002
    assert "run:" in stderr  # header goes to the console stream, not the CSV


def test_solve_ode_example3_has_no_exact_columns(capsys):
    code, stdout, _ = run_cli(capsys, "solve-ode", "--problem", "example3", "--N", "12")
    assert code == 0
    assert stdout.splitlines()[0] == "s,u_numeric"


def test_solve_ode_csv_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "solve-ode", "--problem", "example2a", "--N", "6", "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_ode_scientific_notation_precision(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run_cli(capsys, "solve-ode", "--problem", "example1", "--N", "2", "--out", str(out))
    cell = read_lines(out)[500].split(",")[1]
    mantissa = cell.split("e")[0]
    assert len(mantissa.split(".")[1]) >= 15


# ---------------------------------------------------------------------------
# validation and exit codes
# ---------------------------------------------------------------------------


def test_delta_out_of_range_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "solve-ode", "--problem", "example1", "--delta", "1.5")
    assert code == 2
    assert "delta must lie in (0,1)" in stderr


def test_gamma_must_be_unit_fraction(capsys):
    code, _, stderr = run_cli(capsys, "solve-pde", "--problem", "example4", "--gamma", "0.3")
    assert code == 2
    assert "gamma" in stderr
    code, _, _ = run_cli(capsys, "solve-ode", "--problem", "example1", "--gamma", "2/3")
    assert code == 2


def test_unknown_problem_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "solve-ode", "--problem", "nope")
    assert code == 2
    assert "unknown problem" in stderr


def test_negative_lambda_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "solve-ode", "--problem", "example1", "--lambda", "-1")
    assert code == 2
    assert "lambda" in stderr


def test_help_exits_zero_and_documents_gamma_choice(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "gamma = 1/q" in out
    with pytest.raises(SystemExit) as info:
        main(["solve-ode", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--problem", "--delta", "--gamma", "--lambda", "--T", "--N", "--M",
                 "--ref-N", "--out", "--config", "--weighted-l2"):
        assert flag in out
    for flag in RETIRED_FLAGS:
        assert flag not in out


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_numerical_failure_exits_3(capsys, monkeypatch):
    from fracspec.errors import NumericalFailureError

    def failing_solve(problem, basis):
        raise NumericalFailureError("synthetic breakdown")

    monkeypatch.setattr(cli_mod, "solve", failing_solve)
    code, _, stderr = run_cli(capsys, "solve-ode", "--problem", "example1", "--N", "4")
    assert code == 3
    assert "numerical failure" in stderr


@pytest.mark.parametrize("value", ["inf", "Infinity"])
@pytest.mark.parametrize("key, dest", [("T", "T"), ("lambda", "lam")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_infinite_number_exits_2(tmp_path, capsys, source, key, dest, value):
    # inf passes every range check, so it is refused as not finite.
    if source == "flag":
        given = [f"--{key}={value}"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        given = ["--config", str(config)]
    code, stdout, stderr = run_cli(capsys, "solve-ode", "--problem", "example1", *given)
    assert (code, stdout) == (2, "")
    # The message names the setting by its key, never by its internal dest.
    assert stderr.startswith(f"{key} must be a finite number, got '{value}'")
    assert dest == key or f"{dest} must" not in stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-ode", "--lambda", "x"], "lambda must be a number, got 'x'"),
        (["solve-ode", "--T", "x"], "T must be a number, got 'x'"),
        (["convergence", "--problem", "example3", "--ref-N", "x"], "ref-N must be an integer, got 'x'"),
        (["solve-pde", "--problem", "example4", "--M", "4,6"], "a solve takes one M, got 2 values"),
    ],
    ids=["lambda", "T", "ref-N", "solve-M-list"],
)
def test_setting_message_names_its_key(capsys, argv, message):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr == message + "\n"


@pytest.mark.parametrize(
    "argv",
    [["solve-ode", "--problem", "example1"], ["solve-pde", "--problem", "example4", "--M", "4"]],
    ids=["solve-ode", "solve-pde"],
)
def test_overflowing_horizon_exits_3(capsys, argv):
    # The refusal is the only line: numpy's overflow warnings would be errors here.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr = run_cli(capsys, *argv, "--N", "4", "--T", "1e200")
    assert (code, stdout) == (3, "")
    assert "assembly failed" in stderr and "the weight's scale overflows" in stderr
    assert stderr.count("\n") == 1 and stderr.endswith("\n")


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (
            ["solve-ode", "--T", "1e-120", "--N", "6"],
            "numerical failure: assembly failed (delta=0.5, r=1, N=6): Gauss-Jacobi rule "
            "(alpha=0.0, beta=2.0, n=5) on (0.0, 1e-120): the weight's scale underflows\n",
        ),
        (
            ["solve-pde", "--problem", "example4", "--T", "1e-300", "--N", "3", "--M", "3"],
            "numerical failure: assembly failed (delta=0.5, r=5, N=3, M=3): Gauss-Jacobi rule "
            "(alpha=0.0, beta=4.5, n=3) on (0.0, 9.999999999999924e-61): the weight's scale underflows\n",
        ),
    ],
    ids=["solve-ode", "solve-pde"],
)
def test_underflowing_weight_scale_exits_3_in_one_line(capsys, argv, stderr):
    # A tiny horizon makes the basis interval's weight scale underflow to 0:
    # refused by name, not as weights that are not all positive.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(capsys, *argv) == (3, "", stderr)


@pytest.mark.parametrize(
    "argv, solve",
    [
        (["solve-ode", "--problem", "example1"], "(delta=0.5, r=1, N=4)"),
        (["solve-pde", "--problem", "example4", "--M", "4"], "(delta=0.5, r=5, N=4, M=4)"),
    ],
    ids=["solve-ode", "solve-pde"],
)
def test_overflowing_basis_parameter_exits_3_in_the_assembly_stage(capsys, monkeypatch, argv, solve):
    # No setting reaches the basis parameter, so the commands get an
    # overflowing one through their TimeBasis.
    monkeypatch.setattr(cli_mod, "TimeBasis", lambda _, n, interval: TimeBasis(1e200, n, interval))
    # The refusal is the only line: numpy's overflow warnings would be errors here.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr = run_cli(capsys, *argv, "--N", "4")
    assert (code, stdout) == (3, "")
    assert stderr == f"numerical failure: assembly failed {solve}: non-finite stiffness matrix\n"


# Flags of settings that became constants: the quadrature guard (ode_solver.QUAD_GUARD)
# and the basis parameter, which every command fixes at 0.
RETIRED_FLAGS = ("--quad-guard", "--alpha")


@pytest.mark.parametrize("argv", [["--quad-guard", "8"], ["--alpha", "0"]], ids=["quad-guard", "alpha"])
@pytest.mark.parametrize("command", ["solve-ode", "solve-pde", "convergence"])
def test_retired_flag_exits_2(capsys, command, argv):
    with pytest.raises(SystemExit) as info:
        main([command, *argv])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["quad-guard=8", "alpha=0"])
def test_retired_config_key_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "solve-ode", "--problem", "example1", "--config", str(cfg))
    assert (code, stdout) == (2, "")
    assert stderr == f"{cfg}:1: unknown config key {line.split('=')[0]!r}\n"


@pytest.mark.parametrize(
    "argv, key",
    [
        (["solve-ode", "--N", "4"], "problem"),
        (["convergence", "--problem", "example4", "--N", "4"], "M"),
        (["convergence", "--problem", "example1"], "N"),
        (["solve-ode", "--problem", "example1", "--N", "4"], "out"),
    ],
    ids=["problem", "M", "N", "out"],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_value_exits_2(tmp_path, capsys, argv, key, source):
    # An empty value is refused, never read as "not given" and replaced by the default.
    if source == "flag":
        given = [f"--{key}="]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=\n", encoding="utf-8")
        given = ["--config", str(cfg)]
    code, stdout, stderr = run_cli(capsys, *argv, *given)
    assert (code, stdout) == (2, "")
    assert key in stderr


def test_config_line_under_a_flag_is_still_parsed(tmp_path, capsys):
    # The flag's value is the one used, but a bad line in the file is refused all the same.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=5\n", encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, "solve-ode", "--problem", "example1", "--N", "4", "--delta", "0.5", "--config", str(cfg)
    )
    assert (code, stdout, stderr) == (2, "", "delta must lie in (0,1)\n")


# Every numeric setting of each command, with the values for a small run, and
# the retired settings, which exit 2 whatever their value.
_NUMERIC_SETTINGS = [
    ("solve-ode --problem example1 --N 4", ("delta", "gamma", "lambda", "T", "quad-guard", "alpha")),
    ("solve-ode --problem example1", ("N",)),
    ("solve-pde --problem example4 --N 4 --M 4", ("delta", "gamma", "T", "quad-guard", "alpha")),
    ("solve-pde --problem example4 --M 4", ("N",)),
    ("solve-pde --problem example4 --N 4", ("M",)),
    ("convergence --problem example3 --N 2,4", ("ref-N",)),
]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e200", "0", "-1", "x"])
@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command, keys in _NUMERIC_SETTINGS for key in keys],
    ids=[f"{command.split()[0]}-{key}" for command, keys in _NUMERIC_SETTINGS for key in keys],
)
def test_numeric_setting_at_an_edge_exits_0_2_or_3(capsys, command, key, value):
    if "--" + key in RETIRED_FLAGS:
        with pytest.raises(SystemExit) as info:
            main([*command.split(), f"--{key}={value}"])
        assert info.value.code == 2
        return
    code, stdout, stderr = run_cli(capsys, *command.split(), f"--{key}={value}")
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr
    if code:
        assert stdout == ""


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def test_convergence_example1_two_rows(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys, "convergence", "--problem", "example1", "--N", "2,4", "--out", str(out)
    )
    assert code == 0
    lines = [l for l in read_lines(out) if l]
    assert lines[0] == "N,linf_error,l2_error,runtime_ms"
    assert len(lines) == 3
    for row in lines[1:]:
        cells = row.split(",")
        assert float(cells[1]) <= 1e-13
        assert float(cells[2]) <= 1e-13


def test_convergence_rows_ordered_by_resolution(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, stdout, _ = run_cli(
        capsys, "convergence", "--problem", "example2b", "--N", "8,4,12", "--out", str(out)
    )
    assert code == 0
    ns = [int(l.split(",")[0]) for l in read_lines(out)[1:] if l]
    assert ns == [4, 8, 12]
    # The run header names the N values the study ran, in its order.
    assert " N=[4, 8, 12] " in stdout


def test_convergence_range_syntax(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys, "convergence", "--problem", "example2a", "--N", "2:8:2", "--out", str(out)
    )
    assert code == 0
    ns = [int(l.split(",")[0]) for l in read_lines(out)[1:] if l]
    assert ns == [2, 4, 6, 8]


def test_convergence_determinism_modulo_runtime(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        run_cli(capsys, "convergence", "--problem", "example2b", "--N", "4,8", "--out", str(path))
        outs.append([l.rsplit(",", 1)[0] for l in read_lines(path) if l])
    assert outs[0] == outs[1]


def test_convergence_reference_study_gamma_comparison(tmp_path, capsys):
    finals = {}
    for gamma in ("1/6", "1"):
        out = tmp_path / f"g{gamma.replace('/', '_')}.csv"
        code, _, _ = run_cli(
            capsys,
            "convergence", "--problem", "example3", "--gamma", gamma,
            "--ref-N", "60", "--N", "10:30:10", "--out", str(out),
        )
        assert code == 0
        finals[gamma] = float([l for l in read_lines(out) if l][-1].split(",")[1])
    assert finals["1/6"] <= 1e-3 * finals["1"]


def test_reference_study_checks_its_resolutions_before_the_reference(capsys):
    # The reference at N = 80 would be refused (exit 3); the repeated N is
    # reported first, with no solve done.
    code, stdout, stderr = run_cli(
        capsys,
        "convergence", "--problem", "example3", "--gamma", "1/7", "--delta", "0.2",
        "--ref-N", "80", "--N", "4,4",
    )
    assert (code, stdout) == (2, "")
    assert stderr == "resolutions must be strictly increasing\n"


def test_weighted_l2_flag_runs_and_matches_plain(capsys):
    outs = {}
    for extra in ((), ("--weighted-l2",)):
        code, _, stderr = run_cli(
            capsys, "solve-ode", "--problem", "example2a", "--N", "8", *extra
        )
        assert code == 0
        summary = [l for l in stderr.splitlines() if l.startswith("linf_error=")][0]
        outs[extra] = float(summary.split()[1].split("=")[1])
    plain, weighted = outs[()], outs[("--weighted-l2",)]
    # same norm evaluated in the two variables; tiny quadrature-sampling gap
    assert weighted == pytest.approx(plain, rel=1e-3, abs=1e-12)


def test_successive_runs_share_no_settings(tmp_path, capsys):
    # main builds its parser once: a run's --out and --weighted-l2 must not
    # reach a later run that leaves them out.
    assert _build_parser() is _build_parser()
    argv = ("convergence", "--problem", "example2a", "--N", "4,8")
    out = tmp_path / "weighted.csv"

    def errors(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, _, _ = run_cli(capsys, *argv, "--out", str(out), "--weighted-l2")
    assert code == 0
    weighted = out.read_text(encoding="utf-8")
    out.unlink()
    assert errors(weighted) != errors(plain)
    code, again, _ = run_cli(capsys, *argv)
    assert code == 0
    assert not out.exists()
    assert errors(again) == errors(plain)


def test_convergence_pde_sweep(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _, _ = run_cli(
        capsys,
        "convergence", "--problem", "example4", "--N", "12", "--M", "6,8,10", "--out", str(out),
    )
    assert code == 0
    lines = [l for l in read_lines(out) if l]
    assert lines[0] == "N,M,linf_error,l2_error,runtime_ms"
    errs = [float(l.split(",")[2]) for l in lines[1:]]
    assert errs[2] < errs[0]


@pytest.mark.parametrize("name, flags", suite.STUDIES, ids=[name for name, _ in suite.STUDIES])
def test_convergence_suite_study_matches_committed_csv(tmp_path, capsys, name, flags):
    # Every setting of the suite must answer: a refused one exits 3.  Each
    # error must stay within perfbench's answer rule, sqrt(10) times the
    # committed value with a 2e-14 floor.
    out = tmp_path / name
    code, _, stderr = run_cli(capsys, "convergence", *flags.split(), "--out", str(out))
    assert code == 0, stderr
    got = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
    committed = list(csv.reader((ROOT / "results" / name).read_text(encoding="utf-8").splitlines()))
    header = committed[0]
    assert got[0] == header
    assert len(got) == len(committed)
    keys = [i for i, column in enumerate(header) if column in ("N", "M")]
    errors = [i for i, column in enumerate(header) if column.endswith("error")]
    for row, ref in zip(got[1:], committed[1:]):
        assert [row[i] for i in keys] == [ref[i] for i in keys]
        for i in errors:
            assert float(row[i]) <= math.sqrt(10.0) * max(float(ref[i]), 2e-14), (row, ref)


# A cell is an integer (N, M), a three-decimal runtime_ms or, in every other
# column, scientific notation with 17 significant digits.
CELL_PATTERNS = {"N": r"\d+", "M": r"\d+", "runtime_ms": r"\d+\.\d{3}"}
SCIENTIFIC = r"-?\d\.\d{16}e[+-]\d{2,3}"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-ode", "--problem", "example1", "--N", "2"],
        ["solve-ode", "--problem", "example3", "--N", "2"],
        ["solve-pde", "--problem", "example4", "--N", "2", "--M", "2"],
        ["convergence", "--problem", "example1", "--N", "2,3"],
        ["convergence", "--problem", "example4", "--N", "2", "--M", "2,3"],
    ],
    ids=["solve-ode", "solve-ode-no-exact", "solve-pde", "convergence", "convergence-pde"],
)
def test_every_table_cell_has_its_column_format(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 0, stderr
    header, *rows = list(csv.reader(stdout.splitlines()))
    assert rows
    patterns = [re.compile(CELL_PATTERNS.get(column, SCIENTIFIC)) for column in header]
    for row in rows:
        assert len(row) == len(header)
        assert all(p.fullmatch(cell) for p, cell in zip(patterns, row)), row


def test_suite_names_the_study_that_failed(tmp_path, capsys, monkeypatch):
    # The suite stops at the first failed study, returns its exit code and
    # names its CSV; the studies before it ran, the ones after did not.
    failing = suite.STUDIES[3][0]
    ran = []

    def main(argv):
        ran.append(pathlib.Path(argv[-1]).name)
        return 3 if ran[-1] == failing else 0

    monkeypatch.setattr(suite, "OUT", tmp_path)
    monkeypatch.setattr(suite.cli, "main", main)
    assert suite.main() == 3
    assert ran == [name for name, _ in suite.STUDIES[:4]]
    assert capsys.readouterr().err == f"run_convergence_suite: {failing} failed with exit code 3\n"


def test_every_results_csv_has_exactly_one_suite_row():
    # A CSV no row writes is never regenerated, and two rows writing one CSV
    # leave only the later run's table.
    names = [name for name, _ in suite.STUDIES]
    assert len(set(names)) == len(names)
    assert sorted(path.name for path in (ROOT / "results").glob("*.csv")) == sorted(names)


def test_suite_results_are_not_git_ignored():
    # `git add -A` drops an ignored path, so a CSV for a new suite row must not
    # be ignored.  --no-index checks the rules even for the tracked CSVs.
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    paths = [f"results/{name}" for name, _ in suite.STUDIES]
    check = subprocess.run(
        ["git", "check-ignore", "--no-index", "-v", *paths],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    # Exit status 1: no path is ignored (0 means some are, 128 an error).
    assert check.returncode == 1, check.stdout + check.stderr


# ---------------------------------------------------------------------------
# solve-pde
# ---------------------------------------------------------------------------


def test_solve_pde_small_smoke(tmp_path, capsys):
    out = tmp_path / "pde.csv"
    code, stdout, _ = run_cli(
        capsys, "solve-pde", "--problem", "example4", "--N", "4", "--M", "4", "--out", str(out)
    )
    assert code == 0
    lines = [l for l in read_lines(out) if l]
    assert lines[0] == "x,y,u_numeric,u_exact,abs_error"
    assert len(lines) == 1 + 33 * 33
    summary = [l for l in stdout.splitlines() if l.startswith("grid_linf_error=")]
    err = float(summary[0].split()[0].split("=")[1])
    assert np.isfinite(err)
    # The printed maximum of the abs_error column, bit for bit: both come from
    # the same grid, basis tables and exact values, and %.16e round-trips.
    assert err == max(float(l.split(",")[4]) for l in lines[1:])


def test_solve_pde_on_scalar_problem_exits_2(capsys):
    code, _, _ = run_cli(capsys, "solve-pde", "--problem", "example1")
    assert code == 2
    code, _, _ = run_cli(capsys, "solve-ode", "--problem", "example4")
    assert code == 2


@pytest.mark.parametrize("command", ["solve-pde", "convergence"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda", "0.2"], "reaction"),
        (["--weighted-l2"], "--weighted-l2"),
        (["--ref-N", "99"], "--ref-N"),
    ],
    ids=["lambda", "weighted-l2", "ref-N"],
)
def test_solve_pde_rejects_reaction_override(capsys, command, flags, message):
    # scalar-only settings would be silently ignored by the space-time commands
    code, _, stderr = run_cli(
        capsys, command, "--problem", "example4", "--N", "4", "--M", "4", *flags
    )
    assert code == 2
    assert message in stderr


@pytest.mark.parametrize(
    "argv, setting, line",
    [
        (["solve-ode", "--problem", "example1", "--N", "4"], ["--M", "8"], "M=8"),
        (["convergence", "--problem", "example1", "--N", "2,4"], ["--M", "9"], "M=9"),
        (["solve-ode", "--problem", "example1"], ["--ref-N", "99"], "ref-N=99"),
        (["convergence", "--problem", "example1", "--N", "2,4"], ["--ref-N", "60"], "ref-N=60"),
        (["solve-ode", "--problem", "example3"], ["--weighted-l2"], "weighted-l2=yes"),
        # Whatever its value: an unread setting is refused before any value is parsed.
        (["solve-ode", "--problem", "example1"], ["--M", "x"], "M=x"),
        (["solve-ode", "--problem", "example1"], ["--ref-N", "x"], "ref-N=x"),
        (["solve-ode", "--problem", "example3"], ["--weighted-l2"], "weighted-l2=on"),
    ],
    ids=[
        "solve-ode-M", "convergence-M", "solve-ode-ref-N", "exact-ref-N", "no-exact-weighted-l2",
        "unparsable-M", "unparsable-ref-N", "unparsable-weighted-l2",
    ],
)
def test_unread_setting_exits_2(tmp_path, capsys, argv, setting, line):
    # a setting the run never reads would be silently ignored
    code, stdout, stderr = run_cli(capsys, *argv, *setting)
    assert (code, stdout) == (2, "")
    assert f"drop {setting[0]}" in stderr
    # the same setting from a config file is refused the same way
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code, _, stderr = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert f"drop {setting[0]}" in stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convergence", "--problem", "example1", "--N", "0,2"], "N must be at least 1, got 0"),
        (["convergence", "--problem", "example1", "--N", "0:4:2"], "N must be at least 1, got 0"),
        (["convergence", "--problem", "example4", "--N", "0,4"], "N must be at least 1, got 0"),
        (["convergence", "--problem", "example4", "--N", "4", "--M", "1,2"], "M must be at least 2, got 1"),
        (["solve-ode", "--problem", "example1", "--N", "0"], "N must be at least 1, got 0"),
        (["solve-pde", "--problem", "example4", "--M", "1"], "M must be at least 2, got 1"),
    ],
    ids=["list", "range", "pde-N", "pde-M", "solve-ode", "solve-pde"],
)
def test_resolution_below_minimum_exits_2(capsys, argv, message):
    # a convergence list entry is held to the same minimum as a single solve's
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert message in stderr


@pytest.mark.parametrize(
    "argv, solve",
    [
        (["solve-ode", "--problem", "example1"], "(delta=0.99, r=1, N=40)"),
        (["solve-pde", "--problem", "example4", "--M", "6"], "(delta=0.99, r=5, N=40, M=6)"),
    ],
    ids=["solve-ode", "solve-pde"],
)
def test_rule_failure_names_the_rule_and_the_solve(capsys, argv, solve):
    code, _, stderr = run_cli(capsys, *argv, "--delta", "0.99", "--N", "40")
    assert code == 3
    assert f"assembly failed {solve}: Gauss-Jacobi rule (alpha=-0.99, beta=0.0, n=48)" in stderr
    assert "weight sum" in stderr


def test_overflowing_rule_exponent_exits_3_in_one_line(capsys):
    # At gamma = 1/10^160 the outer stiffness rule's exponent (1-delta)r+1 = 5e159
    # overflows its weights: a named refusal, not a traceback.
    gamma = "1/1" + "0" * 160
    argv = ["solve-ode", "--problem", "example1", "--gamma", gamma, "--N", "4"]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 3
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert stderr.startswith("numerical failure: assembly failed (delta=0.5, r=1")
    assert "Gauss-Jacobi rule (alpha=0.0, beta=5e+159, n=12): the weights' constant overflows" in stderr


def test_emit_writes_array_columns_as_numpy_scalars_format(capsys):
    floats = np.array([0.0, -0.0, 5e-324, 1.797e308])
    columns = {
        "N": np.arange(4), "u": floats, "err": [1.5, -2.0, 0.0, 3e-300], "runtime_ms": floats + 1.25
    }
    cli_mod._emit(columns, None, [])
    out = capsys.readouterr().out
    # The text of the numpy scalars themselves, cell by cell.
    row = "%d,%.16e,%.16e,%.3f\n"
    assert out == "N,u,err,runtime_ms\n" + "".join(row % cells for cells in zip(*columns.values()))
    assert out.splitlines()[2:4] == [
        "1,-0.0000000000000000e+00,-2.0000000000000000e+00,1.250",
        "2,4.9406564584124654e-324,0.0000000000000000e+00,1.250",
    ]
    assert out.splitlines()[4].startswith("3,1.7970000000000000e+308,3.0000000000000002e-300,")


@pytest.mark.parametrize(
    "argv, stage, problem_of, lam",
    [
        (["solve-ode", "--problem", "example2a", "--N", "6", "--lambda", "2.5"],
         "solve", lambda problem, basis: problem, 2.5),
        (["convergence", "--problem", "example2a", "--N", "4,6", "--lambda", "2.5"],
         "run_convergence_study", lambda problem, *rest, **settings: problem, 2.5),
        (["solve-pde", "--problem", "example4", "--N", "4", "--M", "4"],
         "solve_spacetime", lambda problem, tb, sb: problem, 1.0),
        (["convergence", "--problem", "example4", "--N", "4", "--M", "4"],
         "run_convergence_study", lambda problem, *rest, **settings: problem, 1.0),
    ],
    ids=["solve-ode", "convergence", "solve-pde", "convergence-pde"],
)
def test_problem_overrides_reach_header_and_solved_problem(
    tmp_path, capsys, monkeypatch, argv, stage, problem_of, lam
):
    real_stage = getattr(cli_mod, stage)
    solved = []

    def recording_stage(*args, **kwargs):
        solved.append(problem_of(*args, **kwargs))
        return real_stage(*args, **kwargs)

    monkeypatch.setattr(cli_mod, stage, recording_stage)
    code, stdout, stderr = run_cli(
        capsys, *argv, "--delta", "0.3", "--gamma", "1/4", "--T", "1.5",
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 0, stderr
    header = [l for l in stdout.splitlines() if l.startswith("run:")]
    assert f"delta=0.3 gamma=1/4 lambda={lam} T=1.5 " in header[0]
    assert len(solved) == 1
    problem = solved[0]
    assert (problem.delta.delta, problem.transform.r, problem.transform.horizon_T) == (0.3, 4, 1.5)
    # The space-time problem has no lambda: its reaction coefficient is fixed at one.
    assert getattr(problem, "lam", 1.0) == lam


# ---------------------------------------------------------------------------
# config file and catalog
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=example1\ndelta=0.9\nN=2\n# comment\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    code, stdout, _ = run_cli(
        capsys, "solve-ode", "--config", str(cfg), "--delta", "0.1", "--out", str(out)
    )
    assert code == 0
    header = [l for l in stdout.splitlines() if l.startswith("run:")][0]
    assert "delta=0.1" in header  # flag overrides the config file
    assert "problem=example1" in header


# (config key, value in the config file, value on the --key flag, the setting's
# place in the effective settings, the values those two texts parse to)
VALUE_SETTINGS = [
    ("problem", "example1", "example3", lambda eff: eff["entry"].problem_id, "example1", "example3"),
    ("delta", "0.9", "0.1", lambda eff: eff["entry"].delta, 0.9, 0.1),
    ("gamma", "1/5", "1/6", lambda eff: eff["entry"].r, 5, 6),
    ("lambda", "2.0", "3.0", lambda eff: eff["entry"].lam, 2.0, 3.0),
    ("T", "1.5", "2.5", lambda eff: eff["entry"].horizon_T, 1.5, 2.5),
    ("N", "4", "2:6:2", lambda eff: eff["N"], (4,), (2, 4, 6)),
    ("M", "8", "10", lambda eff: eff["M"], (8,), (10,)),
    ("ref-N", "40", "50", lambda eff: eff["ref_n"], 40, 50),
    ("out", "a.csv", "b.csv", lambda eff: eff["out"], "a.csv", "b.csv"),
]
# A problem whose convergence run reads the setting: M is read only by the
# space-time problems (example4, example5), and ref-N only by a problem without
# an exact solution.
READ_BY = {"M": "example4", "ref-N": "example3"}


def effective_settings(argv, config):
    args = _build_parser().parse_args(argv)
    return _effective(args.command, args, config)


@pytest.mark.parametrize(
    "key, file_value, flag_value, read, file_parsed, flag_parsed",
    VALUE_SETTINGS,
    ids=[c[0] for c in VALUE_SETTINGS],
)
def test_setting_from_config_file_and_flag(
    tmp_path, key, file_value, flag_value, read, file_parsed, flag_parsed
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={file_value}\n", encoding="utf-8")
    config = _read_config(str(cfg))
    argv = ["convergence"] + (["--problem", READ_BY[key]] if key in READ_BY else [])
    assert read(effective_settings(argv, config)) == file_parsed
    assert read(effective_settings(argv + ["--" + key, flag_value], config)) == flag_parsed


@pytest.mark.parametrize(
    "value, on",
    [("1", True), ("true", True), ("yes", True), ("0", False), ("false", False), ("no", False)],
)
def test_weighted_l2_from_config_file_and_flag(tmp_path, value, on):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"weighted-l2={value}\n", encoding="utf-8")
    config = _read_config(str(cfg))
    assert effective_settings(["convergence"], config)["weighted_l2"] is on
    assert effective_settings(["convergence", "--weighted-l2"], config)["weighted_l2"] is True


@pytest.mark.parametrize("value", ["True", "on", "YES", ""])
def test_weighted_l2_config_value_outside_the_switch_values_exits_2(tmp_path, capsys, value):
    # Read as off, such a value would run the plain L2 norm without a word.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"weighted-l2={value}\n", encoding="utf-8")
    for extra in ((), ("--weighted-l2",)):
        code, stdout, stderr = run_cli(
            capsys, "convergence", "--problem", "example1", "--N", "2", "--config", str(cfg), *extra
        )
        assert (code, stdout) == (2, "")
        assert f"weighted-l2 must be 1, true, yes, 0, false or no, got {value!r}" in stderr


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n", encoding="utf-8")
    code, _, stderr = run_cli(capsys, "solve-ode", "--config", str(cfg))
    assert code == 2
    assert "nonsense" in stderr
    # --config names the file; it is not itself a setting the file can hold
    cfg.write_text("config=other.cfg\n", encoding="utf-8")
    code, _, stderr = run_cli(capsys, "solve-ode", "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'config'" in stderr


def test_config_file_repeated_key(tmp_path, capsys):
    # Keeping the last line would run N=4 without ever parsing N=x.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=example1\nN=x\n# comment\nN = 4\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "solve-ode", "--config", str(cfg))
    assert (code, stdout) == (2, "")
    assert stderr.strip() == f"{cfg}:4: repeated config key 'N'"


def test_config_file_missing(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "solve-ode", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2
    # An empty path names no file; it does not mean "no config file".
    code, _, stderr = run_cli(capsys, "solve-ode", "--problem", "example1", "--N", "4", "--config=")
    assert code == 2
    assert stderr.startswith("cannot read config file")


def test_readme_flags_line_lists_every_setting():
    # A new setting must land documented: the README's Flags line names every
    # setting's flag, in their order, and then --config.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    flags = readme.split("Flags: `", 1)[1].split("`", 1)[0].split()
    assert flags == ["--" + key for key, *_ in cli_mod._SETTINGS] + ["--config"]


def test_list_problems(capsys):
    code, stdout, _ = run_cli(capsys, "list-problems")
    assert code == 0
    lines = stdout.splitlines()
    pids = ("example1", "example2a", "example2b", "example3", "example4", "example5")
    assert [line.split(":", 1)[0] for line in lines[: len(pids)]] == list(pids)
    assert lines[5] == (
        "example5: 2-d subdiffusion, u = sin(pi x) sin(pi y) s^(sqrt(2)/2); gamma = 1/7 "
        "[kind=pde-power delta=0.2 gamma=1/7 lambda=1.0 T=2.0 N=16 M=20; exact known]"
    )
    assert "gamma" in stdout


def test_module_runs_as_a_script():
    src = pathlib.Path(fracspec.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "fracspec.cli", "list-problems"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0
    assert "example4" in done.stdout and "example5" in done.stdout
    done = subprocess.run(
        [sys.executable, "-m", "fracspec.cli", "solve-ode", "--problem", "nonexistent"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
