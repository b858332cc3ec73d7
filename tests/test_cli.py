"""Tests for the command-line front end: verbs, outputs, and exit codes."""

import argparse
import os
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lagdde import accuracy, cli, config, reference

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

CONSTANT_PROBLEM = """\
b = 2
N = 3

[equation 1]
phi = 1
"""

SMOOTH_EXACT = """\
b = 5
oracle = exact

[equation 1]
gamma = 0.5
phi = 1
delay = 1 0.3 1
history = exp(-t)
forcing = -exp(-t) + 0.5*exp(-t) - 0.3*exp(-(t-1))
exact = exp(-t)
"""

ZERO_DELAY_ODE = """\
b = 2
N = 10
rk4_step = 0.001

[equation 1]
gamma = 1
phi = 1
delay = 1 0.5 0
forcing = cos(t)
"""


def _write(tmp_path, text, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, body


# ---------------------------------------------------------------------------
# solve

def test_solve_on_a_long_interval_writes_the_capped_sample_grid(tmp_path):
    # b = 1e9 at 10 samples per unit would ask for a 1e10-point grid
    cfg = _write(tmp_path, CONSTANT_PROBLEM.replace("b = 2", "b = 1e9"))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    _, body = _read_csv(out / "solution.csv")
    assert body.shape == (10_001, 2)
    assert (body[0, 0], body[-1, 0]) == (0.0, 1e9)


def test_solve_constant_problem(tmp_path):
    cfg = _write(tmp_path, CONSTANT_PROBLEM)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, body = _read_csv(out / "solution.csv")
    assert header == ["t", "u_1"]
    np.testing.assert_allclose(body[:, 1], 1.0, atol=1e-12)
    assert (out / "coefficients.csv").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "command = solve" in manifest
    assert "solution.csv" in manifest


def test_solve_reports_errors_with_exact_oracle(tmp_path):
    cfg = _write(tmp_path, SMOOTH_EXACT)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--N", "10",
                     "--out", str(out)]) == 0
    header, body = _read_csv(out / "solution.csv")
    exact = np.exp(-body[:, 0])
    assert np.abs(body[:, 1] - exact).max() < 1e-3


def test_solve_deterministic_csv_bodies(tmp_path):
    cfg = _write(tmp_path, SMOOTH_EXACT)
    bodies = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["solve", "--config", cfg, "--N", "6",
                         "--out", str(out)]) == 0
        bodies.append((out / "solution.csv").read_text()
                      + (out / "coefficients.csv").read_text())
    assert bodies[0] == bodies[1]


def _joined_csv(header, rows) -> bytes:
    """A CSV as the header and each cell's f"{float(x):.17g}", comma-joined."""
    lines = [header] + [[f"{float(x):.17g}" for x in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines).encode()


def test_csv_writer_writes_each_cell_in_17_significant_digits(tmp_path):
    rng = np.random.default_rng(0)
    table = rng.standard_normal((51, 7)) * 10.0 ** rng.integers(-30, 30, (51, 7))
    table[0] = [3, -0.0, np.inf, -np.inf, np.nan, 1e-300, 5e-324]
    path = tmp_path / "new" / "table.csv"
    cli._write_csv(path, [f"c{k}" for k in range(7)], table)
    assert path.read_bytes() == _joined_csv([f"c{k}" for k in range(7)], table)
    # integer cells in a list of rows, as coefficients.csv is written
    rows = [[1, 0, 0.1], [2, 15, -2.5e-7]]
    cli._write_csv(path, ["equation", "n", "a_n"], rows)
    assert path.read_bytes() == _joined_csv(["equation", "n", "a_n"], rows)


# ---------------------------------------------------------------------------
# compare

def test_compare_two_truncations(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["compare", "--config", str(CONFIG_DIR / "example2.cfg"),
                     "--N-list", "3", "4", "--out", str(out)])
    assert code == 0
    header, body = _read_csv(out / "comparison.csv")
    assert header[:3] == ["t", "oracle_u_1", "oracle_u_2"]
    assert "absdiff_u_1_N3" in header and "absdiff_u_1_N4" in header
    early = body[:, 0] <= 2.0
    diff3 = body[early, header.index("absdiff_u_1_N3")].max()
    diff4 = body[early, header.index("absdiff_u_1_N4")].max()
    assert diff4 < diff3


def test_compare_without_oracle_exits_four(tmp_path):
    cfg = _write(tmp_path, CONSTANT_PROBLEM)
    code = cli.main(["compare", "--config", cfg, "--N-list", "3", "4",
                     "--out", str(tmp_path / "out")])
    assert code == 4


def test_compare_zero_delay_against_ode_oracle(tmp_path):
    cfg = _write(tmp_path, ZERO_DELAY_ODE)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", cfg, "--N-list", "10",
                     "--out", str(out)]) == 0
    header, body = _read_csv(out / "comparison.csv")
    assert body[:, header.index("absdiff_u_1_N10")].max() < 1e-5


# ---------------------------------------------------------------------------
# converge

def test_converge_smooth_problem_strictly_decreasing(tmp_path):
    cfg = _write(tmp_path, SMOOTH_EXACT)
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", cfg,
                     "--N-list", "4", "6", "8", "10", "--out", str(out)]) == 0
    header, body = _read_csv(out / "convergence.csv")
    linf = body[:, header.index("linf_u_1")]
    assert np.all(np.diff(linf) < 0.0)


def test_converge_single_truncation(tmp_path):
    cfg = _write(tmp_path, SMOOTH_EXACT)
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", cfg, "--N", "6",
                     "--out", str(out)]) == 0
    header, body = _read_csv(out / "convergence.csv")
    assert body.shape[0] == 1
    assert header[0] == "N"
    assert "cpu_time" in header and "condition" in header and "iterations" in header


def test_converge_nonlinear_reports_iterations(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["converge", "--config", str(CONFIG_DIR / "example1.cfg"),
                     "--N-list", "6", "10", "--out", str(out)])
    assert code == 0
    header, body = _read_csv(out / "convergence.csv")
    iterations = body[:, header.index("iterations")]
    assert np.all(iterations >= 1)


# ---------------------------------------------------------------------------
# exit codes and validate

def test_config_error_exits_two(tmp_path):
    cfg = _write(tmp_path, "b = -3\n")
    assert cli.main(["solve", "--config", cfg, "--N", "4",
                     "--out", str(tmp_path / "out")]) == 2


def test_solver_error_exits_three(tmp_path):
    code = cli.main(["solve", "--config", str(CONFIG_DIR / "example1.cfg"),
                     "--max-iter", "1", "--out", str(tmp_path / "out")])
    assert code == 3


@pytest.mark.parametrize("verb, flag, field", [
    ("solve", "--tol", "tol"),
    ("solve", "--max-iter", "max_iter"),
    ("converge", "--tol", "tol"),
    ("compare", "--oracle-step", "rk4_step"),
])
def test_invalid_override_exits_two(tmp_path, capsys, verb, flag, field):
    # overrides are validated like the config values they replace
    code = cli.main([verb, "--config", str(CONFIG_DIR / "example1.cfg"),
                     "--N-list", "4", "6", flag, "0",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"field '{field}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--tol", "abc"), ("--max-iter", "1.5"), ("--oracle-step", "x")])
def test_malformed_override_exits_two(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--config", str(CONFIG_DIR / "example1.cfg"),
                  flag, value, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    assert cli.main(["solve", "--config", missing,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config file:")
    assert missing in err


@pytest.mark.parametrize("verb", ["solve", "compare", "converge"])
def test_output_path_that_is_a_file_exits_two(tmp_path, capsys, verb):
    cfg = _write(tmp_path, SMOOTH_EXACT)
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    assert cli.main([verb, "--config", cfg, "--N-list", "3", "4",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert str(out) in err
    assert out.read_text() == "not a directory\n"


def test_missing_truncation_exits_two(tmp_path):
    cfg = _write(tmp_path, CONSTANT_PROBLEM.replace("N = 3\n", ""))
    assert cli.main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2


def test_truncation_above_maximum_exits_two(tmp_path, capsys):
    for flags in (["--N", "21"], ["--N-list", "3", "21"], ["--N", "1"]):
        code = cli.main(["solve", "--config", str(CONFIG_DIR / "example2.cfg"),
                         *flags, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: N" in capsys.readouterr().err
    cfg = _write(tmp_path, CONSTANT_PROBLEM.replace("N = 3", "N = 21"))
    assert cli.main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("verb", ["solve", "compare", "converge"])
def test_repeated_truncation_exits_two(tmp_path, capsys, verb):
    # each verb used to write N4 twice: a directory, a column name, a row
    out = tmp_path / "out"
    assert cli.main([verb, "--config", str(CONFIG_DIR / "example2.cfg"),
                     "--N-list", "4", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: N_list repeats 4 (field 'N_list')")
    assert not out.exists()
    cfg = _write(tmp_path, CONSTANT_PROBLEM.replace("N = 3", "N_list = 3 4 3"))
    assert cli.main([verb, "--config", cfg, "--out", str(out)]) == 2
    assert "field 'N_list'" in capsys.readouterr().err
    assert not out.exists()


def test_singular_laguerre_coefficients_name_the_matrix(tmp_path, capsys):
    cfg = _write(tmp_path, "b = 1e-9\nN = 6\n\n[equation 1]\ngamma = 1\nphi = 1\n")
    assert cli.main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "solver error: singular system: the Laguerre interpolation matrix at "
        "N=6 on [0, b=1e-09] is singular: b is too small for L_0..L_6 to "
        "separate on [0, b]\n")


def test_truncation_and_truncation_list_together_exit_two(tmp_path, capsys):
    # the flags set N and N_list, and validate refuses the pair as it
    # refuses a config that sets both
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(CONFIG_DIR / "example2.cfg"),
                     "--N", "6", "--N-list", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: N and N_list exclude each other; set one of them "
        "(field 'N')\n")
    assert not out.exists()


def test_config_with_n_and_n_list_exits_two(tmp_path, capsys):
    # N = 6 used to be dropped, solving N = 4 and 5 with exit 0
    cfg = _write(tmp_path, CONSTANT_PROBLEM.replace("N = 3", "N = 6\nN_list = 4 5"))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: N and N_list exclude each other; set one of them "
        "(field 'N')\n")
    assert not out.exists()


def test_oracle_step_with_exact_oracle_exits_two(tmp_path, capsys):
    # the exact oracle has no step; the override used to be ignored
    cfg = _write(tmp_path, SMOOTH_EXACT)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", cfg, "--N-list", "3",
                     "--oracle-step", "0.01", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: rk4_step sets the RK4 oracle's step, but the oracle "
        "is exact (field 'rk4_step')")
    assert not out.exists()


# the equation of the flag-and-key runs; Picard takes 42 iterations at N = 3
# with tol 1e-8, so --max-iter 40 and --tol 1e-9 each change the outputs
FEEDBACK = """\

[equation 1]
gamma = 1
phi = 1
history = 1
forcing = cos(t)
nonlinear = 5*sin(u)
nonlinear_tau = 0.5
"""
RK4 = "\nrk4_step = 0.25"  # coarse enough that --oracle-step 0.01 shows in solve


@pytest.mark.parametrize("command", ["solve", "compare", "converge"])
@pytest.mark.parametrize("base, flags, key", [
    ("N = 3" + RK4, ["--N", "6"], "N = 6" + RK4),
    ("N = 3" + RK4, ["--N-list", "3", "4"], "N_list = 3 4" + RK4),
    ("N = 3" + RK4, ["--tol", "1e-9"], "N = 3\ntol = 1e-9" + RK4),
    ("N = 3" + RK4, ["--max-iter", "40"], "N = 3\nmax_iter = 40" + RK4),
    ("N = 3" + RK4, ["--oracle-step", "0.01"], "N = 3\nrk4_step = 0.01"),
    ("N = 3", ["--oracle-step", "0.01"], "N = 3\nrk4_step = 0.01"),
    ("N_list = 3 4" + RK4, ["--N", "6"], "N = 6" + RK4),
])
def test_a_flag_gives_the_outputs_of_its_key(tmp_path, capsys, command, base,
                                             flags, key):
    # each flag sets its config key, so a run with the flag and a run whose
    # config writes the key give the same exit code, stdout, stderr and CSV
    # bodies, which differ from those of a run with neither
    def run(name, settings, extra):
        cfg = _write(tmp_path, f"b = 3\n{settings}\n{FEEDBACK}", f"{name}.cfg")
        out = tmp_path / name
        code = cli.main([command, "--config", cfg, "--out", str(out)] + extra)
        captured = capsys.readouterr()
        stdout = re.sub(r"cpu_time=[0-9.]+s", "", captured.out)
        bodies = {}
        for path in sorted(out.rglob("*.csv")):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            if path.name == "convergence.csv":
                column = rows[0].index("cpu_time")
                rows = [row[:column] + row[column + 1:] for row in rows]
            bodies[str(path.relative_to(out))] = rows
        return code, stdout, captured.err, bodies

    flagged = run("flag", base, flags)
    assert flagged == run("key", key, [])
    assert flagged != run("neither", base, [])


def test_singular_laguerre_coefficients_exit_three(tmp_path, capsys):
    # the solve succeeds, but the Laguerre interpolation matrix on
    # [0, 1e-9] is singular; this used to be a LinAlgError traceback
    cfg = _write(tmp_path, "b = 1e-9\nN = 6\n\n[equation 1]\ngamma = 1\nphi = 1\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("solver error: singular system")
    assert not out.exists()


def test_nonlinear_target_out_of_range_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, CONSTANT_PROBLEM + "nonlinear = sin(u)\n"
                 "nonlinear_tau = 0.5\nnonlinear_target = 3\n")
    assert cli.main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    assert "nonlinear_target" in capsys.readouterr().err


NON_FINITE_BASE = """\
b = 2
N = 4
rk4_step = 0.01
history_end = 0

[equation 1]
gamma = 0.5
phi = 1
history = 1
delay = 1 0.5 0.5
"""


@pytest.mark.parametrize("line, replacement, field", [
    ("b = 2", "b = nan", "b"),
    ("b = 2", "b = inf", "b"),
    ("gamma = 0.5", "gamma = nan", "gamma"),
    ("delay = 1 0.5 0.5", "delay = 1 nan 0.5", "delay"),
    ("rk4_step = 0.01", "rk4_step = nan", "rk4_step"),
    ("rk4_step = 0.01", "rk4_step = inf", "rk4_step"),
    ("history_end = 0", "history_end = nan", "history_end"),
    ("phi = 1", "phi = inf", "phi"),
    ("delay = 1 0.5 0.5", "delay = 1 0.5 inf", "delay"),
])
def test_non_finite_value_exits_two(tmp_path, capsys, line, replacement, field):
    # each used to solve to a false "singular system", fail in the oracle,
    # or write output
    assert line in NON_FINITE_BASE
    cfg = _write(tmp_path, NON_FINITE_BASE.replace(line, replacement))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "must be finite" in err and f"field '{field}'" in err
    assert not out.exists()


def test_negative_history_end_exits_two(tmp_path, capsys):
    # the rk4 oracle reported a false "query t=-0.5 outside computed range"
    text = NON_FINITE_BASE.replace("history_end = 0", "history_end = -0.5")
    cfg = _write(tmp_path, text.replace("N = 4", "N = 4\noracle = rk4"))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: history_end must be >= 0")
    assert "field 'history_end'" in err
    assert not out.exists()


def test_history_end_without_a_history_exits_two(tmp_path, capsys):
    # it was ignored: the output matched that of history_end = 0
    cfg = _write(tmp_path, CONSTANT_PROBLEM.replace("N = 3", "N = 3\nhistory_end = 0.5"))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: history_end is set without a history")
    assert "field 'history_end'" in err
    assert not out.exists()


def test_repeated_key_exits_two(tmp_path, capsys):
    # b = 7 used to replace b = 2 silently
    cfg = _write(tmp_path, CONSTANT_PROBLEM.replace("N = 3", "N = 3\nb = 7"))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: b repeated in its section (line 3, field 'b')\n")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("b = 1\n[equation 1]\ndelay = 0 0.5 1\n",
     "delay target 0 out of range in equation 1 (field 'delay')"),
    ("b = 1\n[equation 1]\ndelay = 2 0.5 1\n",
     "delay target 2 out of range in equation 1 (field 'delay')"),
    ("b = 1\n\n[equation 0]\nphi = 1\n",
     "equation numbers start at 1 (line 3)"),
    ("b = 1\nphi 1\n", "expected 'key = value' (line 2)"),
], ids=["delay_target_0", "delay_target_past_the_equations", "equation_0",
        "line_without_equals"])
def test_malformed_structure_exits_two(tmp_path, capsys, text, message):
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", _write(tmp_path, text),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_converge_every_truncation_failing_reports_each(tmp_path, capsys):
    # without a history the delayed term extrapolates the series to t = -1,
    # and at N = 19 and 20 the condition number passes the singularity bound
    cfg = _write(tmp_path, "b = 2\nN_list = 19 20\n\n[equation 1]\n"
                 "gamma = 0\nphi = 0\nforcing = 1\ndelay = 1 1 1\n")
    code = cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("N=19: failed (singular system")
    assert err[1].startswith("N=20: failed (singular system")
    assert err[2] == "solver error: every truncation failed (N = 19, 20)"
    assert "no convergence" not in "\n".join(err)
    assert not (tmp_path / "out").exists()


def test_solve_keeps_the_truncations_that_finished(tmp_path, capsys):
    # N = 4 solves; N = 19 passes the singularity bound (see above)
    cfg = _write(tmp_path, "b = 2\nN_list = 4 19\n\n[equation 1]\n"
                 "gamma = 0\nphi = 0\nforcing = 1\ndelay = 1 1 1\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("solver error: singular system")
    assert sorted(p.name for p in (out / "N4").iterdir()) == [
        "coefficients.csv", "manifest.txt", "solution.csv"]
    assert not (out / "N19").exists()


def _run_module(*args):
    """``python -m`` in a subprocess, with ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def _identity_names():
    """The 64 check names ``lagdde validate`` prints, in order."""
    names = []
    for n in range(2, 11):
        names += [f"laguerre_from_monomials[N={n}]", f"monomial_derivative[N={n}]",
                  f"laguerre_derivative[N={n}]"]
        names += [f"delay_shift[N={n},tau={tau}]" for tau in (0.5, 1.0, 2.0)]
        names.append(f"diff_consistency_BH_eq_HC[N={n}]")
    return names + ["delay_product_with_extra_diff_factor_differs"]


@pytest.mark.parametrize("module", ["lagdde.cli", "lagdde"])
def test_validate_prints_identity_lines(module):
    result = _run_module(module, "validate")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert [l.split()[:2] for l in lines] == [["PASS", name]
                                              for name in _identity_names()]


def test_validate_with_a_wrong_matrix_prints_fail_and_exits_three(monkeypatch,
                                                                  capsys):
    # B in place of C: L(t) B is not the derivative of the Laguerre row, and
    # BH = HC fails with it
    monkeypatch.setattr(reference, "laguerre_diff_matrix",
                        reference.monomial_diff_matrix)
    assert cli.main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    failed = [l.split()[1] for l in lines if l.startswith("FAIL")]
    assert failed == [name for name in _identity_names()
                      if name.startswith(("laguerre_derivative",
                                          "diff_consistency"))]
    assert len(lines) == 64


def test_package_runs_as_a_module():
    result = _run_module("lagdde", "--help")
    assert result.returncode == 0, result.stderr
    assert "validate" in result.stdout


def test_oracle_step_override_enables_rk4(tmp_path):
    cfg = _write(tmp_path, CONSTANT_PROBLEM)
    out = tmp_path / "out"
    code = cli.main(["compare", "--config", cfg, "--N-list", "3",
                     "--oracle-step", "0.01", "--out", str(out)])
    assert code == 0
    header, body = _read_csv(out / "comparison.csv")
    np.testing.assert_allclose(body[:, header.index("oracle_u_1")], 1.0,
                               atol=1e-12)


@pytest.mark.parametrize("verb", ["solve", "compare", "converge"])
def test_rk4_grid_one_ulp_short_of_b_still_ends_at_b(tmp_path, verb):
    # the delay 1.126 rounds the step to 0.0009999999999999998, whose 5500th
    # multiple is 5.499999999999999; every verb used to exit 1 reading the
    # oracle at t = 5.5
    cfg = _write(tmp_path, ZERO_DELAY_ODE.replace("b = 2", "b = 5.5").replace(
        "delay = 1 0.5 0", "delay = 1 0.5 1.126\nhistory = 1"))
    assert cli.main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_solve_with_n_list_integrates_the_oracle_once(tmp_path, monkeypatch):
    cfg = _write(tmp_path, ZERO_DELAY_ODE.replace("N = 10", "N_list = 3 4"))
    calls = []
    integrate = reference.rk4_method_of_steps

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(reference, "rk4_method_of_steps", counting)
    out = tmp_path / "both"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    for n in (3, 4):
        single = tmp_path / f"single{n}"
        assert cli.main(["solve", "--config", cfg, "--N", str(n),
                         "--out", str(single)]) == 0
        for name in ("solution.csv", "coefficients.csv"):
            assert (out / f"N{n}" / name).read_bytes() == (single / name).read_bytes()
    assert len(calls) == 3


def test_history_end_off_the_delay_grid_is_an_oracle_error(tmp_path, capsys):
    text = ZERO_DELAY_ODE.replace("delay = 1 0.5 0", "delay = 1 0.5 0.5\nhistory = 1")
    cfg = _write(tmp_path, "history_end = 0.123456789\n" + text)
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    assert "not commensurate with the delays" in capsys.readouterr().err


def test_incommensurate_delays_are_an_oracle_error(tmp_path, capsys):
    # delays 1 and sqrt(2) share no grid step; the oracle refuses them
    # instead of stepping a 1.9e9-point grid
    text = ZERO_DELAY_ODE.replace(
        "delay = 1 0.5 0",
        "delay = 1 0.5 1\ndelay = 1 0.5 1.4142135623730951\nhistory = 1")
    cfg = _write(tmp_path, text)
    code = cli.main(["compare", "--config", cfg, "--N-list", "4",
                     "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("oracle error: the delays")
    assert "not commensurate" in err


def test_delay_below_the_grid_resolution_is_an_oracle_error(tmp_path, capsys):
    # it used to end as "RK4 integration failed: ZeroDivisionError"
    text = ZERO_DELAY_ODE.replace("delay = 1 0.5 0",
                                  "delay = 1 0.5 1e-13\nhistory = 1")
    cfg = _write(tmp_path, text)
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err.startswith(
        "oracle error: the delay or history.end 1e-13 is below the 1e-9 "
        "resolution of the RK4 step grid")


@pytest.mark.parametrize("verb", ["solve", "compare", "converge"])
def test_oracle_step_past_the_grid_limit_is_an_oracle_error(tmp_path, capsys,
                                                            verb):
    # 5e9 grid points on [0, 5]; refused before any is laid out
    out = tmp_path / "out"
    code = cli.main([verb, "--config", str(CONFIG_DIR / "example2.cfg"),
                     "--oracle-step", "1e-9", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("oracle error: the RK4 grid on [0, b=5] at step "
                          "1e-09 has 5e+09 steps")
    assert err.endswith("rk4_step must be at least 5e-06\n")
    assert not out.exists()


ARITHMETIC_PROBLEM = """\
b = 2
N = 6

[equation 1]
gamma = 1
phi = 0
"""


def test_division_by_zero_in_the_solve_exits_three(tmp_path, capsys):
    # 1/(t - 1) at the collocation point t = 1
    cfg = _write(tmp_path, ARITHMETIC_PROBLEM + "forcing = 1/(t-1)\n")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("solver error: ZeroDivisionError")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("settings, lines, code, message", [
    # 1e308*10 overflows to inf without an exception; the solve used to
    # exit 0 with an all-NaN solution.csv, and an inf f(u) ran Picard to
    # its iteration cap
    ("", "forcing = 1e308*10*t\n", 3,
     "solver error: FloatingPointError: the right-hand side is not finite"),
    ("", "nonlinear = 1e308*10*u\nnonlinear_tau = 0.5\n", 3,
     "solver error: FloatingPointError: the right-hand side is not finite"),
    # sin(inf) is a math domain error, a ValueError that used to end in a
    # traceback
    ("", "forcing = sin(1e308*10*t)\n", 3,
     "solver error: ArithmeticError: 'sin(1e308*10*t)' at t = "),
    ("rk4_step = 0.001\n", "forcing = sin(1e308*10*t)\n", 4,
     "oracle error: RK4 integration failed: ArithmeticError: "
     "'sin(1e308*10*t)' at t = "),
    # a negative base to a fractional power is complex in Python; it used
    # to end in a TypeError traceback, or, in exact, in wrong norms
    ("", "forcing = (t-1)^0.5\n", 3,
     "solver error: ArithmeticError: '(t-1)^0.5' at t = 0.0: negative base"),
    ("", "delay = 1 0.5 0.5\nhistory = (t-1)^0.5\n", 3,
     "solver error: ArithmeticError: '(t-1)^0.5' at t = "),
    ("", "nonlinear = (u-1)^0.5\nnonlinear_tau = 0.5\n", 3,
     "solver error: ArithmeticError: '(u-1)^0.5' at u = "),
    ("oracle = exact\n", "exact = (t-1)^0.5\n", 4,
     "oracle error: exact solution failed at t=0.0: ArithmeticError"),
    # a division by zero and an overflow keep their type and name the
    # expression and its argument; both used to print the bare error
    ("", "forcing = 1/(t-1)\n", 3, "solver error: ZeroDivisionError: "
     "'1/(t-1)' at t = 1.0: float division by zero\n"),
    ("rk4_step = 0.001\n", "forcing = exp(900*t)\n", 4,
     "oracle error: RK4 integration failed: OverflowError: 'exp(900*t)' "
     "at t = 0.789: math range error\n"),
], ids=["inf_forcing", "inf_nonlinearity", "domain_error", "domain_error_oracle",
        "complex_forcing", "complex_history", "complex_nonlinearity",
        "complex_exact", "division_by_zero", "overflow"])
def test_non_finite_arithmetic_exits_with_a_typed_error(tmp_path, capsys, settings,
                                                         lines, code, message):
    cfg = _write(tmp_path, settings + ARITHMETIC_PROBLEM + lines)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("verb", ["solve", "compare", "converge"])
def test_non_finite_exact_solution_exits_four(tmp_path, capsys, verb):
    # 1e308*10 is inf, and inf*0 nan at t = 0; each verb used to write nan
    # norms or columns and exit 0
    cfg = _write(tmp_path, "oracle = exact\n" + ARITHMETIC_PROBLEM
                 + "exact = 1e308*10*t\n")
    out = tmp_path / "out"
    assert cli.main([verb, "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(
        "oracle error: exact solution is not finite at t=0.0")
    assert not out.exists()


def test_deeply_nested_expression_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, ARITHMETIC_PROBLEM
                 + "forcing = " + "(" * 300 + "t" + ")" * 300 + "\n")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_overflow_in_the_oracle_exits_four(tmp_path, capsys):
    # exp(900 t) overflows a float from t = 0.79, inside the RK4 run
    cfg = _write(tmp_path, "rk4_step = 0.001\n" + ARITHMETIC_PROBLEM
                 + "forcing = exp(900*t)\n")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err.startswith(
        "oracle error: RK4 integration failed: OverflowError")


@pytest.mark.parametrize("verb", ["solve", "compare"])
def test_rk4_overflow_without_an_exception_exits_four(tmp_path, capsys, verb):
    # u' = 400 u: e^(400 t) passes the float range from t = 1.78 as a plain
    # product, which gives inf without raising; both verbs used to exit 0
    # and write inf
    cfg = _write(tmp_path, "b = 2\nN_list = 6\nrk4_step = 0.001\n\n"
                 "[equation 1]\ngamma = -400\nphi = 1\n")
    out = tmp_path / "out"
    assert cli.main([verb, "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(
        "oracle error: RK4 integration failed: FloatingPointError: "
        "the RK4 solution is not finite from t=1.7")
    assert not out.exists()


STIFF_PROBLEM = """\
b = 5
N = 10
rk4_step = 0.001
history_end = 0

[equation 1]
gamma = 2790
phi = 1
history = 1
delay = 1 0.5 1
forcing = cos(t)
"""


@pytest.mark.parametrize("verb", ["solve", "compare", "converge"])
def test_rk4_step_past_the_stability_bound_exits_four(tmp_path, capsys, verb):
    # gamma * step = 2.79: the oracle was off by 2.5e15 and every verb
    # exited 0
    out = tmp_path / "out"
    cfg = _write(tmp_path, STIFF_PROBLEM)
    assert cli.main([verb, "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "oracle error: the RK4 step 0.001 is unstable: step * 2790 (the "
        "largest gamma plus |beta| of its tau = 0 couplings) exceeds 2.5; "
        "rk4_step must be at most 0.000896\n")
    assert not out.exists()
    cfg = _write(tmp_path, STIFF_PROBLEM.replace("2790", "2490"))
    assert cli.main([verb, "--config", cfg, "--out", str(out)]) == 0


FAR_PROBLEM = """\
b = 5
N = 8

[equation 1]
gamma = 0
phi = 1
forcing = cos(t)
history = 1
delay = 1 0.5 1
"""


@pytest.mark.parametrize("verb", ["solve", "converge"])
@pytest.mark.parametrize("line", [
    "phi = 1e308", "phi = -1e308", "gamma = 1e308", "gamma = -1e308",
    "forcing = 1e308", "history = 1e308"])
def test_solve_past_the_float_range_exits_three(tmp_path, capsys, verb,
                                                line):
    # solve used to exit 0 with nan in every solution.csv row after NumPy
    # warnings, each of which escaped main under -W error
    key = line.split(" = ")[0]
    text = re.sub(f"^{key} = .*$", line, FAR_PROBLEM, flags=re.M)
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([verb, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("solver error: ")
        # a typed error, not a warning's text (converge lists it per N)
        assert (("the coefficients are not finite" in err)
                != ("singular system" in err))
        assert not out.exists()
        # the same problem in range solves
        assert cli.main([verb, "--config", _write(tmp_path, FAR_PROBLEM),
                         "--out", str(out)]) == 0


CROSS_FEEDBACK = """\
equations = 2
b = 3
N = 10
max_iter = 1000

[equation 1]
gamma = 0.5
phi = 1
forcing = sin(t)
nonlinear = 0.8*u
nonlinear_tau = 1
nonlinear_target = 2

[equation 2]
gamma = 1
phi = 0
forcing = cos(t)
nonlinear = -0.5*u
nonlinear_tau = 1
nonlinear_target = 1
"""


def test_diverging_picard_iterate_prints_one_error_line(tmp_path, capsys):
    # the iterates pass the float range; NumPy's overflow warning used to
    # come first, and under -W error it escaped as a RuntimeWarning
    cfg = _write(tmp_path, CROSS_FEEDBACK)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--config", cfg, "--out",
                         str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.match(r"solver error: no convergence: iterate \d+ diverged, "
                    r"iterate \d+ is not finite at the delayed points", err[0])


def test_delayed_problem_without_history_exits_four(tmp_path, capsys):
    # the RK4 oracle needs u(-0.5) at t = 0 and no history serves it
    cfg = _write(tmp_path, "b = 2\nN_list = 6\nrk4_step = 0.001\n\n"
                 "[equation 1]\ngamma = 1\nphi = 1\ndelay = 1 0.5 0.5\n")
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(
        "oracle error: delayed value at t=-0.5 not available")
    assert not out.exists()


def test_division_by_zero_in_the_exact_solution_exits_four(tmp_path, capsys):
    # exact = 1/(t - 1) at the sample point t = 1, met in the error report
    cfg = _write(tmp_path, "oracle = exact\n" + ARITHMETIC_PROBLEM
                 + "exact = 1/(t-1)\n")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err.startswith(
        "oracle error: exact solution failed at t=1.0: ZeroDivisionError")
    assert not (tmp_path / "out").exists()


EXP_DECAY_EXACT = """\
b = 2
N = 8
oracle = exact

[equation 1]
gamma = 1
phi = 1
exact = exp(-t)
"""


@pytest.mark.parametrize("loading", [
    ["compare", "--config", str(CONFIG_DIR / "example2.cfg"), "--N", "6"],
    ["validate"],
], ids=["rk4-compare", "validate"])
def test_cli_loads_the_oracle_only_for_a_run_that_uses_it(tmp_path, loading):
    # importing the CLI loads the solver, accuracy and config modules; an
    # exact-oracle run never loads the RK4 oracle, an RK4 run or the
    # identity suite loads it
    cfg = _write(tmp_path, EXP_DECAY_EXACT)
    exact_runs = [[verb, "--config", cfg, "--out", str(tmp_path / verb)]
                  for verb in ("solve", "compare")]
    if loading[0] != "validate":
        loading = loading + ["--out", str(tmp_path / "rk4")]
    code = textwrap.dedent(f"""\
        import sys
        import lagdde.cli
        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "lagdde")
        assert loaded() == ["lagdde", "lagdde.accuracy", "lagdde.cli",
                            "lagdde.collocation", "lagdde.config"], loaded()
        for argv in {exact_runs!r}:
            assert lagdde.cli.main(argv) == 0, argv
        assert "lagdde.reference" not in sys.modules, loaded()
        assert lagdde.cli.main({loading!r}) == 0
        assert "lagdde.reference" in sys.modules, loaded()
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "Linf=4.4" in result.stdout  # u = exp(-t) at N = 8


def test_main_builds_no_argument_parser(tmp_path, monkeypatch):
    # the parser is built once, when the module is imported; each
    # add_argument of a fresh one makes a help formatter, which reads the
    # terminal size
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cfg = _write(tmp_path, CONSTANT_PROBLEM)
    for run in ("first", "second"):
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / run)]) == 0
    assert built == []


TWO_EXACT = """\
equations = 2
b = 2
oracle = exact

[equation 1]
exact = exp(-t)

[equation 2]
exact = sin(3*t)
"""


def test_exact_oracle_reads_the_sample_grid_in_one_call_per_equation(
        monkeypatch):
    cfg = config.parse_config_text(TWO_EXACT)
    oracle = cli._make_oracle(cfg, config.build_problem(cfg))
    points = accuracy.sample_points(cfg.b)
    point_by_point = np.array([oracle(t) for t in points]).T
    calls = Counter()
    for name in ("__call__", "each"):
        method = getattr(config.Expression, name)

        def counting(self, value, name=name, method=method):
            calls[name] += 1
            return method(self, value)
        monkeypatch.setattr(config.Expression, name, counting)
    values = accuracy.read_reference(oracle, points)
    assert calls == {"each": 2}
    assert np.array_equal(values, point_by_point)


@pytest.mark.parametrize("exact_1, exact_2, message", [
    # equation 2 fails, or is not finite, at an earlier time than
    # equation 1, whose failure its batch read meets first
    ("1/(t-1.5)", "1/(t-1)",
     "exact solution failed at t=1.0: ZeroDivisionError"),
    ("1/(t-1.5)", "1e308*(1+t)", "exact solution is not finite at t=0.8"),
    ("1e308*(1+t)", "(0.45-t)^0.5",
     "exact solution failed at t=0.5: ArithmeticError"),
], ids=["failure", "not_finite", "failure_before_not_finite"])
def test_exact_oracle_names_the_earliest_failing_point(exact_1, exact_2,
                                                       message):
    text = TWO_EXACT.replace("exp(-t)", exact_1).replace("sin(3*t)", exact_2)
    cfg = config.parse_config_text(text)
    oracle = cli._make_oracle(cfg, config.build_problem(cfg))
    with pytest.raises(cli.OracleError) as info:
        accuracy.read_reference(oracle, accuracy.sample_points(cfg.b))
    assert str(info.value).startswith(message)


def test_a_plain_reference_is_read_point_by_point():
    calls = []

    def reference(t):
        calls.append(t)
        return np.array([t])

    points = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(accuracy.read_reference(reference, points),
                          points[None])
    assert calls == list(points)
