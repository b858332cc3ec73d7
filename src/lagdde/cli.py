"""Command-line front end: solve / compare / converge / validate.

Outputs are CSV files (header row, 17 significant digits) plus a
run-manifest text file. CSV bodies are deterministic; the timestamp lives
only in the manifest.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import accuracy
from .collocation import (
    NonConvergenceError,
    SingularSystemError,
    evaluate,
    solve_nonlinear,
)
from .config import (
    ConfigError,
    ProblemConfig,
    build_problem,
    parse_config,
    set_key,
    validate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4


class OracleError(Exception):
    """The requested run needs a reference oracle that is not configured."""


class SolverError(Exception):
    """The run produced no solution at any requested truncation."""


def _open_text(path: Path):
    """``path`` opened for writing UTF-8 text in any locale; a path's bytes
    that are not UTF-8 (surrogate escapes in ``sys.argv``) go out as read."""
    return open(path, "w", encoding="utf-8", errors="surrogateescape")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write one CSV, making its directory: a run that fails before its
    first file leaves no directory behind. Each cell is its value as a
    float in %.17g: an integer reads 1, and inf, nan and -0 read as Python
    prints them."""
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with _open_text(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in table.tolist())


def _check_path(flag: str, path: str) -> None:
    """ConfigError when ``path`` holds a control character (C0, DEL or C1)
    or a Unicode line or paragraph separator: the manifest keeps one
    setting per line, and a line break in a path would add a line."""
    if any(c < " " or "\x7f" <= c <= "\x9f" or c in "\u2028\u2029"
           for c in path):
        raise ConfigError(f"the {flag} path {path!r} holds a line break or "
                          f"other control character")


def _write_manifest(out_dir: Path, command: str, config_path, settings: dict,
                    outputs: list[Path]) -> None:
    with _open_text(out_dir / "manifest.txt") as fh:
        fh.write(f"# generated {time.strftime('%Y-%m-%d %H:%M:%S')}\n")
        fh.write(f"command = {command}\n")
        fh.write(f"config = {config_path}\n")
        for key, value in settings.items():
            fh.write(f"{key} = {value}\n")
        for out in outputs:
            fh.write(f"output = {out}\n")


class _Exact:
    """The config's exact solutions as a reference: a call reads one time,
    ``each`` many in one ``Expression.each`` per equation."""

    def __init__(self, expressions):
        self.expressions = expressions

    def __call__(self, t):
        try:
            values = np.array([f(t) for f in self.expressions])
        except ArithmeticError as err:  # e.g. 1/(t-1) at t = 1
            raise OracleError(f"exact solution failed at t={t}: "
                              f"{type(err).__name__}: {err}") from err
        if not np.isfinite(values).all():  # e.g. 1e308*10*t
            raise OracleError(f"exact solution is not finite at t={t}")
        return values

    def each(self, ts):
        try:
            values = np.array([f.each(ts) for f in self.expressions]).T
            if np.isfinite(values).all():
                return values
        except ArithmeticError:
            pass
        return [self(t) for t in ts]  # raises as the earliest failing time


def _make_oracle(cfg: ProblemConfig, problem):
    """Callable t -> per-equation reference values, or None."""
    if cfg.oracle == "none":
        return None
    if cfg.oracle == "exact":
        return _Exact([eq.exact for eq in cfg.equations])
    from . import reference  # the RK4 oracle loads only for a run that uses it

    try:
        return reference.rk4_method_of_steps(problem, step=cfg.rk4_step)
    except ValueError as err:  # e.g. history_end off the delay grid
        raise OracleError(str(err)) from err
    except ArithmeticError as err:  # e.g. a forcing that overflows
        raise OracleError(f"RK4 integration failed: "
                          f"{type(err).__name__}: {err}") from err


def run_solve(cfg: ProblemConfig, problem, oracle, n_list, out_dir: Path,
              config_path) -> None:
    """Solve at each truncation of ``n_list``. One truncation writes into
    ``out_dir``, several each into ``out_dir/N<n>``. The sample points are
    built once."""
    points = accuracy.sample_points(problem.b)
    l = problem.n_equations
    for n in n_list:
        start = time.perf_counter()
        solution = solve_nonlinear(problem, n, tol=cfg.tol, max_iter=cfg.max_iter)
        cpu_time = time.perf_counter() - start
        if oracle is not None:
            report = accuracy.error_report(problem, solution, oracle)
            for eq in range(l):
                print(f"u_{eq + 1}: L2={report.l2[eq]:.3e} "
                      f"Linf={report.linf[eq]:.3e} RMS={report.rms[eq]:.3e}")
        print(f"N={n} cpu_time={cpu_time:.3f}s "
              f"condition={solution.condition:.3e}")

        coefficients = solution.coefficients
        n_dir = out_dir if len(n_list) == 1 else out_dir / f"N{n}"
        sol_path = n_dir / "solution.csv"
        _write_csv(sol_path, ["t"] + [f"u_{i + 1}" for i in range(l)],
                   np.column_stack([points, *evaluate(solution, points)]))
        coeff_path = n_dir / "coefficients.csv"
        _write_csv(coeff_path, ["equation", "n", "a_n"],
                   [[eq + 1, k, coefficients[eq, k]]
                    for eq in range(l) for k in range(n + 1)])
        _write_manifest(n_dir, "solve", config_path, {"N": n},
                        [sol_path, coeff_path])


def run_compare(cfg: ProblemConfig, problem, oracle, n_list, out_dir: Path,
                config_path) -> None:
    if oracle is None:
        raise OracleError(
            "compare needs a reference; set oracle = rk4 (with rk4_step) "
            "or oracle = exact in the config")
    solutions = {n: solve_nonlinear(problem, n, tol=cfg.tol, max_iter=cfg.max_iter)
                 for n in n_list}

    points = accuracy.sample_points(problem.b)
    l = problem.n_equations
    header = ["t"] + [f"oracle_u_{i + 1}" for i in range(l)]
    for n in n_list:
        header += [f"u_{i + 1}_N{n}" for i in range(l)]
        header += [f"absdiff_u_{i + 1}_N{n}" for i in range(l)]
    ref = accuracy.read_reference(oracle, points)
    columns = [points, *ref]
    for n in n_list:
        values = evaluate(solutions[n], points)
        columns += [*values, *np.abs(values - ref)]
    cmp_path = out_dir / "comparison.csv"
    _write_csv(cmp_path, header, np.column_stack(columns))
    _write_manifest(out_dir, "compare", config_path,
                    {"N_list": list(n_list)}, [cmp_path])


def run_converge(cfg: ProblemConfig, problem, oracle, n_list, out_dir: Path,
                 config_path) -> None:
    rows = accuracy.convergence_study(problem, n_list, oracle,
                                      tol=cfg.tol, max_iter=cfg.max_iter)

    l = problem.n_equations
    header = ["N"]
    for eq in range(l):
        header += [f"l2_u_{eq + 1}", f"linf_u_{eq + 1}", f"rms_u_{eq + 1}"]
    header += ["cpu_time", "condition", "iterations"]
    table = []
    for r in rows:
        if r.error is not None:
            print(f"N={r.n_max}: failed ({r.error})", file=sys.stderr)
            continue
        row = [r.n_max]
        for eq in range(l):
            row += [r.l2[eq], r.linf[eq], r.rms[eq]]
        row += [round(r.cpu_time, 3), r.condition, r.iterations]
        table.append(row)
        print(f"N={r.n_max} linf={max(r.linf):.3e} cpu_time={r.cpu_time:.3f}s")
    if not table:
        raise SolverError(f"every truncation failed (N = "
                          f"{', '.join(str(r.n_max) for r in rows)})")
    conv_path = out_dir / "convergence.csv"
    _write_csv(conv_path, header, table)
    _write_manifest(out_dir, "converge", config_path,
                    {"N_list": list(n_list)}, [conv_path])


def run_validate() -> int:
    """The matrix identity suite; prints one line per check."""
    from . import reference

    failures = 0
    for name, check in reference.identity_suite():
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {name} (max deviation {check.max_deviation:.3e})")
        failures += not check.passed
    mismatch = reference.delay_product_mismatch()
    expected_wrong = mismatch > 1e-3
    status = "PASS" if expected_wrong else "FAIL"
    print(f"{status} delay_product_with_extra_diff_factor_differs "
          f"(deviation {mismatch:.3e}, expected > 1e-3)")
    failures += not expected_wrong
    return EXIT_OK if failures == 0 else EXIT_SOLVER


RUNS = {"solve": run_solve, "compare": run_compare, "converge": run_converge}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagdde",
        description="Laguerre collocation solver for retarded delay "
                    "differential equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="problem config file")
        p.add_argument("--N", type=int, help="truncation degree")
        p.add_argument("--N-list", dest="N_list", type=int, nargs="+",
                       help="truncation degrees")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--tol", type=float, help="nonlinear iteration tolerance")
        p.add_argument("--max-iter", type=int, help="nonlinear iteration cap")
        p.add_argument("--oracle-step", type=float,
                       help="RK4 oracle step override")

    for verb in RUNS:
        add_common(sub.add_parser(verb))
    sub.add_parser("validate", help="check the paper's matrix identities")
    return parser


PARSER = build_parser()  # once: each add_argument reads the terminal size


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    if args.command == "validate":
        return run_validate()
    try:
        _check_path("--config", args.config)
        _check_path("--out", args.out)
        cfg = parse_config(args.config)
        if args.N is not None or args.N_list:  # a flag replaces the config's
            cfg.n_max, cfg.n_list = None, ()
        for key, value in (("tol", args.tol), ("max_iter", args.max_iter),
                           ("rk4_step", args.oracle_step), ("N", args.N),
                           ("N_list", " ".join(map(str, args.N_list or ())))):
            if value not in (None, ""):  # "": no --N-list
                set_key(cfg, key, value)
        validate(cfg)  # the rules joining two keys, once the flags are set
        n_list = list(cfg.n_list) or [cfg.n_max]
        if n_list == [None]:
            raise ConfigError("no truncation given; use --N/--N-list or set N "
                              "in the config")
        problem = build_problem(cfg)
        RUNS[args.command](cfg, problem, _make_oracle(cfg, problem), n_list,
                           Path(args.out), args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as err:
        print(f"oracle error: {err}", file=sys.stderr)
        return EXIT_ORACLE
    except (SingularSystemError, NonConvergenceError, SolverError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except ArithmeticError as err:  # from a config expression in the solve
        print(f"solver error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as err:  # writing the outputs
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
