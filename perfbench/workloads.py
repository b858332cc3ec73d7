"""Seeded workloads of the lagdde benchmark.

Each workload function takes the imported ``lagdde`` package and a seed and
returns a fixed list of jobs. A job's ``run`` is the timed call into lagdde; its
``check`` runs afterwards, untimed, and returns ``None`` when the output is
correct or the failure class ("tolerance" or "other") when it is not.
Jobs look lagdde names up when they run, so the traced run sees the
tracer's wrappers.

The seed changes the numbers in the inputs (for picard_feedback, the order
of the jobs), never the list of jobs: the same jobs, of the same size, run
for every seed, so the work a run measures does not depend on the seed.

Each workload's grid is split by a fixed table, never by running it, into
the jobs that pass today, which are timed, and its known failures, which
``known_failures=True`` returns instead and the benchmark runs once, after
the timed passes, as a census of the program's defects.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    jobs: list
    # quantities counted by the checks, e.g. bytes the CLI wrote
    counts: Counter = field(default_factory=Counter)


def _poly(coeffs):
    """Horner evaluation of sum(coeffs[k] t**k) as a plain float."""
    coeffs = [float(c) for c in reversed(coeffs)]

    def p(t):
        acc = 0.0
        for c in coeffs:
            acc = acc * t + c
        return acc

    return p


# ---------------------------------------------------------------------------
# linear_sweep

LINEAR_N = range(2, 21)
LINEAR_EQUATIONS = (1, 2, 3)
LINEAR_B = (1.0, 3.0, 5.0)
LINEAR_DEGREE = 4
# (equations, b) -> smallest N at which the job is a known failure. All raise
# SingularSystemError: for b = 1 and 3 in condition_estimate after the solve
# itself succeeded, for b = 5 at the monomial pivot threshold.
LINEAR_FAILS_FROM = {(1, 1.0): 11, (2, 1.0): 11, (3, 1.0): 11,
                     (1, 3.0): 15, (2, 3.0): 16, (3, 3.0): 17,
                     (1, 5.0): 19, (2, 5.0): 19, (3, 5.0): 19}
# max error on the sample grid, relative to max(1, max |u|) there
LINEAR_TOL = 1e-6


def _linear_job(lag, n, l, b, coeffs):
    """Coupled linear problem whose exact solution is a polynomial.

    Equation k reads u_k' = -gamma_k u_k + beta_k u_{k+1}(t - b/5) + g_k,
    with g_k manufactured so that u_k is the seeded polynomial, which also
    serves as the history for t <= 0.
    """
    tau = b / 5
    polys = [_poly(c) for c in coeffs]
    derivs = [_poly(np.polynomial.polynomial.polyder(c)) for c in coeffs]
    gamma = [0.5 * (k + 1) for k in range(l)]
    beta = [0.5 if k % 2 == 0 else -0.5 for k in range(l)]
    target = [(k + 1) % l for k in range(l)]

    def forcing(k):
        p, dp, q, gm, bt = polys[k], derivs[k], polys[target[k]], gamma[k], beta[k]
        return lambda t: dp(t) + gm * p(t) - bt * q(t - tau)

    problem = lag.DDEProblem(
        gamma=gamma,
        delays=[[lag.DelayTerm(target[k], beta[k], tau)] for k in range(l)],
        g=[forcing(k) for k in range(l)],
        phi=[p(0.0) for p in polys], b=b,
        history=lag.History(functions=tuple(polys), end=0.0))

    def exact(t):
        return np.array([p(t) for p in polys])

    def run():
        solution = lag.solve_linear(problem, n)
        return lag.error_report(problem, solution, exact)

    def check(report):
        scale = max(1.0, max(abs(p(t)) for p in polys for t in report.points))
        return None if float(np.max(report.linf)) <= LINEAR_TOL * scale else "tolerance"

    return Job(f"N={n} l={l} b={b:g}", run, check)


def linear_sweep(lag, seed, scratch, config_dir, max_jobs=None, known_failures=False):
    rng = np.random.default_rng(seed)
    jobs = []
    for n in LINEAR_N:
        for l in LINEAR_EQUATIONS:
            for b in LINEAR_B:
                # drawn for every grid point, so that a job's inputs do not
                # depend on the split
                coeffs = rng.uniform(-1.0, 1.0, size=(l, min(n, LINEAR_DEGREE) + 1))
                if (n >= LINEAR_FAILS_FROM[l, b]) == known_failures:
                    jobs.append(_linear_job(lag, n, l, b, coeffs))
    return Workload(jobs[:max_jobs])


# ---------------------------------------------------------------------------
# picard_feedback

PICARD_TOL = 1e-2  # the acceptance-4 gate, on [tau, 3]
PICARD_STEP = 1e-3
_HISTORIES = {"sin": math.sin, "exp": lambda t: math.exp(-t)}
_NONLINEARITIES = {"exp": lambda u: math.exp(-u),
                   "half_exp": lambda u: 0.5 * math.exp(-u)}
PICARD_N_MAX = 16
# (gamma, tau, history, nonlinearity, first N, smallest N that is a known
# failure). The first is the acceptance-4 problem of configs/example1.cfg,
# which misses the gate at every N where it converges; the fourth also
# misses it and ends in an OverflowError at N = 16. From N = 13 every
# variant raises NonConvergenceError. The 21 timed jobs put the p50 and p75
# of a run inside one job's samples rather than on the edge between two
# jobs' samples.
PICARD_VARIANTS = (
    (0.4, 0.5, "sin", "exp", 6, 6),
    (1.0, 0.5, "exp", "half_exp", 6, 13),
    (1.0, 1.0, "exp", "half_exp", 6, 13),
    (0.4, 1.0, "sin", "exp", 9, 9),
    (1.5, 0.5, "exp", "half_exp", 6, 13),
)


def _picard_problem(lag, variant):
    gamma, tau, history, nonlinearity = variant[:4]
    h = _HISTORIES[history]
    return lag.DDEProblem(
        gamma=[gamma], delays=[[]], g=[lambda t: 0.0], phi=[h(0.0)], b=5.0,
        history=lag.History(functions=(h,), end=tau),
        nonlinear=[lag.NonlinearDelayTerm(f=_NONLINEARITIES[nonlinearity],
                                          target=0, tau=tau)])


def picard_feedback(lag, seed, scratch, config_dir, max_jobs=None, known_failures=False):
    """The seed orders the jobs but leaves the problems as they are.

    From N = 12 on, the Picard stopping rule is limited by roundoff: a
    relative change of 1e-4 in gamma or an amplitude moves a job between
    9 and 49 iterations or into NonConvergenceError, so perturbed inputs
    would make the work of a run depend on its seed.
    """
    problems = [_picard_problem(lag, v) for v in PICARD_VARIANTS]
    plan = [(i, n) for i, v in enumerate(PICARD_VARIANTS)
            for n in range(v[4], PICARD_N_MAX + 1) if (n >= v[5]) == known_failures]
    order = np.random.default_rng(seed).permutation(len(plan))
    plan = [plan[k] for k in order][:max_jobs]
    # RK4 references, only for the variants the (possibly shortened) plan uses
    refs = {i: lag.rk4_method_of_steps(problems[i], step=PICARD_STEP)
            for i in sorted({i for i, _ in plan})}

    def job(i, n):
        problem, ref = problems[i], refs[i]
        tau = PICARD_VARIANTS[i][1]
        points = np.linspace(tau, 3.0, 26)

        def run():
            return lag.solve_nonlinear(problem, n, tol=1e-8, max_iter=50)

        def check(solution):
            diff = max(abs(lag.evaluate(solution, t)[0] - ref(t)[0]) for t in points)
            return None if diff <= PICARD_TOL else "tolerance"

        return Job(f"variant={i} N={n}", run, check)

    return Workload([job(i, n) for i, n in plan])


# ---------------------------------------------------------------------------
# cli_oracle

CLI_TOL = 1e-2        # max difference from the oracle at the largest N
GENERATED_TOL = 1e-4  # generated configs have smooth exact solutions
ORACLE_TOL = 1e-6     # the RK4 oracle against a known exact solution
# Known failures: the shipped configs miss the 1e-2 gate at their N, and
# generated configs with b below SINGULAR_BELOW_B raise SingularSystemError
# at N = 10 for most seeds, the pivot threshold depending on the scale of t.
SHIPPED = ("example1.cfg", "example2.cfg")
SINGULAR_BELOW_B = 1.0
COMMANDS = ("solve", "compare", "converge")
# (equations, b, oracle, command), one generated config each. Lengths and
# sizes are chosen so that of the 11 timed jobs the 6th and the 9th fastest,
# in whose samples a run's p50 and p75 fall, take well apart from their
# neighbours (about 170 and 350 ms against 90/250 and 280/580 ms on the
# baseline host): a percentile that falls between two jobs of nearly equal
# time swings with their order. Delays are multiples of 0.25, so the RK4
# step stays 1e-3.
GENERATED = (
    (1, 0.5, "rk4", "compare"),
    (2, 0.5, "rk4", "converge"),
    (3, 0.5, "exact", "compare"),
    (1, 1.0, "rk4", "converge"),
    (2, 1.0, "none", "solve"),
    (3, 1.0, "rk4", "compare"),
    (1, 1.5, "rk4", "solve"),
    (2, 1.5, "exact", "converge"),
    (3, 2.25, "rk4", "converge"),
    (1, 2.0, "none", "converge"),
    (2, 2.0, "rk4", "compare"),
    (3, 2.0, "rk4", "solve"),
    (1, 1.75, "rk4", "converge"),
    (2, 0.75, "rk4", "solve"),
    (3, 1.25, "exact", "converge"),
)
DELAYS = (0.5, 0.25, 1.0)
GENERATED_N = (6, 10)


def _generated_config(rng, equations, b, oracle):
    """Config text with manufactured solutions u_k = A exp(-c t) + B sin(w t).

    Returns the text and the exact solution as a callable of t. The numbers
    are rounded before use, so the text and the callable agree exactly.
    """
    params = np.round(rng.uniform([0.5, 0.2, 0.2, 0.5], [1.5, 1.0, 0.8, 1.5],
                                  size=(equations, 4)), 6).tolist()
    rates = np.round(rng.uniform([0.2, -0.6], [1.2, 0.6], size=(equations, 2)),
                     6).tolist()

    def expr(k, arg="t"):
        a, c, bb, w = params[k]
        return f"{a!r}*exp(-{c!r}*{arg}) + {bb!r}*sin({w!r}*{arg})"

    def deriv(k):
        a, c, bb, w = params[k]
        return f"-{a * c!r}*exp(-{c!r}*t) + {bb * w!r}*cos({w!r}*t)"

    lines = [f"equations = {equations}", f"b = {b!r}",
             "N_list = " + " ".join(str(n) for n in GENERATED_N),
             "history_end = 0"]
    lines.append("rk4_step = 0.001" if oracle == "rk4" else f"oracle = {oracle}")
    for k in range(equations):
        target, tau = (k + 1) % equations, DELAYS[k]
        gamma, beta = rates[k]
        shifted = expr(target, f"(t - {tau!r})")
        lines += ["", f"[equation {k + 1}]", f"gamma = {gamma!r}",
                  f"phi = {params[k][0]!r}",
                  f"forcing = {deriv(k)} + {gamma!r}*({expr(k)})"
                  f" - ({beta!r})*({shifted})",
                  f"history = {expr(k)}",
                  f"delay = {target + 1} {beta!r} {tau!r}"]
        if oracle == "exact":
            lines.append(f"exact = {expr(k)}")

    def exact(t):
        return np.array([a * math.exp(-c * t) + bb * math.sin(w * t)
                         for a, c, bb, w in params])

    return "\n".join(lines) + "\n", exact


def _read_csv(path):
    """Header and float rows; raises ValueError on a malformed file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"ragged or empty CSV {path}")
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def _solver_failure(text):
    if "singular" in text:
        return "singular"
    if "no convergence" in text:
        return "nonconvergence"
    return "other"


def _reported_linf(text):
    """Per-N oracle Linf norms from `solve` output.

    The CLI prints one "u_k: ... Linf=..." line per equation, then the
    "N=<n> ..." line that closes the block.
    """
    blocks, current = {}, []
    for line in text.splitlines():
        if "Linf=" in line:
            current.append(float(line.split("Linf=")[1].split()[0]))
        elif line.startswith("N="):
            blocks[int(line[2:].split()[0])] = current
            current = []
    return blocks


def _csv_bytes(out):
    """Bytes of the CSVs written, less the measured cpu_time cells."""
    total = 0
    for path in out.rglob("*.csv"):
        total += path.stat().st_size
        if path.name == "convergence.csv":
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            col = header.index("cpu_time")
            total -= sum(len(r[col]) for r in rows)
    return total


def _check_cli(command, out, code, text, n_list, oracle, exact, tol):
    if code == 3:
        return _solver_failure(text)
    if code != 0:
        return "other"
    n_max = max(n_list)
    if command == "solve":
        folder = out if len(n_list) == 1 else out / f"N{n_max}"
        header, rows = _read_csv(folder / "solution.csv")
        _read_csv(folder / "coefficients.csv")
        if exact is not None:
            err = max(np.abs(row[1:] - exact(row[0])).max() for row in rows)
        else:
            err = max(_reported_linf(text)[n_max])
    elif command == "compare":
        header, rows = _read_csv(out / "comparison.csv")
        cols = [i for i, h in enumerate(header)
                if h.startswith("absdiff_") and h.endswith(f"_N{n_max}")]
        err = rows[:, cols].max()
        if exact is not None:
            oracle_cols = [i for i, h in enumerate(header) if h.startswith("oracle_")]
            oracle_err = max(np.abs(row[oracle_cols] - exact(row[0])).max()
                             for row in rows)
            if not oracle_err <= ORACLE_TOL:
                return "tolerance"
    else:
        header, rows = _read_csv(out / "convergence.csv")
        last = rows[rows[:, 0] == n_max]
        if len(last) == 0:
            return _solver_failure(text)
        cols = [i for i, h in enumerate(header) if h.startswith("linf_")]
        err = last[:, cols].max()
        if oracle == "none":  # residual norms: only finiteness is checkable
            err = 0.0 if np.isfinite(err) else math.inf
    return None if err <= tol else "tolerance"


def cli_oracle(lag, seed, scratch, config_dir, max_jobs=None, known_failures=False):
    cli = lag.cli
    rng = np.random.default_rng(seed)
    workload = Workload([])
    cases = []  # (known failure, case)
    for name in SHIPPED:
        cfg = lag.config.parse_config(str(config_dir / name))
        n_list = cfg.n_list or (cfg.n_max,)
        for command in COMMANDS:
            cases.append((True, (name, config_dir / name, command, n_list,
                                 cfg.oracle, None, CLI_TOL)))
    for index, (equations, b, oracle, command) in enumerate(GENERATED):
        text, exact = _generated_config(rng, equations, b, oracle)
        path = scratch / f"generated{index}.cfg"
        path.write_text(text)
        cases.append((b < SINGULAR_BELOW_B, (path.name, path, command, GENERATED_N,
                                             oracle, exact, GENERATED_TOL)))

    def job(index, name, path, command, n_list, oracle, exact, tol):
        out = scratch / f"out{index}"
        argv = [command, "--config", str(path), "--out", str(out)]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(result):
            code, text = result
            try:
                outcome = _check_cli(command, out, code, text, n_list, oracle,
                                     exact, tol)
                if code == 0:
                    workload.counts["cli.bytes_written"] += _csv_bytes(out)
            except (OSError, ValueError, IndexError, KeyError):
                outcome = "other"
            shutil.rmtree(out, ignore_errors=True)
            return outcome

        return Job(f"{command} {name}", run, check)

    jobs = [job(i, *case) for i, (known, case) in enumerate(cases)
            if known == known_failures]
    workload.jobs = jobs[:max_jobs]
    return workload
