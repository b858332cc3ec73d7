"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
the suite is configured that way) and then asserts, so a failing criterion
is visible both in the printed line and in the pytest result.
"""

import math
import time
from pathlib import Path

import numpy as np

from lagdde import cli
from lagdde.accuracy import _norms
from lagdde.collocation import (
    DDEProblem,
    DelayTerm,
    History,
    NonlinearDelayTerm,
    evaluate,
    single_equation,
    solve_linear,
    solve_nonlinear,
)
from lagdde.reference import (
    delay_product_mismatch,
    identity_suite,
    rk4_method_of_steps,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number} [{label}]: {status} ({detail})")
    assert passed, f"acceptance {number} [{label}]: {detail}"


def _coupled_problem(b):
    history = History(functions=(lambda t: 1.0, lambda t: 1.0), end=0.0)
    return DDEProblem(
        gamma=[0.0, 0.0],
        delays=[[DelayTerm(0, 1.0, 2.0)],
                [DelayTerm(0, 1.0, 2.0), DelayTerm(1, 1.0, 0.5)]],
        g=[lambda t: 0.0, lambda t: 0.0],
        phi=[1.0, 1.0], b=b, history=history)


def _delayed_feedback_problem():
    # u'(t) = -0.4 u(t) + exp(-u(t - 0.5)) on [0.5, 5] with u = sin on
    # [0, 0.5], posed from the time origin s = t - 0.5: the DDE starts at
    # u(0) = sin(0.5) and the history s -> sin(s + 0.5) serves s <= 0
    history = History(functions=(lambda s: math.sin(s + 0.5),), end=0.0)
    return DDEProblem(
        gamma=[0.4], delays=[[]], g=[lambda t: 0.0], phi=[math.sin(0.5)],
        b=4.5, history=history,
        nonlinear=[NonlinearDelayTerm(f=lambda u: math.exp(-u),
                                      target=0, tau=0.5)])


def test_acceptance_1_matrix_identity_suite():
    start = time.perf_counter()
    results = identity_suite()
    elapsed = time.perf_counter() - start
    worst = max(check.max_deviation for _, check in results)
    failed = [name for name, check in results if not check.passed]
    _report(1, "matrix identities", not failed and worst < 1e-9 and elapsed < 1.0,
            f"{len(results)} checks, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_2_polynomial_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        deg = int(rng.integers(0, n))
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, deg + 1))
        dpoly = poly.deriv()
        gamma = float(rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(-2.0, 2.0))
        tau = float(rng.choice([0.5, 1.0, 2.0]))

        def g(t, dpoly=dpoly, poly=poly, gamma=gamma, beta=beta, tau=tau):
            return dpoly(t) + gamma * poly(t) - beta * poly(t - tau)

        problem = single_equation(gamma, beta, tau, g, poly(0.0), 2.0)
        solution = solve_linear(problem, n)
        ts = np.linspace(0.0, 2.0, 40)
        scale = max(1.0, max(abs(poly(t)) for t in ts))
        err = max(abs(evaluate(solution, t)[0] - poly(t)) for t in ts) / scale
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(2, "polynomial exactness", worst < 1e-8 and elapsed < 5.0,
            f"50 problems, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_3_coupled_system_oracle_agreement():
    start = time.perf_counter()
    # collocation against the exact early piece 1 + t of the first component
    problem = _coupled_problem(3.0)
    ts = np.linspace(0.0, 2.0, 21)
    errs = {}
    for n in (4, 8):
        solution = solve_linear(problem, n)
        errs[n] = max(abs(evaluate(solution, t)[0] - (1.0 + t)) for t in ts)
    # integrator against the full piecewise-polynomial first component
    trajectory = rk4_method_of_steps(_coupled_problem(4.0), step=1e-3)

    def u1_exact(t):
        value = 1.0 + t
        if t > 2.0:
            value += (t - 2.0) ** 2 / 2.0
        return value

    rk4_err = max(abs(trajectory(t)[0] - u1_exact(t))
                  for t in np.linspace(0.0, 4.0, 81))
    elapsed = time.perf_counter() - start
    ok = errs[4] < 5e-2 and errs[8] < errs[4] and rk4_err < 1e-9 and elapsed < 2.0
    _report(3, "coupled-system oracle agreement", ok,
            f"N=4 err {errs[4]:.2e}, N=8 err {errs[8]:.2e}, "
            f"rk4 err {rk4_err:.2e}, {elapsed:.2f}s")


def test_acceptance_4_nonlinear_loop_vs_rk4():
    start = time.perf_counter()
    problem = _delayed_feedback_problem()
    solution = solve_nonlinear(problem, 10, tol=1e-8, max_iter=50)
    trajectory = rk4_method_of_steps(problem, step=1e-3)
    diff = max(abs(evaluate(solution, t - 0.5)[0] - trajectory(t - 0.5)[0])
               for t in np.linspace(0.5, 3.0, 26))
    elapsed = time.perf_counter() - start
    ok = solution.iterations <= 50 and diff < 1e-2 and elapsed < 10.0
    _report(4, "nonlinear loop vs rk4", ok,
            f"{solution.iterations} iterations, "
            f"max difference {diff:.3e} on [0.5, 3], {elapsed:.2f}s")


def test_acceptance_5_error_norm_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        e = rng.uniform(-5.0, 5.0, int(rng.integers(1, 60)))
        l2, linf, rms = _norms(e)
        assert linf <= l2 * (1 + 1e-15)
        assert abs(l2**2 - e.size * rms**2) <= 1e-12 * max(1.0, l2**2)
    elapsed = time.perf_counter() - start
    _report(5, "error-norm algebra", elapsed < 1.0,
            f"1000 vectors, {elapsed:.2f}s")


def test_acceptance_6_rk4_order():
    start = time.perf_counter()
    gamma = 0.7

    def max_error(step):
        problem = single_equation(gamma, 0.0, 1.0, lambda t: 0.0, 1.0, 2.0)
        trajectory = rk4_method_of_steps(problem, step=step)
        return max(abs(trajectory(t)[0] - math.exp(-gamma * t))
                   for t in np.linspace(0.0, 2.0, 41))

    ratio = max_error(0.1) / max_error(0.05)
    elapsed = time.perf_counter() - start
    _report(6, "rk4 order", 12.0 <= ratio <= 20.0 and elapsed < 1.0,
            f"halving ratio {ratio:.2f}, {elapsed:.2f}s")


def test_acceptance_7_structural_reproduction(tmp_path):
    start = time.perf_counter()
    cfg_path = str(CONFIG_DIR / "example2.cfg")
    out = tmp_path / "converge"
    assert cli.main(["converge", "--config", cfg_path,
                     "--N-list", "3", "4", "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in
                     (out / "convergence.csv").read_text().splitlines()]
    expected_columns = {"N", "l2_u_1", "linf_u_1", "rms_u_1",
                        "l2_u_2", "linf_u_2", "rms_u_2", "cpu_time"}
    columns_ok = expected_columns.issubset(header)

    # the solve-only time per truncation, as the table reports it
    column = header.index("cpu_time")
    cpu = {int(row[0]): float(row[column]) for row in rows}
    # runtimes are machine-dependent; require only that they sit within a
    # factor-of-ten band of each other (at the 1 ms reporting resolution)
    band_ok = (cpu[4] <= 10.0 * max(cpu[3], 1e-3)
               and cpu[3] <= 10.0 * max(cpu[4], 1e-3))
    elapsed = time.perf_counter() - start
    _report(7, "structural reproduction",
            columns_ok and band_ok and elapsed < 5.0,
            f"columns {sorted(set(header))}, cpu N=3 {cpu[3]:.3f}s, "
            f"N=4 {cpu[4]:.3f}s, {elapsed:.2f}s")


def test_acceptance_8_documented_discrepancy():
    start = time.perf_counter()
    mismatch = delay_product_mismatch()
    elapsed = time.perf_counter() - start
    _report(8, "documented discrepancy", mismatch > 1e-3 and elapsed < 1.0,
            f"factored-product deviation {mismatch:.2e}, {elapsed:.2f}s")
