"""Tests for the residual defect, error norms, and convergence studies."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from lagdde import accuracy as accuracy_mod
from lagdde import reference as reference_mod
from lagdde.accuracy import (
    _norms,
    convergence_study,
    error_report,
    residual,
    sample_points,
)
from lagdde.reference import rk4_method_of_steps
from lagdde.collocation import (
    DDEProblem,
    DelayTerm,
    History,
    NonlinearDelayTerm,
    SpectralSolution,
    collocation_points,
    evaluate,
    single_equation,
    solve_linear,
    solve_nonlinear,
)


def _solution(chebyshev, b=1.0):
    """Solution with the Chebyshev coefficients of T_k(2t/b - 1)."""
    chebyshev = np.atleast_2d(np.asarray(chebyshev, dtype=float))
    return SpectralSolution(chebyshev=chebyshev, b=b)


# ---------------------------------------------------------------------------
# residual

def test_residual_zero_for_manufactured_solution():
    # u(t) = t with matching forcing gives a vanishing defect everywhere
    problem = single_equation(1.0, 1.0, 1.0, lambda t: 2.0, 0.0, 2.0)
    solution = solve_linear(problem, 4)
    for t in np.linspace(0.0, 2.0, 9):
        assert residual(problem, solution, t)[0] < 1e-8


def test_residual_of_zero_solution_against_unit_forcing():
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 1.0, 0.0, 1.0)
    solution = _solution([0.0, 0.0, 0.0])
    assert residual(problem, solution, 0.5)[0] == pytest.approx(1.0)


def test_residual_of_linear_solution_without_forcing():
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 0.0, 0.0, 1.0)
    solution = _solution([0.5, 0.5, 0.0])  # u(t) = t = (T_0 + T_1)/2 on [0, 1]
    assert residual(problem, solution, 0.5)[0] == pytest.approx(1.0)


def test_residual_small_at_retained_collocation_points():
    # without a history, with one whose end is past 0 (so it serves part of
    # the delayed points on [0, b]), and with a nonlinear term; read at each
    # point and at all of them as one array
    sine = History(functions=(math.sin,), end=0.5)
    exp = NonlinearDelayTerm(f=lambda u: math.exp(-u), target=0, tau=0.5)
    for problem in (single_equation(0.7, 1.2, 0.5, math.cos, 0.3, 2.0),
                    single_equation(0.7, 1.2, 0.75, math.cos, 0.3, 2.0, history=sine),
                    single_equation(0.4, 0.3, 0.75, math.cos, 0.0, 2.0, history=sine,
                                    nonlinear=exp)):
        solution = solve_nonlinear(problem, 8)
        points = collocation_points(8, 2.0)[:-1]
        defect = residual(problem, solution, points)
        assert defect.shape == (1, 8)
        assert defect.max() < 1e-8
        for t in points:
            assert residual(problem, solution, t)[0] < 1e-8
        # between the nodes the defect is not zero
        assert residual(problem, solution, points + 0.125).max() > 1e-6


def _defect_point_by_point(problem, solution, t):
    """The defect at one point from its definition, with each delayed value
    read from the history where it covers the argument and tau > 0, else by
    Clenshaw, and u_N' from numpy's Chebyshev derivative."""
    u = evaluate(solution, t)
    du = [np.polynomial.Chebyshev(c, domain=[0, solution.b]).deriv()(t)
          for c in solution.chebyshev]

    def delayed(eq, tau):
        s = t - tau
        if tau > 0 and problem.history is not None and problem.history.covers(s):
            return problem.history.value(eq, s)
        return evaluate(solution, s)[eq]

    out = []
    for eq in range(problem.n_equations):
        value = du[eq] + problem.gamma[eq] * u[eq] - problem.g[eq](t)
        for term in problem.delays[eq]:
            value -= term.beta * delayed(term.target, term.tau)
        nl = problem.nonlinear[eq]
        if nl is not None:
            value -= nl.f(delayed(nl.target, nl.tau))
        out.append(abs(value))
    return np.array(out)


def test_residual_matches_the_defect_read_point_by_point():
    # coupled, with delays the history serves at some points and the series
    # at others, an end past 0 and a nonlinear term; between the nodes too
    history = History(functions=(math.cos, math.sin), end=0.25)
    problem = DDEProblem(
        gamma=[0.5, -0.3],
        delays=[[DelayTerm(1, 0.7, 0.5)],
                [DelayTerm(0, -0.4, 1.5), DelayTerm(1, 0.2, 0.0)]],
        g=[math.sin, lambda t: 1.0], phi=[1.0, 0.0], b=3.0, history=history,
        nonlinear=[None, NonlinearDelayTerm(f=lambda u: math.exp(-u),
                                            target=0, tau=0.75)])
    for n in (4, 10):
        solution = solve_nonlinear(problem, n)
        points = sample_points(problem.b)
        expected = np.column_stack([_defect_point_by_point(problem, solution, t)
                                    for t in points])
        scale = max(1.0, np.abs(solution.chebyshev).max())
        np.testing.assert_allclose(residual(problem, solution, points), expected,
                                   rtol=0.0, atol=1e-12 * scale)


def test_residual_keeps_the_shape_of_its_points():
    # a 2-D array of points used to raise TypeError inside _system
    problem = single_equation(0.5, 0.3, 0.5, math.cos, 1.0, 2.0)
    solution = solve_linear(problem, 6)
    points = np.linspace(0.0, 2.0, 6)
    flat = residual(problem, solution, points)
    grid = residual(problem, solution, points.reshape(2, 3))
    assert grid.shape == (1, 2, 3)
    assert (grid.reshape(1, -1) == flat).all()
    assert residual(problem, solution, np.array([[0.1, 0.2]])).shape == (1, 1, 2)
    assert residual(problem, solution, points[4]).shape == (1,)
    assert (residual(problem, solution, points.tolist()) == flat).all()


def test_residual_uses_history_for_early_points():
    history = History(functions=(lambda t: 5.0,), end=0.0)
    problem = DDEProblem(gamma=[0.0], delays=[[DelayTerm(0, 1.0, 1.0)]],
                         g=[lambda t: 0.0], phi=[0.0], b=2.0, history=history)
    solution = _solution([0.0, 0.0, 0.0], b=2.0)
    # defect at t = 0.5: |0 + 0 - 1 * history(-0.5)| = 5
    assert residual(problem, solution, 0.5)[0] == pytest.approx(5.0)


def test_residual_refuses_a_solution_of_another_problem():
    # the defect reads the solution's coefficients through the problem's
    # map 2t/b - 1: a [0, 3] solution read as one on [0, 5] gave a residual
    # near 1 where its own is 4e-8, and another equation count a matmul error
    def problem(b, l=1):
        return DDEProblem(gamma=[1.0] * l, delays=[[]] * l, g=[math.cos] * l,
                          phi=[1.0] * l, b=b)

    solution = solve_linear(problem(3.0), 12)
    assert residual(problem(3.0), solution, 1.5)[0] < 1e-7
    for other, message in ((problem(5.0), r"b=3\.0.*b=5\.0"),
                           (problem(3.0, 2), r"equations=1\).*equations=2\)")):
        with pytest.raises(ValueError, match=message):
            residual(other, solution, 1.5)
        with pytest.raises(ValueError, match=message):
            error_report(other, solution)


# ---------------------------------------------------------------------------
# norms

def test_norms_of_zero_vector():
    assert _norms(np.zeros(3)) == (0.0, 0.0, 0.0)


def test_norms_three_four_five():
    l2, linf, rms = _norms(np.array([3.0, 4.0]))
    assert l2 == pytest.approx(5.0)
    assert linf == pytest.approx(4.0)
    assert rms == pytest.approx(5.0 / math.sqrt(2.0))


def test_rms_divisor_is_sample_count():
    # with the count divisor, four unit errors give rms exactly one
    l2, linf, rms = _norms(np.ones(4))
    assert l2 == pytest.approx(2.0)
    assert rms == pytest.approx(1.0)
    assert linf == pytest.approx(1.0)


def test_norm_identity_and_ordering_random_vectors():
    rng = np.random.default_rng(59)
    for _ in range(200):
        e = rng.uniform(-3.0, 3.0, int(rng.integers(1, 40)))
        l2, linf, rms = _norms(e)
        assert linf <= l2 * (1 + 1e-15)
        assert rms <= linf * (1 + 1e-15)
        assert l2**2 == pytest.approx(e.size * rms**2, rel=1e-12)


def test_norms_of_errors_past_the_square_range_do_not_overflow():
    # 1e200 squared passes the float range: the sum used to warn "overflow
    # encountered in square", and L2 and RMS read inf
    e = np.array([[1e200, -1e200], [3.0, 4.0], [math.inf, 1e200],
                  [math.nan, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l2, linf, rms = _norms(e)
    assert (l2[0], linf[0], rms[0]) == (math.sqrt(2) * 1e200, 1e200, 1e200)
    # a row in range is summed as it is
    assert (l2[1], linf[1], rms[1]) == (5.0, 4.0, math.sqrt(12.5))
    # an inf or a nan beside a large error reads inf or nan, with no warning
    assert (l2[2], linf[2], rms[2]) == (math.inf, math.inf, math.inf)
    assert np.isnan([l2[3], linf[3], rms[3]]).all()


def test_norms_reject_empty_input():
    with pytest.raises(ValueError):
        _norms(np.array([]))


def test_sample_points_include_integers():
    pts = sample_points(5.0)
    assert len(pts) == 51
    for k in range(6):
        assert float(k) in pts


def test_sample_grid_is_capped_above_b_1000():
    # up to b = 1000 the grid keeps 10 intervals per unit and its integers;
    # beyond it the grid keeps MAX_SAMPLES intervals, at any finite b
    pts = sample_points(1000.0)
    np.testing.assert_array_equal(pts, np.linspace(0.0, 1000.0, 10_001))
    assert set(range(1001)) <= set(pts.tolist())
    for b in (1000.1, 1e9, 1e308):
        pts = sample_points(b)
        assert len(pts) == accuracy_mod.MAX_SAMPLES + 1 == 10_001
        assert (pts[0], pts[-1]) == (0.0, b)


# ---------------------------------------------------------------------------
# reports and studies

def test_error_report_residual_only():
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 1.0, 0.0, 1.0)
    solution = _solution([0.0, 0.0, 0.0])
    report = error_report(problem, solution)
    np.testing.assert_allclose(report.errors, 1.0)
    assert report.linf[0] == pytest.approx(1.0)


def test_error_report_reads_the_grid_in_one_call(monkeypatch):
    # one series read against a reference, one trajectory read against an
    # RK4 reference and one system assembly for the residual, however many
    # points the grid has
    calls = Counter()

    def count(module, name):
        function = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(module, name, wrapper)

    problem = single_equation(
        0.4, 0.3, 0.75, math.cos, 0.0, 5.0,
        history=History(functions=(math.sin,), end=0.5),
        nonlinear=NonlinearDelayTerm(f=lambda u: math.exp(-u), target=0, tau=0.5))
    solution = solve_nonlinear(problem, 8)
    trajectory = rk4_method_of_steps(problem, step=1e-2)
    count(accuracy_mod, "evaluate")
    count(accuracy_mod, "_system")
    count(reference_mod, "_read")
    for points in (None, np.linspace(0.0, 5.0, 3), np.linspace(0.0, 5.0, 400)):
        calls.clear()
        error_report(problem, solution, math.sin, points=points)
        assert calls == {"evaluate": 1}
        calls.clear()
        error_report(problem, solution, trajectory, points=points)
        assert calls == {"evaluate": 1, "_read": 1}
        calls.clear()
        error_report(problem, solution, points=points)
        assert calls == {"_system": 1}


@pytest.mark.parametrize("reference", [None, math.sin],
                         ids=["residual", "reference"])
def test_error_report_flattens_a_grid_of_points(reference):
    # a 2 x 3 grid is six points: norms per equation, errors (l, 6); the
    # residual path used to reduce over the wrong axis, the reference path
    # raised TypeError
    problem = single_equation(0.4, 0.3, 0.5, math.cos, 0.0, 3.0)
    solution = solve_nonlinear(problem, 8)
    grid = np.linspace(0.0, 3.0, 6).reshape(2, 3)
    report = error_report(problem, solution, reference, points=grid)
    flat = error_report(problem, solution, reference, points=grid.ravel())
    assert report.points.shape == (6,)
    assert report.errors.shape == (1, 6)
    assert report.linf.shape == report.l2.shape == report.rms.shape == (1,)
    assert np.array_equal(report.errors, flat.errors)
    assert np.array_equal(report.linf, flat.linf)


def test_convergence_study_polynomial_exactness():
    poly = np.polynomial.Polynomial([0.3, -0.4, 0.2])
    dpoly = poly.deriv()
    problem = single_equation(
        0.6, 0.9, 0.5,
        lambda t: dpoly(t) + 0.6 * poly(t) - 0.9 * poly(t - 0.5),
        poly(0.0), 2.0)
    rows = convergence_study(problem, [3, 4, 5], lambda t: poly(t))
    for row in rows:
        assert row.error is None
        assert row.linf[0] < 1e-8
        assert row.cpu_time >= 0.0


def test_convergence_study_coupled_problem_error_decreases():
    history = History(functions=(lambda t: 1.0, lambda t: 1.0), end=0.0)
    problem = DDEProblem(
        gamma=[0.0, 0.0],
        delays=[[DelayTerm(0, 1.0, 2.0)],
                [DelayTerm(0, 1.0, 2.0), DelayTerm(1, 1.0, 0.5)]],
        g=[lambda t: 0.0, lambda t: 0.0],
        phi=[1.0, 1.0], b=2.0, history=history)
    # on [0, 2] the first component is exactly 1 + t
    rows = convergence_study(problem, [3, 4],
                             lambda t: np.array([1.0 + t, np.nan]))
    assert rows[0].linf[0] < 1e-6 and rows[1].linf[0] < 1e-6


def test_convergence_study_records_failures():
    problem = single_equation(
        0.4, 0.0, 0.5, lambda t: 0.0, 0.0, 5.0,
        history=History(functions=(math.sin,), end=0.5),
        nonlinear=NonlinearDelayTerm(f=lambda u: math.exp(-u), target=0, tau=0.5))
    rows = convergence_study(problem, [6, 8], max_iter=1)
    assert all(row.error is not None for row in rows)
    assert all(row.linf is None for row in rows)



def test_convergence_study_lets_a_bug_in_a_callable_propagate():
    # only what a solve can legitimately raise is a failed row; a bug in
    # the forcing read as "failed" on every truncation
    def g(t):
        raise TypeError("bug in g")

    problem = single_equation(0.4, 0.0, 0.5, g, 1.0, 2.0)
    with pytest.raises(TypeError, match="bug in g"):
        convergence_study(problem, [4, 6])


def test_convergence_study_records_a_math_domain_error():
    problem = single_equation(0.4, 0.0, 0.5, lambda t: math.sqrt(t - 1.0),
                              1.0, 2.0)
    rows = convergence_study(problem, [4, 6])
    assert [row.error for row in rows] == ["math domain error"] * 2

def test_convergence_trend_smooth_problem():
    # u(t) = exp(-t) with derived forcing; the error shrinks with N
    u = math.exp

    def g(t):
        return -math.exp(-t) + 0.5 * math.exp(-t) - 0.3 * math.exp(-(t - 1.0))

    problem = single_equation(0.5, 0.3, 1.0, g, 1.0, 5.0)
    rows = convergence_study(problem, [4, 10], lambda t: math.exp(-t))
    assert rows[1].linf[0] < rows[0].linf[0]


def test_convergence_study_rejects_empty_list():
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        convergence_study(problem, [])
