"""Tests for the RK4 method-of-steps oracle and the matrix identity suite."""

import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lagdde import reference as reference_mod
from lagdde.accuracy import read_reference
from lagdde.config import (
    Expression,
    build_problem,
    parse_config,
    parse_config_text,
)
from lagdde.collocation import (
    HISTORY_EDGE_TOL,
    DDEProblem,
    DelayTerm,
    History,
    NonlinearDelayTerm,
    single_equation,
)
from lagdde.reference import (
    Trajectory,
    _aligned_step,
    _read,
    delay_product_mismatch,
    identity_suite,
    rk4_method_of_steps,
)


def _coupled_problem(b):
    history = History(functions=(lambda t: 1.0, lambda t: 1.0), end=0.0)
    return DDEProblem(
        gamma=[0.0, 0.0],
        delays=[[DelayTerm(0, 1.0, 2.0)],
                [DelayTerm(0, 1.0, 2.0), DelayTerm(1, 1.0, 0.5)]],
        g=[lambda t: 0.0, lambda t: 0.0],
        phi=[1.0, 1.0], b=b, history=history)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _piecewise_u1(t):
    value = 1.0 + t
    if t > 2.0:
        value += (t - 2.0) ** 2 / 2.0
    if t > 4.0:
        value += (t - 4.0) ** 3 / 6.0
    return value


# ---------------------------------------------------------------------------
# integrator

def test_constant_history_linear_growth():
    history = History(functions=(lambda t: 1.0,), end=0.0)
    problem = DDEProblem(gamma=[0.0], delays=[[DelayTerm(0, 1.0, 2.0)]],
                         g=[lambda t: 0.0], phi=[1.0], b=2.0, history=history)
    trajectory = rk4_method_of_steps(problem, step=1e-2)
    for t in np.linspace(0.0, 2.0, 41):
        assert trajectory(t)[0] == pytest.approx(1.0 + t, abs=1e-10)


def test_zero_right_hand_side_stays_constant():
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 0.0, 0.7, 2.0)
    trajectory = rk4_method_of_steps(problem, step=1e-2)
    for t in np.linspace(0.0, 2.0, 21):
        assert trajectory(t)[0] == pytest.approx(0.7, abs=1e-13)


def _overlapping_history_problem(end=0.5, b=5.0):
    # u(0) = 0 while sin serves delayed arguments <= end, and u(end) differs
    # from sin(end): the forcing exp(-u(t - 0.5)) and so u' jump at end + 0.5
    history = History(functions=(math.sin,), end=end)
    return DDEProblem(
        gamma=[0.4], delays=[[]], g=[lambda t: 0.0], phi=[0.0], b=b,
        history=history,
        nonlinear=[NonlinearDelayTerm(f=lambda u: math.exp(-u), target=0, tau=0.5)])


def test_delayed_feedback_trajectory_bounded():
    trajectory = rk4_method_of_steps(_overlapping_history_problem(), step=1e-3)
    assert np.all(np.isfinite(trajectory.u))
    assert np.abs(trajectory.u).max() < 10.0


def _history_edges(problem, t):
    """Indices of the inner points of the grid ``t`` where t - tau ==
    history.end for a delay tau > 0 of ``problem``: where a delayed argument
    leaves the history and u' may jump."""
    taus = [term.tau for terms in problem.delays for term in terms if term.tau > 0]
    taus += [term.tau for term in problem.nonlinear if term is not None]
    return [k for k in range(1, len(t) - 1)
            if any(abs(t[k] - tau - problem.history.end) <= HISTORY_EDGE_TOL
                   for tau in taus)]


def test_step_halving_across_a_history_jump():
    # the step from t = 1 starts from the right-limit derivative; starting
    # it from the stored left limit made RK4 first order (4.7e-6 here)
    problem = _overlapping_history_problem()
    coarse = rk4_method_of_steps(problem, step=1e-3)
    fine = rk4_method_of_steps(problem, step=5e-4)
    k, = _history_edges(problem, coarse.t)
    assert coarse.t[k] == 1.0
    assert abs(coarse.slope[k][0] - coarse.du[k][0]) > 0.05
    diff = max(abs(coarse(t)[0] - fine(t)[0]) for t in np.linspace(0.5, 3.0, 251))
    assert diff < 1e-7


def test_continuous_history_keeps_the_stored_derivative():
    # where the history meets the trajectory, the right limit at each edge
    # t = history.end + tau equals the stored derivative bit for bit
    problem = _coupled_problem(4.0)
    trajectory = rk4_method_of_steps(problem, step=1e-3)
    edges = _history_edges(problem, trajectory.t)
    assert [trajectory.t[k] for k in edges] == [0.5, 2.0]
    for k in edges:
        np.testing.assert_array_equal(trajectory.slope[k], trajectory.du[k])


def test_rk4_order_on_smooth_reduction():
    gamma = 0.7

    def max_error(step):
        problem = single_equation(gamma, 0.0, 1.0, lambda t: 0.0, 1.0, 2.0)
        trajectory = rk4_method_of_steps(problem, step=step)
        return max(abs(trajectory(t)[0] - math.exp(-gamma * t))
                   for t in np.linspace(0.0, 2.0, 41))

    ratio = max_error(0.1) / max_error(0.05)
    assert 12.0 <= ratio <= 20.0


def test_breaking_point_piecewise_polynomial():
    trajectory = rk4_method_of_steps(_coupled_problem(4.0), step=1e-3)
    for t in np.linspace(0.0, 4.0, 81):
        assert trajectory(t)[0] == pytest.approx(_piecewise_u1(t), abs=1e-9)


def test_step_aligns_with_delay_gcd():
    # delays 2 and 0.5 share the rational grid 0.5; every breaking point
    # must land exactly on the trajectory grid
    trajectory = rk4_method_of_steps(_coupled_problem(5.0), step=0.3)
    for point in (0.5, 2.0, 2.5, 4.0):
        assert np.any(np.isclose(trajectory.t, point, rtol=0, atol=1e-12))


def test_grid_queries_return_stored_values():
    problem = single_equation(0.5, 0.0, 1.0, math.sin, 1.0, 1.0)
    trajectory = rk4_method_of_steps(problem, step=0.1)
    for k in range(len(trajectory.t)):
        np.testing.assert_array_equal(trajectory(trajectory.t[k]),
                                      trajectory.u[k])


def test_trajectory_reads_keep_the_shape_of_their_times():
    # (l,) + np.shape(t), as evaluate reads a series: an array of m times
    # used to give (m, l) rows, which a difference with evaluate's (l, m)
    # broadcast to (m, m) without an error
    for problem in (single_equation(0.5, 0.3, 0.5, math.sin, 1.0, 1.0,
                                    history=History(functions=(math.cos,))),
                    _coupled_problem(1.0)):
        trajectory = rk4_method_of_steps(problem, step=0.1)
        l = problem.n_equations
        times = np.array([0.5, 1.0, 0.25, 0.0, 0.73, 0.1])
        rows = trajectory(times)
        assert rows.shape == (l, 6)
        for j, t in enumerate(times):
            assert trajectory(t).shape == (l,)
            assert (rows[:, j] == trajectory(t)).all()
        grid = trajectory(times.reshape(2, 3))
        assert grid.shape == (l, 2, 3)
        assert (grid.reshape(l, -1) == rows).all()
        assert (trajectory(times.tolist()) == rows).all()


def test_trajectory_each_reads_one_row_per_time():
    # the each protocol of a config Expression, through which
    # accuracy.read_reference reads every reference
    problem = _coupled_problem(1.0)
    trajectory = rk4_method_of_steps(problem, step=0.1)
    times = [0.5, 1.0, 0.25, 0.0, 0.73, 0.1]
    for ts in (times, np.array(times)):
        rows = trajectory.each(ts)
        assert rows.shape == (6, 2)
        assert np.array_equal(rows, trajectory(ts).T)
    assert np.array_equal(read_reference(trajectory, np.array(times)),
                          trajectory(times))


def test_import_lagdde_loads_the_oracle_on_first_use():
    # the oracle and the accuracy checks only check the solver: importing
    # the package loads the solver's module and no other, the first read of
    # an accuracy name loads accuracy and binds the name in the package, and
    # accuracy, which reads references, leaves the oracle unloaded. The
    # records are plain classes, so no import loads dataclasses (NumPy does
    # not)
    code = textwrap.dedent("""\
        import sys
        import lagdde
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "lagdde")
        assert loaded == ["lagdde", "lagdde.collocation"], loaded
        assert "dataclasses" not in sys.modules
        assert "error_report" not in vars(lagdde)
        assert lagdde.error_report is lagdde.accuracy.error_report
        assert "error_report" in vars(lagdde)
        from lagdde import accuracy
        assert "lagdde.reference" not in sys.modules
        trajectory = lagdde.Trajectory
        assert "lagdde.reference" in sys.modules
        assert "dataclasses" not in sys.modules
        assert trajectory is lagdde.reference.Trajectory
        assert lagdde.rk4_method_of_steps is lagdde.reference.rk4_method_of_steps
        try:
            lagdde.no_such_name
        except AttributeError as err:
            assert "no_such_name" in str(err)
        else:
            raise AssertionError("no AttributeError")
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CONFIG_DIR.parent / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_trajectory_query_outside_range():
    problem = single_equation(0.5, 0.0, 1.0, math.sin, 1.0, 1.0)
    trajectory = rk4_method_of_steps(problem, step=0.1)
    # NaN fails every comparison; it used to pass both range tests and
    # raise IndexError from the grid
    for t in (1.5, -0.2, math.nan):
        with pytest.raises(ValueError, match=f"t={t} outside computed range"):
            trajectory(t)
    # the integrator's batch read rejects it among valid times as well
    with pytest.raises(ValueError, match="t=nan outside computed range"):
        _read(trajectory.t, trajectory.u, trajectory.du, trajectory.slope,
              np.array([0.25, math.nan, 0.5]), np.zeros(3, dtype=int))


def test_rk4_rejects_non_positive_step():
    problem = single_equation(0.5, 0.0, 1.0, math.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        rk4_method_of_steps(problem, step=0.0)


@pytest.mark.parametrize("delayed", [False, True], ids=["no_delay", "delay"])
@pytest.mark.parametrize("step", [math.inf, math.nan])
def test_rk4_rejects_a_step_that_is_not_finite(step, delayed):
    # inf used to divide by zero in _aligned_step, and nan to fail
    # converting to an integer
    history = History((math.sin,), end=0.0) if delayed else None
    problem = single_equation(0.5, 0.3 if delayed else 0.0, 0.5, math.cos,
                              1.0, 2.0, history)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        rk4_method_of_steps(problem, step=step)


@pytest.mark.parametrize("delayed", [False, True], ids=["no_delay", "delay"])
def test_rk4_refuses_a_step_past_the_grid_limit(delayed):
    # b = 5 at step 1e-9 would lay out 5e9 grid points, some 3 TB
    history = History((math.sin,), end=0.0) if delayed else None
    problem = single_equation(0.5, 0.3 if delayed else 0.0, 0.5, math.cos,
                              1.0, 5.0, history)
    with pytest.raises(ValueError, match=re.escape(
            "the RK4 grid on [0, b=5] at step 1e-09 has 5e+09 steps, above "
            "the limit of 1000000; rk4_step must be at least 5e-06")):
        rk4_method_of_steps(problem, step=1e-9)


def test_rk4_step_limit_counts_the_aligned_steps(monkeypatch):
    monkeypatch.setattr("lagdde.reference.MAX_RK4_STEPS", 1000)
    history = History((math.sin,), end=0.0)
    problem = single_equation(0.5, 0.3, 0.5, math.cos, 1.0, 1.0, history)
    assert len(rk4_method_of_steps(problem, step=1e-3).t) == 1001
    # the delay 0.5 rounds this step down to 0.5 / 501
    with pytest.raises(ValueError, match="has 1e\\+03 steps, above the limit"):
        rk4_method_of_steps(problem, step=9.99e-4)


def _stiff_problem(gamma, beta=0.5, tau=1.0):
    """u' = -gamma u + beta u(t - tau) + cos t on [0, 5], history 1."""
    return single_equation(gamma, beta, tau, math.cos, 1.0, 5.0,
                           History((lambda t: 1.0,), end=0.0))


def test_rk4_step_past_the_stability_bound_is_refused():
    # at step 1e-3 against 1e-4 the error was 2.5e-6 at gamma = 2700, 0.45
    # at 2780 and 2.5e15 at 2790, each finite and so returned
    with pytest.raises(ValueError, match=re.escape(
            "the RK4 step 0.001 is unstable: step * 2790 (the largest gamma "
            "plus |beta| of its tau = 0 couplings) exceeds 2.5; rk4_step "
            "must be at most 0.000896")):
        rk4_method_of_steps(_stiff_problem(2790.0), step=1e-3)
    rk4_method_of_steps(_stiff_problem(2790.0), step=0.000896)
    # a tau = 0 coupling adds its |beta|; as a delay it does not
    with pytest.raises(ValueError, match=r"step \* 2600 \("):
        rk4_method_of_steps(_stiff_problem(2000.0, -600.0, 0.0), step=1e-3)
    rk4_method_of_steps(_stiff_problem(2000.0, -600.0, 0.5), step=1e-3)


def test_rk4_step_just_inside_the_stability_bound_runs():
    points = np.linspace(0.0, 5.0, 51)
    coarse = rk4_method_of_steps(_stiff_problem(2490.0), step=1e-3)
    fine = rk4_method_of_steps(_stiff_problem(2490.0), step=1e-4)
    assert np.abs(coarse(points) - fine(points)).max() < 1e-9


def test_delayed_problem_without_history_names_the_first_argument():
    # raised before any function of the problem is called
    times = []

    def g(t):
        times.append(t)
        return math.cos(t)

    problem = single_equation(0.5, 0.3, 0.5, g, 1.0, 2.0)
    with pytest.raises(ValueError,
                       match=r"delayed value at t=-0\.5 not available"):
        rk4_method_of_steps(problem, step=1e-2)
    assert times == []


@pytest.mark.parametrize("nonlinear", [False, True])
def test_delayed_problem_without_history_is_refused_before_the_plan(
        monkeypatch, nonlinear):
    def unreachable(*args, **kwargs):
        raise AssertionError("the run plan was laid out")

    monkeypatch.setattr("lagdde.reference._delayed", unreachable)
    if nonlinear:  # an int tau still names a float time
        problem = DDEProblem(gamma=[0.5], delays=[[DelayTerm(0, 0.3, 0.0)]],
                             g=[math.cos], phi=[1.0], b=2.0,
                             nonlinear=[NonlinearDelayTerm(math.sin, 0, 1)])
        first = r"-1\.0"
    else:
        problem = single_equation(0.5, 0.3, 0.5, math.cos, 1.0, 2.0)
        first = r"-0\.5"
    with pytest.raises(ValueError,
                       match=rf"delayed value at t={first} not available"):
        rk4_method_of_steps(problem, step=1e-2)


def test_forcing_failing_at_two_times_names_the_earlier():
    # both times are stage times of one block, (0, 0.5], whose forcing is
    # computed before it is stepped; the earlier failure is reported
    history = History((math.sin,), end=0.0)
    times = []

    def g(t):
        times.append(t)
        return math.cos(t)

    rk4_method_of_steps(single_equation(0.5, 0.3, 0.5, g, 1.0, 2.0, history),
                        step=1e-2)
    failing = {times[40], times[60]}
    assert times[40] < times[60] < 0.5

    def failing_g(t):
        if t in failing:
            raise ArithmeticError(f"g failed at t={t!r}")
        return math.cos(t)

    problem = single_equation(0.5, 0.3, 0.5, failing_g, 1.0, 2.0, history)
    with pytest.raises(ArithmeticError) as info:
        rk4_method_of_steps(problem, step=1e-2)
    assert str(info.value) == f"g failed at t={times[40]!r}"


def test_history_failing_in_the_block_of_a_failing_g_is_reported():
    # in the block (0, 0.5] g fails from t = 0.195 and the history from
    # t = 0.255; the history is called first, so its failure is raised
    def failing_history(s):
        if s > -0.25:
            raise ArithmeticError(f"history failed at s={s!r}")
        return math.sin(s)

    def failing_g(t):
        if t > 0.19:
            raise ArithmeticError(f"g failed at t={t!r}")
        return math.cos(t)

    problem = single_equation(0.5, 0.3, 0.5, failing_g, 1.0, 2.0,
                              History((failing_history,), end=0.0))
    with pytest.raises(ArithmeticError, match="history failed at s=-0.24"):
        rk4_method_of_steps(problem, step=1e-2)


def test_failing_history_is_raised_before_a_failing_g_of_an_earlier_block():
    # g fails from t = 0.2, in the block (0, 0.5], and the history from
    # s = 0.05, which t = 0.55 reads in the next block; the history is read
    # once, before the first step, so its failure is raised
    def failing_history(s):
        if s >= 0.05:
            raise ArithmeticError(f"history failed at s={s!r}")
        return math.sin(s)

    def failing_g(t):
        if t >= 0.2:
            raise ArithmeticError(f"g failed at t={t!r}")
        return math.cos(t)

    problem = single_equation(0.5, 0.3, 0.5, failing_g, 1.0, 2.0,
                              History((failing_history,), end=1.0))
    with pytest.raises(ArithmeticError, match="history failed at s=0.05"):
        rk4_method_of_steps(problem, step=1e-2)


def test_expression_history_is_read_once_per_delayed_term(monkeypatch):
    # four delayed reads of the history, over twelve blocks of one shortest
    # delay (0.25): one history read per term, not per block
    reads = []
    each = Expression.each

    def counting(self, values):
        reads.append(self.source)
        return each(self, values)

    monkeypatch.setattr(Expression, "each", counting)
    cfg = parse_config_text(
        "equations = 2\nb = 3\nrk4_step = 0.01\n"
        "[equation 1]\nhistory = sin(t)\nforcing = t\n"
        "delay = 1 0.3 0.5\ndelay = 2 0.2 1\n"
        "[equation 2]\nhistory = cos(t)\nforcing = t\ndelay = 1 0.4 0.25\n"
        "nonlinear = exp(-u)\nnonlinear_tau = 0.5\n")
    rk4_method_of_steps(build_problem(cfg), cfg.rk4_step)
    assert Counter(s for s in reads if s in ("sin(t)", "cos(t)")) == {
        "sin(t)": 2, "cos(t)": 2}
    assert reads.count("t") > 2  # g is still read block by block


@pytest.mark.parametrize("tau, history, b", [
    # the step 0.0009999999999999998 puts 5500 h at 5.499999999999999
    (1.126, lambda t: 1.0, 5.5),
    # the step is 2e-3 > b, so the only multiple of h is t = 0
    (0.25, math.sin, 5e-13),
    # the last multiple of h = 1e-3 is 0.7000000000000001 or
    # 7.1000000000000005, past b; with tau = 0 no delay sets the step
    (0.0, math.sin, 0.7), (0.0, math.sin, 7.1),
    (0.5, math.sin, 0.7), (0.5, math.sin, 7.1),
], ids=["last_multiple_one_ulp_short", "b_below_one_step",
        "past_b_no_delay_0.7", "past_b_no_delay_7.1",
        "past_b_delay_0.7", "past_b_delay_7.1"])
def test_rk4_grid_ends_at_b(tau, history, b):
    problem = single_equation(1.0, 0.5, tau, math.cos, 0.0, b,
                              History((history,), end=0.0))
    trajectory = rk4_method_of_steps(problem, step=1e-3)
    assert trajectory.t[-1] == b
    assert np.isfinite(trajectory(b)).all()


def test_rk4_overflow_with_delays_raises_without_warnings():
    # u passes the float range at t = 1.76; the check after its block
    # reports it
    problem = single_equation(-400.0, 1.0, 0.5, lambda t: 0.0, 1.0, 3.0,
                              History((lambda t: 1.0,), end=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match="not finite from t=1.756"):
            rk4_method_of_steps(problem, step=1e-3)


def test_rk4_stops_at_the_first_block_that_is_not_finite():
    # u' = u(t - 0.01)^2 from 1 passes the float range near t = 1.19; the
    # oracle used to read g at all 20 002 stage times up to b = 10, so a g
    # failing at t = 5 raised its own error instead of the overflow
    read = []

    def g(t):
        read.append(t)
        if t >= 5.0:
            raise ValueError(f"g fails at t={t}")
        return 0.0

    problem = DDEProblem(
        gamma=[0.0], delays=[[]], g=[g], phi=[1.0], b=10.0,
        history=History((lambda t: 1.0,), end=0.0),
        nonlinear=[NonlinearDelayTerm(f=lambda u: u * u, target=0, tau=0.01)])
    with pytest.raises(FloatingPointError,
                       match=r"^the RK4 solution is not finite from t=1\.194$"):
        rk4_method_of_steps(problem, step=1e-3)
    # a block is at most one delay long
    assert 1.194 < max(read) <= 1.194 + 0.01 + 1e-12


def test_interpolation_accuracy_between_grid_points():
    gamma = 0.8
    problem = single_equation(gamma, 0.0, 1.0, lambda t: 0.0, 1.0, 2.0)
    trajectory = rk4_method_of_steps(problem, step=0.05)
    for t in (0.013, 0.777, 1.919):
        assert trajectory(t)[0] == pytest.approx(math.exp(-gamma * t), abs=1e-7)


# ---------------------------------------------------------------------------
# bit-identity with the integrator as it stepped on numpy rows

def _float_gcd_reference(values):
    fracs = [Fraction(v).limit_denominator(10**9) for v in values]
    gcd = fracs[0]
    for f in fracs[1:]:
        gcd = Fraction(math.gcd(gcd.numerator, f.numerator),
                       (gcd.denominator * f.denominator)
                       // math.gcd(gcd.denominator, f.denominator))
    return float(gcd)


def _hermite_reference(t_grid, u, du, right_limits, t):
    """The trajectory query as it was: searchsorted, then Hermite weights."""
    idx = int(np.searchsorted(t_grid, t))
    if idx < len(t_grid) and t_grid[idx] == t:
        return u[idx].copy()
    if t < t_grid[0] or t > t_grid[-1]:
        raise ValueError(f"query t={t} outside computed range")
    k = idx - 1
    h = t_grid[k + 1] - t_grid[k]
    s = (t - t_grid[k]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s**2 * (3 - 2 * s)
    h11 = s**2 * (s - 1)
    return (h00 * u[k] + h * h10 * right_limits.get(k, du[k])
            + h01 * u[k + 1] + h * h11 * du[k + 1])


def _rk4_reference(problem, step):
    """The RK4 method of steps frozen as it was before it stepped on Python
    floats: numpy rows for states and stages, and a fresh trajectory view
    plus searchsorted for every delayed query. The step divides the GCD of
    the delays only. Returns (t, u, du, right_limits)."""
    history = problem.history
    taus = [term.tau for terms in problem.delays for term in terms if term.tau > 0]
    taus += [term.tau for term in problem.nonlinear if term is not None]
    if taus:
        base = _float_gcd_reference(taus)
        h = base / math.ceil(base / step)
    else:
        h = problem.b / math.ceil(problem.b / step)
    l = problem.n_equations
    n_full = int(math.floor(problem.b / h + 1e-9))
    grid = [k * h for k in range(n_full + 1)]
    if grid[-1] < problem.b - 1e-12:
        grid.append(problem.b)
    grid = np.asarray(grid)
    t_arr = np.empty(len(grid))
    u_arr = np.empty((len(grid), l))
    du_arr = np.empty((len(grid), l))
    front = 0
    right_limits = {}
    edges = set()
    if history is not None:
        for tau in taus:
            k = round((history.end + tau) / h)
            if (0 < k < len(grid) - 1
                    and abs(grid[k] - tau - history.end) <= HISTORY_EDGE_TOL):
                edges.add(k)

    def delayed(eq, tq, right_limit=False):
        if right_limit and abs(tq - history.end) <= HISTORY_EDGE_TOL:
            tq = history.end
        elif history is not None and history.covers(tq):
            return history.value(eq, tq)
        if front == 0 or tq > t_arr[front - 1] + 1e-12:
            raise ValueError(f"delayed value at t={tq} not available")
        return float(_hermite_reference(
            t_arr[:front], u_arr[:front], du_arr[:front], right_limits,
            min(tq, t_arr[front - 1]))[eq])

    def rhs(t, u, right_limit=False):
        out = np.empty(l)
        for eq in range(l):
            value = -problem.gamma[eq] * u[eq] + problem.g[eq](t)
            for term in problem.delays[eq]:
                if term.tau == 0:
                    value += term.beta * u[term.target]
                else:
                    value += term.beta * delayed(term.target, t - term.tau,
                                                 right_limit)
            nl = problem.nonlinear[eq]
            if nl is not None:
                value += nl.f(delayed(nl.target, t - nl.tau, right_limit))
            out[eq] = value
        return out

    u = np.asarray(problem.phi, dtype=float)
    t_arr[0] = 0.0
    u_arr[0] = u
    du_arr[0] = rhs(0.0, u)
    front = 1
    for k in range(1, len(grid)):
        t0, t1 = grid[k - 1], grid[k]
        hk = t1 - t0
        k1 = du_arr[k - 1]
        if k - 1 in edges:
            k1 = right_limits[k - 1] = rhs(t0, u, right_limit=True)
        k2 = rhs(t0 + hk / 2, u + hk / 2 * k1)
        k3 = rhs(t0 + hk / 2, u + hk / 2 * k2)
        k4 = rhs(t1, u + hk * k3)
        u = u + hk / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t_arr[k] = t1
        u_arr[k] = u
        du_arr[k] = rhs(t1, u)
        front = k + 1
    return t_arr, u_arr, du_arr, right_limits


def test_expression_forcing_failing_inside_a_block_names_the_earliest_time():
    # the forcing fails from t = 1.2 on, inside the block (1.0, 1.5]; the
    # first failing stage time comes from the step grid
    problem = build_problem(parse_config_text(
        "b = 2\n[equation 1]\ngamma = 0.5\nforcing = (1.2 - t)^0.5\n"
        "history = sin(t)\ndelay = 1 0.3 0.5\n"))
    h = _aligned_step([0.5], problem.history, 2.0, 1e-2)
    grid = [k * h for k in range(round(2.0 / h) + 1)]
    first = next(t for t0, t1 in zip(grid, grid[1:])
                 for t in (t0 + (t1 - t0) / 2, t1) if 1.2 - t < 0)
    assert 1.0 < first < 1.5
    with pytest.raises(ArithmeticError) as info:
        rk4_method_of_steps(problem, step=1e-2)
    assert str(info.value) == (f"'(1.2 - t)^0.5' at t = {first}: negative "
                               f"base to a fractional power")


def _manufactured_config(rng, equations, b):
    """Config text with solutions A exp(-c t) + B sin(w t), coupled through
    delays 0.5, 0.25 and 1, in expression forcing and history."""
    lines = [f"equations = {equations}", f"b = {b!r}"]
    params = np.round(rng.uniform([0.5, 0.2, 0.2, 0.5], [1.5, 1.0, 0.8, 1.5],
                                  size=(equations, 4)), 6).tolist()

    def expr(k, arg="t"):
        a, c, bb, w = params[k]
        return f"{a!r}*exp(-{c!r}*{arg}) + {bb!r}*sin({w!r}*{arg})"

    for k in range(equations):
        target, tau = (k + 1) % equations, (0.5, 0.25, 1.0)[k]
        gamma, beta = np.round(rng.uniform([0.2, -0.6], [1.2, 0.6]), 6).tolist()
        a, c, bb, w = params[k]
        lines += [f"[equation {k + 1}]", f"gamma = {gamma!r}", f"phi = {a!r}",
                  f"forcing = -{a * c!r}*exp(-{c!r}*t) + {bb * w!r}*cos({w!r}*t)"
                  f" + {gamma!r}*({expr(k)}) - ({beta!r})*({expr(target, f'(t - {tau!r})')})",
                  f"history = {expr(k)}", f"delay = {target + 1} {beta!r} {tau!r}"]
    return "\n".join(lines) + "\n"


def _bit_identity_cases():
    def config(name):
        return build_problem(parse_config(str(CONFIG_DIR / name)))

    rng = np.random.default_rng(7)
    cases = [pytest.param(_coupled_problem(5.0), id="acceptance3_coupled"),
             pytest.param(config("example1.cfg"), id="example1"),
             pytest.param(config("example2.cfg"), id="example2"),
             pytest.param(_overlapping_history_problem(), id="history_jump")]
    for equations, b in ((1, 2.0), (2, 1.5), (3, 1.25), (3, 2.0)):
        problem = build_problem(parse_config_text(
            _manufactured_config(rng, equations, b)))
        cases.append(pytest.param(problem, id=f"generated_{equations}eq_b{b}"))
    cases.append(pytest.param(_zero_delay_coupling_problem(), id="zero_delay"))
    # the shape of zero_delay with other coefficients: the stepper generated
    # for that shape must read them, not those it was first built with
    cases.append(pytest.param(
        _zero_delay_coupling_problem((0.9, -0.2), (-0.1, 0.8, 0.35, 0.25, -0.5)),
        id="zero_delay_other_coefficients"))
    cases.append(pytest.param(_delay_and_nonlinear_problem(),
                              id="delay_and_nonlinear"))
    # block edges of the stepping: each block ends where its delayed
    # arguments would pass the last stored point
    sine = History((math.sin,), end=0.0)
    cases.append(pytest.param(
        single_equation(0.5, -0.4, 2e-3, math.cos, 1.0, 0.5, sine),
        id="tau_equals_step"))
    # one-step blocks again, with the history ending on the grid: step 4
    # starts from a right limit in the middle of the run
    cases.append(pytest.param(
        single_equation(0.5, -0.4, 2e-3, math.cos, 1.0, 0.5,
                        History((math.sin,), end=4e-3)),
        id="edge_in_one_step_blocks"))
    cases.append(pytest.param(
        single_equation(0.5, -0.4, 0.25, math.cos, 1.0, 1.0007, sine),
        id="short_last_step"))
    cases.append(pytest.param(
        DDEProblem(gamma=[0.6, 0.2], delays=[[DelayTerm(1, 0.5, 0.0)], []],
                   g=[math.cos, math.sin], phi=[1.0, 0.5], b=1.5),
        id="no_delay"))
    cases.append(pytest.param(_edge_inside_a_block_problem(),
                              id="edge_inside_a_block"))
    cases.append(pytest.param(_cross_delays_with_edges_problem(),
                              id="cross_delays_with_edges"))
    cases.append(pytest.param(_zero_delay_self_coupling_problem(),
                              id="zero_delay_self_coupling"))
    cases.append(pytest.param(_zero_delay_couplings_with_edges_problem(),
                              id="zero_delay_couplings_with_edges"))
    cases.append(pytest.param(_forcing_only_problem(), id="forcing_only"))
    cases.append(pytest.param(
        build_problem(parse_config_text(THREE_DELAYS_AND_NONLINEAR)),
        id="three_delays_and_nonlinear"))
    cases.append(pytest.param(_off_grid_end_problem(), id="off_grid_end"))
    return cases


def _off_grid_end_problem():
    # b = 1.2345 is off the 2e-3 step grid, so the last step is 5e-4 long;
    # equation 1 reads equations 1 and 2 through two delays of one tau and
    # equation 3 through its nonlinear term
    history = History(functions=(math.sin, math.cos, lambda t: 0.5 * t),
                      end=0.0)
    return DDEProblem(
        gamma=[0.4, 0.7, 0.2],
        delays=[[DelayTerm(0, -0.3, 0.25), DelayTerm(1, 0.2, 0.25)],
                [DelayTerm(0, 0.5, 0.5)], [DelayTerm(1, -0.1, 0.25)]],
        g=[math.cos, math.sin, lambda t: math.exp(-t)], phi=[0.2, 1.0, 0.0],
        b=1.2345, history=history,
        nonlinear=[NonlinearDelayTerm(f=lambda u: math.exp(-u), target=2,
                                      tau=0.5), None, None])


def _forcing_only_problem():
    # the first equation's stages add g alone, one part per stage; the
    # second's add g and a delayed read of the first, stepped in 0.5 blocks
    history = History(functions=(math.sin, math.cos), end=0.0)
    return DDEProblem(
        gamma=[0.6, 0.3], delays=[[], [DelayTerm(0, 0.4, 0.5)]],
        g=[math.cos, math.sin], phi=[1.0, 0.5], b=1.5, history=history)


# five parts per stage: g, three commensurate delay terms and f, all config
# expressions; history_end = 0.25 adds right-limit edges inside the blocks
THREE_DELAYS_AND_NONLINEAR = """\
b = 2
history_end = 0.25
[equation 1]
gamma = 0.4
phi = 0.2
forcing = cos(t) + 0.1*t
history = sin(t)
delay = 1 -0.3 0.25
delay = 1 0.2 0.5
delay = 1 0.1 0.75
nonlinear = exp(-u)
nonlinear_tau = 0.5
"""


def _cross_delays_with_edges_problem():
    # three equations, each reading another through a delay, one of them
    # through a nonlinear term too; history.end = 0.25 puts right-limit
    # edges at 0.75 and 1.25 inside the 0.5-long blocks and at 1.0 on a
    # block's start, each with a right limit for every equation
    history = History(functions=(math.sin, math.cos, lambda t: 0.5 * t),
                      end=0.25)
    return DDEProblem(
        gamma=[0.4, 0.7, 0.2],
        delays=[[DelayTerm(1, 0.4, 0.5)], [DelayTerm(2, -0.3, 0.75)],
                [DelayTerm(0, 0.2, 1.0)]],
        g=[math.cos, math.sin, lambda t: math.exp(-t)], phi=[0.2, -0.1, 0.3],
        b=2.0, history=history,
        nonlinear=[None, NonlinearDelayTerm(f=lambda u: math.exp(-u),
                                            target=0, tau=0.5), None])


def _zero_delay_self_coupling_problem():
    # a tau = 0 coupling of the equation to itself, between two delay terms
    history = History(functions=(math.sin,), end=0.0)
    return DDEProblem(
        gamma=[0.5], delays=[[DelayTerm(0, -0.4, 0.5), DelayTerm(0, 0.3, 0.0),
                              DelayTerm(0, 0.2, 0.25)]],
        g=[math.cos], phi=[1.0], b=1.5, history=history)


def _edge_inside_a_block_problem():
    # blocks are 0.5 long (the shortest delay); history.end = 0.25 is on the
    # delay grid, and the edge end + 0.5 = 0.75 falls inside the block
    # (0.5, 1.0], end + 0.75 = 1.0 at a block's start
    history = History(functions=(math.sin,), end=0.25)
    return DDEProblem(
        gamma=[0.4], delays=[[DelayTerm(0, -0.3, 0.5), DelayTerm(0, 0.2, 0.75)]],
        g=[math.cos], phi=[0.2], b=2.0, history=history)


def _zero_delay_coupling_problem(gamma=(0.3, 0.7),
                                 beta=(0.5, 0.3, -0.2, -0.4, 0.6)):
    # tau = 0 couplings between and after delayed terms, so the stage's own
    # u enters the sum in the middle of each equation's delay list
    history = History(functions=(math.sin, math.cos), end=0.0)
    return DDEProblem(
        gamma=list(gamma),
        delays=[[DelayTerm(0, beta[0], 0.5), DelayTerm(1, beta[1], 0.0),
                 DelayTerm(1, beta[2], 0.25)],
                [DelayTerm(0, beta[3], 0.0), DelayTerm(1, beta[4], 0.75)]],
        g=[math.cos, lambda t: math.exp(-t)], phi=[0.1, 1.0], b=2.0,
        history=history)


def _zero_delay_couplings_with_edges_problem():
    # tau = 0 couplings across equations and of two equations to
    # themselves, beside delays and a nonlinear term; history.end = 0.25
    # puts right-limit edges at 0.75 and 1.25 inside the 0.5-long blocks
    # and at 1.0 on a block's start, where the couplings read the stage's u
    history = History(functions=(math.sin, math.cos, lambda t: 0.5 * t),
                      end=0.25)
    return DDEProblem(
        gamma=[0.4, 0.7, 0.2],
        delays=[[DelayTerm(1, 0.4, 0.5), DelayTerm(2, 0.3, 0.0)],
                [DelayTerm(1, -0.2, 0.0), DelayTerm(2, -0.3, 0.75)],
                [DelayTerm(0, 0.2, 1.0), DelayTerm(0, -0.25, 0.0),
                 DelayTerm(2, 0.1, 0.0)]],
        g=[math.cos, math.sin, lambda t: math.exp(-t)], phi=[0.2, -0.1, 0.3],
        b=2.0, history=history,
        nonlinear=[NonlinearDelayTerm(f=lambda u: math.exp(-u), target=0,
                                      tau=0.5), None, None])


def test_problem_terms_are_in_stage_sum_order():
    # per equation its delays as given, tau = 0 couplings included, then its
    # nonlinear term
    problem = _zero_delay_couplings_with_edges_problem()
    d, nl = problem.delays, problem.nonlinear
    assert problem.terms == ((0, d[0][0]), (0, d[0][1]), (0, nl[0]),
                             (1, d[1][0]), (1, d[1][1]),
                             (2, d[2][0]), (2, d[2][1]), (2, d[2][2]))
    # read from the problem as it is now, never from a stored table
    problem.nonlinear = (None, None, nl[0])
    assert problem.terms[2:] == ((1, d[1][0]), (1, d[1][1]), (2, d[2][0]),
                                 (2, d[2][1]), (2, d[2][2]), (2, nl[0]))


def _delay_and_nonlinear_problem():
    # one equation with a linear delay term and a nonlinear term, summed
    # g, beta * u(t - 0.5), then f(u(t - 0.25)); history.end = 0.25 adds
    # right-limit edges at 0.5 and 0.75
    history = History(functions=(math.sin,), end=0.25)
    return DDEProblem(
        gamma=[0.4], delays=[[DelayTerm(0, -0.3, 0.5)]], g=[math.cos],
        phi=[0.2], b=2.0, history=history,
        nonlinear=[NonlinearDelayTerm(f=lambda u: math.exp(-u), target=0,
                                      tau=0.25)])


@pytest.mark.parametrize("problem", _bit_identity_cases())
def test_rk4_bit_identical_to_frozen_reference(problem):
    t, u, du, right_limits = _rk4_reference(problem, 2e-3)
    trajectory = rk4_method_of_steps(problem, step=2e-3)
    assert np.array_equal(trajectory.t, t)
    assert np.array_equal(trajectory.u, u)
    assert np.array_equal(trajectory.du, du)
    # each interval starts from the right limit at a history edge, else du
    for k in range(len(t)):
        assert np.array_equal(trajectory.slope[k], right_limits.get(k, du[k]))
    # the public query is the frozen one, on and off the grid
    for q in np.linspace(0.0, problem.b, 97):
        assert np.array_equal(trajectory(q),
                              _hermite_reference(t, u, du, right_limits, q))


def test_step_halving_with_history_end_off_the_delay_grid():
    # end = 0.5004 is no multiple of tau = 0.5; the step then divides the
    # GCD of both (4e-4), so the jump at end + tau = 1.0004 is a grid point
    # and RK4 stays fourth order (first order put it inside a step: 1.5e-5)
    problem = _overlapping_history_problem(end=0.5004)
    coarse = rk4_method_of_steps(problem, step=4e-4)
    fine = rk4_method_of_steps(problem, step=2e-4)
    assert len(fine.t) == 2 * len(coarse.t) - 1
    k, = _history_edges(problem, coarse.t)
    assert coarse.t[k] == pytest.approx(1.0004, abs=1e-12)
    diff = max(abs(coarse(t)[0] - fine(t)[0]) for t in np.linspace(0.5, 3.0, 251))
    assert diff < 1e-7


@pytest.mark.parametrize("taus, step", [
    ([1.0, math.sqrt(2)], 2.57e-9),
    ([0.5, 0.333333], 1e-6),
])
def test_incommensurate_delays_raise(taus, step):
    # without the check the grid would be b / step points: 1.9e9 and 5e6
    with pytest.raises(ValueError, match="not commensurate") as info:
        _aligned_step(taus, None, 5.0, 1e-3)
    assert f"needs step {step:.3g}" in str(info.value)


def test_delay_shorter_than_the_step_sets_the_step():
    # one short delay, or delays that are multiples of the shortest, are
    # commensurate: the step is the shortest delay, not an error
    assert _aligned_step([5e-5], None, 1.0, 1e-3) == 5e-5
    assert _aligned_step([5e-5, 1e-4], None, 1.0, 1e-3) == 5e-5
    # a delay whose decimal has more digits than a denominator of 1e9 holds
    # is still one delay; the step is its rounded GCD
    tau = 1.23456789123e-5
    assert _aligned_step([tau], None, 1.0, 1e-3) == pytest.approx(tau, rel=1e-9)
    # and its exact multiples keep that step: each delay is rounded as its
    # ratio to the shortest, not on its own
    assert _aligned_step([tau, 2 * tau], None, 1.0, 1e-3) == pytest.approx(
        tau, rel=1e-9)


@pytest.mark.parametrize("taus, end, value, rounded", [
    ([1e-13], 0.0, 1e-13, 0.0),
    ([1e-10], 0.0, 1e-10, 0.0),
    ([4e-10, 0.5], 0.0, 4e-10, 0.0),
    ([6e-10], 0.0, 6e-10, 1e-9),
    ([0.5], 1e-12, 1e-12, 0.0),
])
def test_value_below_the_grid_resolution_raises(taus, end, value, rounded):
    # limit_denominator(10**9) rounds these to 0, which divided by zero,
    # or 6e-10 to 1e-9, which came back as the step
    history = History(functions=(math.sin,), end=end)
    with pytest.raises(ValueError, match="below the 1e-9 resolution") as info:
        _aligned_step(taus, history, 1.0, 1e-3)
    assert f"history.end {value!r} " in str(info.value)
    assert str(info.value).endswith(f"rounds to {rounded!r}")


def test_forcing_is_called_once_per_distinct_stage_time():
    # midpoint once for k2 and k3, step end once for k4 and the stored u',
    # t = 0 once, and the history edge t = 0.75 once more as the right
    # limit; with and without a tau = 0 coupling of u to itself
    for coupling in ([], [DelayTerm(0, 0.2, 0.0)]):
        calls = {"g": [], "history": [], "f": []}

        def counted(name, function):
            def call(x):
                calls[name].append(x)
                return function(x)
            return call

        problem = DDEProblem(
            gamma=[0.5], delays=[[DelayTerm(0, 0.3, 0.5), *coupling]],
            g=[counted("g", math.cos)], phi=[1.0], b=2.0,
            history=History((counted("history", math.sin),), end=0.25),
            nonlinear=[NonlinearDelayTerm(counted("f", math.tanh), 0, 0.5)])
        trajectory = rk4_method_of_steps(problem, step=1e-2)
        steps = len(trajectory.t) - 1
        edges = len(_history_edges(problem, trajectory.t))
        assert (steps, edges) == (200, 1)
        assert (len(calls["g"]) == len(calls["f"])
                == 2 * steps + 1 + edges == 402)
        assert calls["g"] == sorted(calls["g"])
        # the history once per delayed argument it serves: at t = 0 and the
        # 2 * 75 stage times up to the edge, for the delay term and for f
        assert len(calls["history"]) == 2 * (1 + 2 * 75)


def test_history_end_not_commensurate_with_the_delays_raises():
    problem = _overlapping_history_problem(end=0.123456789)
    with pytest.raises(ValueError, match="not commensurate with the delays"):
        rk4_method_of_steps(problem, step=1e-3)


def test_history_end_beyond_every_jump_leaves_the_step_alone():
    # end + tau >= b: no delayed argument leaves the history inside (0, b)
    problem = _overlapping_history_problem(end=0.123456789, b=0.6)
    trajectory = rk4_method_of_steps(problem, step=1e-3)
    assert np.array_equal(trajectory.t, _rk4_reference(problem, 1e-3)[0])


# ---------------------------------------------------------------------------
# identity checks

def test_identity_suite_all_pass():
    results = identity_suite()
    assert len(results) > 0
    for name, check in results:
        assert check.passed, f"{name} deviated by {check.max_deviation:.3e}"


def test_delay_product_with_extra_diff_factor_differs():
    # the factored delay product with the spurious differentiation factor
    # is measurably wrong; the solver must not be "fixed" back to it
    assert delay_product_mismatch() > 1e-3


def test_identity_suite_fails_exactly_the_checks_of_a_wrong_matrix(monkeypatch):
    # H replaced by B H: X(t) B H is the derivative of the Laguerre row,
    # not the row. B B H = B H C, so BH = HC still holds for the wrong H
    change = reference_mod.laguerre_change_matrix
    monkeypatch.setattr(
        reference_mod, "laguerre_change_matrix",
        lambda n: reference_mod.monomial_diff_matrix(n) @ change(n))
    failed = [name for name, check in identity_suite() if not check.passed]
    assert failed == [f"laguerre_from_monomials[N={n}]" for n in range(2, 11)]
