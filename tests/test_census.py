"""A census of seeded configs in the supported range through ``cli.main``.

Under each verb (``compare``, ``solve`` and ``converge``) every config must
end in exit 0 or a typed error (3 for the solver, 4 for the oracle), never
in an exception; the three verbs give the same exit counts. Of the exit-0
``compare`` runs, the census counts the wrong answers: a largest
|solution - RK4 oracle| on the sample grid above 1e-3 of
max(1, max |oracle|). That count is a known-failure figure of this family
and seed: a change that moves it says so with both values. The census also
classes every ``compare`` run: right, between, wrong, an oracle that
cannot start, or another typed error. The ``compare`` exit counts and
classes of a second seed are recorded in the same way.
"""

import contextlib
import io
from collections import Counter

import numpy as np
import pytest

from lagdde import cli

SEED = 0
COUNT = 60
TAUS = (0.0, 0.25, 0.3, 0.5, 1.0, 1.5, 2.0)
HISTORY_ENDS = (0.0, 0.25, 0.5, 1.0)
NONLINEAR = ("exp(-u)", "sin(u)", "0.5*u^2", "cos(u)")
HISTORIES = ("1", "sin(t)", "cos(t)", "exp(0.5*t)")
FORCINGS = ("0", "cos(t)", "exp(-t)", "1")
WRONG_ABOVE = 1e-3
RIGHT_UP_TO = 1e-6
# measured on this family with SEED and COUNT, the same for every verb
EXIT_CODES = {0: 33, 4: 27}
WRONG_WITH_EXIT_0 = 27
# measured as above, for compare
COMPARE_CLASSES = {"right": 5, "between": 1, "wrong": 27,
                   "oracle cannot start": 26, "other typed error": 1}
# measured as above for compare at seed 1; its other typed errors are four
# Picard iterations that do not converge (exit 3), three of them with an f
# that overflows
SEED_1_EXIT_CODES = {0: 35, 3: 4, 4: 21}
SEED_1_CLASSES = {"right": 4, "between": 3, "wrong": 28,
                  "oracle cannot start": 21, "other typed error": 4}


def census_config(rng) -> str:
    """One config text: 1-3 equations, 0-2 delays each (tau = 0 couplings
    included), a history in 60 % of configs, a nonlinear term in 30 % of
    equations, b in [0.05, 20] and N in 2..20. Each number is written as a
    Python float's repr, never a NumPy scalar's."""
    def num(lo, hi):
        return repr(float(rng.uniform(lo, hi)))

    def pick(values):
        return values[int(rng.integers(len(values)))]

    l = int(rng.integers(1, 4))
    lines = [f"equations = {l}", f"b = {num(0.05, 20)}",
             f"N = {int(rng.integers(2, 21))}", "rk4_step = 0.001"]
    history = rng.random() < 0.6
    if history:
        lines.append(f"history_end = {pick(HISTORY_ENDS)!r}")
    for eq in range(1, l + 1):
        lines += [f"[equation {eq}]", f"gamma = {num(-0.5, 2)}",
                  f"phi = {num(-1, 1)}", f"forcing = {pick(FORCINGS)}"]
        if history:
            lines.append(f"history = {pick(HISTORIES)}")
        for _ in range(int(rng.integers(3))):
            lines.append(f"delay = {int(rng.integers(1, l + 1))} "
                         f"{num(-0.8, 0.8)} {pick(TAUS)!r}")
        if rng.random() < 0.3:
            lines += [f"nonlinear = {pick(NONLINEAR)}",
                      f"nonlinear_tau = {pick(TAUS[1:])!r}",
                      f"nonlinear_target = {int(rng.integers(1, l + 1))}"]
    return "\n".join(lines) + "\n"


def _relative_error(path) -> float:
    """The largest absdiff of a comparison.csv over max(1, max |oracle|)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    columns = np.array(header)
    oracle = table[:, np.char.startswith(columns, "oracle_")]
    absdiff = table[:, np.char.startswith(columns, "absdiff_")]
    return float(absdiff.max() / max(1.0, float(np.abs(oracle).max())))


def _compare_census(tmp_path, seed):
    """The exit counts and the classes of ``compare`` on the COUNT configs of
    ``seed``. Right: |solution - oracle| at most RIGHT_UP_TO of
    max(1, max |oracle|); wrong: above WRONG_ABOVE; an oracle that cannot
    start is one that needs u before t = 0 with no history to serve it."""
    rng = np.random.default_rng(seed)
    codes, classes = Counter(), Counter()
    for k in range(COUNT):
        path = tmp_path / f"census{k}.cfg"
        path.write_text(census_config(rng))
        out = tmp_path / f"out{k}"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(["compare", "--config", str(path),
                             "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 3, 4), path.read_text()
        codes[code] += 1
        if code == 0:
            error = _relative_error(out / "comparison.csv")
            classes["right" if error <= RIGHT_UP_TO else
                    "between" if error <= WRONG_ABOVE else "wrong"] += 1
        elif code == 4 and err.startswith("oracle error: delayed value at t="):
            classes["oracle cannot start"] += 1
        else:
            classes["other typed error"] += 1
    return dict(codes), dict(classes)


@pytest.fixture(scope="module")
def seed_census(tmp_path_factory):
    """``_compare_census`` of SEED, run once for the tests that read it."""
    return _compare_census(tmp_path_factory.mktemp("census"), SEED)


def test_census_compare_exits_typed_and_its_wrong_answers_are_counted(
        seed_census):
    codes, classes = seed_census
    assert codes == EXIT_CODES
    assert classes["wrong"] == WRONG_WITH_EXIT_0


@pytest.mark.parametrize("verb", ["solve", "converge"])
def test_census_other_verbs_exit_typed(tmp_path, verb):
    rng = np.random.default_rng(SEED)
    codes = Counter()
    for k in range(COUNT):
        path = tmp_path / f"census{k}.cfg"
        path.write_text(census_config(rng))
        code = cli.main([verb, "--config", str(path),
                         "--out", str(tmp_path / f"out{k}")])
        assert code in (0, 3, 4), path.read_text()
        codes[code] += 1
    assert dict(codes) == EXIT_CODES


def test_census_compare_classes(seed_census):
    assert seed_census[1] == COMPARE_CLASSES


def test_census_compare_second_seed(tmp_path):
    assert _compare_census(tmp_path, 1) == (SEED_1_EXIT_CODES, SEED_1_CLASSES)
