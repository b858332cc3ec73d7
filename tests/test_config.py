"""Tests for the configuration format and its expression grammar."""

import math
import random
import re

import numpy as np
import pytest

from lagdde import config as config_mod
from lagdde.collocation import DelayTerm, solve_nonlinear
from lagdde.config import (
    _FUNCTIONS,
    _KEYS,
    ConfigError,
    EquationConfig,
    Expression,
    ProblemConfig,
    build_problem,
    parse_config,
    parse_config_text,
)
from lagdde.reference import rk4_method_of_steps

EXAMPLE1 = """\
# delayed feedback with exponential nonlinearity
b = 5
N = 10
tol = 1e-8
max_iter = 50
rk4_step = 0.001
history_end = 0.5

[equation 1]
gamma = 0.4
phi = 0
history = sin(t)
nonlinear = exp(-u)
nonlinear_tau = 0.5
"""

EXAMPLE2 = """\
equations = 2
b = 5
N_list = 3 4
rk4_step = 0.001

[equation 1]
phi = 1
history = 1
delay = 1 1 2

[equation 2]
phi = 1
history = 1
delay = 1 1 2
delay = 2 1 0.5
"""


# ---------------------------------------------------------------------------
# expressions

def test_expression_arithmetic():
    assert Expression("2*t+1")(1.0) == pytest.approx(3.0)
    assert Expression("t^2 - 4*t + 2")(2.0) == pytest.approx(-2.0)
    assert Expression("-2^2")(0.0) == pytest.approx(-4.0)
    assert Expression("(1+t)/2")(3.0) == pytest.approx(2.0)
    assert Expression("exp(-u)", variable="u")(0.0) == pytest.approx(1.0)
    # leading zeros, which a Python integer literal may not have
    assert Expression("007*t")(2.0) == 14.0
    assert Expression("t - 007")(2.0) == -5.0
    assert Expression("1e-007")(0.0) == 1e-7


def test_expression_functions_and_constants():
    assert Expression("sin(pi/2)")(0.0) == pytest.approx(1.0)
    assert Expression("cos(0)")(0.0) == pytest.approx(1.0)
    assert Expression("exp(1) - e")(0.0) == pytest.approx(0.0, abs=1e-15)
    assert Expression("sin(t)*cos(t)")(0.7) == pytest.approx(
        math.sin(0.7) * math.cos(0.7))


def test_expression_syntax_errors_carry_location():
    with pytest.raises(ConfigError) as info:
        Expression("2*+")
    assert info.value.column is not None
    with pytest.raises(ConfigError):
        Expression("sin 3")
    with pytest.raises(ConfigError):
        Expression("2 t")
    with pytest.raises(ConfigError) as info:
        Expression("foo(t)")
    assert "foo" in str(info.value)
    # Python syntax outside the grammar, each refused with its column
    for source in ("__import__('os')", "().__class__", "exp.__globals__",
                   "t[0]", "lambda: 1", "t < 1", "t if t else t",
                   "sin(x=1)", "exp(*t)", "sin(1, 2)", "'a'", "1j", "0x1f",
                   "1_0", "2**3", "2 // 3", "t % 2", "1or t", "True", "..."):
        with pytest.raises(ConfigError) as info:
            Expression(source)
        assert info.value.column is not None, source
    for source, column in (("2**3", 3), ("t % 2", 3), ("sin(1, 2)", 6),
                           ("t^2 + 1j", 7), ("2^3^", 5)):
        with pytest.raises(ConfigError) as info:
            Expression(source)
        assert info.value.column == column, source


def test_expression_rejects_wrong_variable():
    with pytest.raises(ConfigError):
        Expression("u + 1", variable="t")
    # nor can an expression reach the compiled function's own names
    for source in ("x", "float(t)", "__builtins__"):
        with pytest.raises(ConfigError) as info:
            Expression(source, variable="t")
        assert info.value.column == 1, source


@pytest.mark.parametrize("source", [
    "(" * 300 + "t" + ")" * 300,
    "-" * 1500 + "t",
    "+".join(["t"] * 2000),
], ids=["parentheses", "unary_minus", "sum"])
def test_too_deep_nesting_is_a_config_error(source):
    with pytest.raises(ConfigError):
        Expression(source)


# The hand-written tokenizer and recursive-descent parser that defined the
# expression grammar before expressions were compiled through ``ast``, frozen
# as the reference grammar for the compiled functions.
_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
                       r"|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,]))")
_CONSTANTS = {"pi": math.pi, "e": math.e}


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None or m.end() == self.pos:
                rest = text[self.pos:].lstrip()
                if not rest:
                    break
                col = len(text) - len(rest) + 1
                raise ConfigError(f"unexpected character {rest[0]!r}", column=col)
            start = m.start(1) if m.group(1) else (
                m.start(2) if m.group(2) else m.start(3))
            if m.group(1):
                self.tokens.append(("num", float(text[start:m.end()]), start + 1))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), start + 1))
            else:
                self.tokens.append(("op", m.group(3), start + 1))
            self.pos = m.end()
        self.tokens.append(("end", None, len(text) + 1))
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


def _parse_expression(text, variable):
    tk = _Tokenizer(text)

    def expect_op(op):
        kind, value, col = tk.next()
        if kind != "op" or value != op:
            raise ConfigError(f"expected '{op}'", column=col)

    def atom():
        kind, value, col = tk.next()
        if kind == "num":
            return ("const", value)
        if kind == "name":
            if value in _FUNCTIONS:
                expect_op("(")
                inner = expr()
                expect_op(")")
                return ("call", value, inner)
            if value in _CONSTANTS:
                return ("const", _CONSTANTS[value])
            if value == variable:
                return ("var",)
            raise ConfigError(f"unknown name '{value}'", column=col)
        if kind == "op" and value == "(":
            inner = expr()
            expect_op(")")
            return inner
        raise ConfigError("expected a number, name or '('", column=col)

    def power():
        base = atom()
        kind, value, _ = tk.peek()
        if kind == "op" and value == "^":
            tk.next()
            return ("pow", base, unary())
        return base

    def unary():
        kind, value, _ = tk.peek()
        if kind == "op" and value in "+-":
            tk.next()
            operand = unary()
            return operand if value == "+" else ("neg", operand)
        return power()

    def term():
        node = unary()
        while True:
            kind, value, _ = tk.peek()
            if kind == "op" and value in "*/":
                tk.next()
                node = ("mul" if value == "*" else "div", node, unary())
            else:
                return node

    def expr():
        node = term()
        while True:
            kind, value, _ = tk.peek()
            if kind == "op" and value in "+-":
                tk.next()
                node = ("add" if value == "+" else "sub", node, term())
            else:
                return node

    tree = expr()
    kind, value, col = tk.peek()
    if kind != "end":
        raise ConfigError(f"unexpected trailing input {value!r}", column=col)
    return tree


def _eval_ast(node, x):
    """The tree-walking evaluator expressions used before they were
    compiled, kept as the reference for the compiled lambdas."""
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return float(x)
    if op == "neg":
        return -_eval_ast(node[1], x)
    if op == "call":
        return _FUNCTIONS[node[1]](_eval_ast(node[2], x))
    a = _eval_ast(node[1], x)
    b = _eval_ast(node[2], x)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        power = a**b
        if isinstance(power, complex):  # a negative base to a fractional power
            raise ArithmeticError
        return power
    raise AssertionError(f"unknown AST node {op}")


def _outcome(fn, x):
    """Type and exact repr of a value, or the type of the exception."""
    try:
        value = fn(x)
    except Exception as err:  # compared by type only
        return type(err)
    return type(value), repr(value)


def _assert_matches_tree_walk(source, x, variable="t"):
    tree = _parse_expression(source.strip(), variable)
    compiled = _outcome(Expression(source, variable=variable), x)
    assert compiled == _outcome(lambda v: _eval_ast(tree, v), x), (source, x)
    return compiled


@pytest.mark.parametrize("source,x,expected", [
    ("2^3^2", 0.0, (float, "512.0")),            # right-associative
    ("-2^2", 0.0, (float, "-4.0")),              # power binds before minus
    ("2^-t", 1.0, (float, "0.5")),               # unary exponent
    ("1/(t-1)", 1.0, ZeroDivisionError),
    ("exp(t*800)", 1.0, OverflowError),
    ("10^t", 400.0, OverflowError),
    ("(-8)^(1/3)", 0.0, ArithmeticError),        # complex in Python
    ("t - (t - t) - -t", 2.0, (float, "4.0")),
    ("1e999 * t", 1.0, (float, "inf")),
    ("0 * -t", 1.0, (float, "-0.0")),
    ("exp(t^0.5)", -1.0, ArithmeticError),       # not a TypeError in exp
    ("0^(t^0.5)", -1.0, ArithmeticError),        # nor 0 to a complex power
])
def test_compiled_expression_matches_tree_walk(source, x, expected):
    assert _assert_matches_tree_walk(source, x) == expected


def test_compiled_expression_numpy_input_and_u_variable():
    assert _assert_matches_tree_walk("t^2 + sin(t)", np.float64(0.3))[0] is float
    assert _assert_matches_tree_walk("exp(-u)/2", np.float64(1.7), "u")[0] is float
    assert _assert_matches_tree_walk("0.5*exp(-u)", -0.25, "u")[0] is float


def _random_sources():
    """400 random expressions over t, nested up to depth 5, from one seed."""
    rng = random.Random(3)

    def source(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(["t", "2", "0.5", "3.7e-1", "pi", "e", "0"])
        pick = rng.random()
        if pick < 0.1:
            return "-" + source(depth - 1)
        if pick < 0.2:
            return f"{rng.choice(['exp', 'sin', 'cos'])}({source(depth - 1)})"
        if pick < 0.3:
            return f"({source(depth - 1)})"
        return source(depth - 1) + rng.choice("+-*/^") + source(depth - 1)

    return [source(5) for _ in range(400)]


def test_compiled_expression_matches_tree_walk_on_random_sources():
    for text in _random_sources():
        for x in (0.0, 1.0, -1.3, np.float64(0.7)):
            _assert_matches_tree_walk(text, x)


def test_each_reads_as_calls_at_each_point_on_random_sources():
    # float, numpy float64 and int points; a batch that fails raises what
    # the earliest failing point raises on its own
    points = [0.0, 1.0, -1.3, np.float64(0.7), 2, np.float64(-0.25), -3]
    for text in _random_sources():
        expression = Expression(text)
        expected = []
        for x in points:
            try:
                expected.append(expression(x))
            except Exception as err:
                with pytest.raises(type(err)) as info:
                    expression.each(points)
                assert str(info.value) == str(err), text
                break
        else:
            values = expression.each(points)
            assert [type(v) for v in values] == [float] * len(points)
            assert list(map(repr, values)) == list(map(repr, expected)), text


def test_each_of_no_points_is_empty():
    assert Expression("t^2").each([]) == []
    assert Expression("2").each(np.array([])) == []


def test_each_names_the_earliest_failing_point():
    # the 2nd and the 4th point fail
    expression = Expression("(t-1)^0.5")
    with pytest.raises(ArithmeticError) as scalar:
        expression(0.5)
    with pytest.raises(ArithmeticError) as batch:
        expression.each([2.0, 0.5, 1.25, 0.75])
    assert str(batch.value) == str(scalar.value)
    assert "at t = 0.5:" in str(batch.value)


@pytest.mark.parametrize("source, variable, x, kind, reason", [
    ("1/(t-1)", "t", 1.0, ZeroDivisionError, "float division by zero"),
    ("exp(t)", "t", 1000.0, OverflowError, "math range error"),
    ("0.5*u^2", "u", 1.4493720010891322e+154, OverflowError, None),
    ("sin(t)", "t", math.inf, ArithmeticError, "math domain error"),
])
def test_expression_errors_keep_their_type_and_name_the_point(
        source, variable, x, kind, reason):
    # a float power's overflow message is the C library's strerror
    expression = Expression(source, variable)
    for read in (lambda: expression(x), lambda: expression.each([0.5, x, x])):
        with pytest.raises(ArithmeticError) as info:
            read()
        assert type(info.value) is kind
        prefix = f"{source!r} at {variable} = {x}: "
        assert str(info.value).startswith(prefix)
        assert reason is None or str(info.value) == prefix + reason


def test_each_expression_key_compiles_once(monkeypatch):
    # three equations with a forcing and a history each: six compiled
    # expressions; an equation without a forcing shares one compiled zero
    compiled = []
    compile_ = config_mod._compile

    def counting(text, variable):
        compiled.append(text)
        return compile_(text, variable)

    monkeypatch.setattr(config_mod, "_compile", counting)
    cfg = parse_config_text("equations = 3\n" + "".join(
        f"[equation {k}]\nforcing = {k}*t\nhistory = sin({k}*t)\n"
        for k in (1, 2, 3)))
    assert len(compiled) == 6
    assert [eq.forcing.source for eq in cfg.equations] == ["1*t", "2*t", "3*t"]
    compiled.clear()
    cfg = parse_config_text("equations = 2\n[equation 1]\nphi = 1\n")
    assert compiled == []
    assert [eq.forcing(1.5) for eq in cfg.equations] == [0.0, 0.0]


@pytest.fixture
def compiled():
    """The number of texts ``_compile`` has compiled, from an empty cache."""
    config_mod._compile.cache_clear()
    return lambda: config_mod._compile.cache_info().misses


def _expressions(cfg):
    return [e for eq in cfg.equations
            for e in (eq.forcing, eq.history, eq.nonlinear, eq.exact) if e]


def test_a_config_parsed_twice_compiles_each_text_once(compiled):
    text = ("equations = 2\nrk4_step = 0.01\n[equation 1]\nforcing = 2*t\n"
            "history = sin(t)\nnonlinear = exp(-u)\nnonlinear_tau = 1\n"
            "[equation 2]\nforcing = 2*t\nhistory = cos(t)\n")
    first = _expressions(parse_config_text(text))
    distinct = {(e.source, e.variable) for e in first}
    assert compiled() == len(distinct) == 4
    second = _expressions(parse_config_text(text))
    assert compiled() == 4
    assert [e._fn for e in second] == [e._fn for e in first]
    assert [(e.source, e.variable) for e in second] == [
        (e.source, e.variable) for e in first]


def test_history_and_exact_of_one_text_compile_once(compiled):
    cfg = parse_config_text("oracle = exact\n[equation 1]\n"
                            "history = exp(-t)\nexact = exp(-t)\n")
    eq, = cfg.equations
    assert compiled() == 1
    assert eq.history._fn is eq.exact._fn
    assert eq.history.source == eq.exact.source == "exp(-t)"


def test_one_text_over_t_and_over_u_compiles_twice(compiled):
    over_t, over_u = Expression("2^3", "t"), Expression("2^3", "u")
    assert compiled() == 2
    assert over_t._fn is not over_u._fn
    assert (over_t.variable, over_u.variable) == ("t", "u")
    # a text valid over t is still an unknown name over u
    Expression("t", "t")
    with pytest.raises(ConfigError, match="unknown name 't'"):
        Expression("t", "u")


def test_a_failing_expression_fails_alike_on_each_parse(compiled):
    errors = []
    for _ in range(2):
        with pytest.raises(ConfigError) as info:
            parse_config_text("[equation 1]\nforcing = 2*t + q\n")
        errors.append(info.value)
    assert [(str(e), e.line, e.column, e.field) for e in errors] == [
        ("unknown name 'q' (line 2, column 7, field 'forcing')", 2, 7,
         "forcing")] * 2
    assert config_mod._compile.cache_info().currsize == 0
    assert compiled() == 2


def test_the_compile_cache_stays_within_its_bound(compiled):
    maxsize = config_mod._compile.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 10):
        assert Expression(f"{k}*t")(2.0) == 2.0 * k
    assert config_mod._compile.cache_info().currsize <= maxsize
    # an evicted text compiles again, to the same function of t
    assert Expression("0*t").each([1.0, 3.0]) == [0.0, 0.0]
    assert compiled() == maxsize + 11


def test_long_expression_compiles():
    assert Expression("+".join(["t"] * 500))(1.0) == 500.0


# ---------------------------------------------------------------------------
# parsing

def test_parse_nonlinear_example():
    cfg = parse_config_text(EXAMPLE1)
    assert cfg.n_equations == 1
    assert cfg.b == 5.0
    assert cfg.n_max == 10
    assert cfg.oracle == "rk4"
    eq = cfg.equations[0]
    assert eq.gamma == 0.4
    assert eq.history(0.5) == pytest.approx(math.sin(0.5))
    assert eq.nonlinear(1.0) == pytest.approx(math.exp(-1.0))
    assert eq.nonlinear_tau == 0.5


def test_parse_coupled_example():
    cfg = parse_config_text(EXAMPLE2)
    assert cfg.n_equations == 2
    assert cfg.n_list == (3, 4)
    assert cfg.equations[0].delays == ((0, 1.0, 2.0),)
    assert cfg.equations[1].delays == ((0, 1.0, 2.0), (1, 1.0, 0.5))


def test_build_problem_from_coupled_example():
    problem = build_problem(parse_config_text(EXAMPLE2))
    assert problem.n_equations == 2
    assert problem.delays[1] == (DelayTerm(0, 1.0, 2.0), DelayTerm(1, 1.0, 0.5))
    assert problem.history is not None
    assert problem.history.value(0, -1.0) == 1.0
    assert problem.phi == (1.0, 1.0)


def test_equation_without_a_history_reads_its_phi():
    # another equation's history gives the problem one; equation 2, which
    # sets none, is read as its phi on every delayed argument
    text = ("equations = 2\nb = 5\n[equation 1]\nhistory = sin(t)\n"
            "delay = 2 0.5 1\n[equation 2]\nphi = 0.7\n")
    implicit = build_problem(parse_config_text(text))
    explicit = build_problem(parse_config_text(text + "history = 0.7\n"))
    assert implicit.history.functions[1](-0.5) == 0.7
    a, b = (rk4_method_of_steps(p) for p in (implicit, explicit))
    for name in ("t", "u", "du", "slope"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(solve_nonlinear(implicit, 12).chebyshev,
                                  solve_nonlinear(explicit, 12).chebyshev)


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "problem.cfg"
    path.write_text(EXAMPLE1)
    cfg = parse_config(str(path))
    assert cfg == parse_config_text(EXAMPLE1)


def test_parse_config_reads_a_path(tmp_path):
    # configuration text is not taken for a path, nor a missing path for text
    for source in (EXAMPLE1, str(tmp_path / "missing.cfg"), str(tmp_path)):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(source)


def test_negative_delay_is_semantic_error():
    text = "b = 1\n[equation 1]\ndelay = 1 1.0 -1\n"
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert info.value.field == "delay"


def test_unknown_keys_are_rejected_with_line():
    with pytest.raises(ConfigError) as info:
        parse_config_text("b = 1\nbogus = 2\n")
    assert info.value.line == 2
    with pytest.raises(ConfigError) as info:
        parse_config_text("b = 1\n[equation 1]\nwhatever = 3\n")
    assert info.value.line == 3


def test_semantic_validation():
    with pytest.raises(ConfigError):
        parse_config_text("b = -1\n")
    with pytest.raises(ConfigError):
        parse_config_text("b = 1\nN = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("b = 1\ntol = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("b = 1\noracle = rk4\n")  # missing rk4_step
    with pytest.raises(ConfigError):
        parse_config_text("b = 1\noracle = exact\n[equation 1]\nphi = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("equations = 1\nb = 1\n[equation 2]\nphi = 1\n")
    with pytest.raises(ConfigError):
        # nonlinearity without its delay
        parse_config_text("b = 1\n[equation 1]\nnonlinear = exp(-u)\n")


def test_truncation_above_maximum_is_config_error():
    with pytest.raises(ConfigError) as info:
        parse_config_text("b = 1\nN = 21\n")
    assert info.value.field == "N"
    with pytest.raises(ConfigError) as info:
        parse_config_text("b = 1\nN_list = 3 21\n")
    assert info.value.field == "N_list"
    assert parse_config_text("b = 1\nN_list = 2 20\n").n_list == (2, 20)


def test_negative_history_end_is_config_error():
    with pytest.raises(ConfigError) as info:
        parse_config_text("b = 1\nhistory_end = -0.5\n")
    assert info.value.field == "history_end"
    text = "b = 1\nhistory_end = 0.5\n[equation 1]\nhistory = 1\n"
    assert parse_config_text(text).history_end == 0.5


# a bad value of each key with a rule of its own, and the message it gives
KEY_RULES = [
    ("", "equations = 4", "equation count must be 1-3, got 4"),
    ("", "b = -1", "b must be positive, got -1.0"),
    ("", "b = inf", "b must be finite, got inf"),
    ("", "N = 21", "N must lie in 2..20, got 21"),
    ("", "N_list = 4 6 4", "N_list repeats 4"),
    ("", "tol = nan", "tol must be finite, got nan"),
    ("", "tol = 0", "tol must be positive, got 0.0"),
    ("", "max_iter = 0", "max_iter must be >= 1, got 0"),
    ("", "rk4_step = -0.1", "rk4_step must be positive, got -0.1"),
    ("", "oracle = bogus", "oracle must be none, rk4 or exact, got 'bogus'"),
    ("", "history_end = -0.5", "history_end must be >= 0, got -0.5"),
    ("", "history_end = nan", "history_end must be finite, got nan"),
    ("[equation 1]", "gamma = nan", "gamma must be finite, got nan"),
    ("[equation 1]", "phi = -inf", "phi must be finite, got -inf"),
    ("[equation 1]", "delay = 1 nan 1", "delay must be finite, got nan"),
    ("[equation 1]", "delay = 1 1.0 -1", "delay must be non-negative, got -1.0"),
    ("[equation 1]", "delay = 1 2", "delay takes three values: target beta tau"),
    ("[equation 1]", "nonlinear_tau = inf", "nonlinear_tau must be finite, got inf"),
    ("[equation 1]", "nonlinear_tau = 0", "nonlinear_tau must be positive, got 0.0"),
]


@pytest.mark.parametrize("section, line, message", KEY_RULES,
                         ids=[line for _, line, _ in KEY_RULES])
def test_each_key_rule_names_its_line_and_field(section, line, message):
    # the rule is the key's own, so the error points at the line that broke it
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError) as info:
        parse_config_text(f"# one bad value, on line 3\n{section}\n{line}\n")
    assert (info.value.line, info.value.field) == (3, key)
    assert str(info.value) == f"{message} (line 3, field '{key}')"


def test_expression_error_keeps_its_column_beside_line_and_field():
    with pytest.raises(ConfigError) as info:
        parse_config_text("b = 1\n[equation 1]\nforcing = 2*foo\n")
    assert (info.value.line, info.value.column, info.value.field) == (3, 3, "forcing")
    assert str(info.value) == "unknown name 'foo' (line 3, column 3, field 'forcing')"


def test_inferred_equation_count_follows_the_equations_rule():
    with pytest.raises(ConfigError, match="equation count must be 1-3, got 4") as info:
        parse_config_text("b = 1\n[equation 4]\nphi = 1\n")
    assert info.value.field == "equations"


@pytest.mark.parametrize("text, line, field", [
    ("b = 1\nb = 7\n", 2, "b"),
    ("b = 1\n[equation 1]\ngamma = 1\nphi = 0\ngamma = 2\n", 5, "gamma"),
    ("equations = 2\n[equation 1]\ngamma = 1\n[equation 1]\ngamma = 2\n", 4, None),
], ids=["global_key", "equation_key", "section"])
def test_repeated_key_or_section_is_config_error(text, line, field):
    # each used to be merged silently, the last value winning
    with pytest.raises(ConfigError, match="repeated") as info:
        parse_config_text(text)
    assert (info.value.line, info.value.field) == (line, field)


def test_history_end_needs_a_history():
    # build_problem reads history_end only beside a history expression
    with pytest.raises(ConfigError, match="without a history") as info:
        parse_config_text("b = 1\nhistory_end = 0.5\n[equation 1]\nphi = 1\n")
    assert info.value.field == "history_end"
    assert parse_config_text("b = 1\nhistory_end = 0\n").history_end == 0.0


def test_repeated_truncation_is_config_error():
    with pytest.raises(ConfigError, match="repeats 4") as info:
        parse_config_text("b = 1\nN_list = 4 6 4\n")
    assert info.value.field == "N_list"


def test_nonlinear_target_out_of_range_is_config_error():
    text = ("b = 1\n[equation 1]\nnonlinear = sin(u)\nnonlinear_tau = 0.5\n"
            "nonlinear_target = {}\n")
    for target in (0, 2, 3):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text.format(target))
        assert info.value.field == "nonlinear_target"
    assert parse_config_text(text.format(1)).equations[0].nonlinear_target == 0


# Every key of both sections, delay twice, over two texts: N and N_list
# exclude each other, and rk4_step goes only with the rk4 oracle.
EVERY_KEY = ("""\
equations = 2
b = 2.5
N = 6
tol = 1e-09
max_iter = 40
oracle = exact
history_end = 0.5

[equation 1]
gamma = 0.25
phi = 1.0
forcing = sin(t)
history = cos(t)
delay = 2 0.5 0.5
delay = 1 -0.25 1.0
nonlinear = exp(-u)
nonlinear_tau = 0.5
nonlinear_target = 2
exact = exp(-t)

[equation 2]
exact = 1
""", """\
N_list = 4, 6
oracle = rk4
rk4_step = 0.005
""")


def test_every_key_parses_to_its_field():
    keys = {line.split(" = ")[0]
            for text in EVERY_KEY for line in text.splitlines() if " = " in line}
    assert keys == set(_KEYS[ProblemConfig]) | set(_KEYS[EquationConfig])
    first, second = map(parse_config_text, EVERY_KEY)
    assert first == ProblemConfig(
        n_equations=2, b=2.5, n_max=6, tol=1e-9, max_iter=40, oracle="exact",
        history_end=0.5, equations=(
            EquationConfig(gamma=0.25, phi=1.0, forcing=Expression("sin(t)"),
                           history=Expression("cos(t)"),
                           delays=((1, 0.5, 0.5), (0, -0.25, 1.0)),
                           nonlinear=Expression("exp(-u)", variable="u"),
                           nonlinear_tau=0.5, nonlinear_target=1,
                           exact=Expression("exp(-t)")),
            EquationConfig(exact=Expression("1"))))
    assert second == ProblemConfig(n_list=(4, 6), oracle="rk4", rk4_step=0.005,
                                   equations=(EquationConfig(),))


@pytest.mark.parametrize("text", ["N = 6\nN_list = 4 5\n", "N_list = 4 5\nN = 6\n"],
                         ids=["N_first", "N_list_first"])
def test_n_and_n_list_together_is_config_error(text):
    # N used to be dropped silently, N_list winning
    with pytest.raises(ConfigError) as info:
        parse_config_text("b = 1\n" + text)
    assert info.value.field == "N"
    assert str(info.value) == ("N and N_list exclude each other; set one of "
                               "them (field 'N')")


@pytest.mark.parametrize("text, oracle", [
    ("rk4_step = 0.01\noracle = none\n", "none"),
    ("rk4_step = 0.01\noracle = exact\n", "exact"),
    ("oracle = exact\nrk4_step = 0.01\n", "exact"),
], ids=["step_then_none", "step_then_exact", "exact_then_step"])
def test_rk4_step_without_the_rk4_oracle_is_config_error(text, oracle):
    # each used to be accepted with the step ignored
    with pytest.raises(ConfigError) as info:
        parse_config_text("b = 1\n" + text + "[equation 1]\nexact = 1\n")
    assert info.value.field == "rk4_step"
    assert str(info.value) == (f"rk4_step sets the RK4 oracle's step, but the "
                               f"oracle is {oracle} (field 'rk4_step')")


def test_rk4_step_after_oracle_none_makes_the_oracle_rk4():
    cfg = parse_config_text("b = 1\noracle = none\nrk4_step = 0.01\n")
    assert (cfg.oracle, cfg.rk4_step) == ("rk4", 0.01)


def test_nonlinear_settings_need_a_nonlinearity():
    # build_problem reads nonlinear_tau and nonlinear_target only beside a
    # nonlinear expression, so a config may not hold them without one
    for key, value in (("nonlinear_target", 1), ("nonlinear_tau", 0.5)):
        with pytest.raises(ConfigError, match="without a nonlinear") as info:
            parse_config_text(f"b = 1\n[equation 1]\n{key} = {value}\n")
        assert info.value.field == key


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("\n# comment\nb = 2  # trailing\n\n")
    assert cfg.b == 2.0
