"""Flat key-value problem configuration with a small expression grammar.

The format is line oriented: global keys first, then one ``[equation k]``
section per equation. ``#`` starts a comment. Forcing, history, exact and
nonlinearity values are expressions over ``t`` (or ``u`` for the
nonlinearity) built from + - * / ^, exp, sin, cos, numbers and the
constants pi and e. They follow Python's precedence with ``^`` as ``**``:
``^`` is right-associative, binds tighter than unary minus (``-2^2`` is -4)
and takes a signed exponent (``2^-t``). Nesting too deep for the parser is
a ConfigError.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Optional

from .collocation import (
    MAX_TRUNCATION,
    DDEProblem,
    DelayTerm,
    History,
    NonlinearDelayTerm,
)


class ConfigError(Exception):
    """Invalid configuration text: ``line`` and ``column`` locate the error,
    ``field`` names the offending key."""

    def __init__(self, message, line=None, column=None, field=None):
        self.message = message
        self.line = line
        self.column = column
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {column}")
        if field is not None:
            where.append(f"field '{field}'")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)

    def located(self, line=None, field=None):
        """This error at ``line`` or on ``field``, where either is given."""
        return ConfigError(self.message, line or self.line, self.column,
                           field or self.field)


# ---------------------------------------------------------------------------
# expressions

_FUNCTIONS = {"exp": math.exp, "sin": math.sin, "cos": math.cos}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
# the grammar's number literals; Python's 1_0, 0x1f and 1j are not among them
_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
# a character no token of the grammar has, or Python's own '**'
_UNEXPECTED = re.compile(r"[^0-9A-Za-z_ ()+\-*/^.]|\*\*")
# leading zeros of a number, which Python refuses in an integer ("007")
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![\d.][eE][+-])0+(?=\d)")
_LAMBDA = "lambda x: "


def _real(power):
    """``power`` if it is real; Python makes a negative base to a fractional
    power complex, which is here a ValueError, as a math domain error is."""
    if type(power) is complex:
        raise ValueError("negative base to a fractional power")
    return power


# the only names a compiled expression can reach
_NAMESPACE = {"__builtins__": {}, "float": float, "map": map, "real": _real,
              **_FUNCTIONS}


# each distinct text compiles once per process over its variable; a text
# that fails is refused again on each parse, since lru_cache stores no
# exception. A config holds at most 12 texts (3 equations, 4 keys), so 128
# keeps about ten configs' worth, for a process that parses config after config
@functools.lru_cache(maxsize=128)
def _compile(text, variable):
    """Function listing ``text``, an expression over ``variable``, at each
    point of a sequence; a ConfigError, with a column where one exists, if
    it is not. The function is pure, so expressions of one text share it.

    ``ast`` parses the text, with ``^`` read as ``**``, as the body of
    ``lambda x: ...``, and the body is walked once under a whitelist: + - *
    / ** of two operands, unary minus (unary plus is dropped), exp, sin or
    cos of one argument, pi, e, the variable and number literals. Numbers
    become the float of their text, pi and e constants, the variable ``x``
    and each power ``real(a ** b)``. The body then becomes ``lambda xs:
    [... for x in map(float, xs)]`` (numpy scalars in, Python floats out),
    compiled and evaluated with no builtins.
    """
    # each rewrite keeps the length, so columns hold, but for '^' -> '**':
    # spaces and digits to ASCII (float() reads any Unicode digit), then
    # leading zeros to spaces
    text = re.sub(r"(?![0-9])\d", lambda m: str(int(m.group())),
                  re.sub(r"\s", " ", text))
    bad = _UNEXPECTED.search(text)
    if bad:
        raise ConfigError(f"unexpected character {bad.group()[-1]!r}",
                          column=bad.end())
    python = _LAMBDA + _LEADING_ZEROS.sub(lambda m: " " * len(m.group()),
                                          text).replace("^", "**")

    def column(offset):  # 0-based in python -> 1-based in text
        return offset - python[:offset].count("**") - len(_LAMBDA) + 1

    def checked(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            node.left, node.right = checked(node.left), checked(node.right)
            if not isinstance(node.op, ast.Pow):
                return node
            name = ast.copy_location(ast.Name("real", ast.Load()), node)
            return ast.copy_location(ast.Call(name, [node], []), node)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            node.operand = checked(node.operand)
            return node.operand if isinstance(node.op, ast.UAdd) else node
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS
                and len(node.args) == 1 and not node.keywords):
            node.args = [checked(node.args[0])]
            return node
        if isinstance(node, ast.Name) and node.id in _CONSTANTS:
            return ast.copy_location(ast.Constant(_CONSTANTS[node.id]), node)
        if (isinstance(node, ast.Name) and node.id == variable
                and node.id not in _FUNCTIONS):
            node.id = "x"
            return node
        literal = python[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(literal):
            node.value = float(literal)
            return node
        start, end = column(node.col_offset), column(node.end_col_offset)
        kind = "unknown name" if isinstance(node, ast.Name) else "unexpected"
        raise ConfigError(f"{kind} {text[start - 1:end - 1]!r}", column=start)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "invalid decimal literal" in 1or 2
            function = ast.parse(python, mode="eval")
        # without commas the text cannot end the lambda, so this is its body
        batch = ast.parse("lambda xs: [_ for x in map(float, xs)]", mode="eval")
        batch.body.body.elt = checked(function.body.body)
        code = compile(batch, "<expression>", "eval")
    except SyntaxError as err:  # offset 0 is the end of the text
        raise ConfigError(err.msg, column=None if err.offset is None
                          else column((err.offset or len(python) + 1) - 1)) from None
    except (RecursionError, MemoryError):
        raise ConfigError("expression nested too deeply") from None
    return eval(code, _NAMESPACE)


class Expression:
    """A compiled expression over a single named variable (see ``_compile``);
    ``each`` reads many points in one call of it and a call reads one. A
    math domain error, sin(inf), and a complex power, (-8)^(1/3), are
    raised as an ArithmeticError; an overflow or a division by zero keeps
    its type. Each names the expression and the point."""

    def __init__(self, source: str, variable: str = "t"):
        self.source = source.strip()
        self.variable = variable
        self._fn = _compile(self.source, variable)

    def __call__(self, value: float) -> float:
        try:
            return self._fn((value,))[0]
        except (ArithmeticError, ValueError) as err:  # ValueError: sin(inf), _real
            kind = ArithmeticError if isinstance(err, ValueError) else type(err)
            raise kind(f"{self.source!r} at {self.variable} = {value}: "
                       f"{err}") from err

    def each(self, values) -> list:
        """The floats at the points of the sequence ``values``, in order; a
        failure is the one the earliest failing point raises on its own."""
        try:
            return self._fn(values)
        except (ArithmeticError, ValueError):  # to name the failing point
            for value in values:
                self(value)
            raise

    def __eq__(self, other):
        return (isinstance(other, Expression)
                and self.source == other.source
                and self.variable == other.variable)

    def __repr__(self):
        return f"Expression({self.source!r})"


# ---------------------------------------------------------------------------
# configuration model

# the forcing of an equation that sets none, compiled once and shared
_ZERO = Expression("0")


@dataclass
class EquationConfig:
    gamma: float = 0.0
    phi: float = 0.0
    forcing: Expression = field(default_factory=lambda: _ZERO)
    history: Optional[Expression] = None
    delays: tuple = ()  # of (target 0-based, beta, tau)
    nonlinear: Optional[Expression] = None  # over u
    nonlinear_tau: Optional[float] = None
    nonlinear_target: Optional[int] = None
    exact: Optional[Expression] = None


@dataclass
class ProblemConfig:
    n_equations: int = 1
    b: float = 1.0
    n_max: Optional[int] = None
    n_list: tuple = ()
    tol: float = 1e-8
    max_iter: int = 50
    rk4_step: Optional[float] = None
    oracle: str = "none"  # none | rk4 | exact
    history_end: float = 0.0
    equations: tuple = ()


def _number(name, ok=None, rule="", kind=float):
    """Reader of a finite ``kind``, called ``name`` in its messages, for
    which ``ok`` holds; ``rule`` says what ``ok`` demands."""
    def read(value):
        x = kind(value)
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
        if ok is not None and not ok(x):
            raise ValueError(f"{name} must be {rule}, got {x}")
        return x
    return read


_POSITIVE = (lambda x: x > 0, "positive")
_BETA = _number("delay")
_TAU = _number("delay", lambda x: x >= 0, "non-negative")


def _delay(value):
    parts = value.split()
    if len(parts) != 3:
        raise ValueError("delay takes three values: target beta tau")
    return int(parts[0]) - 1, _BETA(parts[1]), _TAU(parts[2])


def _oracle(value):
    if value not in ("none", "rk4", "exact"):
        raise ValueError(f"oracle must be none, rk4 or exact, got '{value}'")
    return value


# The one list of config keys: per section, each key's attribute and its
# reader (text or a number -> value, checked against the key's own rule).
_KEYS = {
    ProblemConfig: {
        "equations": ("n_equations", _number("equation count", lambda n: 1 <= n <= 3,
                                             "1-3", int)),
        "b": ("b", _number("b", *_POSITIVE)),
        "N": ("n_max", lambda v: check_truncations((int(v),), "N")[0]),
        "N_list": ("n_list",
                   lambda v: check_truncations(
                       tuple(int(n) for n in re.split(r"[,\s]+", v) if n), "N_list")),
        "tol": ("tol", _number("tol", *_POSITIVE)),
        "max_iter": ("max_iter", _number("max_iter", lambda n: n >= 1, ">= 1", int)),
        "rk4_step": ("rk4_step", _number("rk4_step", *_POSITIVE)),
        "oracle": ("oracle", _oracle),
        "history_end": ("history_end",
                        _number("history_end", lambda x: x >= 0, ">= 0")),
    },
    EquationConfig: {
        "gamma": ("gamma", _number("gamma")),
        "phi": ("phi", _number("phi")),
        "forcing": ("forcing", Expression),
        "history": ("history", Expression),
        "delay": ("delays", _delay),
        "nonlinear": ("nonlinear", lambda v: Expression(v, variable="u")),
        "nonlinear_tau": ("nonlinear_tau", _number("nonlinear_tau", *_POSITIVE)),
        "nonlinear_target": ("nonlinear_target", lambda v: int(v) - 1),
        "exact": ("exact", Expression),
    },
}


def set_key(target, key, value) -> None:
    """Set config ``key`` of ``target``, a ProblemConfig or an EquationConfig,
    from ``value``, its text or a number; a value its reader refuses is a
    ConfigError on ``key``. Each ``delay`` adds one delay, and ``rk4_step``
    makes the oracle rk4 while it is none."""
    table = _KEYS[type(target)]
    if key not in table:
        raise ConfigError(f"unknown key '{key}'")
    attribute, read = table[key]
    try:
        value = read(value)
    except ValueError as err:
        raise ConfigError(str(err), field=key) from err
    except ConfigError as err:
        raise err.located(field=key) from err
    if key == "delay":
        value = target.delays + (value,)
    elif key == "rk4_step" and target.oracle == "none":
        target.oracle = "rk4"
    setattr(target, attribute, value)


def parse_config(path) -> ProblemConfig:
    """Parse the configuration file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    return parse_config_text(text)


def parse_config_text(text: str) -> ProblemConfig:
    """Parse configuration text. A section or a key given twice in one
    section, ``delay`` aside, is a ConfigError."""
    cfg = ProblemConfig(n_equations=None)  # None until the text declares it
    section = cfg  # the global section, or an EquationConfig
    equations: dict[int, EquationConfig] = {}
    seen = set()  # the keys of this section so far

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"\[\s*equation\s+(\d+)\s*\]", line)
        if m:
            index = int(m.group(1)) - 1
            if index < 0:
                raise ConfigError("equation numbers start at 1", line=lineno)
            if index in equations:
                raise ConfigError(f"section [equation {index + 1}] repeated",
                                  line=lineno)
            section = equations[index] = EquationConfig()
            seen = set()
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen and key != "delay":
            raise ConfigError(f"{key} repeated in its section", line=lineno,
                              field=key)
        seen.add(key)
        try:
            set_key(section, key, value.strip())
        except ConfigError as err:
            raise err.located(line=lineno) from err

    if cfg.n_equations is None:
        set_key(cfg, "equations", max(equations) + 1 if equations else 1)
    n_eq = cfg.n_equations
    if equations and max(equations) + 1 > n_eq:
        raise ConfigError(
            f"section [equation {max(equations) + 1}] exceeds declared "
            f"equation count {n_eq}", field="equations")
    cfg.equations = tuple(equations.get(i, EquationConfig()) for i in range(n_eq))
    validate(cfg)
    return cfg


def validate(cfg: ProblemConfig) -> None:
    """Raise ConfigError on the first setting of ``cfg`` that conflicts with
    another; each key's own rule is in its reader."""
    for k, eq in enumerate(cfg.equations, start=1):
        for target, _, _ in eq.delays:
            if not 0 <= target < cfg.n_equations:
                raise ConfigError(
                    f"delay target {target + 1} out of range in equation {k}",
                    field="delay")
        if (eq.nonlinear_target is not None
                and not 0 <= eq.nonlinear_target < cfg.n_equations):
            raise ConfigError(
                f"nonlinear target {eq.nonlinear_target + 1} out of range "
                f"in equation {k}", field="nonlinear_target")
        if eq.nonlinear is None:
            for key in ("nonlinear_tau", "nonlinear_target"):
                if getattr(eq, key) is not None:
                    raise ConfigError(
                        f"equation {k} sets {key} without a nonlinear expression",
                        field=key)
        elif eq.nonlinear_tau is None:
            raise ConfigError(
                f"equation {k} declares a nonlinearity without nonlinear_tau",
                field="nonlinear_tau")
        if cfg.oracle == "exact" and eq.exact is None:
            raise ConfigError(
                f"oracle 'exact' requires an exact expression in equation {k}",
                field="exact")
    if cfg.history_end and all(eq.history is None for eq in cfg.equations):
        raise ConfigError("history_end is set without a history expression",
                          field="history_end")
    if cfg.oracle == "rk4" and cfg.rk4_step is None:
        raise ConfigError("oracle 'rk4' requires rk4_step", field="rk4_step")
    if cfg.oracle != "rk4" and cfg.rk4_step is not None:
        raise ConfigError(f"rk4_step sets the RK4 oracle's step, but the "
                          f"oracle is {cfg.oracle}", field="rk4_step")
    if cfg.n_max is not None and cfg.n_list:
        raise ConfigError("N and N_list exclude each other; set one of them",
                          field="N")


def check_truncations(values, field_name):
    """The truncations ``values`` as given; one outside 2..MAX_TRUNCATION, or
    one given twice, is a ConfigError on ``field_name``."""
    for k, n in enumerate(values):
        if not 2 <= n <= MAX_TRUNCATION:
            raise ConfigError(
                f"{field_name} must lie in 2..{MAX_TRUNCATION}, got {n}",
                field=field_name)
        if n in values[:k]:
            raise ConfigError(f"{field_name} repeats {n}", field=field_name)
    return values


def build_problem(cfg: ProblemConfig) -> DDEProblem:
    """Instantiate the solver-facing problem from a parsed config."""
    history = None
    if any(eq.history is not None for eq in cfg.equations):
        functions = tuple(
            eq.history if eq.history is not None
            else (lambda t, v=eq.phi: v)
            for eq in cfg.equations
        )
        history = History(functions=functions, end=cfg.history_end)
    nonlinear = []
    for k, eq in enumerate(cfg.equations):
        if eq.nonlinear is None:
            nonlinear.append(None)
        else:
            target = eq.nonlinear_target if eq.nonlinear_target is not None else k
            nonlinear.append(NonlinearDelayTerm(
                f=eq.nonlinear, target=target, tau=eq.nonlinear_tau))
    return DDEProblem(
        gamma=[eq.gamma for eq in cfg.equations],
        delays=[[DelayTerm(target, beta, tau) for target, beta, tau in eq.delays]
                for eq in cfg.equations],
        g=[eq.forcing for eq in cfg.equations],
        phi=[eq.phi for eq in cfg.equations],
        b=cfg.b,
        history=history,
        nonlinear=nonlinear,
    )
