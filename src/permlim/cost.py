"""Cost functions c(x, y) on the unit square and their validation.

The constructors below build the INI ``[cost]`` families:

* ``quadratic``: c = beta * (x - y)**2, twice continuously differentiable.
* ``absolute``:  c = beta * |x - y|, continuous but with a kink on the
  diagonal; flagged C0 so downstream solvers can warn.
* ``tabulated``: bilinear interpolation of an m x m grid of samples at the
  uniform nodes i/(m-1), i = 0..m-1.
* ``custom-expression``: a parsed arithmetic expression in ``x`` and ``y``.

All evaluators broadcast over numpy arrays and are deterministic: the same
arguments always produce bit-identical values.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MIN_GRID = 2


@dataclass(frozen=True)
class CostFunction:
    """An evaluatable cost c:[0,1]^2 -> [0, inf), labelled for messages.

    ``smoothness_claim`` is "C2" or "C0"; it is a declaration, not a verified
    property (automatic smoothness checking is out of scope).
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    smoothness_claim: str
    label: str

    def __post_init__(self):
        if self.smoothness_claim not in ("C2", "C0"):
            raise ValueError("smoothness_claim must be 'C2' or 'C0'")

    def __call__(self, x, y):
        return self.evaluator(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "warn" | "fail"
    max_violation: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_cost`, one entry per named check."""

    checks: tuple[CheckResult, ...]
    grid_size: int

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)


def quadratic_cost(beta: float = 1.0) -> CostFunction:
    """c(x, y) = beta * (x - y)**2 with beta >= 0."""
    beta = _check_beta(beta)

    def ev(x, y):
        d = x - y
        return beta * d * d

    return CostFunction(ev, "C2", f"quadratic(beta={beta:g})")


def absolute_cost(beta: float = 1.0) -> CostFunction:
    """c(x, y) = beta * |x - y|; continuous only, hence the C0 claim."""
    beta = _check_beta(beta)

    def ev(x, y):
        return beta * np.abs(x - y)

    return CostFunction(ev, "C0", f"absolute(beta={beta:g})")


def tabulated_cost(values: np.ndarray) -> CostFunction:
    """Bilinear interpolation of an m x m table sampled at nodes i/(m-1)."""
    ev, m = bilinear_interpolant(values)
    return CostFunction(ev, "C0", f"tabulated({m}x{m})")


def bilinear_interpolant(values) -> tuple[Callable, int]:
    """Bilinear interpolant on [0,1]^2 of an m x m table at nodes i/(m-1).

    The table is validated (square, m >= 2, finite) and frozen as a private
    copy; returns the evaluator f(x, y), clamped to the unit square, and m.
    """
    table = np.array(values, dtype=float)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] < 2:
        raise ValueError("a tabulated function needs a square table with m >= 2")
    if not np.isfinite(table).all():
        raise ValueError("a tabulated function needs finite values")
    table.setflags(write=False)
    m = table.shape[0]

    def interpolate(x, y):
        ti = np.clip(np.asarray(x, dtype=float) * (m - 1), 0.0, m - 1.0)
        tj = np.clip(np.asarray(y, dtype=float) * (m - 1), 0.0, m - 1.0)
        i0 = np.minimum(np.floor(ti).astype(int), m - 2)
        j0 = np.minimum(np.floor(tj).astype(int), m - 2)
        fi = ti - i0
        fj = tj - j0
        return ((1 - fi) * (1 - fj) * table[i0, j0]
                + (1 - fi) * fj * table[i0, j0 + 1]
                + fi * (1 - fj) * table[i0 + 1, j0]
                + fi * fj * table[i0 + 1, j0 + 1])

    return interpolate, m


def expression_cost(expr: str, smoothness_claim: str = "C2") -> CostFunction:
    """Cost from an arithmetic expression in x and y.

    Accepts numbers, the names ``x``, ``y``, ``pi`` and ``e``, the operators
    + - * / ** and unary minus, and calls to abs, exp, log, sqrt, sin, cos,
    tan. Anything else, or nesting deeper than Python's recursion limit
    lets the parser follow, is rejected before evaluation.
    """
    try:
        ev = _compile_expression(expr)
    except RecursionError:  # parse, transform and compile recurse per level
        raise ValueError("cost expression is nested too deeply") from None
    return CostFunction(ev, smoothness_claim, f"expr({expr})")


def validate_cost(cost: CostFunction, grid_size: int, tol: float) -> ValidationReport:
    """Check the cost on the grid {i/grid_size : i = 0..grid_size}.

    Finiteness, nonnegativity and symmetry violations above ``tol`` fail;
    a nonzero diagonal or broken reflection symmetry c(1-x,1-y) = c(x,y)
    only warns, since the limit theory does not use those two conditions.
    """
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be >= {MIN_GRID}")
    if not tol > 0:  # also rejects nan
        raise ValueError("tol must be positive")
    t = np.arange(grid_size + 1) / grid_size
    X, Y = t[:, None], t[None, :]
    with np.errstate(all="ignore"):  # non-finite values are reported, not raised
        C = np.asarray(cost.evaluator(X, Y), dtype=float)

    finite_bad = ~np.isfinite(C)
    Cf = np.where(finite_bad, 0.0, C)
    table = (
        ("finiteness", "fail", float("inf") if finite_bad.any() else 0.0),
        ("nonnegativity", "fail", float(max(0.0, -Cf.min()))),
        ("symmetry", "fail", float(np.abs(Cf - Cf.T).max())),
        ("diagonal", "warn", float(np.abs(np.diag(Cf)).max())),
        ("reflection", "warn", float(np.abs(Cf - Cf[::-1, ::-1]).max())),
    )
    return ValidationReport(
        tuple(CheckResult(name, level if violation > tol else "pass", violation)
              for name, level, violation in table),
        grid_size)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be a finite nonnegative real")
    return beta


_ALLOWED_CALLS = {
    "abs": np.abs, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
}
_ALLOWED_NAMES = {"x", "y", "pi", "e"}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Load,
)


class _FloatConstants(ast.NodeTransformer):
    """Replaces each numeric constant by a name bound in env to np.float64.

    Constant-only arithmetic then runs in float64, so ``10**400`` overflows
    to inf, which the finiteness checks reject, instead of building an
    unbounded Python int.
    """

    def __init__(self, env: dict):
        self.env = env

    def visit_Constant(self, node):
        name = f"_c{len(self.env)}"
        self.env[name] = np.float64(node.value)
        return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)


def _compile_expression(expr: str) -> Callable:
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse cost expression {expr!r}: {exc}") from None
    call_funcs = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"disallowed construct {type(node).__name__} in cost expression")
        if (isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES
                and id(node) not in call_funcs):
            raise ValueError(f"disallowed name {node.id!r} in cost expression")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ValueError("only abs/exp/log/sqrt/sin/cos/tan calls allowed")
            if node.keywords or len(node.args) != 1:
                raise ValueError("cost expression functions take one plain argument")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError("only numeric constants allowed in cost expression")
    env = dict(_ALLOWED_CALLS, pi=math.pi, e=math.e)
    code = compile(_FloatConstants(env).visit(tree), "<cost-expression>", "eval")

    def ev(x, y):
        value = np.asarray(eval(code, {"__builtins__": {}}, dict(env, x=x, y=y)),
                           dtype=float)
        # an expression without x or y still fills the whole block
        return np.broadcast_to(value, np.broadcast_shapes(x.shape, y.shape))

    return ev
