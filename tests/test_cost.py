import math

import numpy as np
import pytest

from permlim import (absolute_cost, expression_cost, load_matrix,
                     quadratic_cost, tabulated_cost, validate_cost)


def test_quadratic_values():
    c = quadratic_cost(2.0)
    assert float(c(0.25, 0.75)) == pytest.approx(2.0 * 0.25, abs=1e-15)
    assert float(c(0.4, 0.4)) == 0.0
    assert c.smoothness_claim == "C2"


def test_absolute_values_and_claim():
    c = absolute_cost(3.0)
    assert float(c(0.1, 0.6)) == pytest.approx(1.5, abs=1e-15)
    assert c.smoothness_claim == "C0"


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
def test_bad_beta_rejected(beta):
    with pytest.raises(ValueError):
        quadratic_cost(beta)


def test_tabulated_exact_at_knots_and_bilinear_between():
    vals = np.array([[0.0, 1.0, 2.0],
                     [1.0, 3.0, 4.0],
                     [2.0, 4.0, 8.0]])
    c = tabulated_cost(vals)
    for i in range(3):
        for j in range(3):
            assert float(c(i / 2, j / 2)) == vals[i, j]
    # midpoint of the four upper-left knots averages them
    assert float(c(0.25, 0.25)) == pytest.approx(1.25, abs=1e-15)


def test_tabulated_requires_square():
    with pytest.raises(ValueError):
        tabulated_cost(np.ones((2, 3)))
    with pytest.raises(ValueError):
        tabulated_cost(np.ones((1, 1)))


def test_load_tabulated_roundtrip(tmp_path):
    p = tmp_path / "cost.txt"
    p.write_text("2\n0.0 0.5\n0.5 0.0\n")
    c = tabulated_cost(load_matrix(p))
    assert float(c(0.0, 1.0)) == 0.5
    assert float(c(1.0, 1.0)) == 0.0


def test_expression_matches_quadratic():
    c = expression_cost("(x - y)**2")
    q = quadratic_cost(1.0)
    t = np.linspace(0, 1, 11)
    np.testing.assert_allclose(c(t[:, None], t[None, :]),
                               q(t[:, None], t[None, :]), atol=1e-15)


def test_expression_functions_and_constants():
    c = expression_cost("abs(sin(pi * (x - y)))")
    assert float(c(0.5, 0.0)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("expr", [
    "__import__('os')",
    "x.__class__",
    "open('f')",
    "lambda: 1",
    "z + 1",
    "foo(x)",
    "exp(x, y)",
    "'s'",
])
def test_expression_rejects_unsafe(expr):
    with pytest.raises(ValueError):
        expression_cost(expr)


def test_expression_syntax_error():
    with pytest.raises(ValueError, match="cannot parse"):
        expression_cost("x +* y")


def test_expression_depth_limit():
    # the depth at which parsing recurses too far depends on the stack, so
    # only a depth well inside and two well outside the limit are tested
    x = np.linspace(0.0, 1.0, 5)
    c = expression_cost("x" + "+x" * 199)
    np.testing.assert_allclose(c(x, 0.0), 200.0 * x, rtol=1e-15)
    for terms in (1000, 20000):
        with pytest.raises(ValueError, match="nested too deeply"):
            expression_cost("x" + "+x" * (terms - 1))


def _by_name(report):
    return {c.name: c for c in report.checks}


def test_validate_quadratic_all_pass(quad_cost):
    report = validate_cost(quad_cost, 50, 1e-9)
    assert [c.name for c in report.checks] == [
        "finiteness", "nonnegativity", "symmetry", "diagonal", "reflection"]
    assert not report.failed
    assert all(c.status == "pass" for c in report.checks)
    assert _by_name(report)["symmetry"].max_violation == 0.0


def test_validate_negative_cost_fails():
    c = expression_cost("x - y")
    report = validate_cost(c, 20, 1e-9)
    assert _by_name(report)["nonnegativity"].status == "fail"
    assert report.failed


def test_validate_asymmetric_table_fails():
    c = tabulated_cost(np.array([[0.0, 1.0], [2.0, 0.0]]))
    report = validate_cost(c, 16, 1e-9)
    assert _by_name(report)["symmetry"].status == "fail"


def test_validate_diagonal_and_reflection_warn_only():
    c = expression_cost("x * y")
    report = validate_cost(c, 20, 1e-9)
    checks = _by_name(report)
    assert checks["diagonal"].status == "warn"
    assert checks["reflection"].status == "warn"
    assert not report.failed


def test_expression_without_x_or_y_fills_the_block():
    t = np.linspace(0.0, 1.0, 21)
    X, Y = t[:, None], t[None, :]
    np.testing.assert_array_equal(expression_cost("0.5")(X, Y),
                                  np.full((21, 21), 0.5))
    checks = _by_name(validate_cost(expression_cost("0.5"), 20, 1e-9))
    assert [c.status for c in checks.values()] == [
        "pass", "pass", "pass", "warn", "pass"]
    assert checks["diagonal"].max_violation == 0.5
    # an x-only cost is read on the whole grid, its diagonal included
    checks = _by_name(validate_cost(expression_cost("x"), 20, 1e-9))
    assert checks["symmetry"].max_violation == 1.0
    assert checks["diagonal"].max_violation == 1.0


def test_validate_nonfinite_fails():
    c = expression_cost("1 / (x + y)")
    report = validate_cost(c, 10, 1e-9)
    assert _by_name(report)["finiteness"].status == "fail"


def test_validate_argument_checks(quad_cost):
    with pytest.raises(ValueError):
        validate_cost(quad_cost, 1, 1e-9)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            validate_cost(quad_cost, 10, tol)
