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


def test_validate_quadratic_all_pass(quad_cost):
    report = validate_cost(quad_cost, 50, 1e-9)
    assert [c.name for c in report.checks] == [
        "finiteness", "nonnegativity", "symmetry", "diagonal", "reflection"]
    assert not report.failed and not report.warned
    assert report.check("symmetry").max_violation == 0.0


def test_validate_negative_cost_fails():
    c = expression_cost("x - y")
    report = validate_cost(c, 20, 1e-9)
    assert report.check("nonnegativity").status == "fail"
    assert report.failed


def test_validate_asymmetric_table_fails():
    c = tabulated_cost(np.array([[0.0, 1.0], [2.0, 0.0]]))
    report = validate_cost(c, 16, 1e-9)
    assert report.check("symmetry").status == "fail"


def test_validate_diagonal_and_reflection_warn_only():
    c = expression_cost("x * y")
    report = validate_cost(c, 20, 1e-9)
    assert report.check("diagonal").status == "warn"
    assert report.check("reflection").status == "warn"
    assert not report.failed and report.warned


def test_validate_nonfinite_fails():
    c = expression_cost("1 / (x + y)")
    report = validate_cost(c, 10, 1e-9)
    assert report.check("finiteness").status == "fail"


def test_validate_argument_checks(quad_cost):
    with pytest.raises(ValueError):
        validate_cost(quad_cost, 1, 1e-9)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            validate_cost(quad_cost, 10, tol)
