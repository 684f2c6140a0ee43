import numpy as np
import pytest

from anisofem.fields import (ALPHA_MAX, DegenerateFieldError, FieldSpec,
                             ManufacturedCase, eval_A, eval_b, eval_field,
                             field_line_coordinate, rhs_functional)


def test_b_alpha_zero_is_e1():
    field = FieldSpec("variable_alpha", 0.0)
    b = eval_b(field, 0.3, 0.7)
    assert np.allclose(b, [1.0, 0.0], atol=1e-15)


def test_b_alpha_two_midpoint():
    b = eval_b(FieldSpec("variable_alpha", 2.0), 0.5, 0.5)
    assert b[0] == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-14)
    assert b[1] == pytest.approx(-1.0 / np.sqrt(5.0), abs=1e-14)


def test_b_aligned():
    b = eval_b(FieldSpec("aligned_e2"), 1.2, 2.3)
    assert np.allclose(b, [0.0, 1.0])


def test_alpha_guard():
    with pytest.raises(ValueError):
        FieldSpec("variable_alpha", ALPHA_MAX + 0.1)
    with pytest.raises(ValueError):
        FieldSpec("variable_alpha", -0.5)


@pytest.mark.parametrize("kind", ["variable_alpha", "aligned_e2"])
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_field_spec_refuses_nonfinite_alpha(kind, alpha):
    # NaN passed both bounds, and inf the upper one of the aligned field
    with pytest.raises(ValueError, match="finite"):
        FieldSpec(kind, alpha)


@pytest.mark.parametrize("name", ["eps", "alpha"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_manufactured_case_refuses_nonfinite_parameters(name, value):
    with pytest.raises(ValueError, match="finite"):
        ManufacturedCase("smooth", **{name: value})


def test_degenerate_field_error(monkeypatch):
    # the built-in fields never vanish, so exercise the guard directly
    import anisofem.fields as fields_mod

    monkeypatch.setattr(fields_mod, "eval_B",
                        lambda field, x, y: np.zeros(np.broadcast_shapes(
                            np.shape(x), np.shape(y)) + (2,)))
    with pytest.raises(DegenerateFieldError):
        fields_mod.eval_b(FieldSpec("variable_alpha", 0.0), 0.1, 0.1)


def test_A_identity_coefficients():
    # unit parallel and identity perpendicular coefficients collapse to Id
    for field in (FieldSpec("variable_alpha", 2.0), FieldSpec("aligned_e2")):
        A = eval_A(field, 0.37, 0.59)
        assert np.allclose(A, np.eye(2), atol=1e-14)


def test_A_axis_aligned_parallel_three():
    field = FieldSpec("variable_alpha", 0.0, a_par=lambda x, y: 3.0 * np.ones_like(np.asarray(x, dtype=float)))
    A = eval_A(field, 0.2, 0.8)
    assert np.allclose(A, np.diag([3.0, 1.0]), atol=1e-14)


def test_A_tilted_parallel_three():
    field = FieldSpec("variable_alpha", 2.0, a_par=lambda x, y: 3.0 * np.ones_like(np.asarray(x, dtype=float)))
    A = eval_A(field, 0.5, 0.5)
    assert np.allclose(A, [[2.6, -0.8], [-0.8, 1.4]], atol=1e-13)


def test_A_symmetry_and_spectral_bound():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    field = FieldSpec("variable_alpha", 2.0)
    A = eval_A(field, pts[:, 0], pts[:, 1])
    assert np.abs(A - np.swapaxes(A, -1, -2)).max() <= 1e-14
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= 1.0 - 1e-12


def test_exact_values():
    case = ManufacturedCase("smooth", 0.0, 1.0)
    assert case.u_limit(0.42, 0.5) == pytest.approx(1.0, abs=1e-15)
    case5 = ManufacturedCase("smooth", 0.0, 0.5)
    assert case5.u(0.25, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_q_vanishes_at_inflow():
    ys = np.linspace(0.0, 1.0, 17)
    for case in (ManufacturedCase("smooth", 2.0, 0.3),
                 ManufacturedCase("low_reg", 2.0, 1e-10)):
        q = case.q(np.zeros_like(ys), ys)
        assert np.abs(q).max() == 0.0


def test_limit_parallel_gradient_vanishes():
    xs = np.linspace(0, 1, 50)
    X, Y = np.meshgrid(xs, xs)
    for case_id in ("smooth", "low_reg"):
        for alpha in (0.0, 1.0, 2.0):
            field = FieldSpec("variable_alpha", alpha)
            case = ManufacturedCase(case_id, alpha, 0.7)
            b = eval_b(field, X, Y)
            g = case.grad_u_limit(X, Y)
            assert np.abs(np.sum(b * g, axis=-1)).max() <= 1e-12


@pytest.mark.parametrize("case_id,alpha", [("smooth", 0.0), ("smooth", 2.0),
                                           ("low_reg", 2.0)])
def test_gradients_match_finite_differences(case_id, alpha):
    case = ManufacturedCase(case_id, alpha, 0.4)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.15, 0.85, size=(25, 2))
    d = 1e-5
    for value, grad in ((case.u, case.grad_u),
                        (case.perturbation, case.grad_perturbation),
                        (case.u_limit, case.grad_u_limit)):
        for x, y in pts:
            gx = (value(x + d, y) - value(x - d, y)) / (2 * d)
            gy = (value(x, y + d) - value(x, y - d)) / (2 * d)
            g = grad(x, y)
            scale = max(1.0, abs(gx), abs(gy))
            assert abs(g[0] - gx) / scale < 1e-6
            assert abs(g[1] - gy) / scale < 1e-6


def test_low_reg_profile_endpoints():
    case = ManufacturedCase("low_reg", 0.0, 1e-10)
    # t^2 log t extends by zero; the affine tail gives the printed constants
    assert case.u_limit(0.3, 0.0) == pytest.approx(-1.5)
    assert case.u_limit(0.3, 1.0) == pytest.approx(6.0)


def test_low_reg_rejects_negative_coordinate():
    case = ManufacturedCase("low_reg", 0.0, 1e-10)
    with pytest.raises(ValueError):
        case.u_limit(0.0, -0.5)


def test_field_line_coordinate_is_invariant():
    field = FieldSpec("variable_alpha", 2.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.1, 0.9, size=(30, 2))
    b = eval_b(field, pts[:, 0], pts[:, 1])
    d = 1e-6
    tx = (field_line_coordinate(2.0, pts[:, 0] + d, pts[:, 1])
          - field_line_coordinate(2.0, pts[:, 0] - d, pts[:, 1])) / (2 * d)
    ty = (field_line_coordinate(2.0, pts[:, 0], pts[:, 1] + d)
          - field_line_coordinate(2.0, pts[:, 0], pts[:, 1] - d)) / (2 * d)
    assert np.abs(b[:, 0] * tx + b[:, 1] * ty).max() < 1e-9


def test_rhs_functional_eps_one_drops_parallel_term():
    # at eps = 1 the flux reduces to A grad(u), A = Id here
    field = FieldSpec("variable_alpha", 2.0)
    case = ManufacturedCase("smooth", 2.0, 1.0)
    F = rhs_functional(case, field).flux(
        0.3, 0.6, lambda f: eval_field(f, 0.3, 0.6))
    assert np.allclose(F, case.grad_u(0.3, 0.6), atol=1e-13)


@pytest.mark.parametrize("case_id", ["smooth", "low_reg"])
def test_exact_values_and_flux_evaluate_t_once(case_id, monkeypatch):
    # case.u, case.grad_u and the load's flux each evaluate the field-line
    # coordinate t, and its gradient where they need it, once per call
    from anisofem import fields
    calls = {"t": 0, "grad_t": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fields, "field_line_coordinate",
                        counted("t", fields.field_line_coordinate))
    monkeypatch.setattr(fields, "_grad_t", counted("grad_t", fields._grad_t))
    field = FieldSpec("variable_alpha", 2.0)
    case = ManufacturedCase(case_id, 2.0, 0.3)
    x, y = np.meshgrid(np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.9, 4))
    flux = rhs_functional(case, field).flux
    for evaluate, t_calls, grad_t_calls in (
            (lambda: case.u(x, y), 1, 0),
            (lambda: case.grad_u(x, y), 1, 1),
            (lambda: flux(x, y, lambda f: eval_field(f, x, y)), 1, 1)):
        calls.update(t=0, grad_t=0)
        evaluate()
        assert calls == {"t": t_calls, "grad_t": grad_t_calls}
