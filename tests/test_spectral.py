import numpy as np
import pytest

from anisofem.spectral import (DegenerateSpectralProblem, FourierRhs,
                               eval_series, sobolev_seminorm, spectral_solve)


def test_isotropic_limit_coefficients():
    f = FourierRhs.from_modes([(1, 1, 1.0), (2, 3, -0.5)])
    sol = spectral_solve(f, 1.0, 0.3)
    assert np.allclose(sol.u_coeff, f.coeff / (f.k ** 2 + f.l ** 2))


def test_flat_mode_kills_anisotropy():
    sol = spectral_solve(FourierRhs.from_modes([(1, 0, 1.0)]), 1e-12, 0.0)
    assert sol.u_coeff[0] == pytest.approx(1.0)
    assert sol.xi_coeff[0] == 0.0


def test_single_mode_eps0_sigma1():
    sol = spectral_solve(FourierRhs.from_modes([(1, 1, 1.0)]), 0.0, 1.0)
    assert sol.u_coeff[0] == pytest.approx(1.0 / 3.0)
    assert sol.xi_coeff[0] == pytest.approx(1.0 / 3.0)


def test_degenerate_combination_rejected():
    f = FourierRhs.from_modes([(2, 1, 1.0)])
    with pytest.raises(DegenerateSpectralProblem):
        spectral_solve(f, 0.0, 0.0)
    # flat modes alone stay solvable
    sol = spectral_solve(FourierRhs.from_modes([(2, 0, 1.0)]), 0.0, 0.0)
    assert sol.u_coeff[0] == pytest.approx(0.25)


def test_mode_validation():
    with pytest.raises(ValueError):
        FourierRhs.from_modes([])
    with pytest.raises(ValueError):
        FourierRhs.from_modes([(0, 1, 1.0)])
    with pytest.raises(ValueError):
        FourierRhs.from_modes([(1, -1, 1.0)])


@pytest.mark.parametrize("mode", [(1.5, 1, 1.0), (1, 0.5, 1.0), (np.inf, 1, 1.0),
                                  (1e20, 1, 1.0), (1, 1, np.inf), (1, 1, np.nan),
                                  (1, 1, float("1e400"))])
def test_modes_are_integral_with_finite_coefficients(mode):
    # a fractional index used to run the truncated mode, an index past
    # int64 to become an object array, and an infinite coefficient NaN
    # errors with solve_status OK
    with pytest.raises(ValueError):
        FourierRhs.from_modes([(1, 1, 1.0), mode])
    # an integral index may be given as a float, and keeps its integer type
    f = FourierRhs.from_modes([(2.0, 1.0, -0.5)])
    assert f.k.tolist() == [2] and f.l.tolist() == [1]
    assert f.k.dtype == f.l.dtype == np.int64


def test_series_values():
    sol = spectral_solve(FourierRhs.from_modes([(1, 1, 1.0)]), 0.5, 0.0)
    assert eval_series(sol, "u", np.pi / 2, 0.0) == pytest.approx(sol.u_coeff[0])
    xs = np.linspace(0, np.pi, 7)
    assert np.abs(eval_series(sol, "q", xs, np.zeros_like(xs))).max() == 0.0


def test_q_series_preconditions():
    # needs sigma = 0 ...
    sol = spectral_solve(FourierRhs.from_modes([(1, 1, 1.0)]), 0.5, 0.1)
    with pytest.raises(ValueError):
        eval_series(sol, "q", 0.5, 0.5)
    # ... and eps > 0
    with pytest.raises(ValueError):
        eval_series(spectral_solve(FourierRhs.from_modes([(1, 0, 1.0)]), 0.0, 0.0),
                    "q", 0.5, 0.5)


def test_q_relation_to_xi():
    sol = spectral_solve(FourierRhs.from_modes([(1, 1, 1.0), (2, 2, 0.3)]), 1e-3, 0.0)
    x, y = 1.1, 2.3
    expected = eval_series(sol, "xi", x, y) - eval_series(sol, "xi", x, 0.0)
    assert eval_series(sol, "q", x, y) == pytest.approx(expected, rel=1e-14)


def test_sobolev_seminorm_values():
    assert sobolev_seminorm([(1, 0, 1.0)], 0.0) == pytest.approx(1.0)
    assert sobolev_seminorm([(1, 1, 1.0)], 1.0) == pytest.approx(np.sqrt(2.0))
    f = FourierRhs.from_modes([(1, 2, 0.5), (3, 1, -1.0)])
    direct = np.sqrt(0.25 * 5.0 ** 2 + 1.0 * 10.0 ** 2)
    assert sobolev_seminorm(f, 2.0) == pytest.approx(direct)


def _random_problem(rng):
    n_modes = rng.integers(1, 8)
    modes = [(int(rng.integers(1, 12)), int(rng.integers(0, 12)),
              float(rng.standard_normal())) for _ in range(n_modes)]
    eps = float(rng.uniform(0.0, 1.0))
    sigma = float(rng.uniform(0.0, 1.0))
    if eps == 0.0 and sigma == 0.0:
        sigma = 0.5
    return FourierRhs.from_modes(modes), eps, sigma


def test_uniform_regularity_inequalities():
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(100):
        f, eps, sigma = _random_problem(rng)
        if eps == 0.0 and sigma == 0.0:
            continue
        sol = spectral_solve(f, eps, sigma)
        kk = f.k.astype(float) ** 2 + f.l.astype(float) ** 2
        # order-two gain on the primal variable, none lost on the auxiliary
        if np.any(kk * np.abs(sol.u_coeff) > np.abs(f.coeff) * (1 + 1e-13)):
            violations += 1
        if np.any(np.abs(sol.xi_coeff) > np.abs(f.coeff) * (1 + 1e-13)):
            violations += 1
        # seminorm form of the same bounds
        u_modes = list(zip(f.k, f.l, sol.u_coeff))
        assert sobolev_seminorm(u_modes, 3.0) <= sobolev_seminorm(f, 1.0) * (1 + 1e-12)
    assert violations == 0


def test_second_parallel_derivative_damping():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f, eps, _ = _random_problem(rng)
        eps = max(eps, 1e-8)
        sol = spectral_solve(f, eps, 0.0)
        l2 = f.l.astype(float) ** 2
        assert np.all(l2 * np.abs(sol.u_coeff) <= eps * np.abs(f.coeff) * (1 + 1e-13))


def test_inflow_trace_bound():
    rng = np.random.default_rng(9)
    for _ in range(50):
        f, eps, _ = _random_problem(rng)
        eps = max(eps, 1e-10)
        sol = spectral_solve(f, eps, 0.0)
        for k in np.unique(f.k):
            sel = (f.k == k) & (f.l >= 1)
            if not np.any(sel):
                continue
            trace_k = np.sum(sol.xi_coeff[sel])
            bound = np.sum(np.abs(f.coeff[sel]) / f.l[sel].astype(float) ** 2)
            assert abs(trace_k) <= bound * (1 + 1e-12)


def test_rhs_callable_matches_series():
    f = FourierRhs.from_modes([(1, 1, 1.0), (3, 2, -0.4)])
    x, y = 0.7, 1.9
    expected = np.sin(x) * np.cos(y) - 0.4 * np.sin(3 * x) * np.cos(2 * y)
    assert f(x, y) == pytest.approx(expected, rel=1e-14)
