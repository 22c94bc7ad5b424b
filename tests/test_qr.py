import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

import selqr.qr
from selqr import (InputError, NumericalError, QuantileProblem, check_loss,
                   first_stage, quantile_score, solve)
from selqr.qr import kb_stationarity
from selqr.simlab import SimulationSpec, generate
from oracles import brute_force_qr, lp_qr_objective


class TestCheckLoss:
    def test_positive_residual(self):
        assert check_loss(1.0, 0.5) == 0.5

    def test_negative_residual(self):
        assert check_loss(-1.0, 0.25) == 0.75

    def test_zero(self):
        assert check_loss(0.0, 0.9) == 0.0

    def test_vectorized(self):
        assert_allclose(check_loss(np.array([1.0, -1.0]), 0.25), [0.25, 0.75])


class TestQuantileScore:
    def test_values(self):
        assert quantile_score(2.0, 0.5) == 0.5
        assert quantile_score(-2.0, 0.5) == -0.5

    def test_zero_uses_strict_inequality(self):
        assert quantile_score(0.0, 0.3) == pytest.approx(0.3)


def intercept_problem(y, w, tau):
    y = np.asarray(y, dtype=float)
    return QuantileProblem(Z=np.ones((len(y), 1)), y=y,
                           w=np.asarray(w, dtype=float), tau=tau)


class TestSolve:
    def test_sample_median(self):
        sol = solve(intercept_problem([1, 2, 3], [1, 1, 1], 0.5))
        assert_allclose(sol.theta, [2.0], atol=1e-9)

    def test_weighted_median_forces_largest_point(self):
        sol = solve(intercept_problem([1, 2, 4], [1, 1, 3], 0.5))
        assert_allclose(sol.theta, [4.0], atol=1e-9)
        # a 1-D Z is one column, in the problem and in the certificate
        y, w = np.array([1.0, 2.0, 4.0]), np.array([1.0, 1.0, 3.0])
        vector = solve(QuantileProblem(Z=np.ones(3), y=y, w=w, tau=0.5))
        assert np.array_equal(vector.theta, sol.theta) and vector.objective == sol.objective
        resid = y - sol.theta
        assert (kb_stationarity(np.ones(3), resid, w, 0.5, zero_tol=1e-9)
                == kb_stationarity(np.ones((3, 1)), resid, w, 0.5, zero_tol=1e-9))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for k in range(25):
            n, d = 12, 3
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
            y = rng.standard_normal(n) * 2
            w = rng.uniform(1, 3, n)
            tau = rng.choice([0.1, 0.25, 0.5, 0.9])
            sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))
            _, obj_oracle = brute_force_qr(Z, y, w, tau)
            assert sol.objective <= obj_oracle + 1e-6
            assert abs(sol.objective - obj_oracle) < 1e-6

    def test_unweighted_consistency(self):
        rng = np.random.default_rng(4)
        Z = np.column_stack([np.ones(10), rng.standard_normal(10)])
        y = rng.standard_normal(10)
        sol = solve(QuantileProblem(Z=Z, y=y, w=np.ones(10), tau=0.25))
        theta_oracle, obj_oracle = brute_force_qr(Z, y, np.ones(10), 0.25)
        assert_allclose(sol.objective, obj_oracle, atol=1e-8)
        assert_allclose(sol.theta, theta_oracle, atol=1e-6)

    def test_vertex_interpolation(self):
        rng = np.random.default_rng(2)
        n, d = 40, 3
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        y = rng.standard_normal(n)
        sol = solve(QuantileProblem(Z=Z, y=y, w=rng.uniform(1, 2, n), tau=0.4))
        assert len(sol.active_set) == d
        resid = y - Z @ sol.theta
        assert np.abs(resid[list(sol.active_set)]).max() < 1e-8

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(9)
        Z = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        y = rng.standard_normal(30)
        w = rng.uniform(0.5, 2, 30)
        t1 = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.3)).theta
        t2 = solve(QuantileProblem(Z=Z, y=y, w=7.5 * w, tau=0.3)).theta
        assert_allclose(t1, t2, atol=1e-8)

    def test_equivariance(self):
        rng = np.random.default_rng(12)
        Z = np.column_stack([np.ones(25), rng.standard_normal((25, 2))])
        y = rng.standard_normal(25)
        w = rng.uniform(1, 2, 25)
        base = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.6)).theta
        gamma = np.array([0.5, -1.0, 2.0])
        shifted = solve(QuantileProblem(Z=Z, y=y + Z @ gamma, w=w, tau=0.6)).theta
        assert_allclose(shifted, base + gamma, atol=1e-7)
        scaled = solve(QuantileProblem(Z=Z, y=3.0 * y, w=w, tau=0.6)).theta
        assert_allclose(scaled, 3.0 * base, atol=1e-7)

    def test_subgradient_certificate(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = 20
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
            y = rng.standard_normal(n)
            w = rng.uniform(1, 3, n)
            sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.35))
            assert kb_stationarity(Z, y - Z @ sol.theta, w, 0.35, zero_tol=1e-9) <= 1e-7

    def test_zero_weight_rows_dropped(self):
        y = np.array([1.0, np.nan, 3.0, 2.0])
        w = np.array([1.0, 0.0, 1.0, 1.0])
        Z = np.ones((4, 1))
        Z[1] = np.nan
        sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.5))
        assert_allclose(sol.theta, [2.0], atol=1e-9)

    def test_rank_deficient_design(self):
        # a repeated column, and an all-zero one, which has no scale to
        # divide by
        for col in (np.ones(10), np.zeros(10)):
            Z = np.column_stack([np.ones(10), col])
            with pytest.raises(NumericalError, match="rank"):
                solve(QuantileProblem(Z=Z, y=np.arange(10.0), w=np.ones(10), tau=0.5))

    def test_tau_validation(self):
        with pytest.raises(InputError):
            QuantileProblem(Z=np.ones((3, 1)), y=np.arange(3.0),
                            w=np.ones(3), tau=1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(InputError):
            QuantileProblem(Z=np.ones((3, 1)), y=np.arange(3.0),
                            w=np.array([1.0, -1.0, 1.0]), tau=0.5)

    @pytest.mark.parametrize("bad_w, bad_z, message", [
        (np.nan, 0.0, "weights must be finite"),      # once silently dropped
        (np.inf, 0.0, "weights must be finite"),      # once a NumericalError
        (1.0, np.nan, "non-finite design entry"),     # once a raw LinAlgError
    ], ids=["nan_weight", "inf_weight", "nan_design"])
    def test_non_finite_weights_and_design_rejected(self, bad_w, bad_z, message):
        rng = np.random.default_rng(0)
        Z = np.column_stack([np.ones(20), rng.standard_normal(20)])
        w = np.ones(20)
        Z[3, 1], w[3] = bad_z, bad_w
        with pytest.raises(InputError, match=message):
            solve(QuantileProblem(Z=Z, y=rng.standard_normal(20), w=w, tau=0.5))


def non_optimal_vertex():
    """A vertex of an n = 8, d = 3 median regression that is not optimal but
    passes the coordinatewise interval test."""
    rng = np.random.default_rng(0)
    n = 8
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = rng.standard_normal(n)
    rows = [1, 2, 7]
    return Z, y, np.ones(n), 0.5, np.linalg.solve(Z[rows], y[rows])


def certificate_slack(Z, y, w):
    return selqr.qr._tolerances(Z, y, w)[1]


class TestCertificate:
    def test_kb_stationarity_rejects_a_non_optimal_vertex(self):
        Z, y, w, tau, theta = non_optimal_vertex()
        resid = y - Z @ theta
        _, obj_oracle = brute_force_qr(Z, y, w, tau)
        assert np.sum(w * check_loss(resid, tau)) > obj_oracle + 0.3
        assert kb_stationarity(Z, resid, w, tau, zero_tol=1e-9) > 0.5

    def test_solve_rejects_a_non_optimal_vertex(self, monkeypatch):
        # both paths are handed the same non-optimal vertex
        Z, y, w, tau, theta = non_optimal_vertex()
        fake = SimpleNamespace(status=0, message="", nit=1,
                               eqlin=SimpleNamespace(marginals=-theta))
        monkeypatch.setattr(selqr.qr, "_frisch_newton", lambda *a: (theta.copy(), 1))
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: fake)
        with pytest.raises(NumericalError, match="certificate"):
            solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))

    def test_exact_on_every_vertex(self):
        # the certificate accepts a vertex exactly when it is optimal
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = 7
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
            y = rng.standard_normal(n)
            w = rng.uniform(0.5, 3, n)
            tau = rng.choice([0.1, 0.25, 0.5, 0.9])
            _, obj_oracle = brute_force_qr(Z, y, w, tau)
            for rows in itertools.combinations(range(n), 3):
                theta = np.linalg.solve(Z[list(rows)], y[list(rows)])
                resid = y - Z @ theta
                optimal = np.sum(w * check_loss(resid, tau)) <= obj_oracle + 1e-9
                accepted = (kb_stationarity(Z, resid, w, tau, zero_tol=1e-9)
                            <= certificate_slack(Z, y, w))
                assert accepted == optimal

    def test_degenerate_optimum_passes(self):
        # integer data: more than d zero residuals, the bounded
        # least-squares branch
        rng = np.random.default_rng(5)
        n = 60
        x = rng.integers(0, 3, n).astype(float)
        Z = np.column_stack([np.ones(n), x])
        y = rng.integers(0, 5, n).astype(float)
        w = rng.choice([1.0, 2.0], n)
        for tau in (0.25, 0.5, 0.8):
            sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))
            assert len(sol.active_set) > 2
            assert (kb_stationarity(Z, y - Z @ sol.theta, w, tau, zero_tol=1e-9)
                    <= certificate_slack(Z, y, w))

    def test_interpolated_rows_score_tau(self):
        # an exact re-solve alone leaves a negative residual on 3 of these
        # 30 problems
        rng = np.random.default_rng(8)
        for tau in [0.2, 0.5, 0.7] * 10:
            n = 200
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2)) * 3])
            y = 10 + rng.standard_normal(n) * 5
            sol = solve(QuantileProblem(Z=Z, y=y, w=rng.uniform(1, 20, n), tau=tau))
            active = list(sol.active_set)
            resid = (y - Z @ sol.theta)[active]
            assert len(active) == 3 and np.abs(resid).max() < 1e-12
            assert (quantile_score(resid, tau) == tau).all()


def affine_direction(Z, w, tau, x, zl, zu):
    """The interior point's predictor direction at (x, zl, zu), solved
    without the Cholesky routines: (s, dx, dzl, dzu)."""
    s = w - x
    D = 1.0 / (zl / x + zu / s)
    q = zl - zu
    rhs = (1 - tau) * Z.T @ w - Z.T @ x + Z.T @ (D * q)
    dx = D * (Z @ np.linalg.solve(Z.T @ (D[:, None] * Z), rhs) - q)
    return s, dx, -zl * (1 + dx / x), -zu * (1 - dx / s)


def corrector_direction(Z, w, tau, x, zl, zu):
    """Mehrotra's corrected direction at (x, zl, zu), from the predictor's
    step lengths by ratios: (s, dx, dzl, dzu)."""
    s, dx, dzl, dzu = affine_direction(Z, w, tau, x, zl, zu)
    ap, ad = ratio_step_lengths(x, s, zl, zu, dx, dzl, dzu)
    gap = x @ zl + s @ zu
    g = (x + ap * dx) @ (zl + ad * dzl) + (s - ap * dx) @ (zu + ad * dzu)
    mu = gap * (g / gap) ** 3 / (2 * len(x))
    D = 1.0 / (zl / x + zu / s)
    q = zl - zu
    dr = D * (mu * (1 / s - 1 / x) + dx * dzl / x + dx * dzu / s)
    rhs = (1 - tau) * Z.T @ w - Z.T @ x + Z.T @ (D * q) + Z.T @ dr
    dxc = D * (Z @ np.linalg.solve(Z.T @ (D[:, None] * Z), rhs) - q) - dr
    return (s, dxc, (mu - zl * dxc - dx * dzl) / x - zl,
            (mu + zu * dxc + dx * dzu) / s - zu)


def ratio_step_lengths(x, s, zl, zu, dx, dzl, dzu):
    """Oracle: FN_STEP of the smallest ratio to the boundary by division,
    over the rows that move towards it, at most 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        primal = (np.where(dx < 0, x, s) / np.abs(dx)).min()
        dual = min(np.where(dzl < 0, zl / -dzl, np.inf).min(),
                   np.where(dzu < 0, zu / -dzu, np.inf).min())
    return min(1.0, selqr.qr.FN_STEP * primal), min(1.0, selqr.qr.FN_STEP * dual)


def closed_form_step_lengths(x, s, zl, zu, dx, dzl, dzu):
    """qr._step_lengths from the reciprocals the interior point forms."""
    def reciprocal(z):
        return np.divide(1.0, z, out=np.zeros_like(z), where=z > 0)
    return selqr.qr._step_lengths(1.0 / x, 1.0 / s, reciprocal(zl), reciprocal(zu),
                                  dx, dzl, dzu)


def positive_iterate(seed):
    rng = np.random.default_rng(seed)
    n = 200
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    w = rng.uniform(0.5, 3, n)
    x = w * rng.uniform(0.01, 0.99, n)
    zl, zu = rng.exponential(size=(2, n))
    return Z, w, x, zl, zu


def first_iterate(tau):
    # at a = 0, zl = max(-r, 0) and zu = max(r, 0) are exactly zero on
    # every row whose least-squares residual is not near zero
    rng = np.random.default_rng(8)
    n = 300
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y, w = rng.standard_normal(n), rng.uniform(0.5, 3, n)
    r = y - Z @ np.linalg.solve(Z.T @ Z, Z.T @ y)
    return Z, w, (1 - tau) * w, np.maximum(-r, 0.0), np.maximum(r, 0.0)


class TestStepLengths:
    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_on_positive_iterates(self, seed):
        Z, w, x, zl, zu = positive_iterate(seed)
        s, dx, dzl, dzu = affine_direction(Z, w, 0.3, x, zl, zu)
        assert_allclose(closed_form_step_lengths(x, s, zl, zu, dx, dzl, dzu),
                        ratio_step_lengths(x, s, zl, zu, dx, dzl, dzu),
                        rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_zero_slacks_of_the_first_iterate_block_nothing(self, tau):
        Z, w, x, zl, zu = first_iterate(tau)
        assert (zl == 0).sum() > 100 and (zu == 0).sum() > 100
        s, dx, dzl, dzu = affine_direction(Z, w, tau, x, zl, zu)
        reference = ratio_step_lengths(x, s, zl, zu, dx, dzl, dzu)
        assert min(reference) < 1.0
        assert_allclose(closed_form_step_lengths(x, s, zl, zu, dx, dzl, dzu),
                        reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("start", ["positive", "first"])
    def test_closed_form_on_a_corrector_direction(self, start):
        # the corrector moves a zero slack up, by mu/x or mu/s, so there too
        # it blocks nothing
        Z, w, x, zl, zu = positive_iterate(0) if start == "positive" else first_iterate(0.5)
        s, dx, dzl, dzu = corrector_direction(Z, w, 0.5, x, zl, zu)
        assert (dzl[zl == 0] > 0).all() and (dzu[zu == 0] > 0).all()
        reference = ratio_step_lengths(x, s, zl, zu, dx, dzl, dzu)
        assert min(reference) < 1.0
        assert_allclose(closed_form_step_lengths(x, s, zl, zu, dx, dzl, dzu),
                        reference, rtol=1e-12, atol=0)


def count_linprog_calls(monkeypatch):
    """Record the iteration count of every HiGHS call."""
    calls = []
    real = scipy.optimize.linprog

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res.nit)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    return calls


def certified(Z, y, w, tau, theta):
    zero_tol, slack = selqr.qr._tolerances(Z, y, w)
    return kb_stationarity(Z, y - Z @ theta, w, tau, zero_tol=zero_tol) <= slack


def raise_linalg_error(*args):
    raise np.linalg.LinAlgError("not positive definite")


class TestFallback:
    @pytest.mark.parametrize("stop", ["cholesky", "rejected", "cap"])
    def test_highs_certifies_when_the_interior_point_stops(self, monkeypatch, stop):
        Z, y, w, tau, bad_theta = non_optimal_vertex()
        if stop == "cholesky":
            monkeypatch.setattr(selqr.qr, "_frisch_newton", raise_linalg_error)
        elif stop == "rejected":
            monkeypatch.setattr(selqr.qr, "_frisch_newton",
                                lambda *a: (bad_theta.copy(), 1))
        else:
            monkeypatch.setattr(selqr.qr, "FN_MAX_ITER", 1)
        calls = count_linprog_calls(monkeypatch)
        sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))
        assert calls == [sol.iterations] and sol.path == "highs"
        assert certified(Z, y, w, tau, sol.theta)
        _, obj_oracle = brute_force_qr(Z, y, w, tau)
        assert abs(sol.objective - obj_oracle) < 1e-9

    def test_no_fallback_on_continuous_data(self, monkeypatch):
        calls = count_linprog_calls(monkeypatch)
        rng = np.random.default_rng(3)
        Z = np.column_stack([np.ones(300), rng.standard_normal((300, 2))])
        sol = solve(QuantileProblem(Z=Z, y=rng.standard_normal(300),
                                    w=rng.uniform(0.5, 3, 300), tau=0.3))
        assert calls == [] and len(sol.active_set) == 3
        assert sol.path == "interior_point" and 0 < sol.iterations < selqr.qr.FN_MAX_ITER

    def test_tied_integer_problem_reaches_highs(self, monkeypatch):
        # Z'DZ loses its Cholesky factor as the iterate nears the flat face;
        # 6 of the generator's first 400 seeds do, 103 the first of them
        rng = np.random.default_rng(103)
        n = 30
        Z = np.column_stack([np.ones(n), rng.integers(0, 3, (n, 2))]).astype(float)
        y = rng.integers(0, 5, n).astype(float)
        w = np.ones(n)
        with pytest.raises(np.linalg.LinAlgError):
            selqr.qr._frisch_newton(Z, y, w, 0.75)
        calls = count_linprog_calls(monkeypatch)
        sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.75))
        assert calls == [sol.iterations] and sol.path == "highs"
        assert certified(Z, y, w, 0.75, sol.theta)
        assert sol.objective == pytest.approx(lp_qr_objective(Z, y, w, 0.75),
                                              rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_highs_certifies_in_any_units_of_y(self, monkeypatch, scale):
        # HiGHS's dual feasibility tolerance is absolute: posed in the raw
        # units of y * 1e-12, dual simplex stopped at a vertex the
        # certificate rejects on 9 of the generator's first 400 seeds, 114
        # one of them
        monkeypatch.setattr(selqr.qr, "_frisch_newton", raise_linalg_error)
        rng = np.random.default_rng(114)
        n = 30
        Z = np.column_stack([np.ones(n), rng.integers(0, 3, (n, 2))]).astype(float)
        y = rng.integers(0, 5, n).astype(float)
        w = np.ones(n)
        sol = solve(QuantileProblem(Z=Z, y=scale * y, w=w, tau=0.75))
        assert sol.path == "highs" and certified(Z, scale * y, w, 0.75, sol.theta)
        # HiGHS's own point here has only 2 zero residuals: not a vertex
        assert len(sol.active_set) >= 3
        assert sol.objective == pytest.approx(scale * lp_qr_objective(Z, y, w, 0.75),
                                              rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("n", [50, 200, 1000])
    def test_zero_outcome_needs_no_fallback(self, monkeypatch, n):
        # sum w|y| = 0 must not ask the interior point for a zero duality gap
        def no_highs(*args):
            raise AssertionError("HiGHS fallback ran")
        monkeypatch.setattr(selqr.qr, "_highs_vertex", no_highs)
        rng = np.random.default_rng(n)
        Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        sol = solve(QuantileProblem(Z=Z, y=np.zeros(n), w=np.ones(n), tau=0.5))
        assert_allclose(sol.theta, 0.0, atol=1e-12)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)


def seed42_iv_problem():
    """Replication 3 of SimulationSpec("C", "M2", n=1000, seed=42200026),
    semiparametric_iv weights at tau = 0.5. With HiGHS's default dual
    feasibility tolerance, dual simplex stopped at a vertex 6.7e-8 above
    the optimum here, which the certificate rejected."""
    data = generate(SimulationSpec("C", "M2", n=1000, reps=4, seed=42200026), 3).data
    fs = first_stage.estimate_unconstrained(data)
    w = first_stage.weights(fs, data).omega
    return QuantileProblem(Z=data.design_z(), y=data.y_filled(np.nan), w=w, tau=0.5)


class TestSeed42Fault:
    def test_solve_certifies(self):
        problem = seed42_iv_problem()
        sol = solve(problem)
        keep = problem.w > 0
        Z, y, w = problem.Z[keep], problem.y[keep], problem.w[keep]
        assert certified(Z, y, w, 0.5, sol.theta)
        assert sol.objective == pytest.approx(lp_qr_objective(Z, y, w, 0.5),
                                              rel=1e-12)

    def test_highs_path_certifies(self):
        problem = seed42_iv_problem()
        keep = problem.w > 0
        Z, y, w = problem.Z[keep], problem.y[keep], problem.w[keep]
        assert certified(Z, y, w, 0.5, highs_vertex(Z, y, w, 0.5))


def highs_vertex(Z, y, w, tau):
    """The vertex solve takes from the HiGHS path's point."""
    theta, _ = selqr.qr._highs_vertex(Z, y, w, tau)
    return selqr.qr._vertex(Z, Z / np.abs(Z).max(axis=0), y, theta)


def random_problem(seed, n, d, tied):
    rng = np.random.default_rng(seed)
    if tied:
        X = rng.integers(0, 3, (n, d - 1)).astype(float)
        y = rng.integers(0, 5, n).astype(float)
    else:
        X = rng.standard_normal((n, d - 1))
        y = rng.standard_normal(n) * 2
    Z = np.column_stack([np.ones(n), X])
    return Z, y, rng.uniform(0.5, 3, n)


problems = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 200),
                d=st.integers(2, 4), tau=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))


class TestSolveProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**problems, scale=st.sampled_from([1e-12, 1.0, 1e12]))
    def test_tied_data_certified_at_the_lp_optimum(self, seed, n, d, tau, scale):
        # y in other units; the oracle LP, whose tolerances are absolute,
        # solves the unit-scale problem
        Z, y, w = random_problem(seed, n, d, tied=True)
        assume(np.linalg.matrix_rank(Z) == d)
        sol = solve(QuantileProblem(Z=Z, y=scale * y, w=w, tau=tau))
        assert certified(Z, scale * y, w, tau, sol.theta)
        assert sol.objective == pytest.approx(scale * lp_qr_objective(Z, y, w, tau),
                                              rel=1e-12, abs=1e-12 * scale)
        active = list(sol.active_set)
        assert len(active) >= d and np.linalg.matrix_rank(Z[active]) == d

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**problems)
    def test_continuous_data_bit_equal_to_highs(self, seed, n, d, tau):
        Z, y, w = random_problem(seed, n, d, tied=False)
        sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))
        assert certified(Z, y, w, tau, sol.theta)
        assert np.array_equal(sol.theta, highs_vertex(Z, y, w, tau))
