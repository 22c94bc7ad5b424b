import dataclasses

import numpy as np
import scipy.optimize
from numpy.testing import assert_allclose

from selqr import (BasisPlan, BlockSpec, SimulationSpec, cone_project,
                   estimate_unconstrained, generate, make_knots,
                   moment_residual, weights)
from selqr.activeset import kkt_residuals, solve_qp
from oracles import enumerate_qp
from conftest import toy_data


def exactly_identified_plan(data):
    """K = J = 4: quadratic w-spline with no interior knots plus linear x."""
    return BasisPlan(
        phi=BlockSpec("y", make_knots(data.y[data.selected], 0, 2), ("x0",)),
        b=BlockSpec("w0", make_knots(data.w[:, 0], 0, 2), ("x0",)))


class TestUnconstrained:
    def test_everyone_selected_gives_unit_g(self, data_full):
        fit = estimate_unconstrained(data_full)
        g = fit.designs.phi[data_full.selected] @ fit.beta_u
        assert_allclose(g, 1.0, atol=1e-8)

    def test_paper_configuration_coefficient_length(self, dataset_m2):
        fit = estimate_unconstrained(dataset_m2.data)
        assert fit.beta_u.shape == (4,)

    def test_recovers_inverse_probability_in_the_bulk(self):
        # frozen against the generator oracle (true p) for these seeds;
        # the J=4 sieve is accurate in the central quantile box only
        for seed in range(3):
            gd = generate(SimulationSpec("C", "M2", n=10000, reps=1, seed=20240501),
                          seed)
            fit = estimate_unconstrained(gd.data)
            sel = gd.data.selected
            g_u = fit.designs.phi[sel] @ fit.beta_u
            g_true = 1.0 / gd.p[sel]
            ys, xs = gd.data.y[sel], gd.data.x[sel, 0]
            lo, hi = np.quantile(ys, [0.4, 0.6])
            lox, hix = np.quantile(xs, [0.4, 0.6])
            box = (ys >= lo) & (ys <= hi) & (xs >= lox) & (xs <= hix)
            err = np.abs(g_u[box] - g_true[box])
            assert err.mean() < 0.12
            assert err.max() < 0.40

    def test_moment_residual_zero_when_exactly_identified(self):
        data = toy_data(n=600, seed=10)
        fit = estimate_unconstrained(data, exactly_identified_plan(data))
        assert np.abs(moment_residual(fit)).max() < 1e-8

    def test_overidentified_residual_is_projection_residual(self, data_mnar):
        fit = estimate_unconstrained(data_mnar)
        r = moment_residual(fit)
        # 2SLS normal equations: residual orthogonal to H G^-1
        assert np.abs(fit.projector @ r).max() < 1e-10


class TestConeProject:
    def test_interior_fit_unchanged(self, data_full):
        # g_u is identically one, already inside the cone
        fit = cone_project(estimate_unconstrained(data_full), data_full)
        assert_allclose(fit.beta_c, fit.beta_u)
        assert fit.kkt["active_set_size"] == 0

    def test_constant_half_projects_to_one(self, data_mnar):
        fit = estimate_unconstrained(data_mnar)
        beta_half = np.zeros_like(fit.beta_u)
        beta_half[:3] = 0.5          # spline block: constant 0.5
        fit = dataclasses.replace(fit, beta_u=beta_half)
        fit = cone_project(fit, data_mnar)
        g_c = fit.designs.phi[data_mnar.selected] @ fit.beta_c
        assert_allclose(g_c, 1.0, atol=1e-8)

    def test_matches_activeset_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            L = rng.standard_normal((3, 3))
            Q = L @ L.T + 3 * np.eye(3)
            q = rng.standard_normal(3)
            A = rng.standard_normal((3, 3))
            x_feas = rng.standard_normal(3)
            b = A @ x_feas - rng.random(3)
            sol = solve_qp(Q, q, A, b, x_feas)
            _, obj_oracle = enumerate_qp(Q, q, A, b)
            assert abs(sol.objective - obj_oracle) < 1e-8

    def test_idempotent(self, dataset_m2):
        fit = cone_project(estimate_unconstrained(dataset_m2.data), dataset_m2.data)
        fit2 = cone_project(fit, dataset_m2.data)
        assert_allclose(fit2.beta_c, fit.beta_c, atol=0, rtol=0)

    def test_kkt_certificate(self, dataset_m2):
        data = dataset_m2.data
        fit = cone_project(estimate_unconstrained(data), data)
        phi_sel = fit.designs.phi[data.selected]
        Q = phi_sel.T @ phi_sel / len(phi_sel)
        q = Q @ fit.beta_u
        kkt = kkt_residuals(Q, q, fit.constraint_points,
                            np.ones(len(fit.constraint_points)), fit.beta_c)
        assert kkt["stationarity"] < 1e-6
        assert kkt["feasibility"] < 1e-8
        assert kkt["min_multiplier"] > -1e-7

    def test_bound_holds_on_constraint_set(self, dataset_m2):
        data = dataset_m2.data
        fit = cone_project(estimate_unconstrained(data), data)
        assert (fit.constraint_points @ fit.beta_c).min() >= 1.0 - 1e-8

    def test_monotone_improvement(self, dataset_m2):
        data = dataset_m2.data
        fit = cone_project(estimate_unconstrained(data), data)
        phi_sel = fit.designs.phi[data.selected]
        A = fit.constraint_points
        obj = lambda beta: np.mean((phi_sel @ (beta - fit.beta_u)) ** 2)
        rng = np.random.default_rng(0)
        lead = fit.plan.phi.knots.n_basis
        for _ in range(100):
            cand = fit.beta_u + rng.standard_normal(len(fit.beta_u))
            lift = max(0.0, 1.0 - (A @ cand).min()) + 1e-12
            cand[:lead] += lift      # shifting the spline block by c adds c
            assert (A @ cand).min() >= 1.0 - 1e-9
            assert obj(fit.beta_c) <= obj(cand) + 1e-12


    def test_admin_scale_sample_converges(self):
        # about 133 000 constraint rows; the projection takes 790 active-set
        # iterations, more than a cap of 100 * (J + 1) = 500 allows
        data = generate(SimulationSpec("C", "M2", n=200000, reps=1, seed=2), 0).data
        fit = cone_project(estimate_unconstrained(data), data)
        assert fit.kkt["iterations"] > 500
        phi_sel = fit.designs.phi[data.selected]
        Q = phi_sel.T @ phi_sel / len(phi_sel)
        q = Q @ fit.beta_u
        A = fit.constraint_points
        kkt = kkt_residuals(Q, q, A, np.ones(len(A)), fit.beta_c)
        assert kkt["stationarity"] < 1e-6
        assert kkt["feasibility"] < 1e-8
        assert kkt["min_multiplier"] >= 0.0   # 40 active rows for J = 4
        # certificate: the gradient is a nonnegative combination of the
        # active constraint rows
        active = A @ fit.beta_c - 1.0 <= 1e-7
        _, residual = scipy.optimize.nnls(A[active].T, Q @ fit.beta_c - q)
        assert residual < 1e-8


class TestWeights:
    def test_zero_exactly_on_unselected(self, dataset_m2):
        data = dataset_m2.data
        fit = cone_project(estimate_unconstrained(data), data)
        wv = weights(fit, data)
        assert (wv.omega[~data.selected] == 0).all()
        assert (wv.omega[data.selected] >= 1.0 - 1e-8).all()

    def test_unit_g_gives_selection_dummies(self, data_full):
        fit = cone_project(estimate_unconstrained(data_full), data_full)
        wv = weights(fit, data_full)
        assert_allclose(wv.omega, data_full.d.astype(float), atol=1e-8)

    def test_mean_weight_matches_count_identity(self):
        gd = generate(SimulationSpec("C", "M2", n=10000, reps=1, seed=5), 0)
        fit = cone_project(estimate_unconstrained(gd.data), gd.data)
        wv = weights(fit, gd.data)
        mean_w = wv.omega[gd.data.selected].mean()
        assert abs(mean_w - gd.data.n / gd.data.n_selected) < 0.1 * mean_w

    def test_functional_mode_uses_projected_fit(self, dataset_m2):
        data = dataset_m2.data
        fit = cone_project(estimate_unconstrained(data), data)
        w_fun = weights(fit, data, mode="functional")
        g_c = np.maximum(fit.designs.phi[data.selected] @ fit.beta_c, 1.0)
        assert_allclose(w_fun.omega[data.selected], g_c)

    def test_g_values_clamped_queries(self, dataset_m2):
        data = dataset_m2.data
        fit = cone_project(estimate_unconstrained(data), data)
        kv = fit.plan.phi.knots
        x0 = data.x[:1]
        far = fit.g_values([kv.hi + 50.0], x=x0, mode="functional")
        edge = fit.g_values([kv.hi], x=x0, mode="functional")
        assert_allclose(far, edge)
