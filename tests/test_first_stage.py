import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from numpy.testing import assert_allclose

from selqr import (InputError, NumericalError, ObservationSet, QuantileProblem,
                   SimulationSpec, WeightVector, cone_project, default_plan,
                   estimate_unconstrained, generate, moment_residual, solve,
                   weights)
from selqr.activeset import kkt_residuals, solve_qp
from selqr.qr import quantile_score
from oracles import enumerate_qp
from conftest import toy_data


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

    def test_repeated_instrument_takes_the_ridge(self, monkeypatch):
        # a second instrument equal to x0 repeats a column of b, so G does
        # not factor; the ridged retry does, and beta_u stays within 1e-7 of
        # the fit without the repeated column
        data = generate(SimulationSpec("C", "M2", n=2000, reps=1, seed=3), 0).data
        repeated = ObservationSet(d=data.d, y=data.y, x=data.x,
                                  w=np.column_stack([data.w, data.x[:, 0]]))
        factored = []
        cho_factor = scipy.linalg.cho_factor

        def recording(M, *args, **kwargs):
            try:
                result = cho_factor(M, *args, **kwargs)
            except np.linalg.LinAlgError:
                factored.append(False)
                raise
            factored.append(True)
            return result
        monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
        fit = estimate_unconstrained(repeated)
        assert factored == [False, True, True]      # G, ridged G, H G^-1 H'
        monkeypatch.undo()
        assert_allclose(fit.beta_u, estimate_unconstrained(data).beta_u, rtol=1e-7)

    def test_moment_residual_zero_when_exactly_identified(self):
        data = toy_data(n=600, seed=10)
        # K = J = 4: quadratic w-spline with no interior knots plus linear x
        fit = estimate_unconstrained(data, default_plan(data, 0, 0))
        assert np.abs(moment_residual(fit)).max() < 1e-8

    def test_overidentified_residual_is_projection_residual(self, data_mnar):
        fit = estimate_unconstrained(data_mnar)
        r = moment_residual(fit)
        # 2SLS normal equations: residual orthogonal to H G^-1, so the
        # influence matrix (H G^-1 H')^-1 H G^-1 annihilates it too
        assert np.abs(fit.influence @ r).max() < 1e-10

    def test_influence_matches_direct_solve(self, data_mnar, dataset_m2):
        # rebuilt from the designs with LU solves, not the fit's Cholesky
        for data in (data_mnar, dataset_m2.data):
            fit = estimate_unconstrained(data)
            phi, b = fit.designs.phi, fit.designs.b
            H = phi.T @ b / data.n
            G = b.T @ b / data.n
            HGinv = np.linalg.solve(G, H.T).T
            want = np.linalg.solve(HGinv @ H.T, HGinv)
            assert fit.influence.shape == (phi.shape[1], b.shape[1])
            assert_allclose(fit.influence, want, rtol=0,
                            atol=1e-10 * np.abs(want).max())
            assert_allclose(fit.influence @ fit.c_hat, fit.beta_u,
                            rtol=0, atol=1e-12 * max(1.0, np.abs(fit.beta_u).max()))


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
            sol = solve_qp(Q, q, A, b)
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
        lead = fit.plan.y_knots.n_basis
        for _ in range(100):
            cand = fit.beta_u + rng.standard_normal(len(fit.beta_u))
            lift = max(0.0, 1.0 - (A @ cand).min()) + 1e-12
            cand[:lead] += lift      # shifting the spline block by c adds c
            assert (A @ cand).min() >= 1.0 - 1e-9
            assert obj(fit.beta_c) <= obj(cand) + 1e-12


    def test_admin_scale_sample_converges(self):
        # about 133 000 constraint rows and 40 of them active at the optimum
        data = generate(SimulationSpec("C", "M2", n=200000, reps=1, seed=2), 0).data
        fit = cone_project(estimate_unconstrained(data), data)
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
        fit = estimate_unconstrained(data)
        wv = weights(fit, data)
        assert (wv.omega[~data.selected] == 0).all()
        assert (wv.omega[data.selected] >= 1.0 - 1e-8).all()

    def test_unit_g_gives_selection_dummies(self, data_full):
        fit = estimate_unconstrained(data_full)
        wv = weights(fit, data_full)
        assert_allclose(wv.omega, data_full.d.astype(float), atol=1e-8)

    def test_mean_weight_matches_count_identity(self):
        gd = generate(SimulationSpec("C", "M2", n=10000, reps=1, seed=5), 0)
        fit = estimate_unconstrained(gd.data)
        wv = weights(fit, gd.data)
        mean_w = wv.omega[gd.data.selected].mean()
        assert abs(mean_w - gd.data.n / gd.data.n_selected) < 0.1 * mean_w

    def test_weight_vector_copies_caller_array(self):
        omega = np.array([1.0, 0.0, 2.5])
        d_omega, influence = np.ones((3, 2)), np.full((3, 2), 0.5)
        wv = WeightVector(omega, np.array([True, False, True]), d_omega, influence)
        for caller in (omega, d_omega, influence):
            caller[0] = 7.0             # the caller's arrays stay writable
        assert wv.omega.tolist() == [1.0, 0.0, 2.5]
        assert wv.d_omega.tolist() == [[1.0, 1.0]] * 3
        assert wv.beta_influence.tolist() == [[0.5, 0.5]] * 3
        for frozen in (wv.omega, wv.d_omega, wv.beta_influence):
            assert not frozen.flags.writeable

    def test_weight_vector_holds_selected_weights_to_one_exactly(self):
        # every provider gives selected weights >= 1 exactly: the floor is
        # max(., 1), MAR is 1 / p with p <= 1 and the complete case is d
        flags = np.array([True, False, True])
        WeightVector(np.array([1.0, 0.0, 1.0]), flags)      # one itself passes
        with pytest.raises(NumericalError, match=">= 1"):
            WeightVector(np.array([1.0 - 1e-12, 0.0, 1.0]), flags)

    @pytest.mark.parametrize("d_omega, influence", [
        (np.ones((3, 2)), None),                    # only one of the two
        (None, np.ones((3, 2))),
        (np.ones((3, 2)), np.ones((3, 3))),         # mismatched shapes
        (np.ones((4, 2)), np.ones((4, 2))),         # a row count other than n
        (np.ones(3), np.ones(3)),                   # not n x J
    ])
    def test_weight_vector_rejects_a_malformed_first_stage_term(self, d_omega, influence):
        with pytest.raises(InputError, match="d_omega and beta_influence"):
            WeightVector(np.array([1.0, 0.0, 2.5]), np.array([True, False, True]),
                         d_omega, influence)

    def test_correction_is_the_two_step_term_of_a_hand_built_record(self):
        # T = E_n[d omega_i / d beta psi_i Z_i'], summed row by row, and the
        # term of row i is T' IF_i
        rng = np.random.default_rng(0)
        n, J, d_z = 40, 3, 2
        d_omega, influence = rng.standard_normal((n, J)), rng.standard_normal((n, J))
        psi, Z = rng.standard_normal(n), rng.standard_normal((n, d_z))
        wv = WeightVector(np.ones(n), np.ones(n, dtype=bool), d_omega, influence)
        T = sum(np.outer(d_omega[i] * psi[i], Z[i]) for i in range(n)) / n
        assert_allclose(wv.correction(psi, Z), [T.T @ f for f in influence], rtol=1e-12)
        assert WeightVector(np.ones(n), np.ones(n, dtype=bool)).correction(psi, Z) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weight_vector_rejects_non_finite_weight(self, bad):
        with pytest.raises(NumericalError, match="finite"):
            WeightVector(np.array([1.0, 0.0, bad]), np.array([True, False, True]))

    def test_weight_vector_rejects_length_mismatch(self):
        with pytest.raises(InputError, match="selection flags"):
            WeightVector(np.ones(3), np.ones(4, dtype=bool))

    @pytest.mark.parametrize("flags", [np.array([1, 0, 0]), np.array([1.0, 0.0, 0.0])])
    def test_weight_vector_rejects_non_boolean_flags(self, flags):
        # 0/1 flags such as ObservationSet.d would index omega, not mask it
        with pytest.raises(InputError, match="boolean"):
            WeightVector(np.array([2.0, 0.0, 0.0]), flags)

    def test_correction_differentiates_the_weights_in_use(self):
        # at fixed theta_hat the weighted score s(beta) = E_n[omega(beta) Z psi],
        # omega(beta) = D max(phi' beta, 1), is piecewise linear in beta with
        # kinks where a selected row's g_u crosses one. Central differences
        # whose steps move no row's g_u by more than half its distance from
        # one cross no kink, so they give the Jacobian T to rounding, and
        # correction(psi, Z) must equal T' influence b_i UJ_i built from it
        data = generate(SimulationSpec("C", "M2", n=4000, reps=1, seed=7), 0).data
        fs = estimate_unconstrained(data)
        wv = weights(fs, data)
        sel, phi, Z = data.selected, fs.designs.phi, data.design_z()
        g = phi[sel] @ fs.beta_u
        assert (g > 1).any() and (g < 1).any()      # the floor binds on some rows
        gap = np.abs(g - 1.0).min()
        qsol = solve(QuantileProblem(Z=Z, y=data.y_filled(np.nan), w=wv.omega, tau=0.5))
        psi = np.where(sel, quantile_score(data.y_filled() - Z @ qsol.theta, 0.5), 0.0)

        def score(beta):
            omega = np.zeros(data.n)
            omega[sel] = np.maximum(phi[sel] @ beta, 1.0)
            return Z.T @ (omega * psi) / data.n

        T = np.empty((len(fs.beta_u), Z.shape[1]))
        for k, e in enumerate(np.eye(len(fs.beta_u))):
            step = 0.5 * gap / max(np.abs(phi[sel, k]).max(), 1.0)
            T[k] = (score(fs.beta_u + step * e) - score(fs.beta_u - step * e)) / (2 * step)
        Uj = 1.0 - phi @ fs.beta_u
        expected = (fs.designs.b @ (T.T @ fs.influence).T) * Uj[:, None]
        assert_allclose(wv.correction(psi, Z), expected, rtol=0,
                        atol=1e-8 * np.abs(expected).max())
