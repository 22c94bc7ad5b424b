import numpy as np
import pytest
from numpy.testing import assert_allclose

from selqr import (InputError, KnotVector, build_designs, default_plan,
                   eval_basis, make_knots)
from conftest import toy_data
from oracles import design_matrix_reference


class TestMakeKnots:
    def test_three_basis_functions_without_interior(self):
        kv = make_knots([0, 1, 2, 3, 4], n_interior=0, degree=2)
        assert kv.n_basis == 3

    def test_five_basis_functions_with_two_interior(self):
        kv = make_knots(np.arange(11), n_interior=2, degree=2)
        assert kv.n_basis == 5
        assert kv.lo == 0 and kv.hi == 10

    def test_degenerate_support_errors(self):
        with pytest.raises(InputError, match="zero-width support"):
            make_knots([5, 5, 5], n_interior=0, degree=2)

    def test_quantile_placement(self):
        vals = np.arange(101)
        kv = make_knots(vals, n_interior=3, degree=2)
        assert_allclose(kv.interior, [25, 50, 75])

    def test_collapsing_quantiles_error(self):
        vals = np.array([0.0] + [1.0] * 50 + [2.0])
        with pytest.raises(InputError, match="collapse"):
            make_knots(vals, n_interior=3, degree=2)

    def test_empty_input(self):
        with pytest.raises(InputError):
            make_knots([], n_interior=0, degree=2)

    @pytest.mark.parametrize("degree,n_interior", [(1, 0), (2, 0), (2, 3), (3, 5)])
    def test_basis_count_formula(self, degree, n_interior):
        kv = make_knots(np.linspace(0, 1, 50), n_interior, degree)
        assert kv.n_basis == degree + 1 + n_interior


class TestEvalBasis:
    def test_left_boundary_clamped(self):
        kv = KnotVector(degree=2, lo=0.0, hi=1.0)
        assert_allclose(eval_basis(kv, 0.0), [1.0, 0.0, 0.0])

    def test_partition_of_unity(self):
        kv = make_knots(np.linspace(-3, 7, 200), n_interior=4, degree=2)
        xs = np.linspace(kv.lo, kv.hi, 257)
        vals = eval_basis(kv, xs)
        assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)
        assert (vals >= 0).all()

    def test_clamping_beyond_right_boundary(self):
        kv = make_knots(np.linspace(0, 4, 50), n_interior=1, degree=2)
        assert_allclose(eval_basis(kv, kv.hi + 10.0), eval_basis(kv, kv.hi))
        assert_allclose(eval_basis(kv, kv.lo - 5.0), eval_basis(kv, kv.lo))

    def test_local_support(self):
        kv = make_knots(np.linspace(0, 1, 500), n_interior=6, degree=3)
        vals = eval_basis(kv, np.linspace(0, 1, 101))
        assert ((vals > 0).sum(axis=1) <= kv.degree + 1).all()

    def test_bit_identical_to_scipy_design_matrix(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            degree, n_interior = int(rng.integers(1, 4)), int(rng.integers(0, 5))
            lo = float(rng.normal(scale=3.0))
            hi = lo + float(rng.uniform(0.01, 10.0))
            interior = np.unique(rng.uniform(lo, hi, n_interior))
            kv = KnotVector(degree=degree, lo=lo, hi=hi, interior=tuple(interior))
            # on and next to every knot, inside, and clamped from outside
            xs = np.concatenate([
                rng.uniform(lo - 1.0, hi + 1.0, 40), [lo, hi, -np.inf, np.inf],
                interior, np.nextafter(interior, lo), np.nextafter(interior, hi),
                [np.nextafter(lo, hi), np.nextafter(hi, lo)]])
            assert np.array_equal(eval_basis(kv, xs), design_matrix_reference(kv, xs))
            assert np.array_equal(eval_basis(kv, xs[0]),
                                  design_matrix_reference(kv, xs[0])[0])

    def test_nan_point_is_an_input_error(self):
        kv = KnotVector(degree=2, lo=0.0, hi=1.0)
        with pytest.raises(InputError, match="NaN"):
            eval_basis(kv, [0.5, np.nan])


class TestBuildDesigns:
    def test_paper_configuration_dimensions(self):
        data = toy_data()
        dm = build_designs(data, default_plan(data))
        assert dm.phi.shape == (data.n, 4)
        assert dm.b.shape == (data.n, 6)

    def test_row_count_preserved(self):
        data = toy_data(n=10, all_selected=True)
        dm = build_designs(data, default_plan(data))
        assert dm.phi.shape[0] == 10 and dm.b.shape[0] == 10

    def test_unselected_rows_masked(self):
        data = toy_data()
        plan = default_plan(data)
        dm = build_designs(data, plan)
        assert (dm.phi[~data.selected] == 0).all()
        raw = np.column_stack([eval_basis(plan.y_knots, data.y_filled()), data.x])
        unsel = ~data.selected
        # unselected rows hold the clamped evaluation at (0, X_i)
        assert (np.abs(raw[unsel]).sum(axis=1) > 0).all()
        assert_allclose(raw[data.selected], dm.phi[data.selected])

    def test_k_must_cover_j(self):
        data = toy_data()
        # J = 7 + 1 outcome columns against K = 3 + 1 instrument columns
        with pytest.raises(InputError, match="at least as many columns"):
            build_designs(data, default_plan(data, 4, 0))
