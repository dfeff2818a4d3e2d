import numpy as np
import pytest

from mfglab.explicit_solution import (
    ExplicitInstance,
    coupling_of_candidate,
    hjb_residual,
    transport_residual,
)


def test_closed_form_residuals_dimension_one():
    inst = ExplicitInstance(dim=1, n_grid=64, n_time=64)
    assert hjb_residual(inst) <= 1e-10
    assert transport_residual(inst) <= 1e-10


def test_quarter_period_slice_vanishes():
    inst = ExplicitInstance(dim=1, n_grid=64, n_time=64)
    assert 2 * np.pi * np.cos(2 * np.pi * 0.25) == pytest.approx(0.0, abs=1e-12)
    assert coupling_of_candidate(inst, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_residuals_higher_dimensions():
    for dim in (2, 3):
        inst = ExplicitInstance(dim=dim, n_grid=32, n_time=32)
        assert hjb_residual(inst) <= 1e-10
        defect = transport_residual(inst)
        assert defect == pytest.approx((dim - 1) * 2 * np.pi, abs=1e-9)


def test_grid_residuals_dimension_one():
    inst = ExplicitInstance(dim=1, n_grid=256, n_time=256)
    assert hjb_residual(inst, closed_form=False) <= 1e-3
    assert transport_residual(inst, closed_form=False) <= 1e-3


def test_grid_residual_second_order_convergence():
    coarse = hjb_residual(ExplicitInstance(1, 64, 64), closed_form=False)
    fine = hjb_residual(ExplicitInstance(1, 128, 128), closed_form=False)
    assert coarse / fine == pytest.approx(4.0, rel=0.15)
    t_coarse = transport_residual(ExplicitInstance(2, 24, 24), closed_form=False)
    t_fine = transport_residual(ExplicitInstance(2, 48, 48), closed_form=False)
    target = 2 * np.pi
    assert abs(t_fine - target) <= 0.3 * abs(t_coarse - target) + 1e-12


def test_candidate_density_nonnegative():
    inst = ExplicitInstance(dim=2, n_grid=24, n_time=8)
    s = inst.coordinate_sum()
    from mfglab.explicit_solution import m_value
    for t in inst.times():
        assert np.min(m_value(s, t)) >= 0.0


def test_instance_guards():
    with pytest.raises(ValueError):
        ExplicitInstance(dim=0)
    with pytest.raises(ValueError):
        ExplicitInstance(dim=9, n_grid=64)
    with pytest.raises(ValueError):
        ExplicitInstance(dim=1, n_grid=4)
