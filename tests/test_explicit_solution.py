import numpy as np
import pytest

from mfglab.explicit_solution import (
    ExplicitInstance,
    coupling_of_candidate,
    hjb_residual,
    m_value,
    transport_residual,
)


def test_closed_form_residuals_dimension_one():
    inst = ExplicitInstance(n_grid=64, n_time=64)
    assert hjb_residual(inst) <= 1e-10
    assert transport_residual(inst) <= 1e-10


def test_quarter_period_slice_vanishes():
    inst = ExplicitInstance(n_grid=64, n_time=64)
    assert 2 * np.pi * np.cos(2 * np.pi * 0.25) == pytest.approx(0.0, abs=1e-12)
    assert coupling_of_candidate(inst, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_grid_residuals_dimension_one():
    inst = ExplicitInstance(n_grid=256, n_time=256)
    assert hjb_residual(inst, closed_form=False) <= 1e-3
    assert transport_residual(inst, closed_form=False) <= 1e-3


def test_grid_residual_second_order_convergence():
    coarse = hjb_residual(ExplicitInstance(64, 64), closed_form=False)
    fine = hjb_residual(ExplicitInstance(128, 128), closed_form=False)
    assert coarse / fine == pytest.approx(4.0, rel=0.15)
    # n_time = 2 n_grid: at dt = dx the time and space differences cancel
    t_coarse = transport_residual(ExplicitInstance(64, 128), closed_form=False)
    t_fine = transport_residual(ExplicitInstance(128, 256), closed_form=False)
    assert t_coarse / t_fine == pytest.approx(4.0, rel=0.15)


def test_candidate_density_nonnegative():
    inst = ExplicitInstance(n_grid=24, n_time=8)
    for t in inst.times():
        assert np.min(m_value(inst.nodes(), t)) >= 0.0


def test_instance_guards():
    with pytest.raises(ValueError):
        ExplicitInstance(n_grid=4)
    with pytest.raises(ValueError):
        ExplicitInstance(n_time=4)
