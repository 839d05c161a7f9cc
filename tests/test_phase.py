import numpy as np
import pytest

from qboson_kit import (
    ThermalParams,
    alpha_adjoint,
    alpha_adjoint_reverse,
    alpha_boson,
    alpha_phase_pair,
    basis_state,
    commutator,
    expectation,
    identity_operator,
    ladder,
    make_space,
    number_state_projector,
    phase_pair,
    relation_residual,
    sqrt_number_operator,
    theta_operator,
    thermal_density,
)
from qboson_kit.fock import machine_zero_bound


def test_shift_action():
    space = make_space([6])
    pair = phase_pair(space, 1)
    out = pair.lower.apply(basis_state(space, [3]))
    np.testing.assert_array_equal(out.amplitudes, basis_state(space, [2]).amplitudes)
    assert pair.lower.apply(basis_state(space, [0])).norm() == 0.0


def test_raise_lower_kills_vacuum_exactly():
    space = make_space([5])
    pair = phase_pair(space, 1)
    prod = pair.raise_ @ pair.lower
    assert prod.apply(basis_state(space, [0])).norm() == 0.0
    expected = identity_operator(space) - number_state_projector(space, 1, 0)
    assert (prod.matrix != expected.matrix).nnz == 0


def test_shift_inverses_margin_one():
    space = make_space([10])
    pair = phase_pair(space, 1)
    one = identity_operator(space)
    assert relation_residual(pair.lower @ pair.raise_, one, margin=1) == 0.0
    assert relation_residual(pair.raise_ @ pair.lower,
                             one - number_state_projector(space, 1, 0), margin=1) == 0.0


def test_polar_decomposition_exact_on_full_space():
    space = make_space([12])
    t = ladder(space, 1)
    pair = phase_pair(space, 1)
    sq = sqrt_number_operator(space, 1)
    assert ((pair.lower @ sq).matrix != t.lower.matrix).nnz == 0
    assert ((sq @ pair.raise_).matrix != t.raise_.matrix).nnz == 0


def test_shift_number_commutators():
    space = make_space([9])
    t = ladder(space, 1)
    pair = phase_pair(space, 1)
    assert relation_residual(commutator(t.number, pair.lower), -1.0 * pair.lower,
                             margin=1) == 0.0
    assert relation_residual(commutator(t.number, pair.raise_), pair.raise_,
                             margin=1) == 0.0


def test_theta_convention():
    """theta(x) = 1 for x >= 0: alpha = 0 gives the identity."""
    space = make_space([6])
    assert (theta_operator(space, 1, 0).matrix
            != identity_operator(space).matrix).nnz == 0
    th2 = theta_operator(space, 1, 2)
    assert th2.apply(basis_state(space, [1])).norm() == 0.0
    out = th2.apply(basis_state(space, [2]))
    np.testing.assert_array_equal(out.amplitudes, basis_state(space, [2]).amplitudes)


def test_theta_thermal_expectation():
    space = make_space([80])
    rho = thermal_density(space, 1, ThermalParams.from_q_squared(0.5))
    val = expectation(rho, theta_operator(space, 1, 3)).real
    assert val == pytest.approx(0.125, abs=1e-12)


def test_theta_alpha_validation():
    space = make_space([4])
    with pytest.raises(ValueError):
        theta_operator(space, 1, 5)
    with pytest.raises(ValueError):
        theta_operator(space, 1, -1)


def test_reverse_adjoint_restores_step_to_identity():
    """e^a theta(N-a) e+^a = theta(N) = 1 on the margin-a safe subspace."""
    space = make_space([10])
    for a in (1, 2, 3):
        th = theta_operator(space, 1, a)
        out = alpha_adjoint_reverse(space, 1, th, a)
        assert relation_residual(out, identity_operator(space), margin=a) == 0.0


def test_forward_adjoint_of_step_shifts_threshold_down():
    """The literal sandwich e+^a theta(N-a) e^a equals theta(N - 2a)."""
    space = make_space([12])
    for a in (1, 2):
        out = alpha_adjoint(space, 1, theta_operator(space, 1, a), a)
        expected = theta_operator(space, 1, 2 * a)
        assert (out.matrix != expected.matrix).nnz == 0


def test_alpha_adjoint_zero_power_is_identity_map():
    space = make_space([5])
    x = ladder(space, 1).lower
    assert alpha_adjoint(space, 1, x, 0) is x


def test_alpha_adjoint_of_shift():
    """e conjugated by two shift powers moves |n> to |n-1> only for n >= 3."""
    space = make_space([8])
    pair = phase_pair(space, 1)
    out = alpha_adjoint(space, 1, pair.lower, 2)
    for n in range(9):
        image = out.apply(basis_state(space, [n]))
        if n >= 3:
            np.testing.assert_array_equal(image.amplitudes,
                                          basis_state(space, [n - 1]).amplitudes)
        else:
            assert image.norm() == 0.0


def test_alpha_boson_lower_amplitudes():
    """a(2)|5> = sqrt(3) |4>, from composing the shift powers with the boson."""
    space = make_space([12])
    boson = alpha_boson(space, 1, 2)
    out = boson.triple.lower.apply(basis_state(space, [5]))
    np.testing.assert_allclose(out.amplitudes,
                               np.sqrt(3) * basis_state(space, [4]).amplitudes,
                               rtol=0, atol=1e-15)
    for n in range(3):
        assert boson.triple.lower.apply(basis_state(space, [n])).norm() == 0.0


def test_alpha_boson_kernel_dimension():
    space = make_space([12])
    for a in (1, 2, 3):
        boson = alpha_boson(space, 1, a)
        m = boson.triple.lower.matrix.tocsc(copy=True)
        m.eliminate_zeros()
        assert int(np.sum(np.diff(m.indptr) == 0)) == a + 1 == boson.kernel_dimension


def test_alpha_boson_commutator_is_step():
    space = make_space([16])
    boson = alpha_boson(space, 1, 2)
    assert relation_residual(commutator(boson.triple.lower, boson.triple.raise_),
                             theta_operator(space, 1, 2), margin=2) <= machine_zero_bound(space)


def test_alpha_boson_number_states():
    """The number operator counts steps above the shifted vacuum."""
    space = make_space([16])
    boson = alpha_boson(space, 1, 3)
    diag = boson.triple.number.matrix.diagonal().real
    for n in range(14):
        assert diag[space.flat_index([n + 3])] == pytest.approx(n, abs=1e-13)


def test_alpha_boson_validation():
    space = make_space([6])
    with pytest.raises(ValueError):
        alpha_boson(space, 1, 5)


def test_alpha_phase_defect_is_projector():
    space = make_space([10])
    for a in (1, 2, 3):
        pair = alpha_phase_pair(space, 1, a)
        defect = pair.lower @ pair.raise_ - pair.raise_ @ pair.lower
        assert relation_residual(defect, number_state_projector(space, 1, a), margin=1) == 0.0
