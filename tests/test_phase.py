import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson_kit import (
    alpha_boson,
    alpha_phase_pair,
    basis_state,
    commutator,
    expectation,
    identity_operator,
    ladder,
    make_space,
    number_state_projector,
    operator_on_mode,
    phase_pair,
    relation_residual,
    sqrt_number_operator,
    theta_operator,
    thermal_density,
)
from qboson_kit.fock import machine_zero_bound
from qboson_kit.qboson import defining_relation_residual


def shift_power(space, mode, alpha):
    """e^alpha as a product of phase_pair lowers (the identity at alpha = 0)."""
    e = phase_pair(space, mode).lower
    out = identity_operator(space)
    for _ in range(alpha):
        out = out @ e
    return out


def diagonal_bytes(op):
    return tuple((d, c.tobytes()) for d, c in sorted(op.diagonals.items()))


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
    assert np.array_equal(prod.toarray(), expected.toarray())


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
    assert np.array_equal((pair.lower @ sq).toarray(), t.lower.toarray())
    assert np.array_equal((sq @ pair.raise_).toarray(), t.raise_.toarray())


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
    assert np.array_equal(theta_operator(space, 1, 0).toarray(),
                          identity_operator(space).toarray())
    th2 = theta_operator(space, 1, 2)
    assert th2.apply(basis_state(space, [1])).norm() == 0.0
    out = th2.apply(basis_state(space, [2]))
    np.testing.assert_array_equal(out.amplitudes, basis_state(space, [2]).amplitudes)


def test_theta_thermal_expectation():
    space = make_space([80])
    rho = thermal_density(space, 1, 0.5)
    val = expectation(rho, theta_operator(space, 1, 3)).real
    assert val == pytest.approx(0.125, abs=1e-12)


def test_theta_alpha_validation():
    space = make_space([4])
    with pytest.raises(ValueError):
        theta_operator(space, 1, 5)
    with pytest.raises(ValueError):
        theta_operator(space, 1, -1)


def test_forward_adjoint_of_step_shifts_threshold_down():
    """The literal sandwich e+^a theta(N-a) e^a equals theta(N - 2a)."""
    space = make_space([12])
    for a in (1, 2):
        e_a = shift_power(space, 1, a)
        out = e_a.adjoint() @ theta_operator(space, 1, a) @ e_a
        expected = theta_operator(space, 1, 2 * a)
        assert np.array_equal(out.toarray(), expected.toarray())


def test_alpha_adjoint_zero_power_is_identity_map():
    space = make_space([5])
    x = ladder(space, 1).lower
    e_0 = shift_power(space, 1, 0)
    assert diagonal_bytes(e_0.adjoint() @ x @ e_0) == diagonal_bytes(x)


def test_alpha_adjoint_of_shift():
    """e conjugated by two shift powers moves |n> to |n-1> only for n >= 3."""
    space = make_space([8])
    pair = phase_pair(space, 1)
    e_2 = shift_power(space, 1, 2)
    out = e_2.adjoint() @ pair.lower @ e_2
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
    out = boson.lower.apply(basis_state(space, [5]))
    np.testing.assert_allclose(out.amplitudes,
                               np.sqrt(3) * basis_state(space, [4]).amplitudes,
                               rtol=0, atol=1e-15)
    for n in range(3):
        assert boson.lower.apply(basis_state(space, [n])).norm() == 0.0


def test_alpha_boson_kernel_dimension():
    space = make_space([12])
    for a in (1, 2, 3):
        boson = alpha_boson(space, 1, a)
        assert int(np.sum(~boson.lower.toarray().any(axis=0))) == a + 1


def test_alpha_boson_commutator_is_step():
    space = make_space([16])
    boson = alpha_boson(space, 1, 2)
    assert relation_residual(commutator(boson.lower, boson.raise_),
                             theta_operator(space, 1, 2), margin=2) <= machine_zero_bound(space)


def test_alpha_boson_number_states():
    """The number operator counts steps above the shifted vacuum."""
    space = make_space([16])
    boson = alpha_boson(space, 1, 3)
    diag = (boson.raise_ @ boson.lower).diagonal().real
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3))
def test_ladder_constructors_match_independent_routes(cutoffs):
    """Each ladder constructor stores the same diagonal bytes as a route built from
    public operators: the boson from sqrt(n), the phase pair from unit amplitudes,
    and the shifted-vacuum pairs as the conjugations e+^a a e^a and e+^a e e^a."""
    space = make_space(cutoffs)
    for mode, cutoff in enumerate(cutoffs, start=1):
        n = np.arange(cutoff + 1, dtype=float)
        a = operator_on_mode(space, mode, np.sqrt(n), lower=1)
        boson = ladder(space, mode)
        assert diagonal_bytes(boson.lower) == diagonal_bytes(a)
        assert diagonal_bytes(boson.raise_) == diagonal_bytes(a.adjoint())
        assert diagonal_bytes(boson.number) == diagonal_bytes(operator_on_mode(space, mode, n))

        e = operator_on_mode(space, mode, np.ones(cutoff + 1), lower=1)
        pair = phase_pair(space, mode)
        assert diagonal_bytes(pair.lower) == diagonal_bytes(e)
        assert diagonal_bytes(pair.raise_) == diagonal_bytes(e.adjoint())
        if min(cutoffs) >= 2:
            assert defining_relation_residual(pair) == 0.0

        for alpha in range(cutoff + 1):
            e_a = shift_power(space, mode, alpha)
            if alpha <= cutoff - 2:
                shifted = alpha_boson(space, mode, alpha).lower
                assert diagonal_bytes(shifted) == diagonal_bytes(e_a.adjoint() @ a @ e_a)
            shifted = alpha_phase_pair(space, mode, alpha).lower
            assert diagonal_bytes(shifted) == diagonal_bytes(e_a.adjoint() @ e @ e_a)
