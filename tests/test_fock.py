import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson_kit import (
    DimensionLimitError,
    LinearOperator,
    basis_state,
    commutator,
    diagonal_operator,
    expectation,
    identity_operator,
    ladder,
    make_space,
    number_state_projector,
    relation_residual,
    thermal_density,
    ThermalParams,
)
from qboson_kit.fock import machine_zero_bound, matrix_norm


def test_make_space_dimensions():
    assert make_space([5]).dimension == 6
    assert make_space([3, 2]).dimension == 12
    assert make_space([3, 2]).shape == (4, 3)


def test_make_space_rejects_degenerate_input():
    with pytest.raises(ValueError):
        make_space([])
    with pytest.raises(ValueError):
        make_space([0, 3])
    with pytest.raises(DimensionLimitError):
        make_space([99, 99, 99, 99], max_dimension=10 ** 6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=10 ** 6))
def test_basis_round_trip(cutoffs, seed_flat):
    """flat -> multi -> flat is the identity for every basis index."""
    space = make_space(cutoffs)
    flat = seed_flat % space.dimension
    multi = space.multi_index(flat)
    assert space.flat_index(multi) == flat
    assert all(0 <= n <= c for n, c in zip(multi, space.cutoffs))


def test_basis_order_mode_one_slowest():
    space = make_space([2, 1])
    # row-major with mode 1 slowest: (0,0),(0,1),(1,0),(1,1),(2,0),(2,1)
    assert [space.multi_index(k) for k in range(space.dimension)] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_lower_action_on_number_states():
    space = make_space([5])
    a = ladder(space, 1).lower
    out = a.apply(basis_state(space, [3]))
    expected = np.sqrt(3) * basis_state(space, [2]).amplitudes
    np.testing.assert_array_equal(out.amplitudes, expected)
    assert a.apply(basis_state(space, [0])).norm() == 0.0


def test_raise_annihilates_cutoff_state():
    space = make_space([4])
    t = ladder(space, 1)
    assert t.raise_.apply(basis_state(space, [4])).norm() == 0.0


def test_ladder_mode_out_of_range():
    space = make_space([3])
    with pytest.raises(ValueError):
        ladder(space, 2)
    with pytest.raises(ValueError):
        ladder(space, 0)


def test_commutator_identity_below_cutoff():
    space = make_space([8])
    t = ladder(space, 1)
    assert relation_residual(commutator(t.lower, t.raise_), identity_operator(space),
                             margin=1) <= machine_zero_bound(space)


def test_number_raise_commutator():
    """[N, a+] = a+ below the cutoff; sqrt-entry products leave float dust only."""
    space = make_space([8])
    t = ladder(space, 1)
    assert relation_residual(commutator(t.number, t.raise_), t.raise_,
                             margin=1) <= machine_zero_bound(space)


def test_disjoint_support_operators_commute_exactly():
    space = make_space([3, 3])
    a1 = ladder(space, 1).lower
    b2_raise = ladder(space, 2).raise_
    diff = commutator(a1, b2_raise).matrix
    diff.eliminate_zeros()
    assert diff.nnz == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_adjoint_involution_exact(cutoff):
    space = make_space([cutoff])
    a = ladder(space, 1).lower
    twice = a.adjoint().adjoint().matrix
    assert (twice != a.matrix).nnz == 0


def test_expectation_identity_is_unit_trace():
    space = make_space([40])
    rho = thermal_density(space, 1, ThermalParams.from_q_squared(0.5))
    val = expectation(rho, identity_operator(space))
    assert abs(val - 1.0) < 1e-12


def test_expectation_trace_linearity():
    space = make_space([20])
    rho = thermal_density(space, 1, ThermalParams.from_q_squared(0.4))
    t = ladder(space, 1)
    x = t.raise_ @ t.lower
    y = t.lower @ t.raise_
    lhs = expectation(rho, 0.7 * x + (2.0 - 1.0j) * y)
    rhs = 0.7 * expectation(rho, x) + (2.0 - 1.0j) * expectation(rho, y)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_expectation_space_mismatch():
    rho = thermal_density(make_space([5]), 1, ThermalParams.from_q_squared(0.5))
    other = identity_operator(make_space([6]))
    with pytest.raises(ValueError):
        expectation(rho, other)


def test_relation_residual_identical_operands():
    space = make_space([6])
    a = ladder(space, 1).lower
    assert relation_residual(a, a, margin=1) == 0.0


def test_relation_residual_margin_validation():
    space = make_space([4, 2])
    one = identity_operator(space)
    with pytest.raises(ValueError):
        relation_residual(one, one, margin=2)  # >= smallest cutoff
    with pytest.raises(ValueError):
        relation_residual(one, one, margin=-1)


def test_relation_residual_masks_top_states():
    space = make_space([3, 3])
    zero = diagonal_operator(space, np.zeros(space.dimension))
    for flat, occ in enumerate(space.occupations):
        vals = np.zeros(space.dimension, dtype=complex)
        vals[flat] = 2.0 + flat
        diff = diagonal_operator(space, vals)
        at_margin_one = relation_residual(diff, zero, margin=1)
        if np.any(occ == 3):
            assert at_margin_one == 0.0, occ
        else:
            assert at_margin_one == 2.0 + flat, occ
        assert relation_residual(diff, zero, margin=0) == 2.0 + flat
    # A top state masks its column as well as its row.
    entry = np.zeros((space.dimension, space.dimension), dtype=complex)
    entry[space.flat_index([2, 2]), space.flat_index([3, 2])] = 1.0
    off_diagonal = LinearOperator(space, entry)
    assert relation_residual(off_diagonal, zero, margin=1) == 0.0
    assert relation_residual(off_diagonal, zero, margin=0) == 1.0


def test_frobenius_norm_option():
    space = make_space([5])
    vals = np.zeros(space.dimension, dtype=complex)
    vals[0] = 3.0
    vals[1] = 4.0
    op = diagonal_operator(space, vals)
    assert op.norm("frobenius") == pytest.approx(5.0)
    assert op.norm("spectral") == pytest.approx(4.0)
    # 3 and 4 in one row: not monomial, so the dense SVD gives 5, not max|entry|.
    row = np.zeros((space.dimension, space.dimension), dtype=complex)
    row[2, 0] = 3.0
    row[2, 4] = 4.0
    assert matrix_norm(sp.csr_matrix(row), "spectral") == pytest.approx(5.0)


def test_monomial_spectral_norm_is_largest_entry_modulus():
    """A permutation times a diagonal: the norm is max|entry|, with no SVD."""
    dim = 700
    rng = np.random.default_rng(7)
    data = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    m = sp.csr_matrix((data, (np.arange(dim), rng.permutation(dim))), shape=(dim, dim))
    value = matrix_norm(m, "spectral")
    assert value == np.abs(data).max()
    assert abs(value - np.linalg.norm(m.toarray(), 2)) <= dim * np.spacing(value)


def test_large_non_monomial_spectral_norm_refused_without_densifying():
    dim = 600
    bidiagonal = sp.diags([np.ones(dim), np.ones(dim - 1)], [0, 1], format="csr",
                          dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense limit"):
            matrix_norm(bidiagonal, "spectral")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * dim * 16 // 10
    assert matrix_norm(bidiagonal, "frobenius") == pytest.approx(np.sqrt(2 * dim - 1))


def test_degree_two_relations_exact_at_margin_two():
    """Quadratic ladder identities vanish to machine precision at margin >= 2."""
    space = make_space([16])
    t = ladder(space, 1)
    bound = machine_zero_bound(space)
    assert relation_residual(commutator(t.lower, t.raise_), identity_operator(space),
                             margin=2) <= bound


def test_number_state_projector():
    space = make_space([4])
    p2 = number_state_projector(space, 1, 2)
    state = basis_state(space, [2])
    np.testing.assert_array_equal(p2.apply(state).amplitudes, state.amplitudes)
    assert p2.apply(basis_state(space, [1])).norm() == 0.0
