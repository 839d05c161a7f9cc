import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
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
    operator_on_mode,
    relation_residual,
    thermal_density,
)
from qboson_kit import fock
from qboson_kit.fock import machine_zero_bound


def occupation_table(space):
    """(dimension, mode_count) occupations of the basis states, listed row-major with
    mode 1 slowest by numpy's own multi-index order, independent of FockSpace."""
    return np.indices(space.shape).reshape(space.mode_count, -1).T


def from_dense(space, m):
    """The operator with the entries of a dense matrix, one diagonal per offset."""
    rows, cols = np.nonzero(m)
    diagonals = {}
    for d in np.unique(cols - rows).tolist():
        on = cols - rows == d
        c = np.zeros(space.dimension, dtype=complex)
        c[cols[on]] = m[rows[on], cols[on]]
        diagonals[d] = c
    return LinearOperator(space, diagonals)


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
        make_space([99, 99, 99, 99])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=10 ** 6))
def test_basis_round_trip(cutoffs, seed_flat):
    """flat -> multi -> flat is the identity for every basis index."""
    space = make_space(cutoffs)
    flat = seed_flat % space.dimension
    multi = tuple(occupation_table(space)[flat].tolist())
    assert space.flat_index(multi) == flat
    assert all(0 <= n <= c for n, c in zip(multi, space.cutoffs))


def test_basis_order_mode_one_slowest():
    space = make_space([2, 1])
    # row-major with mode 1 slowest: (0,0),(0,1),(1,0),(1,1),(2,0),(2,1)
    listed = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert [tuple(row) for row in occupation_table(space).tolist()] == listed
    assert list(zip(*(space.flat(n).tolist() for n in space.grid))) == listed
    assert [space.flat_index(multi) for multi in listed] == list(range(6))


@pytest.mark.parametrize("cutoffs", [[1], [4], [2, 1], [1, 3, 2], [3, 1, 2, 1]])
def test_grid_and_flat_match_the_occupation_table(cutoffs):
    space = make_space(cutoffs)
    table = occupation_table(space)
    assert len(space.grid) == space.mode_count
    for k, n in enumerate(space.grid):
        assert n.shape == tuple(s if j == k else 1 for j, s in enumerate(space.shape))
        assert not n.flags.writeable
        with pytest.raises(ValueError):
            n[...] = 0
        assert space.flat(n).tolist() == table[:, k].tolist()
    weights = 0.5 ** np.arange(space.shape[0], dtype=float)
    expression = weights[space.grid[0]] * (sum(space.grid[1:]) == 0)
    reference = weights[table[:, 0]] * (table[:, 1:].sum(axis=1) == 0)
    assert space.flat(expression).tobytes() == reference.tobytes()


def test_flat_broadcasts_a_scalar_into_a_fresh_array():
    space = make_space([2, 3])
    ones = space.flat(1.5)
    assert ones.shape == (space.dimension,) and ones.dtype == float
    assert ones.tolist() == [1.5] * space.dimension
    assert space.flat(True).dtype == bool and space.flat(2j).dtype == complex
    values = np.arange(space.dimension).reshape(space.shape)
    out = space.flat(values)
    out[0] = -1
    assert values[0, 0] == 0  # a copy, not a view


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


def _kron_reference(shape, mode, values, lower):
    """Dense embedding of the single-mode block |n> -> values[n] |n - lower>."""
    k = mode - 1
    d = shape[k]
    block = np.zeros((d, d), dtype=complex)
    for n in range(lower, d):
        block[n - lower, n] = values[n]
    before = int(np.prod(shape[:k]))
    after = int(np.prod(shape[k + 1:]))
    return np.kron(np.eye(before), np.kron(block, np.eye(after)))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_operator_on_mode_matches_kron_reference(mode):
    space = make_space([2, 3, 1])
    cutoff = space.cutoffs[mode - 1]
    rng = np.random.default_rng(mode)
    for lower in sorted({0, 1, cutoff}):
        values = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
        op = operator_on_mode(space, mode, values, lower=lower)
        np.testing.assert_array_equal(op.toarray(),
                                      _kron_reference(space.shape, mode, values, lower))


def test_operator_on_mode_diagonal_matches_the_occupation_gather_bytes():
    """The repeated and tiled value column stores the bytes that gathering the
    values by each state's occupation stored before it."""
    space = make_space([2, 3, 4])
    for mode in (1, 2, 3):
        k = mode - 1
        cutoff = space.cutoffs[k]
        values = np.array([complex(-0.0, 1.5 * n - 2.0) if n % 2 else complex(0.25 * n, -0.0)
                           for n in range(cutoff + 1)])
        for lower in range(cutoff + 1):
            op = operator_on_mode(space, mode, values, lower=lower)
            n = occupation_table(space)[:, k]
            offset = lower * int(np.prod(space.shape[k + 1:], dtype=np.int64))
            reference = LinearOperator(space, {offset: np.where(n >= lower, values[n], 0.0)})
            assert op.diagonals.keys() == reference.diagonals.keys() == {offset}
            assert op.diagonals[offset].tobytes() == reference.diagonals[offset].tobytes()


def test_operator_on_mode_validation():
    space = make_space([2, 3, 1])
    with pytest.raises(ValueError):
        operator_on_mode(space, 2, np.ones(3))
    with pytest.raises(ValueError):
        operator_on_mode(space, 2, np.ones(4), lower=-1)
    with pytest.raises(ValueError):
        operator_on_mode(space, 2, np.ones(4), lower=4)
    with pytest.raises(ValueError):
        operator_on_mode(space, 0, np.ones(3))


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
    assert len(commutator(a1, b2_raise).entries()[2]) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_adjoint_involution_exact(cutoff):
    space = make_space([cutoff])
    a = ladder(space, 1).lower
    assert np.array_equal(a.adjoint().adjoint().toarray(), a.toarray())


def test_expectation_identity_is_unit_trace():
    space = make_space([40])
    rho = thermal_density(space, 1, 0.5)
    val = expectation(rho, identity_operator(space))
    assert abs(val - 1.0) < 1e-12


def test_expectation_trace_linearity():
    space = make_space([20])
    rho = thermal_density(space, 1, 0.4)
    t = ladder(space, 1)
    x = t.raise_ @ t.lower
    y = t.lower @ t.raise_
    lhs = expectation(rho, 0.7 * x + (2.0 - 1.0j) * y)
    rhs = 0.7 * expectation(rho, x) + (2.0 - 1.0j) * expectation(rho, y)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_expectation_space_mismatch():
    rho = thermal_density(make_space([5]), 1, 0.5)
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
    for flat, occ in enumerate(occupation_table(space)):
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
    off_diagonal = from_dense(space, entry)
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
    assert from_dense(space, row).norm("spectral") == pytest.approx(5.0)


def test_monomial_spectral_norm_is_largest_entry_modulus():
    """A permutation times a diagonal: the norm is max|entry|, with no SVD."""
    dim = 700
    rng = np.random.default_rng(7)
    data = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    m = np.zeros((dim, dim), dtype=complex)
    m[np.arange(dim), rng.permutation(dim)] = data
    value = from_dense(make_space([dim - 1]), m).norm("spectral")
    assert value == np.abs(data).max()
    assert abs(value - np.linalg.norm(m, 2)) <= dim * np.spacing(value)


def test_large_non_monomial_spectral_norm_refused_without_densifying():
    dim = 600
    upper = np.ones(dim, dtype=complex)
    upper[0] = 0.0
    bidiagonal = LinearOperator(make_space([dim - 1]),
                                {0: np.ones(dim, dtype=complex), 1: upper})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense limit"):
            bidiagonal.norm("spectral")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * dim * 16 // 10
    assert bidiagonal.norm("frobenius") == pytest.approx(np.sqrt(2 * dim - 1))


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


def test_constructor_refuses_entries_whose_row_is_outside_the_matrix():
    """c[j] is the entry (j - d, j): c[:d] for d > 0 and c[dim + d:] for d < 0 have no
    row and must be zero, or toarray() would write them through a negative index."""
    space = make_space([2])
    with pytest.raises(ValueError, match="diagonal 1: nonzero entry"):
        LinearOperator(space, {1: np.ones(3, dtype=complex)})
    with pytest.raises(ValueError, match="diagonal -2: nonzero entry"):
        LinearOperator(space, {-2: np.array([1, 0, 1j])})
    op = LinearOperator(space, {1: np.array([-0.0, 1, 2], dtype=complex),
                                -2: np.array([3, 0, 0], dtype=complex)})
    assert op.toarray().tolist() == [[0, 1, 0], [0, 0, 2], [3, 0, 0]]


@pytest.mark.parametrize("build,message", [
    (lambda s: s.flat_index([1]), "expected 2 occupation numbers, got 1"),
    (lambda s: s.flat_index([1, 3]), r"occupation 3 outside \[0, 2\]"),
    (lambda s: LinearOperator(s, {12: np.zeros(12, complex)}), "diagonal 12: expected"),
    (lambda s: LinearOperator(s, {0: np.zeros(11, complex)}), "diagonal 0: expected"),
    (lambda s: LinearOperator(s, {-1: np.zeros(12)}),
     r"diagonal -1: expected a complex array of length 12 at an offset inside \(-12, 12\)"),
    (lambda s: diagonal_operator(s, np.ones(11)), r"diagonal has shape \(11,\), expected \(12,\)"),
], ids=["flat-index-length", "flat-index-range", "offset", "length", "dtype",
        "diagonal-shape"])
def test_space_and_operator_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build(make_space([3, 2]))


def test_only_fock_knows_the_diagonal_format():
    """No other module reads the stored diagonals or names fock's private helpers."""
    pattern = re.compile(
        r"\.diagonals\b|\b(_shift|_row_major|_nonzero|_operator|_product_diagonals|_norm)\b")
    for path in sorted(Path(fock.__file__).parent.glob("*.py")):
        if path.name != "fock.py":
            assert not pattern.search(path.read_text()), path.name


def test_only_fock_knows_the_basis_order():
    """No other module flattens or strides the basis; they use `grid` and `flat`.  The
    R-matrix's `reshape((n,) * k)` calls are on its own tensor indices."""
    pattern = re.compile(r"\b(occupations|unravel_index|ravel_multi_index|stride)\b"
                         r"|reshape\(-1\)")
    for path in sorted(Path(fock.__file__).parent.glob("*.py")):
        if path.name != "fock.py":
            assert not pattern.search(path.read_text()), path.name
    assert not hasattr(make_space([2, 2]), "occupations")
