"""The diagonal operator algebra against a dense numpy reference built here.

Entries are small Gaussian integers, so every product and sum is exact in
floating point on both sides and the comparisons use ==.  Only spectral
norms of non-monomial blocks (an SVD) and Frobenius norms (a square root)
are compared approximately.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson_kit import (
    LinearOperator,
    StateVector,
    diagonal_operator,
    expectation,
    make_space,
    operator_on_mode,
    relation_residual,
)

gaussian = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def spaces(draw):
    modes = draw(st.integers(1, 3))
    return make_space(draw(st.lists(st.integers(1, 4), min_size=modes, max_size=modes)))


@st.composite
def single_terms(draw, space):
    """One operator_on_mode or diagonal_operator term, with its dense matrix."""
    if draw(st.booleans()):
        values = draw(st.lists(gaussian, min_size=space.dimension, max_size=space.dimension))
        return diagonal_operator(space, values), np.diag(np.array(values, dtype=complex))
    mode = draw(st.integers(1, space.mode_count))
    cutoff = space.cutoffs[mode - 1]
    lower = draw(st.integers(0, cutoff))
    values = draw(st.lists(gaussian, min_size=cutoff + 1, max_size=cutoff + 1))
    single = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(lower, cutoff + 1):
        single[n - lower, n] = values[n]
    dense = np.ones((1, 1), dtype=complex)
    for k, c in enumerate(space.cutoffs):
        dense = np.kron(dense, single if k == mode - 1 else np.eye(c + 1))
    return operator_on_mode(space, mode, values, lower=lower), dense


@st.composite
def terms(draw, space):
    """A single term, its adjoint, or a product of two of these."""
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        op, dense = draw(single_terms(space))
        factors.append((op.adjoint(), dense.conj().T) if draw(st.booleans()) else (op, dense))
    if len(factors) == 1:
        return factors[0]
    (x, xd), (y, yd) = factors
    return x @ y, xd @ yd


@st.composite
def operators(draw, space):
    """A sum of one to three terms, with its dense matrix."""
    op, dense = draw(terms(space))
    for _ in range(draw(st.integers(0, 2))):
        term, term_dense = draw(terms(space))
        op, dense = op + term, dense + term_dense
    return op, dense


def assert_matches(op, dense):
    """Same entries as `dense`, in the stored form LinearOperator documents."""
    dim = op.space.dimension
    for d, c in op.diagonals.items():
        assert c.shape == (dim,) and c.any()
        lo, hi = max(d, 0), dim + min(d, 0)
        assert not c[:lo].any() and not c[hi:].any()
        zero = c == 0
        assert not np.signbit(c[zero].real).any() and not np.signbit(c[zero].imag).any()
    rows, cols, values = op.entries()
    expected_rows, expected_cols = np.nonzero(dense)  # row-major, like entries()
    assert np.array_equal(rows, expected_rows) and np.array_equal(cols, expected_cols)
    assert np.array_equal(values, dense[expected_rows, expected_cols])
    assert np.array_equal(op.toarray(), dense)
    assert np.array_equal(op.matrix.toarray(), dense)


def is_monomial(dense):
    nonzero = dense != 0
    return nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1


def assert_norms(value_spectral, value_frobenius, block):
    if not block.any():
        assert value_spectral == value_frobenius == 0.0
        return
    if is_monomial(block):
        assert value_spectral == np.abs(block).max()
    else:
        assert value_spectral == pytest.approx(np.linalg.norm(block, 2), rel=1e-12)
    assert value_frobenius == pytest.approx(np.linalg.norm(block, "fro"), rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_algebra_matches_dense_reference(data):
    space = data.draw(spaces())
    x, xd = data.draw(operators(space))
    y, yd = data.draw(operators(space))
    scalar = data.draw(gaussian)
    assert_matches(x, xd)
    assert_matches(x @ y, xd @ yd)
    assert_matches(x + y, xd + yd)
    assert_matches(x - y, xd - yd)
    assert_matches(scalar * x, scalar * xd)
    assert_matches(-x, -xd)
    assert_matches(x.adjoint(), xd.conj().T)
    amplitudes = np.array(data.draw(st.lists(gaussian, min_size=space.dimension,
                                             max_size=space.dimension)), dtype=complex)
    assert np.array_equal(x.apply(StateVector(space, amplitudes)).amplitudes, xd @ amplitudes)
    assert x.trace() == np.trace(xd)
    assert expectation(x, y) == np.trace(xd @ yd)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_single_diagonal_operators_match_dense_reference(data):
    """A term, its adjoint or a product of two is one diagonal: entries() and the
    traces against it take the one-offset path."""
    space = data.draw(spaces())
    x, xd = data.draw(terms(space))
    y, yd = data.draw(terms(space))
    assert len(x.diagonals) <= 1 and len(y.diagonals) <= 1
    assert_matches(x, xd)
    assert expectation(x, y) == np.trace(xd @ yd)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_norms_and_residuals_match_dense_reference(data):
    space = data.draw(spaces())
    x, xd = data.draw(operators(space))
    y, yd = data.draw(operators(space))
    assert_norms(x.norm("spectral"), x.norm("frobenius"), xd)
    margin = data.draw(st.integers(0, min(space.cutoffs) - 1))
    keep = np.flatnonzero(np.all(space.occupations <= np.array(space.cutoffs) - margin,
                                 axis=1))
    assert_norms(relation_residual(x, y, margin, norm="spectral"),
                 relation_residual(x, y, margin, norm="frobenius"),
                 (xd - yd)[np.ix_(keep, keep)])


signed_zero = st.sampled_from([0.0, -0.0])
zero_entries = st.builds(complex, signed_zero, signed_zero)
# Entries whose parts may be signed zeros: both zero, one zero, or neither.
signed_entries = st.one_of(zero_entries,
                           st.builds(complex, signed_zero, st.integers(-3, 3)),
                           st.builds(complex, st.integers(-3, 3), signed_zero),
                           gaussian)


@st.composite
def raw_operators(draw, space):
    """An operator built from diagonals as a caller may hand them over, with its
    dense matrix: -0 entries, lone zero parts and all-zero diagonals."""
    dim = space.dimension
    dense = np.zeros((dim, dim), dtype=complex)
    diagonals = {}
    for d in draw(st.lists(st.integers(1 - dim, dim - 1), max_size=4, unique=True)):
        values = zero_entries if draw(st.booleans()) else signed_entries
        c = np.array(draw(st.lists(values, min_size=dim, max_size=dim)), dtype=complex)
        lo, hi = max(d, 0), dim + min(d, 0)
        c[:lo] = c[hi:] = complex(-0.0, -0.0)
        dense[np.arange(lo, hi) - d, np.arange(lo, hi)] = c[lo:hi]
        diagonals[d] = c
    return LinearOperator(space, diagonals), dense


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_constructor_and_algebra_keep_operators_canonical(data):
    space = data.draw(spaces())
    x, xd = data.draw(raw_operators(space))
    y, yd = data.draw(raw_operators(space))
    scalar = data.draw(signed_entries)
    assert_matches(x, xd)
    assert_matches(x @ y, xd @ yd)
    assert_matches(x + y, xd + yd)
    assert_matches(x - y, xd - yd)
    assert_matches(scalar * x, scalar * xd)
    assert_matches(x.adjoint(), xd.conj().T)
