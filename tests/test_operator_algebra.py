"""The diagonal operator algebra against a dense numpy reference built here.

Entries are small Gaussian integers, so every product and sum is exact in
floating point on both sides and the comparisons use ==.  Only spectral
norms of non-monomial blocks (an SVD) and Frobenius norms (a square root)
are compared approximately.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson_kit import (
    LinearOperator,
    StateVector,
    coherent_density,
    diagonal_operator,
    expectation,
    ladder,
    linear_combination,
    make_space,
    operator_on_mode,
    phase_pair,
    relation_residual,
    thermal_density,
)
from qboson_kit.dump import format_operator

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
    occ = np.indices(space.shape).reshape(space.mode_count, -1).T
    keep = np.flatnonzero(np.all(occ <= np.array(space.cutoffs) - margin, axis=1))
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
def raw_diagonals(draw, space, nonzero=0):
    """Diagonals as a caller may hand them over, with their dense matrix: -0 entries,
    lone zero parts and all-zero diagonals; at least `nonzero` of them hold a nonzero."""
    dim = space.dimension
    dense = np.zeros((dim, dim), dtype=complex)
    diagonals = {}
    offsets = st.lists(st.integers(1 - dim, dim - 1), min_size=nonzero, max_size=4, unique=True)
    for k, d in enumerate(draw(offsets)):
        values = zero_entries if k >= nonzero and draw(st.booleans()) else signed_entries
        c = np.array(draw(st.lists(values, min_size=dim, max_size=dim)), dtype=complex)
        lo, hi = max(d, 0), dim + min(d, 0)
        c[:lo] = c[hi:] = complex(-0.0, -0.0)
        if k < nonzero and not c.any():
            c[draw(st.integers(lo, hi - 1))] = draw(gaussian.filter(bool))
        dense[np.arange(lo, hi) - d, np.arange(lo, hi)] = c[lo:hi]
        diagonals[d] = c
    return diagonals, dense


@st.composite
def raw_operators(draw, space, nonzero=0):
    """An operator built from raw_diagonals, with its dense matrix."""
    diagonals, dense = draw(raw_diagonals(space, nonzero))
    return LinearOperator(space, diagonals), dense


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_constructor_refuses_rowless_entries_and_toarray_follows_the_documented_rule(data):
    """Diagonals with arbitrary padding: the constructor refuses a nonzero entry whose
    row j - d is outside the matrix, and otherwise toarray() puts c[j] at (j - d, j)."""
    space = data.draw(spaces())
    dim = space.dimension
    diagonals = {}
    for d in data.draw(st.lists(st.integers(1 - dim, dim - 1), max_size=4, unique=True)):
        c = np.array(data.draw(st.lists(signed_entries, min_size=dim, max_size=dim)),
                     dtype=complex)
        if data.draw(st.booleans()):  # a valid diagonal, as raw_diagonals draws them
            c[:max(d, 0)] = c[dim + min(d, 0):] = 0.0
        diagonals[d] = c
    rowless = any(c[j] != 0 for d, c in diagonals.items() for j in range(dim)
                  if not 0 <= j - d < dim)
    if rowless:
        with pytest.raises(ValueError, match="falls outside the matrix"):
            LinearOperator(space, diagonals)
        return
    dense = np.zeros((dim, dim), dtype=complex)
    for d, c in diagonals.items():
        for j in range(dim):
            if 0 <= j - d < dim:
                dense[j - d, j] = c[j]
    assert np.array_equal(LinearOperator(space, diagonals).toarray(), dense)


def _safe_states(space, margin):
    """The states with n_i <= cutoff_i - margin, from the occupation table."""
    occ = np.indices(space.shape).reshape(space.mode_count, -1).T
    return np.all(occ <= np.array(space.cutoffs) - margin, axis=1)


def _masked_block_norm(lhs, rhs, margin, kind):
    """relation_residual as it was computed before it skipped the operator: the safe
    block of lhs - rhs made a LinearOperator, and that operator's norm."""
    space = lhs.space
    keep = _safe_states(space, margin)
    a, b = lhs.diagonals, rhs.diagonals
    block = {}
    for d in a.keys() | b.keys():
        lo, hi = max(d, 0), space.dimension + min(d, 0)
        both = np.zeros(space.dimension, dtype=bool)  # row j - d and column j kept
        both[lo:hi] = keep[lo:hi] & keep[lo - d:hi - d]
        block[d] = np.where(both, a.get(d, 0.0) - b.get(d, 0.0), 0)
    return LinearOperator(space, block).norm(kind)


nonfinite = st.sampled_from([np.inf, -np.inf, np.nan, complex(np.inf, np.nan),
                             complex(0.0, -np.inf)])


def _poisoned(op, margin, value):
    """op with `value` written into every entry of its diagonals and of the main
    diagonal whose row or column is outside the safe block at `margin`."""
    space, dim = op.space, op.space.dimension
    keep = _safe_states(space, margin)
    diagonals = {d: c.copy() for d, c in op.diagonals.items()}
    diagonals.setdefault(0, np.zeros(dim, dtype=complex))
    for d, c in diagonals.items():
        j = np.arange(max(d, 0), dim + min(d, 0))
        c[j[~(keep[j] & keep[j - d])]] = value
    return LinearOperator(space, diagonals)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relation_residual_matches_the_masked_operator_norm_bit_for_bit(data):
    """Also with inf and nan outside the safe block, which the residual never sees;
    and the safe states, set as a box, are those of the occupation table."""
    space = data.draw(spaces())
    x, _ = data.draw(raw_operators(space))
    y, _ = data.draw(raw_operators(space))
    bad_x, bad_y = data.draw(nonfinite), data.draw(nonfinite)
    for margin in range(min(space.cutoffs)):
        assert np.array_equal(~space._unsafe_window(margin)[space.dimension],
                              _safe_states(space, margin))
        lhs, rhs = _poisoned(x, margin, bad_x), _poisoned(y, margin, bad_y)
        for kind in ("spectral", "frobenius"):
            got = relation_residual(x, y, margin, norm=kind)
            want = _masked_block_norm(x, y, margin, kind)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            with np.errstate(invalid="ignore"):  # inf - inf outside the block
                got = relation_residual(lhs, rhs, margin, norm=kind)
                want = _masked_block_norm(lhs, rhs, margin, kind)
            assert np.isfinite(got)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


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


# -- kernels that skip the constructor's checks ---------------------------------

# 1/3 and 0.1 + 0.7j make sums order-sensitive; 1e-200 makes products underflow.
scales = st.sampled_from([1.0, -1.0, 1 / 3, 0.1 + 0.7j, 1e-200])


def _scaled_read_only(op, scale):
    """op with every diagonal scaled, through the constructor, and its arrays made
    read-only: a kernel that writes into an operand's array raises."""
    scaled = LinearOperator(op.space, {d: c * scale for d, c in op.diagonals.items()})
    for c in scaled.diagonals.values():
        c.flags.writeable = False
    return scaled


def assert_same_bits(op, other):
    assert sorted(op.diagonals) == sorted(other.diagonals)
    for d, c in other.diagonals.items():
        assert np.array_equal(op.diagonals[d].view(np.int64), c.view(np.int64))


def assert_canonical(op):
    """op's diagonals are complex arrays of length `dimension`, none of them all zero."""
    for c in op.diagonals.values():
        assert c.dtype == complex and c.shape == (op.space.dimension,) and c.any()


def bits(value: complex) -> bytes:
    return np.complex128(value).tobytes()


def _shifted(x, s):
    """y[j] = x[j - s], zero where j - s falls outside x."""
    y = np.zeros_like(x)
    y[max(s, 0):len(x) + min(s, 0)] = x[max(-s, 0):len(x) + min(-s, 0)]
    return y


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernels_drop_all_zero_diagonals_with_the_constructors_bits(data):
    """Products, single-mode operators and linear combinations hold no all-zero
    diagonal, with -0 inputs, cancelling pairs and underflowing products.  Sums,
    differences, scalar multiples, negation and the adjoint skip the constructor's
    checks and give its bits on the arrays they computed before."""
    space = data.draw(spaces())
    scale = data.draw(scales)
    x = _scaled_read_only(data.draw(raw_operators(space))[0], scale)
    y = _scaled_read_only(data.draw(raw_operators(space))[0], scale)
    assert_canonical(x @ y)
    assert_canonical(x @ x.adjoint())
    a_d = x.diagonals
    for got, op, b_d in ((x + y, np.add, y.diagonals), (x - y, np.subtract, y.diagonals),
                         (x - x, np.subtract, a_d)):
        assert_same_bits(got, LinearOperator(space, {
            d: op(0.0 + a_d.get(d, 0.0), b_d.get(d, 0.0)) for d in a_d.keys() | b_d.keys()}))
    scalar = data.draw(st.one_of(signed_entries, scales))  # 1e-200 x 1e-200 underflows
    assert_same_bits(scalar * x, LinearOperator(space, {d: c * scalar for d, c in a_d.items()}))
    assert_same_bits(-x, LinearOperator(space, {d: c * -1.0 for d, c in a_d.items()}))
    assert_same_bits(x.adjoint(), LinearOperator(
        space, {-d: _shifted(np.conjugate(c), -d) for d, c in a_d.items()}))
    a, b = data.draw(signed_entries), data.draw(signed_entries)
    pairs = [(a, x), (b, y), (-a, x)]  # the x parts cancel
    combo = linear_combination(space, pairs)
    assert_canonical(combo)
    assert_same_bits(combo, sum((c * op for c, op in pairs), LinearOperator(space, {})))
    mode = data.draw(st.integers(1, space.mode_count))
    cutoff = space.cutoffs[mode - 1]
    values = np.array(data.draw(st.lists(signed_entries, min_size=cutoff + 1,
                                         max_size=cutoff + 1)), dtype=complex) * scale
    assert_canonical(operator_on_mode(space, mode, values, data.draw(st.integers(0, cutoff))))


def _pairwise_product(x, y):
    """The diagonals of x @ y: an offset that one pair of diagonals reaches holds their
    product, and pairs that share an offset add up from zeros in ascending d1."""
    dim = x.space.dimension
    pairs = {}
    for d1 in sorted(x.diagonals):
        for d2, b in y.diagonals.items():
            if -dim < d1 + d2 < dim:
                pairs.setdefault(d1 + d2, []).append((x.diagonals[d1], d2, b))
    out = {}
    for d, terms in pairs.items():
        c = out[d] = np.zeros(dim, dtype=complex)
        for a, d2, b in terms:
            j = np.arange(max(d2, 0), dim + min(d2, 0))
            c[j] = a[j - d2] * b[j] if len(terms) == 1 else c[j] + a[j - d2] * b[j]
    return LinearOperator(x.space, out)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_products_add_the_pairs_on_each_offset_in_ascending_d1(data):
    """Inexact entries make the order of each sum show in the bits, and -0 parts its
    start from zeros.  x @ x and x @ x^+ have offsets that two pairs share."""
    space = data.draw(spaces())
    x, y = (_scaled_read_only(data.draw(raw_operators(space, nonzero=2))[0],
                              data.draw(st.sampled_from([1 / 3, 0.1 + 0.7j, 1e-200])))
            for _ in range(2))
    for a, b in ((x, y), (x, x), (x, x.adjoint())):
        got, want = (a @ b).entries(), _pairwise_product(a, b).entries()
        assert [r.tobytes() for r in got] == [r.tobytes() for r in want]


def _zero_signs_flipped(op):
    """op, through the constructor, with the sign of both parts of every zero entry
    flipped: -0 becomes +0 and +0 becomes -0."""
    return LinearOperator(op.space, {d: np.where(c == 0, -c, c) for d, c in op.diagonals.items()})


def _public_reads(x, y, rho, scalar, amplitudes):
    """The bytes of every public read of x, alone, with y and under rho."""
    space = x.space
    reads = [*x.entries(), x.toarray(), x.diagonal(), x.trace(), x.norm("spectral"),
             x.norm("frobenius"), x.apply(StateVector(space, amplitudes)).amplitudes,
             expectation(rho, x), expectation(rho, x, y), format_operator(x).encode()]
    for margin in range(min(space.cutoffs)):
        reads += [relation_residual(x, y, margin, norm=kind) for kind in ("spectral", "frobenius")]
    for derived in (x @ y, x + y, x - y, scalar * x, -x, x.adjoint(),
                    linear_combination(space, [(scalar, x), (1.0, y)])):
        reads += derived.entries()
    return [r if isinstance(r, bytes) else np.asarray(r).tobytes() for r in reads]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_public_reads_ignore_the_sign_of_stored_zeros(data):
    """The sign of a stored zero is free: flipping it leaves every read bit for bit."""
    space = data.draw(spaces())
    x, y, rho = (_scaled_read_only(data.draw(raw_operators(space))[0], data.draw(scales))
                 for _ in range(3))
    scalar = data.draw(st.one_of(signed_entries, scales))
    amplitudes = np.array(data.draw(st.lists(signed_entries, min_size=space.dimension,
                                             max_size=space.dimension)), dtype=complex)
    flipped = [_zero_signs_flipped(op) for op in (x, y, rho)]
    assert _public_reads(*flipped, scalar, amplitudes) == _public_reads(x, y, rho, scalar,
                                                                         amplitudes)


def test_sums_and_dense_residuals_ignore_the_sign_of_stored_zeros():
    """A stored zero of x meets a zero part of y's entry in x - y and x + y, and the SVD
    of a non-monomial residual block sees the signs of zero parts: both add up from +0."""
    n = complex(-0.0, -0.0)
    x = LinearOperator(make_space([1]), {0: np.array([n, 1])})
    f = _zero_signs_flipped(x)
    for y0 in (complex(0.0, 1.0), complex(-0.0, 1.0)):
        y = LinearOperator(x.space, {0: np.array([y0, 1])})
        for got, want in ((x + y, f + y), (x - y, f - y), (y + x, y + f), (y - x, y - f)):
            assert [r.tobytes() for r in got.entries()] == [r.tobytes() for r in want.entries()]
    space = make_space([2, 2])
    x = LinearOperator(space, {0: np.array([0, 0, 1, 1, 0, 1, 1, 1, n]),
                               -4: np.array([n, n, 1, n, n, n, 0, 0, n]),
                               -2: np.array([1, n, n, n, n, 1, n, 0, n])})
    y = LinearOperator(space, {
        0: np.array([1 + 1j, 0 - 2j, -2 + 2j, -1 + 2j, -2, 1, 0, -1, 1 - 1j]),
        -4: np.array([1 - 2j, 0, -1, 2, -1, 0, 0, 0, 0], dtype=complex),
        -2: np.array([-2, 2, -1, 2, 0 - 1j, 2 + 2j, 0, 0, 0])})
    got = relation_residual(x, y, 0)
    assert bits(relation_residual(_zero_signs_flipped(x), y, 0)) == bits(got)
    assert got == pytest.approx(np.linalg.norm(x.toarray() - y.toarray(), 2), rel=1e-12)


def test_products_ignore_the_sign_of_stored_zeros():
    """On offset 1 of x @ y, x's stored zero times 1 and a product with a -0 real part
    meet in entry 1: pairs that share an offset add up from +0."""
    x = LinearOperator(make_space([3]), {0: np.array([complex(-0.0, 0.0), 1, 1, 1]),
                                         1: np.array([0, complex(-0.0, 1.0), 1, 1])})
    y = LinearOperator(x.space, {0: np.ones(4, dtype=complex),
                                 1: np.array([0, 1, 1, 1], dtype=complex)})
    flipped = _zero_signs_flipped(x) @ y
    assert [r.tobytes() for r in (x @ y).entries()] == [r.tobytes() for r in flipped.entries()]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_constructor_and_kernels_accept_read_only_input_and_leave_it_unchanged(data):
    """Input arrays, read-only or not, keep their bytes, -0 entries included."""
    space = data.draw(spaces())
    given_diagonals = [data.draw(raw_diagonals(space))[0] for _ in range(3)]
    mode = data.draw(st.integers(1, space.mode_count))
    cutoff = space.cutoffs[mode - 1]
    vectors = [np.array(data.draw(st.lists(signed_entries, min_size=n, max_size=n)),
                        dtype=complex) for n in (cutoff + 1, space.dimension, space.dimension)]
    arrays = [c for diagonals in given_diagonals for c in diagonals.values()] + vectors
    for c in arrays:
        c.flags.writeable = data.draw(st.booleans())
    before = [c.tobytes() for c in arrays]
    x, y, rho = (LinearOperator(space, diagonals) for diagonals in given_diagonals)
    values, eigenvalues, amplitudes = vectors
    scalar = data.draw(signed_entries)
    operator_on_mode(space, mode, values, data.draw(st.integers(0, cutoff)))
    diagonal_operator(space, eigenvalues)
    _public_reads(x, y, rho, scalar, amplitudes)
    assert [c.tobytes() for c in arrays] == before


def test_algebra_refuses_non_scalars_and_non_operators():
    """`*` takes numbers only, as complex, and `+`/`-` operators only: anything else is a
    TypeError."""
    space = make_space([3, 2])
    a = ladder(space, 1).lower
    for bad in (a, np.arange(space.dimension), np.array(2.0), "2", None):
        with pytest.raises(TypeError):
            a * bad
        with pytest.raises(TypeError):
            bad * a
    for bad in (1, 0.0, 1j, np.zeros(space.dimension), a.toarray(), None):
        for result in (lambda: a + bad, lambda: bad + a, lambda: a - bad, lambda: bad - a):
            with pytest.raises(TypeError):
                result()
    for scalar in (2, 2.5, 1 - 2j, np.float64(2.5), np.complex128(1 - 2j), np.int64(2),
                   Fraction(1, 3)):
        want = {d: c * complex(scalar) for d, c in a.diagonals.items()}
        for got in (a * scalar, scalar * a):
            assert_same_bits(got, LinearOperator(space, want))


def assert_trace_bits(rho, x, y):
    """expectation(rho, x, y) gives Tr(rho (x @ y)) with its bits, and the one-factor
    trace sums the nonzero products rho_ij op_ji in row-major order."""
    product = x @ y
    for c in product.diagonals.values():
        c.flags.writeable = False
    assert bits(expectation(rho, x, y)) == bits(expectation(rho, product))
    for op in (x, product):
        terms = getattr(rho, "op", rho).toarray() * op.toarray().T
        assert bits(expectation(rho, op)) == bits(np.sum(terms[terms != 0]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_two_factor_expectation_is_the_trace_of_the_product_bit_for_bit(data):
    space = data.draw(spaces())
    rho, x, y = (_scaled_read_only(data.draw(raw_operators(space))[0], data.draw(scales))
                 for _ in range(3))
    assert_trace_bits(rho, x, y)


def test_two_factor_expectation_on_densities_and_an_all_zero_product():
    """A coherent density has many diagonals, a thermal one has zeros between its
    weights; full x and y put many terms on each product diagonal, and tiny x tiny
    underflows to no diagonal at all."""
    space = make_space([12, 2])
    dim = space.dimension
    full = {d: 1.0 / (np.arange(dim) + abs(d) + 1.5) + 0j for d in range(1 - dim, dim)}
    full = LinearOperator(space, {d: c * (np.arange(dim) >= d) * (np.arange(dim) < dim + d)
                                  for d, c in full.items()})
    boson, pair = ladder(space, 1), phase_pair(space, 1)
    tiny = operator_on_mode(space, 1, np.full(13, 1e-200), lower=1)
    assert (tiny @ tiny.adjoint()).diagonals == {}
    for rho in (coherent_density(space, 1, 0.8 + 0.3j),
                thermal_density(space, 1, 0.7)):
        for x, y in ((boson.lower, boson.raise_), (pair.raise_, boson.lower),
                     (full, full.adjoint()), (tiny, tiny.adjoint())):
            assert_trace_bits(rho, x, y)
        assert bits(expectation(rho, tiny, tiny.adjoint())) == bits(0j)
