"""Truncated multimode Fock spaces, operators on them, and residual measurement.

Every mode carries an occupation cutoff; the basis is the set of multi-indices
(n_1, ..., n_M) with 0 <= n_i <= cutoff_i, enumerated row-major with mode 1
slowest.  Operators are immutable matrices stored as diagonals; this module
alone knows that order (`FockSpace.flat`) and that format: no operator holds
an all-zero diagonal (see LinearOperator), and `entries()` exports the
row-major nonzero entries.  A ladder on one mode is a QBosonFamily, the
boson its member at q^2 = 1.  Algebraic identities that hold in the
untruncated algebra are checked on a "safe subspace" (states at least
`margin` steps below every cutoff), where they hold to machine precision.
"""

from __future__ import annotations

import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

DEFAULT_DIMENSION_LIMIT = 10_000_000

# Largest side of a compacted non-monomial matrix whose spectral norm is taken
# by a dense SVD (512^2 complex entries, 4 MB).  Residuals of homogeneous
# relations are monomial and never reach it; a larger non-monomial matrix is
# refused rather than densified.
_DENSE_NORM_LIMIT = 512

_RUN_VALUES: ContextVar[dict | None] = ContextVar("qboson_kit_run_values", default=None)


def _run_once(fn, *args):
    """fn(*args), once per (fn, args) in a suite run, whose values `_RUN_VALUES` holds
    (None outside one), and on every call outside a run.  Only immutable values go
    through it: spaces, floats, tuples, frozen relations, families and R-matrices."""
    values = _RUN_VALUES.get()
    if values is None:
        return fn(*args)
    if (key := (fn, *args)) not in values:
        values[key] = fn(*args)
    return values[key]


class DimensionLimitError(ValueError):
    """Requested space exceeds the configured dimension limit."""


@dataclass(frozen=True)
class FockSpace:
    """Truncated multimode number-state space.

    cutoffs[i] is the maximum occupation of mode i+1 (modes are 1-based in
    the public API).  The flat basis index of (n_1, ..., n_M) is row-major
    with mode 1 slowest, so dimension = prod(cutoff_i + 1).
    """

    cutoffs: tuple[int, ...]

    @property
    def mode_count(self) -> int:
        return len(self.cutoffs)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @cached_property
    def dimension(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def grid(self) -> tuple[np.ndarray, ...]:
        """Read-only per-mode occupations: n_(k+1) along axis k, size 1 on the others."""
        axes = np.indices(self.shape, sparse=True)
        for n in axes:
            n.flags.writeable = False
        return axes

    def flat(self, values) -> np.ndarray:
        """`values`, broadcast to `shape`, as a fresh array listed in basis order."""
        out = np.empty(self.shape, dtype=np.result_type(values))
        out[...] = values
        return out.reshape(-1)

    def flat_index(self, multi: Sequence[int]) -> int:
        if len(multi) != self.mode_count:
            raise ValueError(f"expected {self.mode_count} occupation numbers, got {len(multi)}")
        for n, c in zip(multi, self.cutoffs):
            if not 0 <= n <= c:
                raise ValueError(f"occupation {n} outside [0, {c}]")
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def _safe_mask(self, margin: int) -> np.ndarray:
        """Read-only flags of the states with n_i <= cutoff_i - margin, built once per
        margin by setting that box of a `shape` boolean array."""
        masks = self.__dict__.setdefault("_safe_masks", {})
        if margin not in masks:
            box = np.zeros(self.shape, dtype=bool)
            box[tuple(slice(c + 1 - margin) for c in self.cutoffs)] = True
            masks[margin] = self.flat(box)
            masks[margin].flags.writeable = False
        return masks[margin]

    def _check_mode(self, mode: int, name: str = "", level: int = 0) -> int:
        """Validate a 1-based mode index and the `name`d occupation `level` on that
        mode; return the mode 0-based."""
        if not 1 <= mode <= self.mode_count:
            raise ValueError(f"mode {mode} outside 1..{self.mode_count}")
        cutoff = self.cutoffs[mode - 1]
        if not 0 <= level <= cutoff:
            raise ValueError(f"{name} {level} outside [0, {cutoff}] for mode {mode}")
        return mode - 1


def make_space(cutoffs: Sequence[int]) -> FockSpace:
    """The truncated Fock space with these per-mode cutoffs, one per cutoff tuple in a run."""
    if len(cutoffs) == 0:
        raise ValueError("at least one mode is required")
    cut = tuple(int(c) for c in cutoffs)
    if any(c < 1 for c in cut):
        raise ValueError(f"every cutoff must be >= 1, got {cut}")
    dim = 1
    for c in cut:
        dim *= c + 1
        if dim > DEFAULT_DIMENSION_LIMIT:
            raise DimensionLimitError(
                f"dimension {dim}+ exceeds limit {DEFAULT_DIMENSION_LIMIT} for cutoffs {cut}")
    return _run_once(FockSpace, cut)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over the number-state basis of `space`."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.space.dimension,):
            raise ValueError(f"amplitude vector has shape {amp.shape}, "
                             f"expected ({self.space.dimension},)")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "StateVector") -> complex:
        _require_same_space(self.space, other.space)
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(space: FockSpace, occupations: Sequence[int]) -> StateVector:
    """The pure number state |n_1, ..., n_M>."""
    amp = np.zeros(space.dimension, dtype=complex)
    amp[space.flat_index(occupations)] = 1.0
    return StateVector(space, amp)


def _require_same_space(a: FockSpace, b: FockSpace) -> None:
    if a is not b and a != b:
        raise ValueError(f"operands live on different spaces: {a.cutoffs} vs {b.cutoffs}")


def _shift(x: np.ndarray, s: int) -> np.ndarray:
    """y with y[j] = x[j - s], zero where j - s falls outside x; x itself when s = 0."""
    if s == 0:
        return x
    y = np.empty_like(x)
    lo, hi = max(s, 0), len(x) + min(s, 0)
    y[:lo], y[lo:hi], y[hi:] = 0, x[lo - s:hi - s], 0
    return y


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Immutable complex matrix on a FockSpace, stored as its nonzero diagonals.

    `diagonals` maps a flat offset d to a complex array c of length
    `dimension`, c[j] being the entry (j - d, j) and zero where that row is
    outside the matrix.  A single-mode operator is one diagonal, and a
    product of diagonals d1 and d2 lands on d1 + d2.  No operator holds an
    all-zero diagonal; the sign of a stored zero is free, and no read depends
    on it.  The constructor checks each offset, length and dtype, refuses a
    nonzero entry whose row is outside the matrix and drops the all-zero
    diagonals (`_nonzero`); the kernels compute fresh arrays that are zero
    there, drop theirs the same way and skip the checks.  No operator writes to its
    arrays or to those it is given.
    """

    space: FockSpace
    diagonals: dict[int, np.ndarray]

    __array_ufunc__ = None  # ndarray * op refuses too, rather than mapping op over the array

    def __post_init__(self):
        dim = self.space.dimension
        for d, c in self.diagonals.items():
            if not -dim < d < dim or getattr(c, "shape", None) != (dim,) or c.dtype != complex:
                raise ValueError(f"diagonal {d}: expected a complex array of length {dim} "
                                 f"at an offset inside ({-dim}, {dim})")
            if (c[:d] if d > 0 else c[dim + d:]).any():
                raise ValueError(f"diagonal {d}: nonzero entry at a column whose row "
                                 f"j - {d} falls outside the matrix")
        object.__setattr__(self, "diagonals", _nonzero(self.diagonals))

    @cached_property
    def matrix(self):
        """The operator as a scipy.sparse CSR matrix, built on first access."""
        import scipy.sparse as sp

        rows, cols, values = self.entries()
        return sp.csr_matrix((values, (rows, cols)), shape=(self.space.dimension,) * 2)

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return _operator(self.space, _nonzero(_product_diagonals(self, other)))

    def _merge(self, other: "LinearOperator", op) -> "LinearOperator":
        if not isinstance(other, LinearOperator):
            return NotImplemented
        _require_same_space(self.space, other.space)
        a, b = self.diagonals, other.diagonals
        # From +0: a stored zero's sign never reaches an entry's zero part.
        return _operator(self.space, _nonzero({d: op(0.0 + a.get(d, 0.0), b.get(d, 0.0))
                                               for d in a.keys() | b.keys()}))

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._merge(other, np.add)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self._merge(other, np.subtract)

    def __mul__(self, scalar: complex) -> "LinearOperator":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        scalar = complex(scalar)  # a Fraction would make an object array
        return _operator(self.space, _nonzero({d: c * scalar for d, c in self.diagonals.items()}))

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return self * (-1.0)

    def adjoint(self) -> "LinearOperator":
        # Entry (j - d, j) moves to (j, j - d): diagonal -d, out[j] = conj(c[j + d]).
        dim, out = self.space.dimension, {}
        for d, c in self.diagonals.items():
            out[-d] = np.zeros(dim, dtype=complex)
            np.conjugate(c[max(d, 0):dim + min(d, 0)], out=out[-d][max(-d, 0):dim + min(-d, 0)])
        # No `_nonzero` pass: c is nonzero only inside the slice conjugated, so out[-d] is too.
        return _operator(self.space, out)

    def apply(self, state: StateVector) -> StateVector:
        _require_same_space(self.space, state.space)
        y = np.zeros(self.space.dimension, dtype=complex)
        for d in sorted(self.diagonals):
            y += _shift(self.diagonals[d] * state.amplitudes, -d)
        return StateVector(self.space, y)

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a fresh length-`dimension` array."""
        return self.diagonals.get(0, np.zeros(self.space.dimension, dtype=complex)) + 0.0

    def trace(self) -> complex:
        return complex(self.diagonal().sum())

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzero entries, by row, then column."""
        return _row_major(self.diagonals, self.space.dimension)

    def toarray(self) -> np.ndarray:
        rows, cols, values = self.entries()
        dense = np.zeros((self.space.dimension,) * 2, dtype=complex)
        dense[rows, cols] = values
        return dense

    def norm(self, kind: str = "spectral") -> float:
        """Spectral (largest singular value) or Frobenius norm (see `_norm`)."""
        return _norm(self.diagonals, self.space.dimension, kind)


def _nonzero(diagonals: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """The diagonals that hold a nonzero entry, by `np.logical_or.reduce`: `c.any()`'s loop
    without its Python wrapper.  count_nonzero is faster below ~1000 entries, 3-4x slower on
    large diagonals."""
    return {d: c for d, c in diagonals.items() if np.logical_or.reduce(c)}


def _operator(space: FockSpace, diagonals: dict[int, np.ndarray]) -> LinearOperator:
    """The operator with these nonzero diagonals, without the validating constructor."""
    op = object.__new__(LinearOperator)
    op.__dict__.update(space=space, diagonals=diagonals)
    return op


def _product_diagonals(x: LinearOperator, y: LinearOperator, wanted=None) -> dict[int, np.ndarray]:
    """The diagonals of x @ y, or those whose offsets are in `wanted`.  c[j] = a[j - d2] b[j]
    lands on d1 + d2.  The first pair on an offset is written into zeros; a second one adds
    +0 to it first, so pairs that share an offset add up from +0 in ascending d1 and a
    stored zero's sign never reaches an entry's zero part."""
    _require_same_space(x.space, y.space)
    dim = x.space.dimension
    out: dict[int, np.ndarray] = {}
    lone = set()  # offsets that one pair has reached so far
    for d1 in sorted(x.diagonals):
        for d2, b in y.diagonals.items():
            d = d1 + d2
            if -dim < d < dim and (wanted is None or d in wanted):
                lo, hi = max(d2, 0), dim + min(d2, 0)
                a, c = x.diagonals[d1][lo - d2:hi - d2], out.get(d)
                if c is None:
                    out[d] = np.zeros(dim, dtype=complex)
                    np.multiply(a, b[lo:hi], out=out[d][lo:hi])
                    lone.add(d)
                    continue
                if d in lone:
                    lone.remove(d)
                    c += 0.0
                c[lo:hi] += a * b[lo:hi]
    return out


def _norm(diagonals: dict[int, np.ndarray], dim: int, kind: str) -> float:
    """Spectral or Frobenius norm of the matrix with these nonzero diagonals.

    A monomial matrix (at most one nonzero per row and per column, as a
    single diagonal and every residual of a homogeneous relation is) has
    its largest entry modulus as spectral norm, exactly.  Any other matrix
    is compacted to its nonzero rows and columns and gets a dense SVD, or
    ValueError past `_DENSE_NORM_LIMIT` rows or columns.
    """
    if kind not in ("spectral", "frobenius"):
        raise ValueError(f"unknown norm kind {kind!r}")
    if kind == "spectral" and len(diagonals) <= 1:
        for c in diagonals.values():
            return float(np.abs(c).max())
        return 0.0
    rows, cols, values = _row_major(diagonals, dim)
    if kind == "frobenius":
        return float(np.sqrt(np.sum(np.abs(values) ** 2)))
    kept_rows, kept_cols = np.unique(rows), np.unique(cols)
    if len(kept_rows) == len(kept_cols) == len(values):
        return float(np.abs(values).max(initial=0.0))
    if max(len(kept_rows), len(kept_cols)) > _DENSE_NORM_LIMIT:
        raise ValueError(
            f"spectral norm of a non-monomial {len(kept_rows)}x{len(kept_cols)} matrix "
            f"exceeds the dense limit {_DENSE_NORM_LIMIT}; use the frobenius norm")
    block = np.zeros((len(kept_rows), len(kept_cols)), dtype=complex)
    # Added to +0: the SVD, unlike every other read, sees the sign of a zero part.
    block[np.searchsorted(kept_rows, rows), np.searchsorted(kept_cols, cols)] += values
    return float(np.linalg.norm(block, 2))


def _row_major(diagonals: dict[int, np.ndarray], dim: int):
    """`LinearOperator.entries` of the matrix with these diagonals (zeros skipped)."""
    if len(diagonals) == 1:  # one entry (j - d, j) per column: rows ascend with j
        [(d, c)] = diagonals.items()
        j = np.flatnonzero(c)
        return j - d, j, c[j]
    offsets = np.array(sorted(diagonals), dtype=np.int64)
    # Row i of `grid` holds the entries (i, i + d) in ascending d.
    grid = np.zeros((dim, len(offsets)), dtype=complex)
    for k, d in enumerate(offsets.tolist()):
        grid[:, k] = _shift(diagonals[d], -d)
    rows, k = np.divmod(np.flatnonzero(grid), max(len(offsets), 1))
    return rows, rows + offsets[k], grid[rows, k]


def identity_operator(space: FockSpace) -> LinearOperator:
    return LinearOperator(space, {0: np.ones(space.dimension, dtype=complex)})


def outer_product(state: StateVector) -> LinearOperator:
    """|psi><psi|, stored on the diagonals j - i that the support of psi reaches."""
    psi, support = state.amplitudes, np.flatnonzero(state.amplitudes)
    offsets = np.unique(support[None, :] - support[:, None]).tolist()
    return LinearOperator(state.space, {d: _shift(psi, d) * psi.conjugate() for d in offsets})


def diagonal_operator(space: FockSpace, values: np.ndarray) -> LinearOperator:
    """Diagonal operator from a length-`dimension` vector of eigenvalues."""
    vals = np.array(values, dtype=complex)
    if vals.shape != (space.dimension,):
        raise ValueError(f"diagonal has shape {vals.shape}, expected ({space.dimension},)")
    return LinearOperator(space, {0: vals})


def operator_on_mode(space: FockSpace, mode: int, values: np.ndarray,
                     lower: int = 0) -> LinearOperator:
    """Single-mode operator |n> -> values[n] |n - lower> on `mode`, identity elsewhere.

    It is one diagonal of the full matrix.  Lowering mode k by `lower` steps
    lowers the flat index by lower * prod(shape[k+1:]), so the entries sit at
    that flat offset above the main diagonal; each column holds values[n_k]
    where n_k >= lower and 0 elsewhere (the bottom `lower` states of the mode
    are annihilated).
    """
    k = space._check_mode(mode, "lower", lower)
    cutoff = space.cutoffs[k]
    column = np.array(values, dtype=complex)
    if column.shape != (cutoff + 1,):
        raise ValueError(f"values have shape {column.shape}, expected ({cutoff + 1},)")
    column[:lower] = 0.0
    if not np.logical_or.reduce(column):  # on cutoff + 1 entries, before the broadcast
        return _operator(space, {})
    if space.mode_count > 1:  # one broadcast copy, along axis k of `shape`
        column = space.flat(column.reshape((-1,) + (1,) * (space.mode_count - 1 - k)))
    return _operator(space, {lower * math.prod(space.shape[k + 1:]): column})


@dataclass(frozen=True, eq=False)
class QBosonFamily:
    """Ladder pair on one mode: lower maps |n> to sqrt(beta(n)) |n-1>, raise_ is its
    adjoint, number the occupation operator, and rhs is rhs(N) from `rhs_values`.

    beta(0) = 0 and beta(n+1) = rhs(n) + q^2 beta(n), so B- B+ - q^2 B+ B- = rhs(N)
    below the cutoff.  The operators are built on first read.
    """

    space: FockSpace
    mode: int
    q_squared: float
    beta: np.ndarray
    rhs_values: np.ndarray

    def __post_init__(self):
        self.beta.flags.writeable = self.rhs_values.flags.writeable = False

    @cached_property
    def lower(self) -> LinearOperator:
        return operator_on_mode(self.space, self.mode, np.sqrt(self.beta), lower=1)

    @cached_property
    def raise_(self) -> LinearOperator:
        return self.lower.adjoint()

    @cached_property
    def number(self) -> LinearOperator:
        return operator_on_mode(self.space, self.mode, np.arange(len(self.beta)))

    @cached_property
    def rhs(self) -> LinearOperator:
        return operator_on_mode(self.space, self.mode, self.rhs_values)


def _shifted_family(space: FockSpace, mode: int, q_squared: float, alpha: int) -> QBosonFamily:
    """The q^2 = 1 (beta(n) = max(n - alpha, 0)) or q^2 = 0 (beta = theta(n - alpha - 1))
    family with rhs theta(n - alpha): its vacuum sits alpha steps up."""
    k = space._check_mode(mode, "alpha", alpha)
    n = np.arange(space.shape[k], dtype=float)
    beta = np.maximum(n - alpha, 0.0) if q_squared == 1.0 else (n > alpha).astype(float)
    return QBosonFamily(space, mode, q_squared, beta, (n >= alpha).astype(float))


def ladder(space: FockSpace, mode: int) -> QBosonFamily:
    """The boson on one mode: the q^2 = 1 family with rhs 1, beta(n) = n."""
    return _shifted_family(space, mode, 1.0, 0)


def number_state_projector(space: FockSpace, mode: int, n: int) -> LinearOperator:
    """Projector onto occupation n of the given mode (identity pattern elsewhere)."""
    k = space._check_mode(mode, "occupation", n)
    return operator_on_mode(space, mode, np.arange(space.shape[k]) == n)


def commutator(x: LinearOperator, y: LinearOperator) -> LinearOperator:
    """xy - yx, computed exactly (no tolerance applied)."""
    return x @ y - y @ x


def linear_combination(space: FockSpace, terms) -> LinearOperator:
    """The sum of coeff * op over the (coeff, op) pairs in `terms`, built once.  The
    scaled diagonals add up left to right from +0, with the bits of
    sum((coeff * op for coeff, op in terms), zero) and none of its partial sums."""
    out: dict[int, np.ndarray] = {}
    for coeff, op in terms:
        _require_same_space(space, op.space)
        for d, c in op.diagonals.items():
            out[d] = np.add(out.get(d, 0.0), c * coeff)
    return _operator(space, _nonzero(out))


def expectation(rho, op: LinearOperator, right: LinearOperator | None = None) -> complex:
    """Tr(rho * op), or Tr(rho * op * right) with the same bits as Tr(rho * (op @ right)).

    `rho` may be a DensityOperator or a plain LinearOperator (anything with an
    `.op` attribute is unwrapped first).  For Hermitian `op` the imaginary
    part of the result is at the 1e-12 round-off level.  A two-factor trace
    computes, as `@` would, only the diagonals of op @ right that meet rho's.
    """
    rho_op = getattr(rho, "op", rho)
    _require_same_space(rho_op.space, op.space)
    ops = op.diagonals if right is None else _product_diagonals(
        op, right, wanted={-d for d in rho_op.diagonals})
    # Tr(AB) = sum_ij A_ij B_ji: diagonal d of A meets diagonal -d of B at
    # b[j - d], and the nonzero products are summed in row-major order.  They
    # are not made an operator, which would only cost time.
    products = {d: a * _shift(ops[-d], d) for d, a in rho_op.diagonals.items() if -d in ops}
    if len(products) == 1:  # a mask keeps the nonzero values in order, faster than indices
        [c] = products.values()
        return complex(np.add.reduce(c[c.astype(bool)]))
    return complex(np.add.reduce(_row_major(products, op.space.dimension)[2]))


# -- residual measurement ---------------------------------------------------

def relation_residual(lhs: LinearOperator, rhs: LinearOperator, margin: int,
                      norm: str = "spectral") -> float:
    """Norm of the safe block of lhs - rhs.

    The safe block keeps the rows and columns of the states with
    n_i <= cutoff_i - margin for every mode: each diagonal of the difference
    has its entries in an unsafe column, then in an unsafe row, set to +0 by
    the per-margin state mask, which is P (lhs - rhs) P for the projector P
    onto those states.  Its largest entry modulus drops an
    all-zero diagonal and is the spectral norm of a one-diagonal block.
    """
    _require_same_space(lhs.space, rhs.space)
    space = lhs.space
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if margin >= min(space.cutoffs):
        raise ValueError(f"margin {margin} >= smallest cutoff {min(space.cutoffs)}")
    a, b = lhs.diagonals, rhs.diagonals
    dim, unsafe = space.dimension, ~space._safe_mask(margin)
    block, peak = {}, 0.0
    for d in a.keys() | b.keys():
        c = np.subtract(a.get(d, 0.0), b.get(d, 0.0))
        # A row j - d outside the matrix is zero already; inf/nan outside the block go too.
        np.putmask(c, unsafe, 0)
        if d != 0:
            lo, hi = max(d, 0), dim + min(d, 0)
            np.putmask(c[lo:hi], unsafe[lo - d:hi - d], 0)
        top = np.maximum.reduce(np.abs(c))  # 0 for an all-zero diagonal, nan if c holds one
        if top != 0:
            block[d], peak = c, top
    if norm == "spectral" and len(block) <= 1:  # a monomial block: its peak, as in _norm
        return float(peak)
    return _norm(block, space.dimension, norm)


def machine_zero_bound(space: FockSpace) -> float:
    """Round-off allowance for identities that are exact up to float dust."""
    eps = float(np.finfo(float).eps)
    return 8.0 * eps * (max(space.cutoffs) + 1)
