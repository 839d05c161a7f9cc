"""Truncated multimode Fock spaces, operators on them, and residual measurement.

Every mode carries an occupation cutoff; the basis is the set of multi-indices
(n_1, ..., n_M) with 0 <= n_i <= cutoff_i, enumerated row-major with mode 1
slowest.  Operators are immutable matrices stored as diagonals; this module
alone knows that format: the LinearOperator constructor makes every operator
canonical, and `entries()` exports the row-major nonzero entries.  A ladder
on one mode is a QBosonFamily, the boson its member at q^2 = 1.  Algebraic
identities that hold in the untruncated algebra are checked on a "safe
subspace" (states at least `margin` steps below every cutoff), where they
hold to machine precision.
"""

from __future__ import annotations

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

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @cached_property
    def dimension(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def occupations(self) -> np.ndarray:
        """(dimension, mode_count) int array: row k holds the multi-index of flat k."""
        occ = np.array(np.unravel_index(np.arange(self.dimension), self.shape)).T
        occ.flags.writeable = False
        return occ

    def flat_index(self, multi: Sequence[int]) -> int:
        if len(multi) != self.mode_count:
            raise ValueError(f"expected {self.mode_count} occupation numbers, got {len(multi)}")
        for n, c in zip(multi, self.cutoffs):
            if not 0 <= n <= c:
                raise ValueError(f"occupation {n} outside [0, {c}]")
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def _safe_mask(self, margin: int) -> np.ndarray:
        """Read-only flags of the states with n_i <= cutoff_i - margin, built once per margin."""
        masks = self.__dict__.setdefault("_safe_masks", {})
        if margin not in masks:
            masks[margin] = np.all(self.occupations <= np.array(self.cutoffs) - margin, axis=1)
            masks[margin].flags.writeable = False
        return masks[margin]

    def _check_mode(self, mode: int) -> int:
        """Validate a 1-based mode index and return it 0-based."""
        if not 1 <= mode <= self.mode_count:
            raise ValueError(f"mode {mode} outside 1..{self.mode_count}")
        return mode - 1


def make_space(cutoffs: Sequence[int]) -> FockSpace:
    """Create a truncated Fock space with the given per-mode cutoffs."""
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
    return FockSpace(cut)


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

    def normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= 1e-12

    def inner(self, other: "StateVector") -> complex:
        _require_same_space(self.space, other.space)
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(space: FockSpace, occupations: Sequence[int]) -> StateVector:
    """The pure number state |n_1, ..., n_M>."""
    amp = np.zeros(space.dimension, dtype=complex)
    amp[space.flat_index(occupations)] = 1.0
    return StateVector(space, amp)


def _require_same_space(a: FockSpace, b: FockSpace) -> None:
    if a != b:
        raise ValueError(f"operands live on different spaces: {a.cutoffs} vs {b.cutoffs}")


def _shift(x: np.ndarray, s: int) -> np.ndarray:
    """y with y[j] = x[j - s], zero where j - s falls outside x."""
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
    product of diagonals d1 and d2 lands on d1 + d2.  The constructor takes
    ownership of the arrays and makes the operator canonical: zero entries
    are stored as +0, all-zero diagonals are dropped, and the arrays are
    never written again.
    """

    space: FockSpace
    diagonals: dict[int, np.ndarray]

    def __post_init__(self):
        dim = self.space.dimension
        kept = {}
        for d, c in self.diagonals.items():
            if not -dim < d < dim or getattr(c, "shape", None) != (dim,) or c.dtype != complex:
                raise ValueError(f"diagonal {d}: expected a complex array of length {dim} "
                                 f"at an offset inside ({-dim}, {dim})")
            zero = np.logical_not(c)  # c == 0, faster for complex arrays
            if np.count_nonzero(zero) < dim:
                np.putmask(c, zero, 0)
                kept[d] = c
        object.__setattr__(self, "diagonals", kept)

    @cached_property
    def matrix(self):
        """The operator as a scipy.sparse CSR matrix, built on first access."""
        import scipy.sparse as sp

        rows, cols, values = self.entries()
        return sp.csr_matrix((values, (rows, cols)), shape=(self.space.dimension,) * 2)

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        _require_same_space(self.space, other.space)
        dim = self.space.dimension
        out: dict[int, np.ndarray] = {}
        # c[j] = a[j - d2] b[j], over the j where j - d2 is an index, lands on d1 + d2.
        # Pairs that share an output diagonal add up from +0 in ascending d1.
        for d1 in sorted(self.diagonals):
            for d2, b in other.diagonals.items():
                if -dim < d1 + d2 < dim:
                    lo, hi = max(d2, 0), dim + min(d2, 0)
                    c = out.setdefault(d1 + d2, np.zeros(dim, dtype=complex))
                    c[lo:hi] += self.diagonals[d1][lo - d2:hi - d2] * b[lo:hi]
        return LinearOperator(self.space, out)

    def _merge(self, other: "LinearOperator", op) -> "LinearOperator":
        _require_same_space(self.space, other.space)
        a, b = self.diagonals, other.diagonals
        return LinearOperator(self.space, {d: op(a.get(d, 0.0), b.get(d, 0.0))
                                           for d in a.keys() | b.keys()})

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._merge(other, np.add)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self._merge(other, np.subtract)

    def __mul__(self, scalar: complex) -> "LinearOperator":
        return LinearOperator(self.space, {d: c * scalar for d, c in self.diagonals.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return self * (-1.0)

    def adjoint(self) -> "LinearOperator":
        # Entry (j - d, j) moves to (j, j - d): diagonal -d, column j - d.
        return LinearOperator(self.space, {-d: _shift(np.conjugate(c), -d)
                                           for d, c in self.diagonals.items()})

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
        """Spectral (largest singular value) or Frobenius norm.

        A monomial matrix (at most one nonzero per row and per column, as a
        single diagonal and every residual of a homogeneous relation is) has
        its largest entry modulus as spectral norm, exactly.  Any other matrix
        is compacted to its nonzero rows and columns and gets a dense SVD, or
        ValueError past `_DENSE_NORM_LIMIT` rows or columns.
        """
        if kind not in ("spectral", "frobenius"):
            raise ValueError(f"unknown norm kind {kind!r}")
        if kind == "spectral" and len(self.diagonals) <= 1:
            return max((float(np.abs(c).max()) for c in self.diagonals.values()), default=0.0)
        rows, cols, values = self.entries()
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
        block[np.searchsorted(kept_rows, rows), np.searchsorted(kept_cols, cols)] = values
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
    k = space._check_mode(mode)
    cutoff = space.cutoffs[k]
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (cutoff + 1,):
        raise ValueError(f"values have shape {vals.shape}, expected ({cutoff + 1},)")
    if not 0 <= lower <= cutoff:
        raise ValueError(f"lower {lower} outside [0, {cutoff}] for mode {mode}")
    offset = lower * int(np.prod(space.shape[k + 1:], dtype=np.int64))
    n = space.occupations[:, k]
    return LinearOperator(space, {offset: np.where(n >= lower, vals[n], 0.0)})


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
    k = space._check_mode(mode)
    if not 0 <= alpha <= space.cutoffs[k]:
        raise ValueError(f"alpha {alpha} outside [0, {space.cutoffs[k]}] for mode {mode}")
    n = np.arange(space.shape[k], dtype=float)
    beta = np.maximum(n - alpha, 0.0) if q_squared == 1.0 else (n > alpha).astype(float)
    return QBosonFamily(space, mode, q_squared, beta, (n >= alpha).astype(float))


def ladder(space: FockSpace, mode: int) -> QBosonFamily:
    """The boson on one mode: the q^2 = 1 family with rhs 1, beta(n) = n."""
    return _shifted_family(space, mode, 1.0, 0)


def number_state_projector(space: FockSpace, mode: int, n: int) -> LinearOperator:
    """Projector onto occupation n of the given mode (identity pattern elsewhere)."""
    k = space._check_mode(mode)
    if not 0 <= n <= space.cutoffs[k]:
        raise ValueError(f"occupation {n} outside [0, {space.cutoffs[k]}]")
    return operator_on_mode(space, mode, np.arange(space.shape[k]) == n)


def commutator(x: LinearOperator, y: LinearOperator) -> LinearOperator:
    """xy - yx, computed exactly (no tolerance applied)."""
    return x @ y - y @ x


def expectation(rho, op: LinearOperator) -> complex:
    """Tr(rho * op).

    `rho` may be a DensityOperator or a plain LinearOperator (anything with an
    `.op` attribute is unwrapped first).  For Hermitian `op` the imaginary
    part of the result is at the 1e-12 round-off level.
    """
    rho_op = getattr(rho, "op", rho)
    _require_same_space(rho_op.space, op.space)
    # Tr(AB) = sum_ij A_ij B_ji: diagonal d of A meets diagonal -d of B at
    # b[j - d], and the nonzero products are summed in row-major order.  They
    # are not made an operator: canonicalizing them would only cost time.
    products = {d: a * _shift(op.diagonals[-d], d)
                for d, a in rho_op.diagonals.items() if -d in op.diagonals}
    return complex(np.sum(_row_major(products, op.space.dimension)[2]))


# -- residual measurement ---------------------------------------------------

def relation_residual(lhs: LinearOperator, rhs: LinearOperator, margin: int,
                      norm: str = "spectral") -> float:
    """Norm of the safe block of lhs - rhs.

    The safe block keeps the rows and columns of the states with
    n_i <= cutoff_i - margin for every mode: each diagonal is masked to the
    entries whose row and column are both kept, which is P (lhs - rhs) P for
    the projector P onto those states.
    """
    _require_same_space(lhs.space, rhs.space)
    space = lhs.space
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if margin >= min(space.cutoffs):
        raise ValueError(f"margin {margin} >= smallest cutoff {min(space.cutoffs)}")
    keep = space._safe_mask(margin)
    a, b = lhs.diagonals, rhs.diagonals
    block = {d: np.where(keep & _shift(keep, d), a.get(d, 0.0) - b.get(d, 0.0), 0)
             for d in a.keys() | b.keys()}
    return LinearOperator(space, block).norm(norm)


def machine_zero_bound(space: FockSpace) -> float:
    """Round-off allowance for identities that are exact up to float dust."""
    eps = float(np.finfo(float).eps)
    return 8.0 * eps * (max(space.cutoffs) + 1)
