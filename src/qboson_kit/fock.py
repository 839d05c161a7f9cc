"""Truncated multimode Fock spaces, operators on them, and residual measurement.

Every mode carries an occupation cutoff; the basis is the set of multi-indices
(n_1, ..., n_M) with 0 <= n_i <= cutoff_i, enumerated row-major with mode 1
slowest.  Operators are immutable sparse complex matrices.  Algebraic
identities that hold in the untruncated algebra are checked on a "safe
subspace" (states at least `margin` steps below every cutoff), where they hold
to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

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

    @property
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

    def multi_index(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.dimension:
            raise ValueError(f"flat index {flat} outside [0, {self.dimension})")
        return tuple(int(v) for v in np.unravel_index(flat, self.shape))

    def _check_mode(self, mode: int) -> int:
        """Validate a 1-based mode index and return it 0-based."""
        if not 1 <= mode <= self.mode_count:
            raise ValueError(f"mode {mode} outside 1..{self.mode_count}")
        return mode - 1


def make_space(cutoffs: Sequence[int], max_dimension: int = DEFAULT_DIMENSION_LIMIT) -> FockSpace:
    """Create a truncated Fock space with the given per-mode cutoffs."""
    if len(cutoffs) == 0:
        raise ValueError("at least one mode is required")
    cut = tuple(int(c) for c in cutoffs)
    if any(c < 1 for c in cut):
        raise ValueError(f"every cutoff must be >= 1, got {cut}")
    dim = 1
    for c in cut:
        dim *= c + 1
        if dim > max_dimension:
            raise DimensionLimitError(
                f"dimension {dim}+ exceeds limit {max_dimension} for cutoffs {cut}")
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

    def normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm() - 1.0) <= tol

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


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Immutable complex matrix on a FockSpace, stored as CSR."""

    space: FockSpace
    matrix: sp.csr_matrix

    def __post_init__(self):
        m = self.matrix
        if not sp.issparse(m):
            m = sp.csr_matrix(np.asarray(m, dtype=complex))
        elif m.format != "csr" or m.dtype != np.complex128:
            m = m.tocsr().astype(np.complex128)
        dim = self.space.dimension
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {dim}")
        object.__setattr__(self, "matrix", m)

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        _require_same_space(self.space, other.space)
        return LinearOperator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        _require_same_space(self.space, other.space)
        return LinearOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        _require_same_space(self.space, other.space)
        return LinearOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return self * (-1.0)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix.conjugate().transpose().tocsr())

    def apply(self, state: StateVector) -> StateVector:
        _require_same_space(self.space, state.space)
        return StateVector(self.space, self.matrix @ state.amplitudes)

    def trace(self) -> complex:
        return complex(self.matrix.diagonal().sum())

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def norm(self, kind: str = "spectral") -> float:
        return matrix_norm(self.matrix, kind)


def identity_operator(space: FockSpace) -> LinearOperator:
    return LinearOperator(space, sp.identity(space.dimension, dtype=complex, format="csr"))


def diagonal_operator(space: FockSpace, values: np.ndarray) -> LinearOperator:
    """Diagonal operator from a length-`dimension` vector of eigenvalues."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (space.dimension,):
        raise ValueError(f"diagonal has shape {vals.shape}, expected ({space.dimension},)")
    return LinearOperator(space, sp.diags(vals, format="csr", dtype=complex))


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
    n = space.occupations[offset:, k]
    column = np.where(n >= lower, vals[n], 0.0)
    return LinearOperator(space, sp.diags(column, offsets=offset, shape=(space.dimension,) * 2,
                                          format="csr", dtype=complex))


@dataclass(frozen=True)
class LadderTriple:
    """Annihilation, creation, and number operator of one mode."""

    lower: LinearOperator
    raise_: LinearOperator
    number: LinearOperator


def ladder(space: FockSpace, mode: int) -> LadderTriple:
    """Boson ladder triple on one mode of a truncated space.

    lower maps |n> to sqrt(n) |n-1> and annihilates |0>; raise_ maps |n> to
    sqrt(n+1) |n+1> and annihilates the cutoff state (truncation); number is
    the diagonal occupation operator.
    """
    n = np.arange(space.shape[space._check_mode(mode)], dtype=float)
    lower = operator_on_mode(space, mode, np.sqrt(n), lower=1)
    return LadderTriple(lower=lower,
                        raise_=lower.adjoint(),
                        number=operator_on_mode(space, mode, n))


def number_state_projector(space: FockSpace, mode: int, n: int) -> LinearOperator:
    """Projector onto occupation n of the given mode (identity pattern elsewhere)."""
    k = space._check_mode(mode)
    if not 0 <= n <= space.cutoffs[k]:
        raise ValueError(f"occupation {n} outside [0, {space.cutoffs[k]}]")
    return operator_on_mode(space, mode, np.arange(space.shape[k]) == n)


def commutator(x: LinearOperator, y: LinearOperator) -> LinearOperator:
    """xy - yx, computed exactly (no tolerance applied)."""
    _require_same_space(x.space, y.space)
    return x @ y - y @ x


def expectation(rho, op: LinearOperator) -> complex:
    """Tr(rho * op).

    `rho` may be a DensityOperator or a plain LinearOperator (anything with an
    `.op` attribute is unwrapped first).  For Hermitian `op` the imaginary
    part of the result is at the 1e-12 round-off level.
    """
    rho_op = getattr(rho, "op", rho)
    _require_same_space(rho_op.space, op.space)
    # Tr(AB) = sum_ij A_ij B_ji, no need to form the product.
    return complex(rho_op.matrix.multiply(op.matrix.T).sum())


# -- residual measurement ---------------------------------------------------

def matrix_norm(matrix: sp.spmatrix, kind: str = "spectral") -> float:
    """Spectral (largest singular value) or Frobenius norm of a sparse matrix.

    A monomial matrix (at most one nonzero per row and per column, as every
    residual of a homogeneous relation is) is a permutation times a diagonal,
    so its spectral norm is its largest entry modulus, exactly.  Any other
    matrix is compacted to its nonzero rows and columns (norm-invariant) and
    gets a dense SVD; past `_DENSE_NORM_LIMIT` rows or columns that raises
    ValueError instead.
    """
    m = matrix.tocsr(copy=True)
    m.eliminate_zeros()
    if m.nnz == 0:
        return 0.0
    if kind == "frobenius":
        return float(np.sqrt(np.sum(np.abs(m.data) ** 2)))
    if kind != "spectral":
        raise ValueError(f"unknown norm kind {kind!r}")
    coo = m.tocoo()
    rows = np.unique(coo.row)
    cols = np.unique(coo.col)
    if len(rows) == len(cols) == m.nnz:
        return float(np.abs(m.data).max())
    if max(len(rows), len(cols)) > _DENSE_NORM_LIMIT:
        raise ValueError(
            f"spectral norm of a non-monomial {len(rows)}x{len(cols)} matrix exceeds the "
            f"dense limit {_DENSE_NORM_LIMIT}; use the frobenius norm")
    return float(np.linalg.norm(m[rows][:, cols].toarray(), 2))


def relation_residual(lhs: LinearOperator, rhs: LinearOperator, margin: int,
                      norm: str = "spectral") -> float:
    """Norm of the safe block of lhs - rhs.

    The safe block keeps the rows and columns of the states with
    n_i <= cutoff_i - margin for every mode; it has the norm of P (lhs - rhs) P
    for the projector P onto those states.
    """
    _require_same_space(lhs.space, rhs.space)
    space = lhs.space
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if margin >= min(space.cutoffs):
        raise ValueError(f"margin {margin} >= smallest cutoff {min(space.cutoffs)}")
    keep = np.flatnonzero(np.all(space.occupations <= np.array(space.cutoffs) - margin,
                                 axis=1))
    return matrix_norm((lhs - rhs).matrix[keep][:, keep], norm)


def machine_zero_bound(space: FockSpace, scale: float = 1.0) -> float:
    """Round-off allowance for identities that are exact up to float dust."""
    eps = float(np.finfo(float).eps)
    return 8.0 * eps * scale * (max(space.cutoffs) + 1)
