"""Truncated multimode Fock spaces, operators on them, and residual measurement.

Every mode carries an occupation cutoff; the basis is the set of multi-indices
(n_1, ..., n_M) with 0 <= n_i <= cutoff_i, enumerated row-major with mode 1
slowest.  Operators are immutable sparse complex matrices tagged with the set
of modes they act on.  Algebraic identities that hold in the untruncated
algebra are checked on a "safe subspace" (states at least `margin` steps below
every cutoff), where they hold to machine precision.
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
    """Immutable complex matrix on a FockSpace with mode-support metadata.

    mode_support is the set of (1-based) modes the operator acts on
    nontrivially; operators with disjoint supports commute exactly because
    they are Kronecker factors on distinct tensor legs.
    """

    space: FockSpace
    matrix: sp.csr_matrix
    mode_support: frozenset[int]

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
        object.__setattr__(self, "mode_support", frozenset(self.mode_support))

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        _require_same_space(self.space, other.space)
        return LinearOperator(self.space, self.matrix @ other.matrix,
                              self.mode_support | other.mode_support)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        _require_same_space(self.space, other.space)
        return LinearOperator(self.space, self.matrix + other.matrix,
                              self.mode_support | other.mode_support)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        _require_same_space(self.space, other.space)
        return LinearOperator(self.space, self.matrix - other.matrix,
                              self.mode_support | other.mode_support)

    def __mul__(self, scalar: complex) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix * scalar, self.mode_support)

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return self * (-1.0)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix.conjugate().transpose().tocsr(),
                              self.mode_support)

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
    return LinearOperator(space, sp.identity(space.dimension, dtype=complex, format="csr"),
                          frozenset())


def diagonal_operator(space: FockSpace, values: np.ndarray,
                      mode_support: frozenset[int] | set[int] = frozenset()) -> LinearOperator:
    """Diagonal operator from a length-`dimension` vector of eigenvalues."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (space.dimension,):
        raise ValueError(f"diagonal has shape {vals.shape}, expected ({space.dimension},)")
    return LinearOperator(space, sp.diags(vals, format="csr", dtype=complex),
                          frozenset(mode_support))


def operator_on_mode(space: FockSpace, mode: int, block: np.ndarray | sp.spmatrix) -> LinearOperator:
    """Embed a single-mode matrix into the full space (identity on other modes)."""
    k = space._check_mode(mode)
    d = space.shape[k]
    blk = sp.csr_matrix(block, dtype=complex)
    if blk.shape != (d, d):
        raise ValueError(f"block shape {blk.shape} does not match mode dimension {d}")
    before = int(np.prod(space.shape[:k], dtype=np.int64)) if k else 1
    after = int(np.prod(space.shape[k + 1:], dtype=np.int64)) if k < space.mode_count - 1 else 1
    m = blk
    if before > 1:
        m = sp.kron(sp.identity(before, dtype=complex), m)
    if after > 1:
        m = sp.kron(m, sp.identity(after, dtype=complex))
    return LinearOperator(space, m.tocsr(), frozenset({mode}))


@dataclass(frozen=True)
class LadderTriple:
    """Annihilation, creation, and number operator of one mode."""

    lower: LinearOperator
    raise_: LinearOperator
    number: LinearOperator


def _lower_block_from_magnitudes(magnitudes: np.ndarray) -> sp.csr_matrix:
    """Single-mode lowering matrix with |n> -> sqrt(magnitudes[n]) |n-1>."""
    d = len(magnitudes)
    amps = np.sqrt(np.asarray(magnitudes[1:], dtype=float))
    return sp.diags(amps.astype(complex), offsets=1, shape=(d, d), format="csr")


def ladder(space: FockSpace, mode: int) -> LadderTriple:
    """Boson ladder triple on one mode of a truncated space.

    lower maps |n> to sqrt(n) |n-1> and annihilates |0>; raise_ maps |n> to
    sqrt(n+1) |n+1> and annihilates the cutoff state (truncation); number is
    the diagonal occupation operator.
    """
    k = space._check_mode(mode)
    d = space.shape[k]
    low = _lower_block_from_magnitudes(np.arange(d, dtype=float))
    num = sp.diags(np.arange(d, dtype=complex), format="csr")
    lower = operator_on_mode(space, mode, low)
    return LadderTriple(lower=lower,
                        raise_=lower.adjoint(),
                        number=operator_on_mode(space, mode, num))


def number_state_projector(space: FockSpace, mode: int, n: int) -> LinearOperator:
    """Projector onto occupation n of the given mode (identity pattern elsewhere)."""
    k = space._check_mode(mode)
    if not 0 <= n <= space.cutoffs[k]:
        raise ValueError(f"occupation {n} outside [0, {space.cutoffs[k]}]")
    mask = (space.occupations[:, k] == n).astype(complex)
    return diagonal_operator(space, mask, {mode})


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

@dataclass(frozen=True)
class ResidualReport:
    """Operator-norm residual of a relation on a truncation-safe subspace."""

    relation_name: str
    residual: float
    margin: int
    tolerance: float
    passed: bool


def safe_subspace_projector(space: FockSpace, margin: int) -> LinearOperator:
    """Projector onto states with n_i <= cutoff_i - margin for every mode."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if margin >= min(space.cutoffs):
        raise ValueError(f"margin {margin} >= smallest cutoff {min(space.cutoffs)}")
    keep = np.all(space.occupations <= np.array(space.cutoffs) - margin, axis=1)
    return diagonal_operator(space, keep.astype(complex))


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
                      name: str = "", tolerance: float = 1e-12,
                      norm: str = "spectral") -> ResidualReport:
    """Norm of P (lhs - rhs) P on the margin-`margin` safe subspace."""
    _require_same_space(lhs.space, rhs.space)
    proj = safe_subspace_projector(lhs.space, margin)
    res = matrix_norm((proj @ (lhs - rhs) @ proj).matrix, norm)
    return ResidualReport(relation_name=name, residual=res, margin=margin,
                          tolerance=tolerance, passed=res <= tolerance)


def machine_zero_bound(space: FockSpace, scale: float = 1.0) -> float:
    """Round-off allowance for identities that are exact up to float dust."""
    eps = float(np.finfo(float).eps)
    return 8.0 * eps * scale * (max(space.cutoffs) + 1)
