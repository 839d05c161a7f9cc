"""Density operators and the closed-form expectations they generate.

Covers general statistical mixtures, pure states, the geometric (thermal)
distribution with its temperature-to-deformation map q^2 = exp(-e0 / kT),
coherent states with Poisson number statistics, and the large-amplitude
asymptotics of the shift-operator expectation.

Truncated thermal states are renormalized to unit trace and carry the lost
probability weight as `tail_mass`; numeric comparisons against the closed
forms should budget their tolerance from that value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .fock import (
    FockSpace,
    LinearOperator,
    StateVector,
    diagonal_operator,
)
from .phase import phase_pair


class TruncationAccuracyError(ValueError):
    """The requested computation cannot meet its accuracy budget at this cutoff."""


@dataclass(frozen=True)
class ThermalParams:
    """Geometric-distribution parameters tied to a physical temperature.

    q_squared = exp(-epsilon0 / kT); epsilon0 is the quantal energy and kT the
    temperature in the same units.
    """

    q_squared: float
    epsilon0: float
    kT: float

    def __post_init__(self):
        if not 0.0 < self.q_squared < 1.0:
            raise ValueError(f"q_squared must lie in (0, 1), got {self.q_squared}")
        if self.epsilon0 <= 0 or self.kT <= 0:
            raise ValueError("epsilon0 and kT must be positive")
        if abs(self.q_squared - math.exp(-self.epsilon0 / self.kT)) > 1e-12:
            raise ValueError("inconsistent parameters: q_squared != exp(-epsilon0/kT)")

    @classmethod
    def from_temperature(cls, epsilon0: float, kT: float) -> "ThermalParams":
        if epsilon0 <= 0 or kT <= 0:
            raise ValueError("epsilon0 and kT must be positive")
        return cls(q_squared=math.exp(-epsilon0 / kT), epsilon0=epsilon0, kT=kT)

    @classmethod
    def from_q_squared(cls, q_squared: float, epsilon0: float = 1.0) -> "ThermalParams":
        if not 0.0 < q_squared < 1.0:
            raise ValueError(f"q_squared must lie in (0, 1), got {q_squared}")
        return cls(q_squared=q_squared, epsilon0=epsilon0,
                   kT=epsilon0 / (-math.log(q_squared)))


@dataclass(frozen=True)
class DensityOperator:
    """Positive semidefinite unit-trace operator plus truncation metadata.

    kind is one of {"mixture", "pure", "thermal", "coherent"}; tail_mass is
    the probability weight lost to truncation before renormalization.
    """

    op: LinearOperator
    tail_mass: float
    kind: str

    @property
    def space(self) -> FockSpace:
        return self.op.space


def mixture_density(states: Sequence[StateVector], probs: Sequence[float]) -> DensityOperator:
    """Statistical mixture sum_R P_R |R><R|.

    Stored sparse: each term is built on its state's nonzero support only, so
    memory grows with the union of the supports squared, not with dim^2.
    Probabilities must be nonnegative and sum to 1 within 1e-10; each state
    must be normalized.  A single-state mixture is tagged pure (and is then
    idempotent).
    """
    if len(states) == 0:
        raise ValueError("at least one state is required")
    if len(states) != len(probs):
        raise ValueError(f"{len(states)} states but {len(probs)} probabilities")
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {p.sum()}, expected 1")
    space = states[0].space
    dim = space.dimension
    rho = sp.csr_matrix((dim, dim), dtype=complex)
    for state, weight in zip(states, p):
        if state.space != space:
            raise ValueError("all states must live on the same space")
        if not state.normalized(1e-12):
            raise ValueError(f"state with norm {state.norm()} is not normalized")
        # The outer product vanishes off the state's support: build only that block.
        support = np.flatnonzero(state.amplitudes)
        amps = state.amplitudes[support]
        block = weight * np.outer(amps, amps.conjugate())
        rho = rho + sp.csr_matrix(
            (block.ravel(), (np.repeat(support, len(support)), np.tile(support, len(support)))),
            shape=(dim, dim))
    rho.eliminate_zeros()
    op = LinearOperator(space, rho)
    return DensityOperator(op=op, tail_mass=0.0,
                           kind="pure" if len(states) == 1 else "mixture")


def pure_density(state: StateVector) -> DensityOperator:
    """Projector density |R><R| for a single normalized state."""
    return mixture_density([state], [1.0])


def _thermal_weights(q_squared: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Renormalized geometric weights on 0..cutoff and the pre-normalization tail."""
    n = np.arange(cutoff + 1)
    tail = q_squared ** (cutoff + 1)
    w = (1.0 - q_squared) * q_squared ** n / (1.0 - tail)
    return w, tail


def thermal_density(space: FockSpace, mode: int, params: ThermalParams,
                    other_levels: Sequence[int] | None = None) -> DensityOperator:
    """Geometric (Planck) distribution on one mode, renormalized after truncation.

    The diagonal weight on occupation n is (1 - q^2) q^(2n) / (1 - tail) with
    tail = q^(2 (cutoff+1)) recorded as tail_mass.  On a multimode space the
    remaining modes are pinned to the pure occupations in `other_levels`
    (vacuum by default), so the result is a thermal x pure product state.
    """
    k = space._check_mode(mode)
    w, tail = _thermal_weights(params.q_squared, space.cutoffs[k])
    levels = [0] * (space.mode_count - 1) if other_levels is None else list(other_levels)
    if len(levels) != space.mode_count - 1:
        raise ValueError(f"expected {space.mode_count - 1} other-mode levels, got {len(levels)}")
    other = [m for m in range(space.mode_count) if m != k]
    for m, lvl in zip(other, levels):
        if not 0 <= lvl <= space.cutoffs[m]:
            raise ValueError(f"level {lvl} outside [0, {space.cutoffs[m]}] for mode {m + 1}")
    occ = space.occupations
    diag = w[occ[:, k]].astype(complex)
    for m, lvl in zip(other, levels):
        diag = diag * (occ[:, m] == lvl)
    op = diagonal_operator(space, diag)
    return DensityOperator(op=op, tail_mass=tail, kind="thermal")


def thermal_product_density(space: FockSpace,
                            mode_params: Sequence[ThermalParams | int]) -> DensityOperator:
    """Tensor product of per-mode factors: thermal for ThermalParams entries,
    pure number states for integer entries.

    tail_mass accumulates the probability lost by every thermal factor:
    1 - prod_i (1 - tail_i).
    """
    if len(mode_params) != space.mode_count:
        raise ValueError(f"expected {space.mode_count} per-mode entries, got {len(mode_params)}")
    occ = space.occupations
    diag = np.ones(space.dimension, dtype=complex)
    kept = 1.0
    for k, entry in enumerate(mode_params):
        if isinstance(entry, ThermalParams):
            w, tail = _thermal_weights(entry.q_squared, space.cutoffs[k])
            diag = diag * w[occ[:, k]]
            kept *= 1.0 - tail
        else:
            lvl = int(entry)
            if not 0 <= lvl <= space.cutoffs[k]:
                raise ValueError(f"level {lvl} outside [0, {space.cutoffs[k]}] for mode {k + 1}")
            diag = diag * (occ[:, k] == lvl)
    op = diagonal_operator(space, diag)
    return DensityOperator(op=op, tail_mass=1.0 - kept, kind="thermal")


def coherent_state(space: FockSpace, mode: int, z: complex,
                   intensity_limit: float | None = None) -> StateVector:
    """Truncated coherent state: normalized expansion with c_n ~ z^n / sqrt(n!).

    It approximately satisfies a|z> = z|z> and has Poisson number statistics.
    The default guard |z|^2 <= cutoff / 4 keeps the lost Poisson tail below
    1e-8; pass a larger `intensity_limit` (or math.inf) to override.  Other
    modes are left in the vacuum.
    """
    k = space._check_mode(mode)
    cutoff = space.cutoffs[k]
    limit = cutoff / 4.0 if intensity_limit is None else intensity_limit
    intensity = abs(z) ** 2
    if intensity > limit:
        raise TruncationAccuracyError(
            f"|z|^2 = {intensity:.4g} exceeds the accuracy guard {limit:.4g} "
            f"for cutoff {cutoff}")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    for n in range(cutoff):
        amps[n + 1] = amps[n] * z / math.sqrt(n + 1)
    amps /= np.linalg.norm(amps)
    full = np.zeros(space.dimension, dtype=complex)
    occ = space.occupations
    rest = np.ones(space.dimension, dtype=bool)
    for m in range(space.mode_count):
        if m != k:
            rest &= occ[:, m] == 0
    full[rest] = amps[occ[rest, k]]
    return StateVector(space, full)


def coherent_density(space: FockSpace, mode: int, z: complex,
                     intensity_limit: float | None = None) -> DensityOperator:
    """Projector density |z><z| for a truncated coherent state."""
    state = coherent_state(space, mode, z, intensity_limit)
    d = pure_density(state)
    # Poisson tail beyond the cutoff, lost before normalization.
    cutoff = space.cutoffs[space._check_mode(mode)]
    from scipy.stats import poisson

    tail = float(poisson.sf(cutoff, abs(z) ** 2))
    return DensityOperator(op=d.op, tail_mass=tail, kind="coherent")


def shift_expectation_series(z: complex, rel_tol: float = 1e-16) -> complex:
    """<z| e |z> for the untruncated coherent state, by direct summation.

    Equals z exp(-|z|^2) sum_n |z|^(2n) / sqrt(n! (n+1)!).  Terms are summed
    outward from the Poisson mode so the evaluation stays in range for large
    amplitudes; summation stops when terms fall below rel_tol relative to the
    running sum.
    """
    x = abs(z) ** 2
    if x == 0.0:
        return 0.0
    n0 = int(x)
    # log of the Poisson weight exp(-x) x^n / n! at the mode
    logp0 = -x + n0 * math.log(x) - math.lgamma(n0 + 1)
    p0 = math.exp(logp0)
    total = p0 / math.sqrt(n0 + 1.0)
    # upward
    p = p0
    n = n0
    while True:
        n += 1
        p *= x / n
        term = p / math.sqrt(n + 1.0)
        total += term
        if term < rel_tol * total:
            break
    # downward
    p = p0
    n = n0
    while n > 0:
        p *= n / x
        n -= 1
        term = p / math.sqrt(n + 1.0)
        total += term
        if term < rel_tol * total:
            break
    return z * total


@dataclass(frozen=True)
class AsymptoticsRow:
    """One row of the shift-expectation asymptotics table."""

    z: complex
    exact: complex
    leading: complex
    first_correction: complex
    abs_error: float


def phase_asymptotics(z_values: Sequence[complex], cutoff: int) -> list[AsymptoticsRow]:
    """Compare <z| e |z> against its large-amplitude expansion.

    exact is the series value; leading is z/|z|; first_correction is
    (z/|z|)(1 - 1/(8|z|^2)); abs_error = |exact - first_correction|.
    Requires |z| >= 1 for every row and a cutoff compatible with the
    coherent-state accuracy guard (so the companion matrix-expectation route
    is trustworthy at the same cutoff).
    """
    rows = []
    for z in z_values:
        z = complex(z)
        az = abs(z)
        if az < 1.0:
            raise ValueError(f"|z| = {az} < 1: asymptotic comparison needs |z| >= 1")
        if az ** 2 > cutoff / 4.0:
            raise TruncationAccuracyError(
                f"cutoff {cutoff} too small for |z|^2 = {az ** 2:.4g} (need >= 4 |z|^2)")
        exact = shift_expectation_series(z)
        leading = z / az
        corr = leading * (1.0 - 1.0 / (8.0 * az ** 2))
        rows.append(AsymptoticsRow(z=z, exact=exact, leading=leading,
                                   first_correction=corr,
                                   abs_error=abs(exact - corr)))
    return rows


ASYMPTOTICS_CSV_HEADER = "z_re,z_im,exact_re,exact_im,leading_re,leading_im,corr_re,corr_im,abs_err"


def asymptotics_csv(rows: Sequence[AsymptoticsRow]) -> str:
    """Render asymptotics rows in the delimited wire format."""
    lines = [ASYMPTOTICS_CSV_HEADER]
    for r in rows:
        vals = (r.z.real, r.z.imag, r.exact.real, r.exact.imag,
                r.leading.real, r.leading.imag,
                r.first_correction.real, r.first_correction.imag, r.abs_error)
        lines.append(",".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"


def shift_expectation_matrix(space: FockSpace, mode: int, z: complex) -> complex:
    """<z| e |z> via truncated matrices: the independent cross-check of the series."""
    state = coherent_state(space, mode, z)
    pair = phase_pair(space, mode)
    return state.inner(pair.lower.apply(state))


def poisson_probability(z: complex, n: int) -> float:
    """exp(-|z|^2) |z|^(2n) / n!, evaluated in log space."""
    x = abs(z) ** 2
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-x + n * math.log(x) - math.lgamma(n + 1))
