"""Density operators and the closed-form expectations they generate.

Covers general statistical mixtures, pure states, the geometric (thermal)
distribution with its temperature-to-deformation map q^2 = exp(-e0 / kT),
coherent states with Poisson number statistics, and the large-amplitude
asymptotics of the shift-operator expectation.  Densities are built through
fock's constructors and operator algebra, never from stored diagonals, and
the Poisson sums are evaluated here in log space, without scipy.

Truncated thermal states are renormalized to unit trace and carry the lost
probability weight as `tail_mass`; numeric comparisons against the closed
forms should budget their tolerance from that value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (
    FockSpace,
    LinearOperator,
    StateVector,
    diagonal_operator,
    linear_combination,
    outer_product,
)
from .phase import phase_pair


class TruncationAccuracyError(ValueError):
    """The requested computation cannot meet its accuracy budget at this cutoff."""


@dataclass(frozen=True)
class DensityOperator:
    """Positive semidefinite unit-trace operator plus truncation metadata.

    tail_mass is the probability weight lost to truncation before
    renormalization.
    """

    op: LinearOperator
    tail_mass: float


def mixture_density(states: Sequence[StateVector], probs: Sequence[float]) -> DensityOperator:
    """Statistical mixture sum_R P_R |R><R|.

    Each term is `fock.outer_product(R)` scaled by P_R, so it fills only the
    diagonals its state's support reaches, and memory is (number of distinct
    flat offsets between support states) x dim: one diagonal for a number
    state, 2 cutoff + 1 for a coherent state of one mode.  Probabilities must
    be nonnegative and sum to 1 within 1e-10; each state must be normalized.
    A single-state mixture is pure (and then idempotent).
    """
    if len(states) == 0:
        raise ValueError("at least one state is required")
    if len(states) != len(probs):
        raise ValueError(f"{len(states)} states but {len(probs)} probabilities")
    p = np.asarray(probs, dtype=float)
    if not np.all(p >= 0):  # also refuses nan
        raise ValueError("probabilities must be nonnegative")
    if not abs(p.sum() - 1.0) <= 1e-10:
        raise ValueError(f"probabilities sum to {p.sum()}, expected 1")
    space = states[0].space
    for state in states:
        if state.space != space:
            raise ValueError("all states must live on the same space")
        if not abs(state.norm() - 1.0) <= 1e-12:
            raise ValueError(f"state with norm {state.norm()} is not normalized")
    rho = linear_combination(space, [(w, outer_product(s)) for s, w in zip(states, p)])
    return DensityOperator(op=rho, tail_mass=0.0)


def pure_density(state: StateVector) -> DensityOperator:
    """Projector density |R><R| for a single normalized state."""
    return mixture_density([state], [1.0])


def thermal_density(space: FockSpace, mode: int, q_squared: float,
                    other_levels: Sequence[int] | None = None) -> DensityOperator:
    """Geometric (Planck) distribution on one mode, renormalized after truncation.

    q_squared must lie in (0, 1); at a physical temperature it is
    exp(-epsilon0 / kT), epsilon0 being the quantal energy and kT the
    temperature in the same units, a map the CLI takes in
    `SuiteConfig.resolved_q_squared`.  The diagonal weight on occupation n is
    (1 - q^2) q^(2n) / (1 - tail) with tail = q^(2 (cutoff+1)) recorded as
    tail_mass.  On a multimode space the remaining modes are pinned to the
    occupation numbers in `other_levels` (vacuum by default), so the result
    is a thermal x pure product state.
    """
    if not 0.0 < q_squared < 1.0:
        raise ValueError(f"q_squared must lie in (0, 1), got {q_squared}")
    k = space._check_mode(mode)
    levels = [0] * (space.mode_count - 1) if other_levels is None else list(other_levels)
    if len(levels) != space.mode_count - 1:
        raise ValueError(f"expected {space.mode_count - 1} other-mode levels, got {len(levels)}")
    q2, cutoff, grid = q_squared, space.cutoffs[k], space.grid
    tail = q2 ** (cutoff + 1)
    diag = ((1.0 - q2) * q2 ** np.arange(cutoff + 1) / (1.0 - tail))[grid[k]].astype(complex)
    for j, lvl in zip([j for j in range(space.mode_count) if j != k], levels):
        space._check_mode(j + 1, "level", lvl)
        diag = diag * (grid[j] == lvl)
    return DensityOperator(op=diagonal_operator(space, space.flat(diag)), tail_mass=tail)


def coherent_state(space: FockSpace, mode: int, z: complex,
                   intensity_limit: float | None = None) -> StateVector:
    """Truncated coherent state: normalized expansion with c_n ~ z^n / sqrt(n!).

    It approximately satisfies a|z> = z|z> and has Poisson number statistics.
    The default guard |z|^2 <= cutoff / 4 does not bound the lost Poisson
    tail by a fixed amount: at the guard's edge it is 1.1e-6 at cutoff 16
    and falls below 1e-8 only from cutoff 24 on.  Pass a larger
    `intensity_limit` (or math.inf) to override; an intensity at which
    z^n / sqrt(n!) or the norm of those amplitudes overflows below the
    cutoff is refused all the same.  Other modes are left in the vacuum.

    A real z > 0 takes one float accumulate over [1, z, 1/sqrt(1), z,
    1/sqrt(2), ...], with the bits of the recurrence amp * z / sqrt(n) on
    numpy complex scalars: they divide by a real through its reciprocal, and
    every imaginary part stays +0.  Any other z (complex, negative or a
    signed zero) keeps that loop, whose zero signs the accumulate would miss.
    """
    k = space._check_mode(mode)
    cutoff = space.cutoffs[k]
    limit = cutoff / 4.0 if intensity_limit is None else intensity_limit
    intensity = abs(z) ** 2
    if intensity > limit:
        raise TruncationAccuracyError(
            f"|z|^2 = {intensity:.4g} exceeds the accuracy guard {limit:.4g} "
            f"for cutoff {cutoff}")
    with np.errstate(over="ignore", invalid="ignore"):
        if z.imag == 0 and z.real > 0:  # (amp * z) * (1 / sqrt(n)), imaginary parts +0
            steps = np.full(2 * cutoff + 1, z.real, dtype=float)
            steps[0], steps[2::2] = 1.0, 1.0 / np.sqrt(np.arange(1, cutoff + 1))
            amps = np.multiply.accumulate(steps)[::2].astype(complex)
        else:  # the recurrence on numpy complex scalars, as it would run on array elements
            amp, factor = np.complex128(1.0), np.complex128(z)
            terms = [amp]
            for n in range(1, cutoff + 1):
                amp = amp * factor / math.sqrt(n)
                terms.append(amp)
            amps = np.array(terms)
        norm = np.linalg.norm(amps)
    if not math.isfinite(norm):
        raise TruncationAccuracyError(f"z^n / sqrt(n!) or its norm overflows at |z|^2 = "
                                      f"{intensity:.4g} for cutoff {cutoff}")
    amps /= norm
    full = np.zeros(space.shape, dtype=complex)  # the other modes in the vacuum
    full[tuple(slice(None) if j == k else 0 for j in range(space.mode_count))] = amps
    return StateVector(space, space.flat(full))


def coherent_density(space: FockSpace, mode: int, z: complex,
                     intensity_limit: float | None = None) -> DensityOperator:
    """Projector density |z><z| for a truncated coherent state."""
    state = coherent_state(space, mode, z, intensity_limit)
    # The Poisson tail beyond the cutoff, lost before normalization: summed
    # directly when the mode lies below it, else one minus the head.
    x, cutoff = abs(z) ** 2, space.cutoffs[space._check_mode(mode)]
    if x == 0.0:
        tail = 0.0
    elif x < cutoff + 1:
        tail = _poisson_series(x, cutoff + 1)
    else:
        tail = 1.0 - _poisson_series(x, 0, cutoff)
    return DensityOperator(op=pure_density(state).op, tail_mass=tail)


def _poisson_series(x: float, first: int, last: float = math.inf,
                    scale=lambda n: 1.0) -> float:
    """sum over first <= n <= last of exp(-x) x^n / n! / scale(n), for x > 0.

    Summed outward from the Poisson mode clamped to [first, last], whose term
    is evaluated in log space so it stays in range for large x; each direction
    stops when its terms fall to 1e-16 of the sum (or underflow to 0).
    """
    n0 = min(max(first, int(x)), last)
    p0 = math.exp(-x + n0 * math.log(x) - math.lgamma(n0 + 1))
    total = p0 / scale(n0)
    p, n = p0, n0
    while n < last:
        n += 1
        p *= x / n
        term = p / scale(n)
        total += term
        if term <= 1e-16 * total:
            break
    p, n = p0, n0
    while n > first:
        p *= n / x
        n -= 1
        term = p / scale(n)
        total += term
        if term <= 1e-16 * total:
            break
    return total


def shift_expectation_series(z: complex) -> complex:
    """<z| e |z> for the untruncated coherent state, by direct summation.

    Equals z exp(-|z|^2) sum_n |z|^(2n) / sqrt(n! (n+1)!), the Poisson
    weights divided by sqrt(n + 1).
    """
    x = abs(z) ** 2
    if x == 0.0:
        return 0.0
    return z * _poisson_series(x, 0, scale=lambda n: math.sqrt(n + 1.0))


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
