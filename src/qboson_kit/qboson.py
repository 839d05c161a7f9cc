"""Deformed oscillator families and the averaging recipe that produces them.

A deformed family is fixed by its magnitude sequence beta(n): the lowering
operator maps |n> to sqrt(beta(n)) |n-1>, the raising operator is its
adjoint, and beta solves the difference equation

    beta(0) = 0,    beta(n+1) = rhs(n) + q^2 beta(n),

which realizes  B- B+ - q^2 B+ B-  =  rhs(N)  exactly below the cutoff.
The four standard right-hand sides are

    type I   : 1
    type II  : q^(-2n)
    type III : 1 - q^2
    type IV  : (1 - q^2) q^(-2n)

The averaging recipe builds these relations from undeformed two-mode
operators: products D± = A± B± with A± acting on an auxiliary mode, traced
against a thermal x pure density.  The resulting scalar coefficients
< A- A+ >, < A+ A- >, < D0 > define an effective relation for B± whose
normalized form is one of the families above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .densities import (
    DensityOperator,
    ThermalParams,
    TruncationAccuracyError,
    pure_density,
    thermal_density,
)
from .fock import (
    FockSpace,
    LinearOperator,
    basis_state,
    diagonal_operator,
    expectation,
    identity_operator,
    make_space,
    operator_on_mode,
    ladder,
    relation_residual,
    _lower_block_from_magnitudes,
)
from .phase import alpha_phase_pair, phase_pair, theta_operator

STANDARD_TYPES = ("I", "II", "III", "IV")

OVERFLOW_GUARD = 1e300


class OverflowGuardError(ValueError):
    """A growing right-hand side would overflow at the requested cutoff."""


@dataclass(frozen=True)
class QBosonFamily:
    """Deformed ladder pair with its magnitude sequence and deformation tag."""

    lower: LinearOperator
    raise_: LinearOperator
    number: LinearOperator
    q_squared: float
    type_tag: str
    beta: np.ndarray

    @property
    def space(self) -> FockSpace:
        return self.lower.space


def _beta_recursion(q_squared: float, rhs: Callable[[int], float], cutoff: int) -> np.ndarray:
    beta = np.zeros(cutoff + 1)
    for n in range(cutoff):
        r = rhs(n)
        if r < 0:
            raise ValueError(f"rhs({n}) = {r} is negative: magnitudes must stay nonnegative")
        beta[n + 1] = r + q_squared * beta[n]
    beta.flags.writeable = False
    return beta


def family_on_space(space: FockSpace, mode: int, beta: np.ndarray, q_squared: float,
                    type_tag: str) -> QBosonFamily:
    """Embed a beta-defined family on one mode of an existing space."""
    k = space._check_mode(mode)
    if len(beta) != space.shape[k]:
        raise ValueError(f"beta has length {len(beta)}, expected {space.shape[k]}")
    low = _lower_block_from_magnitudes(beta)
    lower = operator_on_mode(space, mode, low)
    num = operator_on_mode(space, mode, np.diag(np.arange(space.shape[k], dtype=complex)))
    return QBosonFamily(lower=lower, raise_=lower.adjoint(), number=num,
                        q_squared=q_squared, type_tag=type_tag, beta=np.asarray(beta))


def solve_deformed_oscillator(q_squared: float, rhs: Callable[[int], float],
                              cutoff: int) -> QBosonFamily:
    """Solve the magnitude difference equation and build the operators.

    Realizes  B- B+ - q^2 B+ B-  =  rhs(N)  with zero residual on the
    margin-1 safe subspace, up to float round-off in the stored square roots.
    """
    if not 0.0 < q_squared < 1.0:
        raise ValueError(f"q_squared must lie in (0, 1), got {q_squared}")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    beta = _beta_recursion(q_squared, rhs, cutoff)
    space = make_space([cutoff])
    return family_on_space(space, 1, beta, q_squared, "custom")


def standard_rhs(type_tag: str, q_squared: float) -> Callable[[int], float]:
    """Right-hand side n -> value for one of the four standard families.

    Growing targets (II, IV) evaluate q^(-2n) by exponentiation first and
    apply the (1 - q^2) factor last.
    """
    if type_tag == "I":
        return lambda n: 1.0
    if type_tag == "III":
        return lambda n: 1.0 - q_squared
    inv = 1.0 / q_squared
    if type_tag == "II":
        return lambda n: inv ** n
    if type_tag == "IV":
        return lambda n: (inv ** n) * (1.0 - q_squared)
    raise ValueError(f"unknown type tag {type_tag!r}; expected one of {STANDARD_TYPES}")


def standard_qboson(type_tag: str, q_squared: float, cutoff: int) -> QBosonFamily:
    """One of the four standard deformed families at the given cutoff."""
    if type_tag not in STANDARD_TYPES:
        raise ValueError(f"unknown type tag {type_tag!r}; expected one of {STANDARD_TYPES}")
    if not 0.0 < q_squared < 1.0:
        raise ValueError(f"q_squared must lie in (0, 1), got {q_squared}")
    if type_tag in ("II", "IV") and cutoff * math.log(1.0 / q_squared) > math.log(OVERFLOW_GUARD):
        raise OverflowGuardError(
            f"q^(-2n) reaches 1e{cutoff * math.log10(1.0 / q_squared):.0f} at cutoff "
            f"{cutoff}, beyond the {OVERFLOW_GUARD:g} guard")
    family = solve_deformed_oscillator(q_squared, standard_rhs(type_tag, q_squared), cutoff)
    return QBosonFamily(lower=family.lower, raise_=family.raise_, number=family.number,
                        q_squared=q_squared, type_tag=type_tag, beta=family.beta)


def family_rhs_operator(family: QBosonFamily, mode: int = 1) -> LinearOperator:
    """Diagonal rhs(N) operator matching the family's defining relation.

    For custom families the rhs is reconstructed from the stored beta
    sequence (top entry padded with zero; it is invisible at margin >= 1).
    """
    space = family.space
    k = space._check_mode(mode)
    occ = space.occupations[:, k]
    if family.type_tag in STANDARD_TYPES:
        rhs = standard_rhs(family.type_tag, family.q_squared)
        vals = np.array([rhs(int(n)) for n in range(space.shape[k])])
    else:
        beta = family.beta
        vals = np.zeros(space.shape[k])
        vals[:-1] = beta[1:] - family.q_squared * beta[:-1]
    return diagonal_operator(space, vals[occ].astype(complex))


def defining_relation_residual(family: QBosonFamily, margin: int = 1,
                               norm: str = "spectral") -> float:
    """Residual of  B- B+ - q^2 B+ B-  =  rhs(N)  on the safe subspace."""
    lhs = family.lower @ family.raise_ - family.q_squared * (family.raise_ @ family.lower)
    return relation_residual(lhs, family_rhs_operator(family), margin, norm=norm)


# -- closed-form magnitude sequences (independent of the recursion) ----------

def beta_closed_form(type_tag: str, q_squared: float, n: int) -> float:
    """Closed-form beta(n) for the standard families (geometric-sum algebra)."""
    q2 = q_squared
    if type_tag == "I":
        return (1.0 - q2 ** n) / (1.0 - q2)
    if type_tag == "III":
        return 1.0 - q2 ** n
    if type_tag == "II":
        return (q2 ** n - q2 ** (-n)) / (q2 - 1.0 / q2)
    if type_tag == "IV":
        return q2 * (q2 ** (-n) - q2 ** n) / (1.0 + q2)
    raise ValueError(f"unknown type tag {type_tag!r}")


# -- the averaging recipe -----------------------------------------------------

A_CHOICES = ("phase", "boson", "alpha_phase")
D0_CHOICES = ("identity", "theta")


@dataclass(frozen=True)
class EffectiveRelation:
    """Scalar coefficients of the averaged two-mode commutation relation.

    The raw relation is  coeff_plus B- B+ - coeff_minus B+ B-  =  rhs; its
    normalized form is  B- B+ - q2_eff B+ B-  =  rhs / coeff_plus  with
    q2_eff = coeff_minus / coeff_plus.  rhs_exponent_sign records which sign
    of the step-projector exponent the measured rhs matches (+1 meaning
    (1 - q^2) q^(+2 alpha)); None when no probe applies.
    """

    coeff_plus: float
    coeff_minus: float
    rhs: float
    a_choice: str
    d0_choice: str
    alpha: int
    tail_mass: float
    rhs_exponent_sign: int | None = None

    @property
    def q_squared_effective(self) -> float:
        return self.coeff_minus / self.coeff_plus

    @property
    def normalized_rhs(self) -> float:
        return self.rhs / self.coeff_plus


def expectation_recipe(a_choice: str, d0_choice: str, q_squared: float,
                       cutoffs: Sequence[int], alpha: int = 0, *,
                       b_level: int = 0, density: str = "thermal",
                       pure_level: int = 1, max_tail: float = 1e-6) -> EffectiveRelation:
    """Average the two-mode product relation and return its scalar coefficients.

    a_choice picks A±: "phase" (shift pair), "boson" (ladder pair), or
    "alpha_phase" (shift pair conjugated by alpha shift powers).  d0_choice
    picks the right-hand operator: "identity" or "theta" (step projector at
    alpha on the averaged mode).  The average runs over a thermal state on
    mode 1 tensored with the pure state |b_level> on mode 2 ("thermal"), or
    over the pure product |pure_level, b_level> ("pure"), which recovers the
    undeformed coefficients.

    All three coefficients are genuine matrix traces; nothing is substituted
    from closed forms.
    """
    if a_choice not in A_CHOICES:
        raise ValueError(f"a_choice must be one of {A_CHOICES}, got {a_choice!r}")
    if d0_choice not in D0_CHOICES:
        raise ValueError(f"d0_choice must be one of {D0_CHOICES}, got {d0_choice!r}")
    if len(cutoffs) != 2:
        raise ValueError("the recipe runs on a two-mode space: pass two cutoffs")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    space = make_space(cutoffs)

    if a_choice == "phase":
        pair = phase_pair(space, 1)
        a_minus, a_plus = pair.lower, pair.raise_
    elif a_choice == "boson":
        triple = ladder(space, 1)
        a_minus, a_plus = triple.lower, triple.raise_
    else:
        pair = alpha_phase_pair(space, 1, alpha)
        a_minus, a_plus = pair.lower, pair.raise_

    if d0_choice == "identity":
        d0 = identity_operator(space)
    else:
        d0 = theta_operator(space, 1, alpha)

    if density == "thermal":
        rho = thermal_density(space, 1, ThermalParams.from_q_squared(q_squared),
                              other_levels=[b_level])
    elif density == "pure":
        rho = pure_density(basis_state(space, [pure_level, b_level]))
    else:
        raise ValueError(f"density must be 'thermal' or 'pure', got {density!r}")
    if rho.tail_mass > max_tail:
        raise TruncationAccuracyError(
            f"tail mass {rho.tail_mass:.3g} exceeds budget {max_tail:.3g}; "
            f"raise the first cutoff")

    coeff_plus = _real_expectation(rho, a_minus @ a_plus)
    coeff_minus = _real_expectation(rho, a_plus @ a_minus)
    rhs = _real_expectation(rho, d0)

    sign = None
    if d0_choice == "theta" and alpha > 0 and coeff_plus > 0:
        q2_eff = coeff_minus / coeff_plus
        measured = rhs / coeff_plus
        plus_candidate = (1.0 - q2_eff) * q2_eff ** alpha
        minus_candidate = (1.0 - q2_eff) * q2_eff ** (-alpha)
        sign = 1 if abs(measured - plus_candidate) <= abs(measured - minus_candidate) else -1

    return EffectiveRelation(coeff_plus=coeff_plus, coeff_minus=coeff_minus, rhs=rhs,
                             a_choice=a_choice, d0_choice=d0_choice, alpha=alpha,
                             tail_mass=rho.tail_mass, rhs_exponent_sign=sign)


def _real_expectation(rho: DensityOperator, op: LinearOperator) -> float:
    value = expectation(rho, op)
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation {value} is not real")
    return float(value.real)


def family_from_relation(relation: EffectiveRelation, cutoff: int) -> QBosonFamily:
    """Build the deformed family solving the normalized effective relation."""
    rhs_value = relation.normalized_rhs
    return solve_deformed_oscillator(relation.q_squared_effective,
                                     lambda n: rhs_value, cutoff)


def precision_capped_cutoff(q_squared: float, type_tag: str, cutoff: int,
                            tolerance: float) -> int:
    """Largest cutoff at which a growing rhs keeps round-off below tolerance.

    The defining-relation residual carries float dust of order
    eps * q^(-2 cutoff) for types II and IV; bounded targets are unaffected.
    """
    if type_tag not in ("II", "IV"):
        return cutoff
    eps = float(np.finfo(float).eps)
    cap = int(math.floor(math.log(max(tolerance, 32.0 * eps) / (16.0 * eps))
                         / math.log(1.0 / q_squared)))
    return max(2, min(cutoff, cap))
