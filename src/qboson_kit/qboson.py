"""Deformed oscillator families and the averaging recipe that produces them.

A deformed family is a fock.QBosonFamily, fixed by its magnitude sequence
beta(n): the lowering operator maps |n> to sqrt(beta(n)) |n-1>, the raising
operator is its adjoint, and beta solves the difference equation

    beta(0) = 0,    beta(n+1) = rhs(n) + q^2 beta(n),

which realizes  B- B+ - q^2 B+ B-  =  rhs(N)  exactly below the cutoff.  Its
ends are the boson (q^2 = 1) and the exponential phase pair (q^2 = 0);
family_on_space solves it for 0 < q^2 < 1, so every family is B = e sqrt(beta(N)).
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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .densities import (
    DensityOperator,
    TruncationAccuracyError,
    thermal_density,
)
from .fock import (
    FockSpace,
    LinearOperator,
    QBosonFamily,
    expectation,
    make_space,
    ladder,
    relation_residual,
)
from .phase import alpha_phase_pair, theta_operator

STANDARD_TYPES = ("I", "II", "III", "IV")

OVERFLOW_GUARD = 1e300


class OverflowGuardError(ValueError):
    """A growing right-hand side would overflow at the requested cutoff."""


def family_on_space(space: FockSpace, mode: int, q_squared: float,
                    rhs: Callable[[int], float]) -> QBosonFamily:
    """Solve the magnitude recursion on one mode of `space` and build the family.

    rhs(n) is evaluated for n = 0..cutoff of that mode and recorded as the diagonal operator
    rhs(N) there; defining_relation_residual checks against it.  Its top entry only enters
    residuals at margin 0.  A growing rhs (types II, IV) past OVERFLOW_GUARD is refused.
    """
    if not 0.0 < q_squared < 1.0:
        raise ValueError(f"q_squared must lie in (0, 1), got {q_squared}")
    cutoff = space.cutoffs[space._check_mode(mode)]
    try:
        values = [float(rhs(n)) for n in range(cutoff + 1)]
    except OverflowError:  # a float power past 1.8e308
        values = [math.inf]
    if max(values) > OVERFLOW_GUARD:
        raise OverflowGuardError(f"rhs(n) passes the {OVERFLOW_GUARD:g} guard by cutoff {cutoff}")
    beta = [0.0]
    for n, value in enumerate(values[:-1]):
        if not value >= 0:  # also refuses nan
            raise ValueError(
                f"rhs({n}) = {value} is negative: magnitudes must stay nonnegative")
        beta.append(value + q_squared * beta[n])
    return QBosonFamily(space, mode, q_squared, np.array(beta), np.array(values))


def standard_rhs(type_tag: str, q_squared: float) -> Callable[[int], float]:
    """Right-hand side n -> value for one of the four standard families.

    Growing targets (II, IV) evaluate q^(-2n) by exponentiation first and
    apply the (1 - q^2) factor last.
    """
    if type_tag == "I":
        return lambda n: 1.0
    if type_tag == "III":
        return lambda n: 1.0 - q_squared
    if type_tag == "II":
        return lambda n: (1.0 / q_squared) ** n
    if type_tag == "IV":
        return lambda n: ((1.0 / q_squared) ** n) * (1.0 - q_squared)
    raise ValueError(f"unknown type tag {type_tag!r}; expected one of {STANDARD_TYPES}")


def standard_qboson(type_tag: str, q_squared: float, cutoff: int) -> QBosonFamily:
    """One of the four standard deformed families at the given cutoff."""
    return family_on_space(make_space([cutoff]), 1, q_squared, standard_rhs(type_tag, q_squared))


def defining_relation_residual(family: QBosonFamily, margin: int = 1,
                               norm: str = "spectral") -> float:
    """Residual of  B- B+ - q^2 B+ B-  =  rhs(N)  on the safe subspace."""
    lhs = family.lower @ family.raise_ - family.q_squared * (family.raise_ @ family.lower)
    return relation_residual(lhs, family.rhs, margin, norm=norm)


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

# Largest thermal tail mass the recipe accepts on the averaged mode.
RECIPE_TAIL_BUDGET = 1e-6


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
    tail_mass: float
    rhs_exponent_sign: int | None = None

    @property
    def q_squared_effective(self) -> float:
        return self.coeff_minus / self.coeff_plus

    @property
    def normalized_rhs(self) -> float:
        return self.rhs / self.coeff_plus


def averaged_relation(rho: DensityOperator, a_minus: LinearOperator, a_plus: LinearOperator,
                      d0: LinearOperator) -> EffectiveRelation:
    """Trace < A- A+ >, < A+ A- > and < D0 > against rho, each real to 1e-10.

    Every recipe coefficient in the toolkit is such a genuine matrix trace.
    """
    factors = ((a_minus, a_plus), (a_plus, a_minus), (d0,))
    return _real_relation([expectation(rho, *ops) for ops in factors], rho.tail_mass)


def _real_relation(values: list[complex], tail_mass: float) -> EffectiveRelation:
    """The relation with coefficients < A- A+ >, < A+ A- >, < D0 >, each real to 1e-10."""
    if any(abs(value.imag) > 1e-10 for value in values):
        raise ValueError(f"expectations {values} are not all real")
    return EffectiveRelation(*(float(value.real) for value in values), tail_mass=tail_mass)


class RecipeRelations(list):
    """Relations in request order, with the run's `space` and A± `pairs` by vacuum shift."""


def recipe_relations(q_squared: float, cutoff: int,
                     requests: Sequence[tuple[str, str, int]]) -> RecipeRelations:
    """Average the product relation of each (a_choice, d0_choice, alpha) request over one
    thermal x vacuum state.

    a_choice picks A±: "phase" (shift pair), "boson" (ladder pair), or "alpha_phase" (shift
    pair conjugated by alpha shift powers).  d0_choice picks the right-hand operator:
    "identity" or "theta" (step projector at alpha on the averaged mode).  The average is over
    a thermal state of the averaged mode times the B mode's vacuum, whose factor traces to 1,
    so it runs on the averaged mode alone, with the bits of the two-mode trace.  Its tail mass
    must stay within RECIPE_TAIL_BUDGET and its cutoff above every vacuum shift, at or below
    which < A- A+ > is 0.  The requests share the space, the density, each distinct A± pair
    and D0, and each distinct trace.  Other densities go to averaged_relation.
    """
    for a_choice, d0_choice, alpha in requests:
        if a_choice not in A_CHOICES:
            raise ValueError(f"a_choice must be one of {A_CHOICES}, got {a_choice!r}")
        if d0_choice not in D0_CHOICES:
            raise ValueError(f"d0_choice must be one of {D0_CHOICES}, got {d0_choice!r}")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
    space = make_space([cutoff])
    rho = thermal_density(space, 1, q_squared)
    if rho.tail_mass > RECIPE_TAIL_BUDGET:
        raise TruncationAccuracyError(
            f"tail mass {rho.tail_mass:.3g} exceeds budget {RECIPE_TAIL_BUDGET:.3g} at "
            f"cutoff {cutoff} of the averaged mode")

    # A± is the boson (shift None) or the phase pair with its vacuum `shift` steps up;
    # D0 = theta(N - step) is 1 at step 0.
    keys = [(None if a_choice == "boson" else alpha if a_choice == "alpha_phase" else 0,
             alpha if d0_choice == "theta" else 0) for a_choice, d0_choice, alpha in requests]
    if (shift := max((s for s, _ in keys if s is not None), default=-1)) >= cutoff:
        raise TruncationAccuracyError(
            f"vacuum shift {shift} needs cutoff >= {shift + 1}, got {cutoff}")
    pairs = {shift: ladder(space, 1) if shift is None else alpha_phase_pair(space, 1, shift)
             for shift in dict.fromkeys(shift for shift, _ in keys)}
    pair_traces = {shift: [expectation(rho, p.lower, p.raise_), expectation(rho, p.raise_, p.lower)]
                   for shift, p in pairs.items()}
    step_traces = {step: expectation(rho, theta_operator(space, 1, step))
                   for step in dict.fromkeys(step for _, step in keys)}

    relations = RecipeRelations()
    relations.space, relations.pairs = space, pairs
    for shift, step in keys:
        rel = _real_relation([*pair_traces[shift], step_traces[step]], rho.tail_mass)
        if step > 0 and rel.coeff_plus > 0:
            q2_eff, measured = rel.q_squared_effective, rel.normalized_rhs
            plus, minus = ((1.0 - q2_eff) * q2_eff ** exponent for exponent in (step, -step))
            sign = 1 if abs(measured - plus) <= abs(measured - minus) else -1
            rel = replace(rel, rhs_exponent_sign=sign)
        relations.append(rel)
    return relations


def family_from_relation(relation: EffectiveRelation, cutoff: int) -> QBosonFamily:
    """Build the deformed family solving the normalized effective relation."""
    rhs_value = relation.normalized_rhs
    return family_on_space(make_space([cutoff]), 1, relation.q_squared_effective,
                           lambda n: rhs_value)


def precision_capped_cutoff(q_squared: float, type_tag: str, cutoff: int,
                            tolerance: float) -> int:
    """Largest cutoff up to `cutoff` at which a growing rhs keeps round-off below tolerance.

    The margin-1 residual at cutoff c reads rhs up to q^(-2(c-1)) for types II and IV, so
    carries float dust up to eps q^(-2(c-1)).  The cap keeps 16 eps q^(-2c) below tolerance,
    but is 2 where cutoff 2's own dust, eps q^-2, stays below it and 1 where it does not.
    A requested cutoff below 2 is returned as it is, so the margin validation downstream
    rejects it; a tolerance / (16 eps) that overflows needs no cap.
    """
    eps = float(np.finfo(float).eps)
    headroom = max(tolerance, 32.0 * eps) / (16.0 * eps)
    if type_tag not in ("II", "IV") or math.isinf(headroom):
        return cutoff
    cap = int(math.floor(math.log(headroom) / math.log(1.0 / q_squared)))
    return min(cutoff, max(2 if eps <= tolerance * q_squared else 1, cap))
