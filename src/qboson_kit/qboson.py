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
    ThermalParams,
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

    rhs(n) is evaluated for n = 0..cutoff of that mode and recorded as the
    diagonal operator rhs(N) there; defining_relation_residual checks against
    it.  Its top entry only enters residuals at margin 0.
    """
    if not 0.0 < q_squared < 1.0:
        raise ValueError(f"q_squared must lie in (0, 1), got {q_squared}")
    cutoff = space.cutoffs[space._check_mode(mode)]
    values = np.array([rhs(n) for n in range(cutoff + 1)], dtype=float)
    beta = np.zeros(cutoff + 1)
    for n in range(cutoff):
        if values[n] < 0:
            raise ValueError(
                f"rhs({n}) = {values[n]} is negative: magnitudes must stay nonnegative")
        beta[n + 1] = values[n] + q_squared * beta[n]
    return QBosonFamily(space, mode, q_squared, beta, values)


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
    rhs = standard_rhs(type_tag, q_squared)
    # q_squared outside (0, 1) never trips the guard; family_on_space rejects it.
    if (type_tag in ("II", "IV") and q_squared > 0.0
            and cutoff * math.log(1.0 / q_squared) > math.log(OVERFLOW_GUARD)):
        raise OverflowGuardError(
            f"q^(-2n) reaches 1e{cutoff * math.log10(1.0 / q_squared):.0f} at cutoff "
            f"{cutoff}, beyond the {OVERFLOW_GUARD:g} guard")
    return family_on_space(make_space([cutoff]), 1, q_squared, rhs)


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
    ops = (a_minus @ a_plus, a_plus @ a_minus, d0)
    return _real_relation([expectation(rho, op) for op in ops], rho.tail_mass)


def _real_relation(values: list[complex], tail_mass: float) -> EffectiveRelation:
    """The relation with coefficients < A- A+ >, < A+ A- >, < D0 >, each real to 1e-10."""
    if any(abs(value.imag) > 1e-10 for value in values):
        raise ValueError(f"expectations {values} are not all real")
    return EffectiveRelation(*(float(value.real) for value in values), tail_mass=tail_mass)


def recipe_relations(q_squared: float, cutoffs: Sequence[int],
                     requests: Sequence[tuple[str, str, int]]) -> list[EffectiveRelation]:
    """Average the two-mode product relation of each (a_choice, d0_choice, alpha) request
    over one thermal x vacuum state.

    a_choice picks A±: "phase" (shift pair), "boson" (ladder pair), or
    "alpha_phase" (shift pair conjugated by alpha shift powers).  d0_choice
    picks the right-hand operator: "identity" or "theta" (step projector at
    alpha on the averaged mode).  The average runs over a thermal state on
    mode 1 tensored with the vacuum of mode 2; its tail mass must stay
    within RECIPE_TAIL_BUDGET.  The requests share the space, the density,
    each distinct A± pair and D0, and each distinct trace.  Other densities
    go to averaged_relation.
    """
    for a_choice, d0_choice, alpha in requests:
        if a_choice not in A_CHOICES:
            raise ValueError(f"a_choice must be one of {A_CHOICES}, got {a_choice!r}")
        if d0_choice not in D0_CHOICES:
            raise ValueError(f"d0_choice must be one of {D0_CHOICES}, got {d0_choice!r}")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
    if len(cutoffs) != 2:
        raise ValueError("the recipe runs on a two-mode space: pass two cutoffs")
    space = make_space(cutoffs)
    rho = thermal_density(space, 1, ThermalParams.from_q_squared(q_squared))
    if rho.tail_mass > RECIPE_TAIL_BUDGET:
        raise TruncationAccuracyError(
            f"tail mass {rho.tail_mass:.3g} exceeds budget {RECIPE_TAIL_BUDGET:.3g} at "
            f"cutoff {cutoffs[0]} of the averaged mode")

    # A± is the boson (shift None) or the phase pair with its vacuum `shift` steps up;
    # D0 = theta(N - step) is 1 at step 0.
    keys = [(None if a_choice == "boson" else alpha if a_choice == "alpha_phase" else 0,
             alpha if d0_choice == "theta" else 0) for a_choice, d0_choice, alpha in requests]
    pair_traces = {}
    for shift in dict.fromkeys(shift for shift, _ in keys):
        pair = ladder(space, 1) if shift is None else alpha_phase_pair(space, 1, shift)
        pair_traces[shift] = [expectation(rho, pair.lower @ pair.raise_),
                              expectation(rho, pair.raise_ @ pair.lower)]
    step_traces = {step: expectation(rho, theta_operator(space, 1, step))
                   for step in dict.fromkeys(step for _, step in keys)}

    relations = []
    for shift, step in keys:
        rel = _real_relation([*pair_traces[shift], step_traces[step]], rho.tail_mass)
        if step > 0 and rel.coeff_plus > 0:
            q2_eff, measured = rel.q_squared_effective, rel.normalized_rhs
            plus, minus = ((1.0 - q2_eff) * q2_eff ** exponent for exponent in (step, -step))
            sign = 1 if abs(measured - plus) <= abs(measured - minus) else -1
            rel = replace(rel, rhs_exponent_sign=sign)
        relations.append(rel)
    return relations


def expectation_recipe(a_choice: str, d0_choice: str, q_squared: float,
                       cutoffs: Sequence[int], alpha: int = 0) -> EffectiveRelation:
    """recipe_relations for the one request (a_choice, d0_choice, alpha)."""
    return recipe_relations(q_squared, cutoffs, [(a_choice, d0_choice, alpha)])[0]


def family_from_relation(relation: EffectiveRelation, cutoff: int) -> QBosonFamily:
    """Build the deformed family solving the normalized effective relation."""
    rhs_value = relation.normalized_rhs
    return family_on_space(make_space([cutoff]), 1, relation.q_squared_effective,
                           lambda n: rhs_value)


def precision_capped_cutoff(q_squared: float, type_tag: str, cutoff: int,
                            tolerance: float) -> int:
    """Largest cutoff up to `cutoff` at which a growing rhs keeps round-off below tolerance.

    The defining-relation residual carries float dust of order
    eps * q^(-2 cutoff) for types II and IV; bounded targets are unaffected.
    The cap never goes below 2, and a requested cutoff below 2 is returned
    as it is, so the margin validation downstream rejects it.  A tolerance so
    large that tolerance / (16 eps) overflows needs no cap.
    """
    eps = float(np.finfo(float).eps)
    headroom = max(tolerance, 32.0 * eps) / (16.0 * eps)
    if type_tag not in ("II", "IV") or math.isinf(headroom):
        return cutoff
    cap = int(math.floor(math.log(headroom) / math.log(1.0 / q_squared)))
    return min(cutoff, max(2, cap))
