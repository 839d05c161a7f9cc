"""Exponential phase (shift) operators, step projectors, and shifted-vacuum bosons.

The Susskind-Glogower pair (e, e†) shifts number states down and up one step:
e|n> = |n-1>, e†|n> = |n+1>.  On the truncated space e e† = 1 and
e† e = 1 - |0><0| hold on the margin-1 safe subspace, and the polar
decomposition a = e sqrt(N) holds exactly on the full truncated space.

Conjugating by powers of the shift yields the alpha-adjoint family
x -> e†^a x e^a.  Applied to the boson it produces a ladder algebra whose
vacuum sits a steps up the number basis, with an (a+1)-dimensional
annihilated subspace; applied to the shift pair it produces operators whose
commutation defect is the rank-1 projector onto |a> (margin 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FockSpace,
    LadderTriple,
    LinearOperator,
    ladder,
    operator_on_mode,
    _require_same_space,
)


@dataclass(frozen=True)
class PhasePair:
    """One-step shift pair on a single mode."""

    lower: LinearOperator
    raise_: LinearOperator


def phase_pair(space: FockSpace, mode: int) -> PhasePair:
    """The exponential phase pair: unit-amplitude shifts down/up one step."""
    lower = _lower_shift(space, mode, 1)
    return PhasePair(lower=lower, raise_=lower.adjoint())


def sqrt_number_operator(space: FockSpace, mode: int) -> LinearOperator:
    """Diagonal principal square root of the occupation operator of one mode."""
    n = np.arange(space.shape[space._check_mode(mode)], dtype=float)
    return operator_on_mode(space, mode, np.sqrt(n))


def theta_operator(space: FockSpace, mode: int, alpha: int) -> LinearOperator:
    """Step projector: eigenvalue 1 on states with n_mode >= alpha, else 0.

    The convention theta(0) = 1 is fixed by requiring theta(N) to be the
    identity and the thermal expectation of theta(N - alpha) to be q^(2 alpha).
    """
    k = space._check_mode(mode)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha > space.cutoffs[k]:
        raise ValueError(f"alpha {alpha} exceeds cutoff {space.cutoffs[k]} of mode {mode}")
    return operator_on_mode(space, mode, np.arange(space.shape[k]) >= alpha)


def _lower_shift(space: FockSpace, mode: int, alpha: int) -> LinearOperator:
    """e^alpha, mapping |n> to |n - alpha> and annihilating the bottom alpha states."""
    k = space._check_mode(mode)
    if not 0 <= alpha <= space.cutoffs[k]:
        raise ValueError(f"alpha {alpha} outside [0, {space.cutoffs[k]}] for mode {mode}")
    return operator_on_mode(space, mode, np.ones(space.shape[k]), lower=alpha)


def alpha_adjoint(space: FockSpace, mode: int, x: LinearOperator, alpha: int) -> LinearOperator:
    """The shifted-conjugation map x -> e†^alpha x e^alpha.

    Not a similarity transformation in the strict sense: e^alpha annihilates
    the bottom alpha states, so the map is a definition, not a conjugation by
    an invertible operator.
    """
    e = _lower_shift(space, mode, alpha)
    _require_same_space(space, x.space)
    return e.adjoint() @ x @ e if alpha else x


@dataclass(frozen=True)
class AlphaBoson:
    """Boson-like triple with vacuum shifted up by `alpha` number states."""

    triple: LadderTriple


def alpha_boson(space: FockSpace, mode: int, alpha: int) -> AlphaBoson:
    """The shifted-vacuum boson a(alpha) = e†^alpha a e^alpha.

    Its lowering operator maps |n> to sqrt(n - alpha) |n-1> for n > alpha and
    annihilates the bottom alpha + 1 states; the commutator of the pair equals
    theta(N - alpha) on the margin-2 safe subspace, and the number operator
    raise_ @ lower has eigenvalue n on |n + alpha>.
    """
    k = space._check_mode(mode)
    if alpha > space.cutoffs[k] - 2:
        raise ValueError(f"alpha {alpha} leaves no safe subspace below cutoff "
                         f"{space.cutoffs[k]} (need alpha <= cutoff - 2)")
    lower = alpha_adjoint(space, mode, ladder(space, mode).lower, alpha)
    raise_ = lower.adjoint()
    triple = LadderTriple(lower=lower, raise_=raise_, number=raise_ @ lower)
    return AlphaBoson(triple=triple)


def alpha_phase_pair(space: FockSpace, mode: int, alpha: int) -> PhasePair:
    """The shift pair conjugated by e^alpha: a phase pair for the shifted vacuum.

    lower maps |n> to |n-1> for n >= alpha + 1 and annihilates everything
    below; the commutation defect lower@raise_ - raise_@lower equals the
    projector onto |alpha> on the margin-1 safe subspace.
    """
    lower = alpha_adjoint(space, mode, phase_pair(space, mode).lower, alpha)
    return PhasePair(lower=lower, raise_=lower.adjoint())
