"""Exponential phase (shift) operators, step projectors, and shifted-vacuum bosons.

The Susskind-Glogower pair e|n> = |n-1>, e†|n> = |n+1> is the q^2 = 0
q-boson family (fock.QBosonFamily) with rhs 1: e e† = 1 and e† e = 1 - |0><0|
hold on the margin-1 safe subspace, and a = e sqrt(N) holds exactly.  With
rhs theta(n - alpha) the same recursion gives the shifted-vacuum pairs: the
boson a(alpha) at q^2 = 1, with an (alpha+1)-dimensional kernel, and the
phase pair e(alpha) at q^2 = 0, whose commutation defect is the projector
onto |alpha>.  Both equal x -> e†^alpha x e^alpha of their alpha = 0
member, an identity the tests check bit for bit.
"""

from __future__ import annotations

import numpy as np

from .fock import (
    FockSpace,
    LinearOperator,
    QBosonFamily,
    operator_on_mode,
    _shifted_family,
)


def phase_pair(space: FockSpace, mode: int) -> QBosonFamily:
    """The exponential phase pair: unit-amplitude shifts down/up one step."""
    return _shifted_family(space, mode, 0.0, 0)


def sqrt_number_operator(space: FockSpace, mode: int) -> LinearOperator:
    """Diagonal principal square root of the occupation operator of one mode."""
    n = np.arange(space.shape[space._check_mode(mode)], dtype=float)
    return operator_on_mode(space, mode, np.sqrt(n))


def theta_operator(space: FockSpace, mode: int, alpha: int) -> LinearOperator:
    """Step projector: eigenvalue 1 on states with n_mode >= alpha, else 0.

    It is rhs(N) of the shifted-vacuum pairs.  The convention theta(0) = 1 is
    fixed by requiring theta(N) to be the identity and the thermal
    expectation of theta(N - alpha) to be q^(2 alpha).
    """
    k = space._check_mode(mode, "alpha", alpha)
    return operator_on_mode(space, mode, np.arange(space.shape[k]) >= alpha)


def alpha_boson(space: FockSpace, mode: int, alpha: int) -> QBosonFamily:
    """The shifted-vacuum boson a(alpha) = e†^alpha a e^alpha.

    Its lowering operator maps |n> to sqrt(n - alpha) |n-1> for n > alpha and
    annihilates the bottom alpha + 1 states; the commutator of the pair equals
    theta(N - alpha) on the margin-2 safe subspace, and raise_ @ lower (not
    the family's occupation operator `number`) has eigenvalue n on |n + alpha>.
    """
    k = space._check_mode(mode)
    if alpha > space.cutoffs[k] - 2:
        raise ValueError(f"alpha {alpha} leaves no safe subspace below cutoff "
                         f"{space.cutoffs[k]} (need alpha <= cutoff - 2)")
    return _shifted_family(space, mode, 1.0, alpha)


def alpha_phase_pair(space: FockSpace, mode: int, alpha: int) -> QBosonFamily:
    """The phase pair for the shifted vacuum, e(alpha) = e†^alpha e e^alpha.

    lower maps |n> to |n-1> for n >= alpha + 1 and annihilates everything
    below; the commutation defect lower@raise_ - raise_@lower equals the
    projector onto |alpha> on the margin-1 safe subspace.
    """
    return _shifted_family(space, mode, 0.0, alpha)
