"""Multicomponent deformed bosons: independent families, covariant dressing,
the SU(N) R-matrix with RTT-form residuals, and Chevalley-basis checks.

Independent families live on disjoint tensor legs and commute exactly.  The
covariant family dresses each hatted (independent) pair with the diagonal
factor q^(sum_{k<i} N_k), which produces the q-commuting relations

    B-_i B+_i - q^2 B+_i B-_i = q^(2 sum_{k<i} N_k)
    B-_i B-_j = q B-_j B-_i                (i < j)
    B-_i B+_j = q B+_j B-_i                (i != j)

and, by adjointness, B+_i B+_j = q B+_j B+_i for i > j.  This orientation,
that of the Pusz-Woronowicz twisted CCR, fixes the sign +1 of the dressing
exponent; dressing with q^(-sum_{k<i} N_k) breaks the relations.  The same
algebra is expressed through the SU(N) R-matrix in RTT form, and the
R-matrix itself is checked against the Yang-Baxter identity by brute-force
matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import ThermalParams, thermal_density
from .fock import (
    FockSpace,
    LinearOperator,
    diagonal_operator,
    expectation,
    identity_operator,
    make_space,
    relation_residual,
)
from .phase import phase_pair
from .qboson import QBosonFamily, _beta_recursion, family_on_space, standard_rhs

BOSON_VARIANTS = ("typeI_q2", "typeII_symmetric")


def independent_qbosons(n_modes: int, q_squared_list: Sequence[float],
                        cutoffs: Sequence[int]) -> list[QBosonFamily]:
    """Per-mode deformed families on a shared space, one q parameter per mode.

    Each family obeys B-_i B+_i - q_i^2 B+_i B-_i = 1 on its own mode and
    commutes exactly with every operator of the other modes (disjoint tensor
    legs).  The per-mode deformation parameters may differ, mirroring modes
    with different quantal energies at a common temperature.
    """
    if len(q_squared_list) != n_modes:
        raise ValueError(f"expected {n_modes} q_squared values, got {len(q_squared_list)}")
    if len(cutoffs) != n_modes:
        raise ValueError(f"expected {n_modes} cutoffs, got {len(cutoffs)}")
    space = make_space(cutoffs)
    families = []
    for i, q2 in enumerate(q_squared_list, start=1):
        if not 0.0 < q2 < 1.0:
            raise ValueError(f"q_squared must lie in (0, 1), got {q2}")
        beta = _beta_recursion(q2, standard_rhs("I", q2), space.cutoffs[i - 1])
        families.append(family_on_space(space, i, beta, q2, "I"))
    return families


@dataclass(frozen=True)
class CovariantFamily:
    """Dressed q-commuting family together with its independent building blocks."""

    modes: int
    q: float
    space: FockSpace
    hatted: tuple[QBosonFamily, ...]
    dressed: tuple[tuple[LinearOperator, LinearOperator], ...]
    numbers: tuple[LinearOperator, ...]
    dressing_exponent_sign: int


def _dressing_factor(space: FockSpace, q: float, i: int, power: int) -> LinearOperator:
    """Diagonal factor q^(power * sum_{k<i} N_k) (1-based mode i)."""
    expo = space.occupations[:, : i - 1].sum(axis=1)
    vals = q ** (power * expo.astype(float))
    return diagonal_operator(space, vals.astype(complex))


def covariant_bosons(n_modes: int, q: float, cutoffs: Sequence[int]) -> CovariantFamily:
    """Build the covariant family by dressing independent type-I pairs.

    Mode i's pair is multiplied by q^(sum_{k<i} N_k); the exponent sign +1 is
    fixed by the relations' orientation (module docstring) and recorded on
    the result.
    """
    if n_modes < 2:
        raise ValueError("a covariant family needs at least two modes")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    hatted = independent_qbosons(n_modes, [q * q] * n_modes, cutoffs)
    space = hatted[0].space
    numbers = tuple(fam.number for fam in hatted)
    dressed = []
    for i, fam in enumerate(hatted, start=1):
        factor = _dressing_factor(space, q, i, 1)
        dressed.append((factor @ fam.lower, factor @ fam.raise_))
    return CovariantFamily(modes=n_modes, q=q, space=space, hatted=tuple(hatted),
                           dressed=tuple(dressed), numbers=numbers, dressing_exponent_sign=1)


def covariant_relation_residuals(family: CovariantFamily, margin: int = 1,
                                 norm: str = "spectral") -> dict[str, float]:
    """Residuals of the diagonal and q-commuting cross relations, by relation name.

    The raise-raise relation is checked in its adjoint-consistent orientation
    B+_i B+_j = q B+_j B+_i for i > j (equivalently q^(-1) for i < j), which
    is the orientation the RTT form reproduces.
    """
    q = family.q
    q2 = q * q
    space = family.space
    residuals = {}
    for i in range(1, family.modes + 1):
        bm_i, bp_i = family.dressed[i - 1]
        rhs = _dressing_factor(space, q, i, 2 * family.dressing_exponent_sign)
        lhs = bm_i @ bp_i - q2 * (bp_i @ bm_i)
        residuals[f"diagonal i={i}"] = relation_residual(lhs, rhs, margin, norm=norm)
        for j in range(1, family.modes + 1):
            bm_j, bp_j = family.dressed[j - 1]
            if i < j:
                residuals[f"lower-lower i={i} j={j}"] = relation_residual(
                    bm_i @ bm_j, q * (bm_j @ bm_i), margin, norm=norm)
                residuals[f"raise-raise i={i} j={j}"] = relation_residual(
                    q * (bp_i @ bp_j), bp_j @ bp_i, margin, norm=norm)
            if i != j:
                residuals[f"lower-raise i={i} j={j}"] = relation_residual(
                    bm_i @ bp_j, q * (bp_j @ bm_i), margin, norm=norm)
    return residuals


def undressing_residual(family: CovariantFamily) -> float:
    """Max deviation after inverting the diagonal dressing factor."""
    worst = 0.0
    for i, fam in enumerate(family.hatted, start=1):
        inv = _dressing_factor(family.space, family.q, i, -family.dressing_exponent_sign)
        for dressed_op, hatted_op in ((family.dressed[i - 1][0], fam.lower),
                                      (family.dressed[i - 1][1], fam.raise_)):
            diff = (inv @ dressed_op - hatted_op).matrix
            if diff.nnz:
                worst = max(worst, float(np.max(np.abs(diff.data))))
    return worst


# -- R-matrix -----------------------------------------------------------------

@dataclass(frozen=True)
class RMatrix:
    """SU(N) R-matrix in the row (i,j), column (k,l) convention, row-major."""

    n: int
    q: float
    entries: np.ndarray

    def entry(self, i: int, j: int, k: int, l: int) -> complex:
        """R_{ij,kl} with 1-based indices."""
        n = self.n
        return complex(self.entries[(i - 1) * n + (j - 1), (k - 1) * n + (l - 1)])


def su_r_matrix(n: int, q: float) -> RMatrix:
    """R = q sum_i e_ii x e_ii + sum_{i!=j} e_ii x e_jj + (q - 1/q) sum_{i<j} e_ij x e_ji.

    q = 1 is allowed as the degenerate (identity-coupling) limit.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    R = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            R[i * n + j, i * n + j] = q if i == j else 1.0
    coupling = q - 1.0 / q
    for i in range(n):
        for j in range(i + 1, n):
            R[i * n + j, j * n + i] = coupling
    R.flags.writeable = False
    return RMatrix(n=n, q=q, entries=R)


def yang_baxter_residual(rmatrix: RMatrix) -> float:
    """Spectral norm of R12 R13 R23 - R23 R13 R12 on the triple tensor space."""
    n = rmatrix.n
    R = rmatrix.entries
    eye = np.eye(n)
    r12 = np.kron(R, eye)
    r23 = np.kron(eye, R)
    r13 = np.zeros((n ** 3, n ** 3), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = R[i * n + j, k * n + l]
                    if v != 0:
                        e_ik = np.zeros((n, n))
                        e_ik[i, k] = 1.0
                        e_jl = np.zeros((n, n))
                        e_jl[j, l] = 1.0
                        r13 += v * np.kron(e_ik, np.kron(eye, e_jl))
    diff = r12 @ r13 @ r23 - r23 @ r13 @ r12
    return float(np.linalg.norm(diff, 2))


def rtt_residuals(family: CovariantFamily, rmatrix: RMatrix | None = None,
                  margin: int = 1, norm: str = "spectral") -> dict[str, float]:
    """Residuals of the three R-matrix forms of the covariant relations, by name.

        B-_i B-_j = (1/q) R_{ij,kl} B-_l B-_k
        B+_i B+_j = (1/q) R_{lk,ij} B+_k B+_l
        B-_i B+_j = delta_ij + q R_{ki,jl} B+_k B-_l
    """
    if rmatrix is None:
        rmatrix = su_r_matrix(family.modes, family.q)
    if rmatrix.n != family.modes:
        raise ValueError("R-matrix rank does not match the family's mode count")
    q = family.q
    nm = family.modes
    space = family.space
    eye = identity_operator(space)
    zero = 0.0 * eye
    bm = [pair[0] for pair in family.dressed]
    bp = [pair[1] for pair in family.dressed]
    # every side is a linear combination of these pair products
    mm_prod = [[bm[k] @ bm[l] for l in range(nm)] for k in range(nm)]
    pp_prod = [[bp[k] @ bp[l] for l in range(nm)] for k in range(nm)]
    pm_prod = [[bp[k] @ bm[l] for l in range(nm)] for k in range(nm)]
    mp_prod = [[bm[k] @ bp[l] for l in range(nm)] for k in range(nm)]
    residuals = {}
    for i in range(1, nm + 1):
        for j in range(1, nm + 1):
            rhs1 = zero
            rhs2 = zero
            rhs3 = eye if i == j else zero
            for k in range(1, nm + 1):
                for l in range(1, nm + 1):
                    v1 = rmatrix.entry(i, j, k, l)
                    if v1 != 0:
                        rhs1 = rhs1 + (v1 / q) * mm_prod[l - 1][k - 1]
                    v2 = rmatrix.entry(l, k, i, j)
                    if v2 != 0:
                        rhs2 = rhs2 + (v2 / q) * pp_prod[k - 1][l - 1]
                    v3 = rmatrix.entry(k, i, j, l)
                    if v3 != 0:
                        rhs3 = rhs3 + (q * v3) * pm_prod[k - 1][l - 1]
            residuals[f"rtt-lower i={i} j={j}"] = relation_residual(
                mm_prod[i - 1][j - 1], rhs1, margin, norm=norm)
            residuals[f"rtt-raise i={i} j={j}"] = relation_residual(
                pp_prod[i - 1][j - 1], rhs2, margin, norm=norm)
            residuals[f"rtt-mixed i={i} j={j}"] = relation_residual(
                mp_prod[i - 1][j - 1], rhs3, margin, norm=norm)
    return residuals


# -- Chevalley basis ----------------------------------------------------------

def cartan_matrix(n: int) -> np.ndarray:
    """The su(N) Cartan matrix A_ij = 2 d_ij - d_{i,j+1} - d_{i,j-1}."""
    a = 2 * np.eye(n - 1, dtype=int)
    for i in range(n - 2):
        a[i, i + 1] = -1
        a[i + 1, i] = -1
    return a


@dataclass(frozen=True)
class ChevalleyReport:
    """Residuals of the Chevalley-basis relations for one boson variant.

    cartan_e_residuals[(i, j)] is the residual of [H_i, E_j] - A_ij E_j;
    cartan_f_residuals likewise with [H_i, F_j] + A_ij F_j; hh_residuals of
    [H_i, H_j]; ef_residuals[i] of [E_i, F_i] - [H_i] with the bracket
    [x] = (b^x - b^-x)/(b - 1/b) evaluated at the configured base b.
    """

    h: tuple[LinearOperator, ...]
    e: tuple[LinearOperator, ...]
    f: tuple[LinearOperator, ...]
    boson_variant: str
    bracket_base: float
    hh_residuals: dict[tuple[int, int], float]
    cartan_e_residuals: dict[tuple[int, int], float]
    cartan_f_residuals: dict[tuple[int, int], float]
    ef_residuals: dict[int, float]


def _variant_families(variant: str, q: float, space: FockSpace) -> list[QBosonFamily]:
    families = []
    for i in range(1, space.mode_count + 1):
        c = space.cutoffs[i - 1]
        if variant == "typeI_q2":
            beta = _beta_recursion(q * q, standard_rhs("I", q * q), c)
            families.append(family_on_space(space, i, beta, q * q, "I"))
        elif variant == "typeII_symmetric":
            # symmetric magnitudes [n] = (q^n - q^-n)/(q - 1/q), solving
            # beta(n+1) = q^-n + q beta(n)
            beta = _beta_recursion(q, lambda n: (1.0 / q) ** n, c)
            families.append(family_on_space(space, i, beta, q, "custom"))
        else:
            raise ValueError(f"boson_variant must be one of {BOSON_VARIANTS}, got {variant!r}")
    return families


def chevalley_check(n_modes: int, q: float, cutoffs: Sequence[int],
                    boson_variant: str, bracket_base: float | None = None,
                    margin: int = 2, norm: str = "spectral") -> ChevalleyReport:
    """Build H_i, E_i, F_i from per-mode families and measure the algebra.

    H_i = N_i - N_{i+1}, E_i = B+_i B-_{i+1}, F_i = B+_{i+1} B-_i.  The
    Cartan-sector relations hold for any number-conserving bilinear; the
    [E_i, F_i] = [H_i] relation is exact for the symmetric variant at the
    default bracket base b = q and is reported (not asserted) otherwise.
    """
    if n_modes < 2:
        raise ValueError("the Chevalley basis needs at least two modes")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if len(cutoffs) != n_modes:
        raise ValueError(f"expected {n_modes} cutoffs, got {len(cutoffs)}")
    base = q if bracket_base is None else bracket_base
    if base <= 0.0 or base == 1.0:
        raise ValueError(f"bracket base must be positive and != 1, got {base}")
    space = make_space(cutoffs)
    families = _variant_families(boson_variant, q, space)

    h_ops, e_ops, f_ops = [], [], []
    for i in range(n_modes - 1):
        h_ops.append(families[i].number - families[i + 1].number)
        e_ops.append(families[i].raise_ @ families[i + 1].lower)
        f_ops.append(families[i + 1].raise_ @ families[i].lower)

    a = cartan_matrix(n_modes)
    rank = n_modes - 1
    hh = {}
    ce = {}
    cf = {}
    ef = {}
    for i in range(rank):
        for j in range(rank):
            hh[(i + 1, j + 1)] = relation_residual(
                h_ops[i] @ h_ops[j], h_ops[j] @ h_ops[i], margin, norm=norm)
            ce[(i + 1, j + 1)] = relation_residual(
                h_ops[i] @ e_ops[j] - e_ops[j] @ h_ops[i],
                float(a[i, j]) * e_ops[j], margin, norm=norm)
            cf[(i + 1, j + 1)] = relation_residual(
                h_ops[i] @ f_ops[j] - f_ops[j] @ h_ops[i],
                (-float(a[i, j])) * f_ops[j], margin, norm=norm)
        bracket = _diagonal_bracket(space, h_ops[i], base)
        ef[i + 1] = relation_residual(
            e_ops[i] @ f_ops[i] - f_ops[i] @ e_ops[i], bracket, margin, norm=norm)

    return ChevalleyReport(h=tuple(h_ops), e=tuple(e_ops), f=tuple(f_ops),
                           boson_variant=boson_variant, bracket_base=base,
                           hh_residuals=hh, cartan_e_residuals=ce,
                           cartan_f_residuals=cf, ef_residuals=ef)


def _diagonal_bracket(space: FockSpace, h: LinearOperator, base: float) -> LinearOperator:
    """[h] = (base^h - base^-h) / (base - 1/base) for diagonal h."""
    hv = h.matrix.diagonal().real
    vals = (base ** hv - base ** (-hv)) / (base - 1.0 / base)
    return diagonal_operator(space, vals.astype(complex))


# -- multimode averaging consistency ------------------------------------------

@dataclass(frozen=True)
class RecipeConsistency:
    """Measured vs expected coefficients of one diagonal covariant relation."""

    coeff_plus: float
    coeff_minus: float
    rhs: float
    expected_plus: float
    expected_minus: float
    expected_rhs: float
    tail_mass: float


def covariant_recipe_check(q_squared: float, b_levels: Sequence[int],
                           a_cutoff: int = 80) -> RecipeConsistency:
    """Average the step-projector relation that generates one covariant row.

    Mode 1 carries the thermal average; the remaining modes are pinned to the
    pure occupations in `b_levels`, and the right-hand operator is the step
    projector theta(N_1 - sum_k N_bk).  The expected normalized coefficients
    are (1, q^2, q^(2 sum levels)).
    """
    levels = [int(v) for v in b_levels]
    cutoffs = [a_cutoff] + [max(lvl, 1) for lvl in levels]
    space = make_space(cutoffs)
    rho = thermal_density(space, 1, ThermalParams.from_q_squared(q_squared),
                          other_levels=levels)
    pair = phase_pair(space, 1)
    occ = space.occupations
    shift = occ[:, 1:].sum(axis=1) if space.mode_count > 1 else np.zeros(space.dimension,
                                                                         dtype=int)
    mask = (occ[:, 0] >= shift).astype(complex)
    d0 = diagonal_operator(space, mask)

    plus = expectation(rho, pair.lower @ pair.raise_).real
    minus = expectation(rho, pair.raise_ @ pair.lower).real
    rhs = expectation(rho, d0).real
    return RecipeConsistency(coeff_plus=plus, coeff_minus=minus, rhs=rhs,
                             expected_plus=1.0, expected_minus=q_squared,
                             expected_rhs=q_squared ** sum(levels),
                             tail_mass=rho.tail_mass)
