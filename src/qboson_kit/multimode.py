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

from .densities import thermal_density
from .fock import (
    DEFAULT_DIMENSION_LIMIT,
    FockSpace,
    LinearOperator,
    QBosonFamily,
    _run_once,
    diagonal_operator,
    identity_operator,
    linear_combination,
    make_space,
    relation_residual,
)
from .phase import phase_pair
from .qboson import EffectiveRelation, averaged_relation, family_on_space, standard_rhs

BOSON_VARIANTS = ("typeI_q2", "typeII_symmetric")


def independent_qbosons(q_squared_list: Sequence[float],
                        cutoffs: Sequence[int]) -> list[QBosonFamily]:
    """Per-mode deformed families on a shared space, one q parameter per mode.

    Each family obeys B-_i B+_i - q_i^2 B+_i B-_i = 1 on its own mode and
    commutes exactly with every operator of the other modes (disjoint tensor
    legs).  The per-mode deformation parameters may differ, mirroring modes
    with different quantal energies at a common temperature.
    """
    if len(q_squared_list) != len(cutoffs):
        raise ValueError(f"expected {len(cutoffs)} q_squared values, got {len(q_squared_list)}")
    space = make_space(cutoffs)
    return [family_on_space(space, i, q2, standard_rhs("I", q2))
            for i, q2 in enumerate(q_squared_list, start=1)]


@dataclass(frozen=True)
class CovariantFamily:
    """Dressed q-commuting family together with its independent building blocks."""

    q: float
    space: FockSpace
    hatted: tuple[QBosonFamily, ...]
    dressed: tuple[tuple[LinearOperator, LinearOperator], ...]
    dressing_exponent_sign: int


def _dressing_factor(space: FockSpace, q: float, i: int, power: int) -> LinearOperator:
    """Diagonal factor q^(power * sum_{k<i} N_k) (1-based mode i)."""
    expo = sum(space.grid[: i - 1], np.zeros((), dtype=int))  # varies along axes 1..i-1
    return diagonal_operator(space, space.flat(q ** (power * expo.astype(float))))


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
    hatted = independent_qbosons([q * q] * n_modes, cutoffs)
    space = hatted[0].space
    dressed = []
    for i, fam in enumerate(hatted, start=1):
        factor = _dressing_factor(space, q, i, 1)
        dressed.append((factor @ fam.lower, factor @ fam.raise_))
    return CovariantFamily(q=q, space=space, hatted=tuple(hatted),
                           dressed=tuple(dressed), dressing_exponent_sign=1)


def covariant_relation_residuals(family: CovariantFamily, margin: int = 1,
                                 norm: str = "spectral") -> dict[str, float]:
    """Residuals of the diagonal and q-commuting cross relations, by relation name.

    The raise-raise relation is checked in its adjoint-consistent orientation
    B+_i B+_j = q B+_j B+_i for i > j (equivalently q^(-1) for i < j), which
    is the orientation the RTT form reproduces.
    """
    return {name: r for name, r in pair_product_residuals(family, margin, norm).items()
            if not name.startswith("rtt-")}


def undressing_residual(family: CovariantFamily) -> float:
    """Worst margin-0 residual of inverse dressing, from mode 2 (mode 1's factor is q^0)."""
    worst = 0.0
    for i, fam in enumerate(family.hatted[1:], start=2):
        inv = _dressing_factor(family.space, family.q, i, -family.dressing_exponent_sign)
        for dressed_op, hatted_op in zip(family.dressed[i - 1], (fam.lower, fam.raise_)):
            worst = max(worst, relation_residual(inv @ dressed_op, hatted_op, 0))
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


def dense_rank_limit(power: int) -> int:
    """Largest rank n whose n^power dense entries fit in DEFAULT_DIMENSION_LIMIT."""
    return int(DEFAULT_DIMENSION_LIMIT ** (1 / power))


def su_r_matrix(n: int, q: float) -> RMatrix:
    """R = q sum_i e_ii x e_ii + sum_{i!=j} e_ii x e_jj + (q - 1/q) sum_{i<j} e_ij x e_ji.

    q = 1 is allowed as the degenerate (identity-coupling) limit.
    """
    if not 2 <= n <= dense_rank_limit(4):
        raise ValueError(f"n must lie in 2..{dense_rank_limit(4)}, got {n}")
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
    if n > dense_rank_limit(6):
        raise ValueError(f"the Yang-Baxter products need n <= {dense_rank_limit(6)}, got {n}")
    R, eye, m = rmatrix.entries, np.eye(n), n ** 3
    # R12 = R x 1 and R23 = 1 x R, each one broadcast product with np.kron's entries.
    r12 = (R[:, None, :, None] * eye[None, :, None, :]).reshape(m, m)
    r23 = (eye[:, None, :, None] * R[None, :, None, :]).reshape(m, m)
    # R13 is R12 with tensor legs 2 and 3 swapped on both sides.
    r13 = r12.reshape((n,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(m, m)
    diff = r12 @ r13 @ r23 - r23 @ r13 @ r12
    return float(np.linalg.norm(diff, 2))


def rtt_residuals(family: CovariantFamily, margin: int = 1,
                  norm: str = "spectral") -> dict[str, float]:
    """Residuals of the three R-matrix forms of the covariant relations, by name.

        B-_i B-_j = (1/q) R_{ij,kl} B-_l B-_k
        B+_i B+_j = (1/q) R_{lk,ij} B+_k B+_l
        B-_i B+_j = delta_ij + q R_{ki,jl} B+_k B-_l

    with R = su_r_matrix(N, q) for the family's N modes and q.
    """
    return {name: r for name, r in pair_product_residuals(family, margin, norm).items()
            if name.startswith("rtt-")}


def pair_product_residuals(family: CovariantFamily, margin: int = 1,
                           norm: str = "spectral") -> dict[str, float]:
    """The covariant relations and their RTT forms, by name, in one walk over the
    pair-product tables B-B-, B+B+ and B+B-; each B-_i B+_j is built where it is used.
    One table is alive at a time (about 60 MB at N = 7, cutoff 4).  Each RTT right
    side sums pair products over R's nonzero entries in row-major (k, l) order."""
    q, space = family.q, family.space
    nm = space.mode_count
    R = _run_once(su_r_matrix, nm, q).entries.reshape((nm,) * 4)
    eye = identity_operator(space)
    bm, bp = zip(*family.dressed)
    pairs = [(i, j) for i in range(nm) for j in range(nm)]
    residuals = {}

    def record(name, lhs, rhs):
        residuals[name] = relation_residual(lhs, rhs, margin, norm=norm)

    mm = [[bm[k] @ bm[l] for l in range(nm)] for k in range(nm)]
    for i, j in pairs:
        if i < j:
            record(f"lower-lower i={i + 1} j={j + 1}", mm[i][j], q * mm[j][i])
        record(f"rtt-lower i={i + 1} j={j + 1}", mm[i][j], linear_combination(space, (
            (complex(R[i, j, k, l]) / q, mm[l][k]) for k, l in zip(*np.nonzero(R[i, j])))))
    del mm
    pp = [[bp[k] @ bp[l] for l in range(nm)] for k in range(nm)]
    for i, j in pairs:
        if i < j:
            record(f"raise-raise i={i + 1} j={j + 1}", q * pp[i][j], pp[j][i])
        record(f"rtt-raise i={i + 1} j={j + 1}", pp[i][j], linear_combination(space, (
            (complex(R[l, k, i, j]) / q, pp[k][l]) for k, l in zip(*np.nonzero(R[..., i, j].T)))))
    del pp
    pm = [[bp[k] @ bm[l] for l in range(nm)] for k in range(nm)]
    for i, j in pairs:
        mp = bm[i] @ bp[j]
        if i == j:
            record(f"diagonal i={i + 1}", mp - q * q * pm[i][i], _dressing_factor(
                space, q, i + 1, 2 * family.dressing_exponent_sign))
        else:
            record(f"lower-raise i={i + 1} j={j + 1}", mp, q * pm[j][i])
        terms = [(q * complex(R[k, i, j, l]), pm[k][l]) for k, l in zip(*np.nonzero(R[:, i, j]))]
        record(f"rtt-mixed i={i + 1} j={j + 1}", mp,
               linear_combination(space, ([(1.0, eye)] if i == j else []) + terms))
    return residuals


# -- Chevalley basis ----------------------------------------------------------

def cartan_matrix(n: int) -> np.ndarray:
    """The su(N) Cartan matrix A_ij = 2 d_ij - d_{i,j+1} - d_{i,j-1}."""
    m = n - 1
    return 2 * np.eye(m, dtype=int) - np.eye(m, k=1, dtype=int) - np.eye(m, k=-1, dtype=int)


@dataclass(frozen=True)
class ChevalleyReport:
    """Residuals of the Chevalley-basis relations for one boson variant.

    cartan_e_residuals[(i, j)] is the residual of [H_i, E_j] - A_ij E_j;
    cartan_f_residuals likewise with [H_i, F_j] + A_ij F_j; hh_residuals of
    [H_i, H_j]; ef_residuals[i] of [E_i, F_i] - [H_i] with the bracket
    [x] = (b^x - b^-x)/(b - 1/b) evaluated at the configured base b.
    """

    hh_residuals: dict[tuple[int, int], float]
    cartan_e_residuals: dict[tuple[int, int], float]
    cartan_f_residuals: dict[tuple[int, int], float]
    ef_residuals: dict[int, float]


def _variant_families(variant: str, q: float, space: FockSpace) -> list[QBosonFamily]:
    """The Arik-Coon variant is type I at q^2; the symmetric (Macfarlane-Biedenharn)
    one is type II at base q, with magnitudes [n] = (q^n - q^-n)/(q - 1/q)."""
    if variant not in BOSON_VARIANTS:
        raise ValueError(f"boson_variant must be one of {BOSON_VARIANTS}, got {variant!r}")
    tag, q2 = ("I", q * q) if variant == "typeI_q2" else ("II", q)
    return [family_on_space(space, i, q2, standard_rhs(tag, q2))
            for i in range(1, space.mode_count + 1)]


def chevalley_generators(n_modes: int, q: float, cutoffs: Sequence[int], boson_variant: str
                         ) -> list[tuple[LinearOperator, LinearOperator, LinearOperator]]:
    """(H_i, E_i, F_i) for i < N: H_i = N_i - N_{i+1}, E_i = B+_i B-_{i+1}, F_i = B+_{i+1} B-_i."""
    if n_modes < 2:
        raise ValueError("the Chevalley basis needs at least two modes")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if len(cutoffs) != n_modes:
        raise ValueError(f"expected {n_modes} cutoffs, got {len(cutoffs)}")
    fams = _variant_families(boson_variant, q, make_space(cutoffs))
    return [(fams[i].number - fams[i + 1].number, fams[i].raise_ @ fams[i + 1].lower,
             fams[i + 1].raise_ @ fams[i].lower) for i in range(n_modes - 1)]


def ladder_bracket_residuals(generators, bases: Sequence[float],
                             norm: str = "spectral") -> dict[float, dict[int, float]]:
    """Residual of [E_i, F_i] - [H_i] (margin 2) by bracket base b, then by i, where
    [x] = (b^x - b^-x)/(b - 1/b); each commutator is taken once for all the bases."""
    residuals = {base: {} for base in bases}
    for i, (h, e, f) in enumerate(generators, start=1):
        ef = e @ f - f @ e
        hv = h.diagonal().real
        for base in bases:
            bracket = diagonal_operator(h.space, (base ** hv - base ** -hv) / (base - 1 / base))
            residuals[base][i] = relation_residual(ef, bracket, 2, norm=norm)
    return residuals


def chevalley_check(n_modes: int, q: float, cutoffs: Sequence[int],
                    boson_variant: str, bracket_base: float | None = None,
                    norm: str = "spectral") -> ChevalleyReport:
    """Build H_i, E_i, F_i from per-mode families and measure the algebra.

    The Cartan-sector relations hold for any number-conserving bilinear; the
    [E_i, F_i] = [H_i] relation is exact for the symmetric variant at the
    default bracket base b = q and is reported (not asserted) otherwise.
    Residuals are taken on the margin-2 safe subspace.
    """
    base = q if bracket_base is None else bracket_base
    if base <= 0.0 or base == 1.0:
        raise ValueError(f"bracket base must be positive and != 1, got {base}")
    generators = chevalley_generators(n_modes, q, cutoffs, boson_variant)
    a = cartan_matrix(n_modes)
    margin = 2
    hh, ce, cf = {}, {}, {}
    hh_products = [[h_i @ h_j for h_j, _, _ in generators] for h_i, _, _ in generators]
    for i, (h_i, _, _) in enumerate(generators):
        for j, (_, e_j, f_j) in enumerate(generators):
            hh[(i + 1, j + 1)] = relation_residual(
                hh_products[i][j], hh_products[j][i], margin, norm=norm)
            ce[(i + 1, j + 1)] = relation_residual(
                h_i @ e_j - e_j @ h_i, float(a[i, j]) * e_j, margin, norm=norm)
            cf[(i + 1, j + 1)] = relation_residual(
                h_i @ f_j - f_j @ h_i, (-float(a[i, j])) * f_j, margin, norm=norm)
    return ChevalleyReport(hh_residuals=hh, cartan_e_residuals=ce, cartan_f_residuals=cf,
                           ef_residuals=ladder_bracket_residuals(generators, [base], norm)[base])


# -- multimode averaging consistency ------------------------------------------

def covariant_recipe_check(q_squared: float, b_levels: Sequence[int]) -> EffectiveRelation:
    """Average the step-projector relation that generates one covariant row.

    Mode 1 carries the thermal average at cutoff 60; the remaining modes are
    pinned to the occupation numbers in `b_levels`, and the right-hand operator
    is the step projector theta(N_1 - sum_k N_bk).  The expected normalized
    coefficients are (1, q^2, q^(2 sum levels)).
    """
    levels = [int(v) for v in b_levels]
    space = make_space([60] + [max(lvl, 1) for lvl in levels])
    rho = thermal_density(space, 1, q_squared, other_levels=levels)
    pair = phase_pair(space, 1)
    d0 = diagonal_operator(space, space.flat(space.grid[0] >= sum(space.grid[1:])))
    return averaged_relation(rho, pair.lower, pair.raise_, d0)
