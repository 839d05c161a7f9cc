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

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


# -- the row table -------------------------------------------------------------

class Row(NamedTuple):
    """A relation of a table: its 0-based modes (Chevalley: generators, g acting on modes
    g and g + 1), other arguments and the modes it touches, its support."""

    name: str
    kind: str
    indices: tuple[int, ...]
    support: tuple[int, ...]
    args: tuple = ()


def covariant_rows(n: int) -> tuple[Row, ...]:
    """The covariant relations and their RTT forms, B-B-, B+B+ then B-B+, each by (i, j)
    row-major.  Modes i and j's row touches modes 1..max(i, j, 2): dressings reach below."""
    rows = []
    for table, i, j in ((t, i, j) for t in ("lower", "raise", "mixed")
                        for i in range(n) for j in range(n)):
        plain = (("diagonal" if i == j else "lower-raise") if table == "mixed"
                 else f"{table}-{table}" if i < j else None)
        for kind in filter(None, (plain, f"rtt-{table}")):
            name = f"{kind} i={i + 1}" + ("" if kind == "diagonal" else f" j={j + 1}")
            rows.append(Row(name, kind, (i, j), tuple(range(max(i, j, 1) + 1))))
    return tuple(rows)


def _covariant_relations(family: CovariantFamily):
    """(kind, i, j) -> (the pair products a covariant row reads, as operand pairs, and its
    (lhs, rhs) from them).  RTT right sides sum over R's nonzero entries, row-major."""
    q, space, sign = family.q, family.space, family.dressing_exponent_sign
    (bm, bp), eye = zip(*family.dressed), identity_operator(space)
    R = _run_once(su_r_matrix, n := space.mode_count, q).entries.reshape((n,) * 4)
    plain = {"lower-lower": (bm, bm), "lower-raise": (bm, bp), "raise-raise": (bp, bp)}

    def relation(kind, i, j):
        if kind == "diagonal":
            return [(bm[i], bp[i]), (bp[i], bm[i])], lambda mp, pm: (
                mp - q * q * pm, _dressing_factor(space, q, i + 1, 2 * sign))
        if kind in plain:
            (x, y), scaled = plain[kind], kind == "raise-raise"
            return [(x[i], y[j]), (y[j], x[i])], lambda a, b: (q * a, b) if scaled else (a, q * b)
        if kind == "rtt-lower":
            lhs, terms = (bm[i], bm[j]), [(complex(R[i, j, k, l]) / q, (bm[l], bm[k]))
                                          for k, l in zip(*np.nonzero(R[i, j]))]
        elif kind == "rtt-raise":
            lhs, terms = (bp[i], bp[j]), [(complex(R[l, k, i, j]) / q, (bp[k], bp[l]))
                                          for k, l in zip(*np.nonzero(R[..., i, j].T))]
        else:
            lhs, terms = (bm[i], bp[j]), [(q * complex(R[k, i, j, l]), (bp[k], bm[l]))
                                          for k, l in zip(*np.nonzero(R[:, i, j]))]
        head = [(1.0, eye)] if kind == "rtt-mixed" and i == j else []
        return [lhs] + [pair for _, pair in terms], lambda x, *ops: (x, linear_combination(
            space, head + [(c, op) for (c, _), op in zip(terms, ops)]))
    return relation


def _residuals(ops, patterns, margin: int, norm: str) -> tuple[float, ...]:
    """Each (kind, indices, args) pattern's residual on `ops` (a CovariantFamily or generator
    triples).  A pair product lives from its first reader to its last: one table at most."""
    plan = (_covariant_relations if isinstance(ops, CovariantFamily) else _chevalley_relations)(ops)
    plans = [plan(kind, *indices, *args) for kind, indices, args in patterns]
    last = {pair: n for n, (pairs, _) in enumerate(plans) for pair in pairs}
    held, out = {}, []
    for n, (pairs, build) in enumerate(plans):
        for x, y in pairs:
            held[x, y] = held.get((x, y)) or x @ y
        out.append(relation_residual(*build(*map(held.get, pairs)), margin, norm=norm))
        held = {pair: p for pair, p in held.items() if last[pair] > n}
    return tuple(out)


@functools.lru_cache(maxsize=32)
def _layout(table, args: tuple, spectral: bool) -> tuple:
    """(support, names, patterns) per group of table(*args)'s rows run on one space.  A
    spectral row runs on its support, indices relabelled: its entries repeat along the modes
    it leaves alone, the safe block is a box and a monomial block's norm (every suite row's)
    is its largest modulus, so the bits hold.  Any other norm runs on all args[0] modes."""
    groups: dict[tuple[int, ...], list[Row]] = {}
    for row in table(*args):
        groups.setdefault(row.support if spectral else tuple(range(args[0])), []).append(row)
    return tuple((s, tuple(r.name for r in rows),
                  tuple((r.kind, tuple(map(s.index, r.indices)), r.args) for r in rows))
                 for s, rows in groups.items())


def _walk(table, args: tuple, build, q: float, cutoffs: Sequence[int], extra: tuple,
          margin: int, norm: str) -> dict[str, float]:
    """Each row's residual, by name, on the operators build(m, q, cutoffs, *extra) of the
    m modes of its _layout group, each group once per run."""
    if (n := args[0]) < 2 or len(cutoffs := tuple(int(c) for c in cutoffs)) != n:
        raise ValueError(f"expected two or more modes, a cutoff each: got {n}, {cutoffs}")
    out = {}
    for support, names, patterns in _layout(table, args, norm == "spectral"):
        ops = _run_once(build, len(support), q, tuple(cutoffs[k] for k in support), *extra)
        out.update(zip(names, _run_once(_residuals, ops, patterns, margin, norm)))
    return out


def pair_product_residuals(family: CovariantFamily, margin: int = 1,
                           norm: str = "spectral") -> dict[str, float]:
    """The covariant_rows' residuals, by name, on `family`'s own operators and space."""
    [(_, names, patterns)] = _layout(covariant_rows, (family.space.mode_count,), False)
    return dict(zip(names, _residuals(family, patterns, margin, norm)))


def covariant_check(n_modes: int, q: float, cutoffs: Sequence[int], margin: int = 1,
                    norm: str = "spectral") -> dict[str, float]:
    """pair_product_residuals of covariant_bosons(n_modes, q, cutoffs), by _walk."""
    return _walk(covariant_rows, (n_modes,), covariant_bosons, q, cutoffs, (), margin, norm)


def worst_by_relation(residuals: dict[str, float]) -> dict[str, float]:
    """The largest of `residuals` per relation, the part of each name before " i="."""
    worst: dict[str, float] = {}
    for name, residual in residuals.items():
        worst[key] = max(worst.get(key := name.partition(" i=")[0], 0.0), residual)
    return worst


# -- Chevalley basis ----------------------------------------------------------

def cartan_matrix(n: int) -> np.ndarray:
    """The su(N) Cartan matrix A_ij = 2 d_ij - d_{i,j+1} - d_{i,j-1}."""
    m = n - 1
    return 2 * np.eye(m, dtype=int) - np.eye(m, k=1, dtype=int) - np.eye(m, k=-1, dtype=int)


def _variant_families(variant: str, q: float, space: FockSpace) -> list[QBosonFamily]:
    """The Arik-Coon variant is type I at q^2; the symmetric (Macfarlane-Biedenharn)
    one is type II at base q, with magnitudes [n] = (q^n - q^-n)/(q - 1/q)."""
    if variant not in BOSON_VARIANTS:
        raise ValueError(f"boson_variant must be one of {BOSON_VARIANTS}, got {variant!r}")
    tag, q2 = ("I", q * q) if variant == "typeI_q2" else ("II", q)
    return [family_on_space(space, i, q2, standard_rhs(tag, q2))
            for i in range(1, space.mode_count + 1)]


def _chevalley_generators(n_modes: int, q: float, cutoffs: tuple[int, ...], boson_variant: str):
    """(H_i, E_i, F_i) for i < N: H_i = N_i - N_{i+1}, E_i = B+_i B-_{i+1}, F_i = B+_{i+1} B-_i."""
    fams = _variant_families(boson_variant, q, make_space(cutoffs))
    return tuple((fams[i].number - fams[i + 1].number, fams[i].raise_ @ fams[i + 1].lower,
                  fams[i + 1].raise_ @ fams[i].lower) for i in range(n_modes - 1))


def chevalley_rows(n: int, bases: tuple[float, ...], cartan: bool = True) -> tuple[Row, ...]:
    """[H_i, H_j] = 0, [H_i, E_j] = A_ij E_j and [H_i, F_j] = -A_ij F_j (if `cartan`),
    then [E_i, F_i] = [H_i] at each base.  A row touches its generators' modes."""
    gens = range(n - 1)
    rows = [Row(f"{kind} i={i + 1} j={j + 1}", kind, (i, j), tuple(sorted({i, i + 1, j, j + 1})))
            for i in gens for j in gens for kind in ("hh", "cartan-e", "cartan-f") if cartan]
    return tuple(rows) + tuple(Row(f"ef-bracket base={b!r} i={i + 1}", "ef-bracket", (i,),
                                   (i, i + 1), (b,)) for i in gens for b in bases)


def _chevalley_relations(generators):
    """As _covariant_relations, for the Chevalley rows on these (H_i, E_i, F_i); j is
    the base b of an ef-bracket row, [x] = (b^x - b^-x)/(b - 1/b)."""
    cartan = cartan_matrix(len(generators) + 1)

    def relation(kind, i, j):
        h, e, f = generators[i]
        if kind == "ef-bracket":
            def bracket(ef, fe):
                hv = h.diagonal().real
                return ef - fe, diagonal_operator(h.space, (j ** hv - j ** -hv) / (j - 1 / j))
            return [(e, f), (f, e)], bracket
        h_j, e_j, f_j = generators[j]
        if kind == "hh":
            return [(h, h_j), (h_j, h)], lambda x, y: (x, y)
        a = float(cartan[i, j])
        if kind == "cartan-e":
            return [(h, e_j), (e_j, h)], lambda x, y: (x - y, a * e_j)
        return [(h, f_j), (f_j, h)], lambda x, y: (x - y, (-a) * f_j)
    return relation


def chevalley_check(n_modes: int, q: float, cutoffs: Sequence[int], boson_variant: str,
                    bases: Sequence[float] | None = None, norm: str = "spectral",
                    cartan: bool = True) -> dict[str, float]:
    """One boson variant's chevalley_rows at the bracket `bases` (default q), on the
    margin-2 safe subspace, by _walk.  [E_i, F_i] = [H_i] holds for the symmetric
    variant at base q and is reported (not asserted) otherwise."""
    bases = (q,) if bases is None else tuple(bases)
    if not 0.0 < q < 1.0 or any(base <= 0.0 or base == 1.0 for base in bases):
        raise ValueError(f"expected q in (0, 1) and bracket bases > 0 but != 1, got {q}, {bases}")
    return _walk(chevalley_rows, (n_modes, bases, cartan), _chevalley_generators, q, cutoffs,
                 (boson_variant,), 2, norm)


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
