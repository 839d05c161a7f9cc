import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qboson_kit import (
    cartan_matrix,
    chevalley_check,
    commutator,
    covariant_bosons,
    covariant_check,
    covariant_recipe_check,
    defining_relation_residual,
    diagonal_operator,
    identity_operator,
    independent_qbosons,
    linear_combination,
    pair_product_residuals,
    relation_residual,
    su_r_matrix,
    undressing_residual,
    worst_by_relation,
    yang_baxter_residual,
)
from qboson_kit import fock, multimode
from qboson_kit.fock import LinearOperator, make_space
from qboson_kit.multimode import (RMatrix, _chevalley_generators, _dressing_factor, _layout,
                                  _variant_families, chevalley_rows, covariant_rows)
from qboson_kit.qboson import (beta_closed_form, family_on_space, precision_capped_cutoff,
                               standard_rhs)
from qboson_kit.suites import chevalley_suite, multimode_suite


# -- independent families --------------------------------------------------------

def test_independent_per_mode_relations():
    families = independent_qbosons([0.25, 0.5], [8, 8])
    for fam, q2 in zip(families, (0.25, 0.5)):
        lhs = fam.lower @ fam.raise_ - q2 * (fam.raise_ @ fam.lower)
        one = identity_operator(fam.space)
        assert relation_residual(lhs, one, margin=1) < 1e-13


def test_independent_cross_mode_commutators_vanish_exactly():
    families = independent_qbosons([0.25, 0.5], [6, 6])
    b1, b2 = families
    for x in (b1.lower, b1.raise_):
        for y in (b2.lower, b2.raise_):
            assert len(commutator(x, y).entries()[2]) == 0


def test_independent_equal_q_mode_permutation_invariance():
    """With equal deformation parameters the per-mode residual profile is
    identical across modes (the shared-q family is permutation symmetric)."""
    families = independent_qbosons([0.5] * 3, [6] * 3)
    residuals = []
    for fam in families:
        lhs = fam.lower @ fam.raise_ - 0.5 * (fam.raise_ @ fam.lower)
        residuals.append(relation_residual(lhs, identity_operator(fam.space),
                                           margin=1))
        np.testing.assert_array_equal(fam.beta, families[0].beta)
    assert residuals[0] == residuals[1] == residuals[2]


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=2, max_value=60),
       st.sampled_from(["I", "II", "III", "IV"]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3), st.sampled_from([1e-10, 1e-12]))
@example(0.5, 12, "II", 2, 2, 1e-10)  # space [2, 12]; rhs(N) read on mode 1 gives 2047.0
@example(0.5, 12, "IV", 2, 2, 1e-10)  # 1023.5 likewise
def test_family_satisfies_its_relation_on_any_mode(q2, cutoff, tag, modes, position, tol):
    """A standard family solves its own relation on whichever mode it sits,
    at the precision-capped cutoff; the other modes are spectators."""
    mode = min(position, modes)
    cutoffs = [2] * modes
    cutoffs[mode - 1] = precision_capped_cutoff(q2, tag, cutoff, tol)
    family = family_on_space(make_space(cutoffs), mode, q2, standard_rhs(tag, q2))
    assert defining_relation_residual(family, margin=1) <= tol


def test_independent_argument_validation():
    with pytest.raises(ValueError):
        independent_qbosons([0.5], [4, 4])
    with pytest.raises(ValueError):
        independent_qbosons([0.5, 1.5], [4, 4])


# -- covariant family -------------------------------------------------------------

def _covariant(residuals, rtt=False):
    """The covariant relations of a table walk's residuals, or with `rtt` their RTT forms."""
    return {name: r for name, r in residuals.items() if name.startswith("rtt-") == rtt}


def test_covariant_diagonal_relations():
    fam = covariant_bosons(2, 0.5, [6, 6])
    q2 = 0.25
    bm1, bp1 = fam.dressed[0]
    one = identity_operator(fam.space)
    # first mode: empty dressing sum, plain unit target
    assert relation_residual(bm1 @ bp1 - q2 * (bp1 @ bm1), one,
                             margin=1) < 1e-13
    residuals = _covariant(pair_product_residuals(fam, margin=1))
    assert all(r < 1e-12 for r in residuals.values())
    assert fam.dressing_exponent_sign == 1


@pytest.mark.parametrize("n,worst", [(2, 31.96875), (3, 32736.0)])
def test_covariant_negative_dressing_sign_breaks_relations(n, worst):
    """Dressing with q^(-sum_{k<i} N_k) fails the relations the +1 sign meets."""
    fam = covariant_bosons(n, 0.5, [6] * n)
    occ = np.indices(fam.space.shape).reshape(fam.space.mode_count, -1).T
    dressed = []
    for i, hat in enumerate(fam.hatted, start=1):
        factor = diagonal_operator(fam.space, 0.5 ** -occ[:, : i - 1].sum(axis=1).astype(float))
        dressed.append((factor @ hat.lower, factor @ hat.raise_))
    flipped = dataclasses.replace(fam, dressed=tuple(dressed), dressing_exponent_sign=-1)
    assert max(_covariant(pair_product_residuals(fam)).values()) < 1e-15
    assert max(_covariant(pair_product_residuals(flipped)).values()) == pytest.approx(worst)
    for norm in ("spectral", "frobenius"):  # the evaluator keeps the per-row route's bits
        assert _hex(pair_product_residuals(flipped, norm=norm)) == _hex(_reference(flipped, norm))


def test_covariant_lower_lower_q_commutation():
    fam = covariant_bosons(2, 0.5, [6, 6])
    bm1, _ = fam.dressed[0]
    bm2, _ = fam.dressed[1]
    lhs = bm1 @ bm2 - 0.5 * (bm2 @ bm1)
    zero = 0.0 * identity_operator(fam.space)
    assert relation_residual(lhs, zero, margin=1) < 1e-13


def test_covariant_raise_raise_orientation():
    """Adjoint consistency fixes B+i B+j = q^-1 B+j B+i for i < j."""
    fam = covariant_bosons(2, 0.8, [6, 6])
    _, bp1 = fam.dressed[0]
    _, bp2 = fam.dressed[1]
    good = relation_residual(0.8 * (bp1 @ bp2), bp2 @ bp1, margin=1)
    flipped = relation_residual(bp1 @ bp2, 0.8 * (bp2 @ bp1), margin=1)
    assert good < 1e-13
    assert flipped > 0.1


def test_covariant_dressed_adjoint_pairs():
    fam = covariant_bosons(3, 0.8, [5, 5, 5])
    for bm, bp in fam.dressed:
        assert np.max(np.abs(bp.toarray() - bm.adjoint().toarray())) < 1e-15


def test_undressing_recovers_hatted():
    fam = covariant_bosons(3, 0.8, [5, 5, 5])
    assert undressing_residual(fam) < 1e-13


@pytest.mark.parametrize("cutoffs", [[4, 4], [6, 5, 4], [4, 3, 5, 4], [4] * 6])
def test_dressing_factor_matches_the_occupation_table_bit_for_bit(cutoffs):
    """The factor is raised on the grid of the modes it depends on; the powers it
    lists are those of the (dimension, modes) occupation table it used to gather."""
    space = make_space(cutoffs)
    occ = np.indices(space.shape).reshape(space.mode_count, -1).T
    for q in (0.3, 0.5, 0.707, 0.95):
        for power in (1, -1, 2, -2):
            for i in range(1, space.mode_count + 1):
                reference = q ** (power * occ[:, : i - 1].sum(axis=1).astype(float))
                got = _dressing_factor(space, q, i, power).diagonal()
                assert got.tobytes() == reference.astype(complex).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.707, 0.95])
def test_mode_one_is_undressed_already(n, q):
    """Mode 1's dressing factor is q^0: its dressed pair equals its hatted pair by
    value (stored zeros may differ in sign), so undressing_residual starts at
    mode 2."""
    fam = covariant_bosons(n, q, [5] * n)
    hat = fam.hatted[0]
    inv = _dressing_factor(fam.space, q, 1, -fam.dressing_exponent_sign)
    for dressed, hatted in zip(fam.dressed[0], (hat.lower, hat.raise_)):
        assert dressed.diagonals.keys() == hatted.diagonals.keys()
        for d, c in dressed.diagonals.items():
            assert np.array_equal(c, hatted.diagonals[d])
        assert relation_residual(inv @ dressed, hatted, 0) == 0.0


def test_covariant_validation():
    with pytest.raises(ValueError):
        covariant_bosons(1, 0.5, [4])
    with pytest.raises(ValueError):
        covariant_bosons(2, 1.2, [4, 4])
    family = covariant_bosons(2, 0.7, [3, 3])
    for margin, message in ((-1, "must be nonnegative"), (3, "margin 3 >= smallest cutoff 3")):
        for norm in ("spectral", "frobenius"):
            with pytest.raises(ValueError, match=message):
                covariant_check(2, 0.7, [3, 3], margin, norm)
            with pytest.raises(ValueError, match=message):
                pair_product_residuals(family, margin, norm)
    first, (lower, raise_) = family.dressed
    for second in ((1j * lower, raise_), (lower + raise_, raise_)):
        with pytest.raises(ValueError, match="real, on one diagonal"):
            pair_product_residuals(dataclasses.replace(family, dressed=(first, second)))


def test_every_residual_refuses_an_unknown_norm_kind():
    """fock._norm is every residual's one kind check: relation_residual's, on a block that
    is all zero too, and the row evaluator's under covariant_check."""
    lower, raise_ = covariant_bosons(2, 0.7, [3, 3]).dressed[0]
    for lhs, rhs in ((lower, lower), (lower, raise_)):
        with pytest.raises(ValueError, match="unknown norm kind 'trace'"):
            relation_residual(lhs, rhs, 1, norm="trace")
    with pytest.raises(ValueError, match="unknown norm kind 'trace'"):
        covariant_check(2, 0.7, [3, 3], norm="trace")


def test_row_table_refuses_an_operand_of_two_diagonals():
    family = covariant_bosons(2, 0.7, [3, 3])
    lower, raise_ = family.dressed[0]
    [(_, _, plan)] = _layout(covariant_rows, (2,), False)
    operands = [lower + raise_] * len(plan.labels)
    with pytest.raises(ValueError, match="a row table reads one-diagonal operators"):
        fock._row_residuals(family.space, operands, plan, np.ones(4), 1, "spectral")


# -- R-matrix ----------------------------------------------------------------------

def test_r_matrix_entries_n2():
    r = su_r_matrix(2, 0.5).entries.reshape((2,) * 4)  # [i, j, k, l] is R_{ij,kl}, 0-based
    assert r[0, 0, 0, 0] == 0.5
    assert r[0, 1, 1, 0] == pytest.approx(0.5 - 2.0)
    assert r[0, 1, 0, 1] == 1.0
    assert r[1, 0, 0, 1] == 0.0


def test_r_matrix_degenerate_limit():
    r = su_r_matrix(3, 1.0)
    np.testing.assert_array_equal(r.entries, np.eye(9))


def test_r_matrix_rank_is_capped_by_the_dimension_limit():
    """R holds n^4 dense entries within DEFAULT_DIMENSION_LIMIT (10^7), so the largest
    rank is 56; the Yang-Baxter products run at rank 3 whatever n is."""
    assert su_r_matrix(56, 0.5).n == 56
    with pytest.raises(ValueError, match="n must lie in 2..56, got 57"):
        su_r_matrix(57, 0.5)


@pytest.mark.parametrize("n", [3, 8])
def test_yang_baxter_products_past_the_float_range_raise(n):
    """From q of about 1e-103 the coupling (q - 1/q) cubed overflows in the products."""
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OverflowError, match="is not finite at q = 1e-120"):
        yang_baxter_residual(su_r_matrix(n, 1e-120))


@pytest.mark.parametrize("q", [0.0, 1.5])
def test_r_matrix_refuses_q_outside_zero_one(q):
    with pytest.raises(ValueError, match=rf"q must lie in \(0, 1\], got {q}"):
        su_r_matrix(2, q)


def test_yang_baxter_identity():
    for n in (2, 3):
        for q in (0.3, 0.5, 0.8):
            assert yang_baxter_residual(su_r_matrix(n, q)) <= 1e-12


def _kron_yang_baxter(rmatrix) -> np.float64:
    """The Yang-Baxter residual by np.kron products on the full rank-n triple space."""
    R, n = rmatrix.entries, rmatrix.n
    eye = np.eye(n)
    r12, r23 = np.kron(R, eye), np.kron(eye, R)
    r13 = r12.reshape((n,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(n ** 3, n ** 3)
    return np.float64(np.linalg.norm(r12 @ r13 @ r23 - r23 @ r13 @ r12, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("q", [1e-6, 1e-3, 0.03, 0.1, 0.3, math.sqrt(0.5), 0.9, 1.0])
def test_yang_baxter_residual_matches_the_kron_products_bit_for_bit(n, q):
    """R12 = R x 1 and R23 = 1 x R are built by broadcasting, with np.kron's bits, and the
    residual of the rank-n products equals that of the rank-3 corner the check runs on."""
    reference = _kron_yang_baxter(su_r_matrix(n, q))
    measured = np.float64(yang_baxter_residual(su_r_matrix(n, q)))
    assert measured.view(np.int64) == reference.view(np.int64)


def _patterned_r(n: int) -> RMatrix:
    """An R that keeps or swaps its two indices with entries set by their order pattern
    (i = j, i < j or i > j), far from solving the Yang-Baxter equation."""
    R, (i, j) = np.zeros((n,) * 4, dtype=complex), np.indices((n, n))
    R[i, j, i, j] = np.select([i < j, i > j], [1.3, 0.9], 0.4)
    R[i, j, j, i] += np.select([i < j, i > j], [-0.7, -1.3], 0.0)
    return RMatrix(n=n, q=0.5, entries=R.reshape(n * n, n * n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_yang_baxter_residual_of_any_patterned_r_is_its_rank_three_blocks(n):
    """The block argument needs only R's pattern, not the identity.  Here the abc block,
    first present at rank 3, holds the largest residual, so rank 2 reads less; the full
    rank-n products agree with rank 3 to round-off (the SVD sizes differ)."""
    rank3 = yang_baxter_residual(_patterned_r(3))
    assert rank3 > 1.05 * yang_baxter_residual(_patterned_r(2))
    assert yang_baxter_residual(_patterned_r(n)) == rank3
    assert _kron_yang_baxter(_patterned_r(n)) == pytest.approx(rank3, rel=1e-13)


def test_rtt_forms():
    for n in (2, 3):
        fam = covariant_bosons(n, 0.8, [5] * n)
        residuals = _covariant(pair_product_residuals(fam, margin=1), rtt=True)
        assert len(residuals) == 3 * n * n
        assert max(residuals.values()) < 1e-12


def test_rtt_residuals_hold_one_product_table_at_a_time():
    """Holding all four tables of N^2 pair products at once peaks near 38 MB here.
    The walk over the covariant rows with their RTT forms drops each product after
    its last reader, on the family's full space and on the rows' own modes alike."""
    fam = covariant_bosons(6, 0.8, [4] * 6)
    for measure in (lambda: pair_product_residuals(fam), lambda: covariant_check(6, 0.8, [4] * 6)):
        tracemalloc.start()
        try:
            measure()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


@contextlib.contextmanager
def _one_run():
    """The run scope `run_suite` opens around its suites."""
    values = fock._RUN_VALUES.set({})
    try:
        yield
    finally:
        fock._RUN_VALUES.reset(values)


def test_multimode_and_chevalley_suites_compute_each_product_once(monkeypatch):
    """The covariant and RTT relations share one pass over the pair products of each
    kind, and each Chevalley variant is built once for all its brackets.  A product, by
    `@` or the row evaluator, is formed at fock's one product site and keyed by its
    operands' diagonal bytes; the two-factor traces of `expectation` (`wanted` given) are
    not counted.  In a run, the suites take each spectral row on the modes it touches once:
    multimode N=3 builds the family on modes 1 and 2 and its rows there too (52 products
    against 46 on the full space alone), and after N=2 it reuses them (54 products for
    both sizes, against 68)."""
    fam = covariant_bosons(3, math.sqrt(0.5), [6] * 3)
    pairs, tracing = [], [False]  # tracing[0]: a two-factor trace forms its diagonals
    product, product_diagonals = fock._product, fock._product_diagonals

    def recording(x, y, dim):
        if not tracing[0]:
            pairs.append(((x[0], x[1].tobytes()), (y[0], y[1].tobytes())))
        return product(x, y, dim)

    def traced(x, y, wanted=None):
        tracing[0] = wanted is not None
        try:
            return product_diagonals(x, y, wanted)
        finally:
            tracing[0] = False

    monkeypatch.setattr(fock, "_product", recording)
    monkeypatch.setattr(fock, "_product_diagonals", traced)
    pair_product_residuals(fam)
    assert len(pairs) == len(set(pairs)) == 4 * 3 * 3
    pairs.clear()
    with _one_run():
        list(multimode_suite(0.5, modes=3, cutoff=6, norm="spectral"))
    assert len(pairs) == len(set(pairs))
    assert len(pairs) <= 52
    pairs.clear()
    with _one_run():
        list(chevalley_suite(0.5, modes=3, cutoff=6, norm="spectral"))
    assert len(pairs) == len(set(pairs))
    assert len(pairs) <= 27
    for norm, products in (("spectral", 54 + 27), ("frobenius", 68 + 49)):
        pairs.clear()
        with _one_run():  # as `--suite all` runs them
            for suite in (multimode_suite, chevalley_suite):
                for modes in (2, 3):
                    list(suite(0.5, modes=modes, cutoff=6, norm=norm))
        assert len(pairs) == len(set(pairs)) == products, norm


# -- the row table against the per-row route it replaced -------------------------------
# The evaluator computes each _layout group's rows in stacked passes.  The reference below
# is the per-row route it replaced, kept verbatim: each row's lhs and rhs built by `@`,
# scalar multiples and linear_combination, then relation_residual, each pair product held
# from its first reader to its last.  Every row is compared by float.hex, both norms, at
# the sizes CI runs: `--suite all` (multimode and chevalley N=2 and 3 at cutoff 6), the
# multimode goldens and console steps (N=4 cutoff 6, 6/4, 7/4) and chevalley 8/4.

def _reference_covariant(family):
    q, space, sign = family.q, family.space, family.dressing_exponent_sign
    (bm, bp), eye = zip(*family.dressed), identity_operator(space)
    R = su_r_matrix(n := space.mode_count, q).entries.reshape((n,) * 4)
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


def _reference_chevalley(generators):
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


def _reference_residuals(ops, rows, margin, norm):
    """Each row's residual, by name, on `ops` (a covariant family or generator triples)."""
    plan = (_reference_covariant if isinstance(ops, multimode.CovariantFamily)
            else _reference_chevalley)(ops)
    plans = [plan(row.kind, *row.indices, *row.args) for row in rows]
    last = {pair: n for n, (pairs, _) in enumerate(plans) for pair in pairs}
    held, out = {}, {}
    for n, ((pairs, build), row) in enumerate(zip(plans, rows)):
        for x, y in pairs:
            held[x, y] = held.get((x, y)) or x @ y
        out[row.name] = relation_residual(*build(*map(held.get, pairs)), margin, norm=norm)
        held = {pair: p for pair, p in held.items() if last[pair] > n}
    return out


def _reference(family, norm):
    return _reference_residuals(family, covariant_rows(family.space.mode_count), 1, norm)


def _hex(residuals):
    return {name: r.hex() for name, r in residuals.items()}


@pytest.mark.parametrize("n,cutoff", [(2, 6), (3, 6), (4, 6), (6, 4), (7, 4)])
def test_covariant_rows_keep_the_per_row_route_bit_for_bit(n, cutoff):
    """covariant_check (each spectral row on modes 1..max(i, j), each Frobenius row on all
    modes) and pair_product_residuals (the family's full space) keep every row's bits."""
    q = math.sqrt(0.5)
    family = covariant_bosons(n, q, [cutoff] * n)
    for norm in ("spectral", "frobenius"):
        reference = _hex(_reference(family, norm))
        assert _hex(covariant_check(n, q, [cutoff] * n, norm=norm)) == reference, norm
        assert _hex(pair_product_residuals(family, norm=norm)) == reference, norm


@pytest.mark.parametrize("n,cutoff", [(2, 6), (3, 6), (5, 4), (8, 4)])
def test_chevalley_rows_keep_the_per_row_route_bit_for_bit(n, cutoff):
    """chevalley_check runs each spectral row on its generators' two to four modes,
    relabelled (from N=4 on some are not adjacent), and each Frobenius row on all modes;
    every row keeps the bits of the per-row route on the full space: the rows the suite
    runs at 8/4, every row below."""
    q, cutoffs = math.sqrt(0.5), (cutoff,) * n
    for variant, bases, cartan in (("typeII_symmetric", (q,), True), ("typeI_q2", (q, q * q), False)):
        if n < 8:
            bases, cartan = (q, q * q), True
        generators = _chevalley_generators(n, q, cutoffs, variant)
        for norm in ("spectral", "frobenius"):
            reference = _reference_residuals(generators, chevalley_rows(n, bases, cartan), 2, norm)
            assert _hex(chevalley_check(n, q, cutoffs, variant, bases, norm, cartan)) == _hex(
                reference), (variant, norm)


def test_inf_outside_the_safe_block_is_masked_as_the_per_row_route_masks_it():
    """An inf in the top (unsafe) states of a dressed operator reaches the rows' unsafe
    entries only; both routes set those to 0 before the norm."""
    family = covariant_bosons(2, 0.5, [4, 4])
    lower, raise_ = family.dressed[1]
    [(d, c)] = lower.diagonals.items()
    top = make_space([4, 4]).flat(np.indices((5, 5))[1] == 4)
    lower = LinearOperator(family.space, {d: np.where(top, np.inf, c)})
    infinite = dataclasses.replace(family, dressed=(family.dressed[0], (lower, raise_)))
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf there, in both routes
        for norm in ("spectral", "frobenius"):
            assert _hex(pair_product_residuals(infinite, norm=norm)) == _hex(
                _reference(infinite, norm))


def test_layout_caches_structure_only_and_read_only():
    """_layout's plans hold index arrays, none writable, and no value of q, a cutoff or an
    operator: two runs at different q and cutoffs read the same plans."""
    for table, args in ((covariant_rows, (4,)), (chevalley_rows, (4, (0.5, 0.25), True))):
        for spectral in (True, False):
            for _, names, plan in _layout(table, args, spectral):
                arrays = [plan.pairs, plan.first, plan.last, *sum(plan.slots, ())]
                assert len(plan.patterns) == len(names) and all(a.dtype.kind == "i" for a in arrays)
                assert not any(a.flags.writeable for a in arrays)


# -- Chevalley basis ----------------------------------------------------------------

def test_cartan_matrix_shape():
    np.testing.assert_array_equal(cartan_matrix(3), [[2, -1], [-1, 2]])


def test_chevalley_structural_relations():
    for variant in ("typeI_q2", "typeII_symmetric"):
        report = worst_by_relation(chevalley_check(3, 0.7, [6, 6, 6], variant))
        assert report["hh"] == 0.0
        assert report["cartan-e"] < 1e-12
        assert report["cartan-f"] < 1e-12


def test_chevalley_symmetric_variant_closes_ladder_bracket():
    report = worst_by_relation(chevalley_check(2, 0.7, [6, 6], "typeII_symmetric"))
    assert report["ef-bracket base=0.7"] < 1e-10


def test_chevalley_unit_target_variant_carries_number_prefactor():
    """For the unit-target families the two-mode diagonal oracle gives
    [E, F] = q^(n1 + n2 - 1) [h]; the plain bracket residual is therefore
    large and the prefactor-corrected one vanishes."""
    q = 0.7
    report = chevalley_check(2, q, [6, 6], "typeI_q2")
    assert min(r for name, r in report.items() if name.startswith("ef-bracket")) > 1e-3

    beta = [beta_closed_form("I", q * q, n) for n in range(8)]
    bracket = lambda h: (q ** h - q ** (-h)) / (q - 1.0 / q)
    for n1 in range(6):
        for n2 in range(6):
            diag = beta[n1] * beta[n2 + 1] - beta[n1 + 1] * beta[n2]
            expected = q ** (n1 + n2 - 1) * bracket(n1 - n2)
            assert diag == pytest.approx(expected, abs=1e-12)


def test_symmetric_variant_families_solve_their_relation_on_every_mode():
    for family in _variant_families("typeII_symmetric", 0.7, make_space([6, 6, 6])):
        assert defining_relation_residual(family, margin=1) <= 1e-12


def test_chevalley_validation():
    with pytest.raises(ValueError):
        chevalley_check(1, 0.5, [4], "typeI_q2")
    with pytest.raises(ValueError):
        chevalley_check(2, 0.5, [4, 4], "typeVII")
    with pytest.raises(ValueError):
        chevalley_check(2, 0.5, [4, 4], "typeI_q2", bases=[1.0])
    for norm in ("spectral", "frobenius"):  # the fixed margin 2 needs cutoffs of 3 and up
        with pytest.raises(ValueError, match="margin 2 >= smallest cutoff 2"):
            chevalley_check(2, 0.5, [2, 2], "typeII_symmetric", norm=norm)
    for base in (1.0, 0.0, -2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite bracket bases > 0 but != 1"):
            chevalley_check(2, 0.7, [4, 4], "typeII_symmetric", bases=[base])


# -- averaging consistency ------------------------------------------------------------

def test_covariant_recipe_rows():
    for levels, expected in (((), 1.0), ((1,), 0.25), ((1, 1), 0.0625),
                             ((2, 1), 0.5 ** 6)):
        res = covariant_recipe_check(0.25, levels)
        assert res.coeff_plus == pytest.approx(1.0, abs=1e-10)
        assert res.coeff_minus == pytest.approx(0.25, abs=1e-10)
        assert res.rhs == pytest.approx(expected, abs=max(1e-10, res.tail_mass))


@pytest.mark.parametrize("q_squared", [0.01, 0.25, 0.8])
@pytest.mark.parametrize("levels", [(), (1,), (1, 1), (2, 1), (3,)])
def test_covariant_recipe_check_equals_the_pinned_levels_trace_bit_for_bit(q_squared, levels):
    """Mode 1 alone gives the coefficients of the average over the multimode space with
    the other modes pinned: the density vanishes off the pinned levels, so each trace
    sums the same nonzero products in the same order."""
    from qboson_kit import averaged_relation, phase_pair, thermal_density

    space = make_space([60] + [max(lvl, 1) for lvl in levels])
    rho = thermal_density(space, 1, q_squared, other_levels=levels)
    pair = phase_pair(space, 1)
    d0 = diagonal_operator(space, space.flat(space.grid[0] >= sum(space.grid[1:])))
    expected = averaged_relation(rho, pair.lower, pair.raise_, d0)
    res = covariant_recipe_check(q_squared, levels)
    for field in ("coeff_plus", "coeff_minus", "rhs", "tail_mass"):
        assert getattr(res, field).hex() == getattr(expected, field).hex(), field
    assert res.rhs_exponent_sign is expected.rhs_exponent_sign is None


@pytest.mark.parametrize("levels", [(-1,), (1, -1), (0, -2, 1)])
def test_covariant_recipe_check_refuses_a_negative_level(levels):
    with pytest.raises(ValueError, match="levels must be nonnegative"):
        covariant_recipe_check(0.25, levels)
