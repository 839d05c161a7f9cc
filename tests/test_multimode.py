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
    pair_product_residuals,
    relation_residual,
    su_r_matrix,
    undressing_residual,
    worst_by_relation,
    yang_baxter_residual,
)
from qboson_kit import fock
from qboson_kit.fock import LinearOperator, make_space
from qboson_kit.multimode import (_chevalley_generators, _dressing_factor, _residuals,
                                  _variant_families, chevalley_rows)
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
            diff = commutator(x, y).matrix
            diff.eliminate_zeros()
            assert diff.nnz == 0


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
        assert np.max(np.abs((bp.matrix - bm.adjoint().matrix).toarray())) < 1e-15


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


# -- R-matrix ----------------------------------------------------------------------

def test_r_matrix_entries_n2():
    r = su_r_matrix(2, 0.5)
    assert r.entry(1, 1, 1, 1) == 0.5
    assert r.entry(1, 2, 2, 1) == pytest.approx(0.5 - 2.0)
    assert r.entry(1, 2, 1, 2) == 1.0
    assert r.entry(2, 1, 1, 2) == 0.0


def test_r_matrix_degenerate_limit():
    r = su_r_matrix(3, 1.0)
    np.testing.assert_array_equal(r.entries, np.eye(9))


def test_r_matrix_rank_is_capped_by_the_dimension_limit():
    """R holds n^4 dense entries and the Yang-Baxter products n^6; both stay within
    DEFAULT_DIMENSION_LIMIT (10^7), so the largest ranks are 56 and 14."""
    assert su_r_matrix(56, 0.5).n == 56
    with pytest.raises(ValueError, match="n must lie in 2..56, got 57"):
        su_r_matrix(57, 0.5)
    with pytest.raises(ValueError, match="need n <= 14, got 15"):
        yang_baxter_residual(su_r_matrix(15, 0.5))


def test_yang_baxter_identity():
    for n in (2, 3):
        for q in (0.3, 0.5, 0.8):
            assert yang_baxter_residual(su_r_matrix(n, q)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("q", [0.3, math.sqrt(0.5), 0.9, 1.0])
def test_yang_baxter_residual_matches_the_kron_products_bit_for_bit(n, q):
    """R12 = R x 1 and R23 = 1 x R are built by broadcasting, with np.kron's bits."""
    R = su_r_matrix(n, q).entries
    eye = np.eye(n)
    r12, r23 = np.kron(R, eye), np.kron(eye, R)
    r13 = r12.reshape((n,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(n ** 3, n ** 3)
    reference = np.float64(np.linalg.norm(r12 @ r13 @ r23 - r23 @ r13 @ r12, 2))
    measured = np.float64(yang_baxter_residual(su_r_matrix(n, q)))
    assert measured.view(np.int64) == reference.view(np.int64)


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
    kind, and each Chevalley variant is built once for all its brackets.  A product is
    keyed by its operands' diagonal bytes.  In a run, the suites take each spectral row
    on the modes it touches once: multimode N=3 builds the family on modes 1 and 2 and
    its rows there too (52 products against 46 on the full space alone), and after
    N=2 it reuses them (54 products for both sizes, against 68)."""
    fam = covariant_bosons(3, math.sqrt(0.5), [6] * 3)
    pairs = []
    matmul = LinearOperator.__matmul__

    def key(op):
        return tuple((d, c.tobytes()) for d, c in sorted(op.diagonals.items()))

    def recording(a, b):
        pairs.append((key(a), key(b)))
        return matmul(a, b)

    monkeypatch.setattr(LinearOperator, "__matmul__", recording)
    pair_product_residuals(fam)
    assert len(pairs) == len(set(pairs)) == 4 * 3 * 3
    pairs.clear()
    with _one_run():
        multimode_suite(0.5, modes=3, cutoff=6, norm="spectral")
    assert len(pairs) == len(set(pairs))
    assert len(pairs) <= 52
    pairs.clear()
    with _one_run():
        chevalley_suite(0.5, modes=3, cutoff=6, norm="spectral")
    assert len(pairs) == len(set(pairs))
    assert len(pairs) <= 27
    for norm, products in (("spectral", 54 + 27), ("frobenius", 68 + 49)):
        pairs.clear()
        with _one_run():  # as `--suite all` runs them
            for suite in (multimode_suite, chevalley_suite):
                for modes in (2, 3):
                    suite(0.5, modes=modes, cutoff=6, norm=norm)
        assert len(pairs) == len(set(pairs)) == products, norm


# -- the row table on the modes each row touches ---------------------------------------
# The sizes CI runs: `--suite all` (multimode and chevalley N=2 and 3 at cutoff 6), the
# multimode goldens and console steps (N=4 cutoff 6, 6/4, 7/4) and chevalley 8/4.

def _hex(residuals):
    return {name: r.hex() for name, r in residuals.items()}


@pytest.mark.parametrize("n,cutoff", [(2, 6), (3, 6), (4, 6), (6, 4), (7, 4)])
def test_covariant_rows_on_their_modes_match_the_full_space_bit_for_bit(n, cutoff):
    """covariant_check runs each spectral row on modes 1..max(i, j) and each Frobenius
    row on all modes; every row keeps the bits of pair_product_residuals on the full
    space."""
    q = math.sqrt(0.5)
    family = covariant_bosons(n, q, [cutoff] * n)
    for norm in ("spectral", "frobenius"):
        assert _hex(covariant_check(n, q, [cutoff] * n, norm=norm)) == _hex(
            pair_product_residuals(family, norm=norm)), norm


@pytest.mark.parametrize("n,cutoff", [(2, 6), (3, 6), (5, 4), (8, 4)])
def test_chevalley_rows_on_their_modes_match_the_full_space_bit_for_bit(n, cutoff):
    """chevalley_check runs each spectral row on its generators' two to four modes,
    relabelled (from N=4 on some are not adjacent), and keeps the bits of the same rows
    on the full space; the rows the suite runs at 8/4, every row below."""
    q, cutoffs = math.sqrt(0.5), (cutoff,) * n
    for variant, bases, cartan in (("typeII_symmetric", (q,), True), ("typeI_q2", (q, q * q), False)):
        if n < 8:
            bases, cartan = (q, q * q), True
        rows = chevalley_rows(n, bases, cartan)
        generators = _chevalley_generators(n, q, cutoffs, variant)
        for norm in ("spectral", "frobenius"):
            full = _residuals(generators, [(r.kind, r.indices, r.args) for r in rows], 2, norm)
            assert _hex(chevalley_check(n, q, cutoffs, variant, bases, norm, cartan)) == _hex(
                dict(zip([r.name for r in rows], full))), (variant, norm)


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


# -- averaging consistency ------------------------------------------------------------

def test_covariant_recipe_rows():
    for levels, expected in (((), 1.0), ((1,), 0.25), ((1, 1), 0.0625),
                             ((2, 1), 0.5 ** 6)):
        res = covariant_recipe_check(0.25, levels)
        assert res.coeff_plus == pytest.approx(1.0, abs=1e-10)
        assert res.coeff_minus == pytest.approx(0.25, abs=1e-10)
        assert res.rhs == pytest.approx(expected, abs=max(1e-10, res.tail_mass))
