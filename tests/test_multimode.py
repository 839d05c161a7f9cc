import dataclasses

import numpy as np
import pytest

from qboson_kit import (
    cartan_matrix,
    chevalley_check,
    commutator,
    covariant_bosons,
    covariant_recipe_check,
    covariant_relation_residuals,
    defining_relation_residual,
    diagonal_operator,
    identity_operator,
    independent_qbosons,
    relation_residual,
    rtt_residuals,
    su_r_matrix,
    undressing_residual,
    yang_baxter_residual,
)
from qboson_kit.qboson import beta_closed_form


# -- independent families --------------------------------------------------------

def test_independent_per_mode_relations():
    families = independent_qbosons(2, [0.25, 0.5], [8, 8])
    for fam, q2 in zip(families, (0.25, 0.5)):
        lhs = fam.lower @ fam.raise_ - q2 * (fam.raise_ @ fam.lower)
        one = identity_operator(fam.space)
        assert relation_residual(lhs, one, margin=1) < 1e-13


def test_independent_cross_mode_commutators_vanish_exactly():
    families = independent_qbosons(2, [0.25, 0.5], [6, 6])
    b1, b2 = families
    for x in (b1.lower, b1.raise_):
        for y in (b2.lower, b2.raise_):
            diff = commutator(x, y).matrix
            diff.eliminate_zeros()
            assert diff.nnz == 0


def test_independent_equal_q_mode_permutation_invariance():
    """With equal deformation parameters the per-mode residual profile is
    identical across modes (the shared-q family is permutation symmetric)."""
    families = independent_qbosons(3, [0.5] * 3, [6] * 3)
    residuals = []
    for fam in families:
        lhs = fam.lower @ fam.raise_ - 0.5 * (fam.raise_ @ fam.lower)
        residuals.append(relation_residual(lhs, identity_operator(fam.space),
                                           margin=1))
        np.testing.assert_array_equal(fam.beta, families[0].beta)
    assert residuals[0] == residuals[1] == residuals[2]


def test_independent_argument_validation():
    with pytest.raises(ValueError):
        independent_qbosons(2, [0.5], [4, 4])
    with pytest.raises(ValueError):
        independent_qbosons(2, [0.5, 1.5], [4, 4])


# -- covariant family -------------------------------------------------------------

def test_covariant_diagonal_relations():
    fam = covariant_bosons(2, 0.5, [6, 6])
    q2 = 0.25
    bm1, bp1 = fam.dressed[0]
    one = identity_operator(fam.space)
    # first mode: empty dressing sum, plain unit target
    assert relation_residual(bm1 @ bp1 - q2 * (bp1 @ bm1), one,
                             margin=1) < 1e-13
    residuals = covariant_relation_residuals(fam, margin=1)
    assert all(r < 1e-12 for r in residuals.values())
    assert fam.dressing_exponent_sign == 1


@pytest.mark.parametrize("n,worst", [(2, 31.96875), (3, 32736.0)])
def test_covariant_negative_dressing_sign_breaks_relations(n, worst):
    """Dressing with q^(-sum_{k<i} N_k) fails the relations the +1 sign meets."""
    fam = covariant_bosons(n, 0.5, [6] * n)
    occ = fam.space.occupations
    dressed = []
    for i, hat in enumerate(fam.hatted, start=1):
        factor = diagonal_operator(fam.space, 0.5 ** -occ[:, : i - 1].sum(axis=1).astype(float))
        dressed.append((factor @ hat.lower, factor @ hat.raise_))
    flipped = dataclasses.replace(fam, dressed=tuple(dressed), dressing_exponent_sign=-1)
    assert max(covariant_relation_residuals(fam).values()) < 1e-15
    assert max(covariant_relation_residuals(flipped).values()) == pytest.approx(worst)


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


def test_yang_baxter_identity():
    for n in (2, 3):
        for q in (0.3, 0.5, 0.8):
            assert yang_baxter_residual(su_r_matrix(n, q)) <= 1e-12


def test_rtt_forms():
    for n in (2, 3):
        fam = covariant_bosons(n, 0.8, [5] * n)
        residuals = rtt_residuals(fam, margin=1)
        assert len(residuals) == 3 * n * n
        assert max(residuals.values()) < 1e-12


# -- Chevalley basis ----------------------------------------------------------------

def test_cartan_matrix_shape():
    np.testing.assert_array_equal(cartan_matrix(3), [[2, -1], [-1, 2]])


def test_chevalley_structural_relations():
    for variant in ("typeI_q2", "typeII_symmetric"):
        report = chevalley_check(3, 0.7, [6, 6, 6], variant)
        assert max(report.hh_residuals.values()) == 0.0
        assert max(report.cartan_e_residuals.values()) < 1e-12
        assert max(report.cartan_f_residuals.values()) < 1e-12


def test_chevalley_symmetric_variant_closes_ladder_bracket():
    report = chevalley_check(2, 0.7, [6, 6], "typeII_symmetric")
    assert report.bracket_base == 0.7
    assert max(report.ef_residuals.values()) < 1e-10


def test_chevalley_unit_target_variant_carries_number_prefactor():
    """For the unit-target families the two-mode diagonal oracle gives
    [E, F] = q^(n1 + n2 - 1) [h]; the plain bracket residual is therefore
    large and the prefactor-corrected one vanishes."""
    q = 0.7
    report = chevalley_check(2, q, [6, 6], "typeI_q2")
    assert min(report.ef_residuals.values()) > 1e-3

    beta = [beta_closed_form("I", q * q, n) for n in range(8)]
    bracket = lambda h: (q ** h - q ** (-h)) / (q - 1.0 / q)
    for n1 in range(6):
        for n2 in range(6):
            diag = beta[n1] * beta[n2 + 1] - beta[n1 + 1] * beta[n2]
            expected = q ** (n1 + n2 - 1) * bracket(n1 - n2)
            assert diag == pytest.approx(expected, abs=1e-12)


def test_chevalley_validation():
    with pytest.raises(ValueError):
        chevalley_check(1, 0.5, [4], "typeI_q2")
    with pytest.raises(ValueError):
        chevalley_check(2, 0.5, [4, 4], "typeVII")
    with pytest.raises(ValueError):
        chevalley_check(2, 0.5, [4, 4], "typeI_q2", bracket_base=1.0)


# -- averaging consistency ------------------------------------------------------------

def test_covariant_recipe_rows():
    for levels, expected in (((), 1.0), ((1,), 0.25), ((1, 1), 0.0625),
                             ((2, 1), 0.5 ** 6)):
        res = covariant_recipe_check(0.25, levels, a_cutoff=60)
        assert res.coeff_plus == pytest.approx(1.0, abs=1e-10)
        assert res.coeff_minus == pytest.approx(0.25, abs=1e-10)
        assert res.rhs == pytest.approx(expected, abs=max(1e-10, res.tail_mass))
