import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson_kit import (
    OverflowGuardError,
    basis_state,
    beta_closed_form,
    commutator,
    defining_relation_residual,
    expectation_recipe,
    family_from_relation,
    identity_operator,
    make_space,
    relation_residual,
    solve_deformed_oscillator,
    standard_qboson,
)
from qboson_kit.fock import machine_zero_bound
from qboson_kit.qboson import precision_capped_cutoff


def recursion_oracle(q_squared, rhs, cutoff):
    """Independent reimplementation of the magnitude recursion."""
    beta = [0.0]
    for n in range(cutoff):
        beta.append(rhs(n) + q_squared * beta[n])
    return beta


# -- difference-equation solver --------------------------------------------------

def test_solver_unit_rhs_beta2():
    family = solve_deformed_oscillator(0.25, lambda n: 1.0, 8)
    assert family.beta[2] == 1.25
    assert family.beta[0] == 0.0


def test_solver_type_iii_rhs_beta2():
    family = solve_deformed_oscillator(0.25, lambda n: 0.75, 8)
    assert family.beta[2] == 0.9375


def test_solver_rejects_negative_rhs():
    with pytest.raises(ValueError):
        solve_deformed_oscillator(0.5, lambda n: -1.0, 4)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=2, max_value=20))
def test_solver_matches_recursion_oracle_bitwise(q2, cutoff):
    rhs = lambda n: 1.0 + 0.5 * n
    family = solve_deformed_oscillator(q2, rhs, cutoff)
    assert list(family.beta) == recursion_oracle(q2, rhs, cutoff)


def test_lower_amplitudes_are_sqrt_beta():
    family = solve_deformed_oscillator(0.5, lambda n: 1.0, 6)
    space = family.space
    out = family.lower.apply(basis_state(space, [3]))
    np.testing.assert_array_equal(
        out.amplitudes, np.sqrt(family.beta[3]) * basis_state(space, [2]).amplitudes)
    assert (family.raise_.matrix != family.lower.adjoint().matrix).nnz == 0


# -- the four standard families ---------------------------------------------------

def test_type_ii_beta_closed_form_value():
    family = standard_qboson("II", 0.25, 6)
    assert family.beta[2] == pytest.approx(4.25, abs=1e-14)  # q^-2 + q^2
    for n in range(7):
        assert family.beta[n] == pytest.approx(beta_closed_form("II", 0.25, n),
                                               rel=1e-13)


@pytest.mark.parametrize("tag", ["I", "II", "III", "IV"])
@pytest.mark.parametrize("q2", [0.25, 0.5])
def test_defining_relations_margin_one(tag, q2):
    cutoff = precision_capped_cutoff(q2, tag, 24, 1e-12)
    family = standard_qboson(tag, q2, cutoff)
    assert defining_relation_residual(family, margin=1) < 1e-12
    oracle = recursion_oracle(q2, __import__("qboson_kit").qboson.standard_rhs(tag, q2),
                              cutoff)
    assert list(family.beta) == oracle


def test_type_iv_relation_against_explicit_target():
    q2 = 0.5
    family = standard_qboson("IV", q2, 10)
    space = family.space
    lhs = family.lower @ family.raise_ - q2 * (family.raise_ @ family.lower)
    from qboson_kit import diagonal_operator

    occ = space.occupations[:, 0]
    target = diagonal_operator(space, ((1 - q2) * (1 / q2) ** occ).astype(complex))
    assert relation_residual(lhs, target, margin=1) < 1e-12


def test_overflow_guard_types_ii_iv():
    with pytest.raises(OverflowGuardError):
        standard_qboson("II", 0.001, 200)
    standard_qboson("I", 0.001, 200)  # bounded targets are fine


def test_number_shift_structure():
    """[N, B+-] = +-B+- below the cutoff for every family."""
    for tag in ("I", "II", "III", "IV"):
        family = standard_qboson(tag, 0.5, 8)
        bound = machine_zero_bound(family.space, scale=float(np.max(family.beta)))
        assert relation_residual(commutator(family.number, family.raise_),
                                 family.raise_, margin=1) <= bound
        assert relation_residual(commutator(family.number, family.lower),
                                 -1.0 * family.lower, margin=1) <= bound


def test_q_to_one_limit_recovers_boson():
    """Unit-target magnitudes approach n as the deformation switches off."""
    family = standard_qboson("I", 0.999, 8)
    for n in range(6):
        assert family.beta[n] == pytest.approx(n, abs=1e-2)
    # the (1 - q^2)-target family recovers n only after rhs normalization
    family3 = standard_qboson("III", 0.999, 8)
    for n in range(6):
        assert family3.beta[n] / (1 - 0.999) == pytest.approx(n, abs=1e-2)


# -- averaging recipe -------------------------------------------------------------

def test_recipe_shift_gauge_type_i():
    rel = expectation_recipe("phase", "identity", 0.5, (80, 8))
    assert rel.coeff_plus == pytest.approx(1.0, abs=1e-12)
    assert rel.coeff_minus == pytest.approx(0.5, abs=1e-12)
    assert rel.rhs == pytest.approx(1.0, abs=1e-12)
    assert rel.q_squared_effective == pytest.approx(0.5, abs=1e-12)


def test_recipe_boson_gauge_type_iii():
    rel = expectation_recipe("boson", "identity", 0.5, (80, 8))
    assert rel.coeff_plus == pytest.approx(2.0, abs=1e-9)
    assert rel.coeff_minus == pytest.approx(1.0, abs=1e-9)
    assert rel.normalized_rhs == pytest.approx(0.5, abs=1e-9)


def test_recipe_shifted_gauge_type_ii():
    rel = expectation_recipe("alpha_phase", "identity", 0.5, (80, 8), alpha=2)
    assert rel.coeff_plus == pytest.approx(0.25, abs=1e-12)
    assert rel.coeff_minus == pytest.approx(0.125, abs=1e-12)
    assert rel.normalized_rhs == pytest.approx(4.0, abs=1e-10)


def test_recipe_step_gauge_reports_positive_exponent():
    rel = expectation_recipe("boson", "theta", 0.5, (80, 8), alpha=1)
    assert rel.rhs_exponent_sign == 1
    assert rel.normalized_rhs == pytest.approx((1 - 0.5) * 0.5, abs=1e-9)


def test_recipe_coefficient_ordering():
    """Thermal averaging gives coeff_plus > coeff_minus > 0."""
    for a_choice in ("phase", "boson"):
        for q2 in (0.25, 0.5, 0.8):
            rel = expectation_recipe(a_choice, "identity", q2, (120, 6))
            assert rel.coeff_plus > rel.coeff_minus > 0


def test_recipe_closure():
    for a_choice, d0_choice, alpha in (("phase", "identity", 0),
                                       ("boson", "identity", 0),
                                       ("alpha_phase", "identity", 2),
                                       ("boson", "theta", 1)):
        rel = expectation_recipe(a_choice, d0_choice, 0.5, (80, 8), alpha=alpha)
        family = family_from_relation(rel, cutoff=16)
        lhs = family.lower @ family.raise_ \
            - family.q_squared * (family.raise_ @ family.lower)
        rhs = rel.normalized_rhs * identity_operator(family.space)
        assert relation_residual(lhs, rhs, margin=1) <= max(1e-12, rel.tail_mass)


def test_recipe_pure_state_recovers_undeformed_boson():
    rel = expectation_recipe("phase", "identity", 0.5, (40, 6),
                             density="pure", pure_level=2)
    assert rel.coeff_plus == 1.0
    assert rel.coeff_minus == 1.0
    assert rel.rhs == 1.0


def test_recipe_validation():
    with pytest.raises(ValueError):
        expectation_recipe("spin", "identity", 0.5, (40, 6))
    with pytest.raises(ValueError):
        expectation_recipe("phase", "identity", 0.5, (40,))
    from qboson_kit import TruncationAccuracyError

    with pytest.raises(TruncationAccuracyError):
        expectation_recipe("phase", "identity", 0.97, (10, 4))  # heavy tail


def test_recipe_b_mode_level_does_not_affect_scalar_coefficients():
    r0 = expectation_recipe("boson", "theta", 0.5, (80, 8), alpha=2, b_level=0)
    r3 = expectation_recipe("boson", "theta", 0.5, (80, 8), alpha=2, b_level=3)
    assert r0.coeff_plus == r3.coeff_plus
    assert r0.rhs == r3.rhs
