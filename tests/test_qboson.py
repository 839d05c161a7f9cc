import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson_kit import (
    OverflowGuardError,
    ThermalParams,
    averaged_relation,
    basis_state,
    beta_closed_form,
    commutator,
    defining_relation_residual,
    expectation_recipe,
    family_from_relation,
    identity_operator,
    ladder,
    make_space,
    phase_pair,
    pure_density,
    qboson,
    recipe_relations,
    relation_residual,
    standard_qboson,
    theta_operator,
    thermal_density,
)
from qboson_kit.fock import machine_zero_bound
from qboson_kit.qboson import family_on_space, precision_capped_cutoff, standard_rhs
from qboson_kit.suites import SuiteConfig, run_suite


def recursion_oracle(q_squared, rhs, cutoff):
    """Independent reimplementation of the magnitude recursion."""
    beta = [0.0]
    for n in range(cutoff):
        beta.append(rhs(n) + q_squared * beta[n])
    return beta


# -- difference-equation solver --------------------------------------------------

def test_solver_unit_rhs_beta2():
    family = family_on_space(make_space([8]), 1, 0.25, lambda n: 1.0)
    assert family.beta[2] == 1.25
    assert family.beta[0] == 0.0


def test_solver_type_iii_rhs_beta2():
    family = family_on_space(make_space([8]), 1, 0.25, lambda n: 0.75)
    assert family.beta[2] == 0.9375


def test_solver_rejects_negative_rhs():
    with pytest.raises(ValueError):
        family_on_space(make_space([4]), 1, 0.5, lambda n: -1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=2, max_value=20))
def test_solver_matches_recursion_oracle_bitwise(q2, cutoff):
    rhs = lambda n: 1.0 + 0.5 * n
    family = family_on_space(make_space([cutoff]), 1, q2, rhs)
    assert list(family.beta) == recursion_oracle(q2, rhs, cutoff)


def test_lower_amplitudes_are_sqrt_beta():
    family = family_on_space(make_space([6]), 1, 0.5, lambda n: 1.0)
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
def test_beta_closed_form_solves_recursion_symbolically(tag):
    """sympy proves beta(0) = 0 and beta(n+1) = rhs(n) + q^2 beta(n) for symbolic
    q^2 and n, a reference that shares no float code with the recursion."""
    sp = pytest.importorskip("sympy")
    q2 = sp.Symbol("q2", positive=True)
    n = sp.Symbol("n", integer=True, nonnegative=True)
    beta = lambda m: beta_closed_form(tag, q2, m)
    rhs = standard_rhs(tag, q2)
    assert sp.simplify(sp.nsimplify(beta(0))) == 0
    assert sp.simplify(sp.nsimplify(beta(n + 1) - rhs(n) - q2 * beta(n))) == 0


@pytest.mark.parametrize("tag", ["I", "II", "III", "IV"])
@pytest.mark.parametrize("q2", [0.25, 0.5])
def test_defining_relations_margin_one(tag, q2):
    cutoff = precision_capped_cutoff(q2, tag, 24, 1e-12)
    family = standard_qboson(tag, q2, cutoff)
    assert defining_relation_residual(family, margin=1) < 1e-12
    oracle = recursion_oracle(q2, standard_rhs(tag, q2), cutoff)
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
        bound = machine_zero_bound(family.space) * float(np.max(family.beta))
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


@pytest.mark.parametrize("q_squared", [0.3, 0.5])
@pytest.mark.parametrize("cutoffs", [(80, 8), (120, 6)])
def test_batched_recipe_equals_single_requests(q_squared, cutoffs):
    """One shared average gives each request the relation its own call gives, bit for bit."""
    requests = [(a_choice, d0_choice, alpha) for a_choice in ("phase", "boson", "alpha_phase")
                for d0_choice in ("identity", "theta") for alpha in range(4)]
    batched = recipe_relations(q_squared, cutoffs, requests)
    assert len(batched) == len(requests)
    for rel, (a_choice, d0_choice, alpha) in zip(batched, requests):
        # repr tells -0.0 from 0.0 and covers rhs_exponent_sign.
        single = expectation_recipe(a_choice, d0_choice, q_squared, cutoffs, alpha)
        assert repr(rel) == repr(single)


def test_recipe_suite_shares_one_average(monkeypatch):
    """One recipe run builds one two-mode space and one thermal density, and takes
    each of its 11 distinct traces against that density once: 4 A± pairs times
    two products, plus D0 = theta(N - alpha) at alpha 0, 1, 2."""
    spaces, densities, traces = [], [], []

    def counting(name, calls):
        original = getattr(qboson, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, result))
            return result
        monkeypatch.setattr(qboson, name, wrapper)

    counting("make_space", spaces)
    counting("thermal_density", densities)
    counting("expectation", traces)
    assert run_suite(SuiteConfig(suite="recipe")).overall_passed
    assert [args[0] for args, _ in spaces if len(args[0]) == 2] == [(80, 8)]
    assert len(densities) == 1
    thermal = densities[0][1]
    assert len([args for args, _ in traces if args[0] is thermal]) == 11


def test_recipe_pure_state_recovers_undeformed_boson():
    space = make_space([40, 6])
    pair = phase_pair(space, 1)
    rel = averaged_relation(pure_density(basis_state(space, [2, 0])), pair.lower,
                            pair.raise_, identity_operator(space))
    assert rel.coeff_plus == 1.0
    assert rel.coeff_minus == 1.0
    assert rel.rhs == 1.0


def test_averaged_relation_rejects_complex_expectation():
    space = make_space([6, 2])
    pair = phase_pair(space, 1)
    rho = pure_density(basis_state(space, [2, 0]))
    with pytest.raises(ValueError, match="not all real"):
        averaged_relation(rho, pair.lower, pair.raise_, 1j * identity_operator(space))


def test_recipe_validation():
    with pytest.raises(ValueError):
        expectation_recipe("spin", "identity", 0.5, (40, 6))
    with pytest.raises(ValueError):
        expectation_recipe("phase", "identity", 0.5, (40,))
    with pytest.raises(ValueError, match="d0_choice"):
        recipe_relations(0.5, (40, 6), [("phase", "identity", 0), ("boson", "step", 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        recipe_relations(0.5, (40, 6), [("boson", "theta", -1)])
    from qboson_kit import TruncationAccuracyError

    with pytest.raises(TruncationAccuracyError):
        expectation_recipe("phase", "identity", 0.97, (10, 4))  # heavy tail


def test_recipe_b_mode_level_does_not_affect_scalar_coefficients():
    space = make_space([80, 8])
    boson = ladder(space, 1)
    step = theta_operator(space, 1, 2)

    def average(b_level):
        rho = thermal_density(space, 1, ThermalParams.from_q_squared(0.5),
                              other_levels=[b_level])
        return averaged_relation(rho, boson.lower, boson.raise_, step)

    r0, r3 = average(0), average(3)
    assert r0.coeff_plus == r3.coeff_plus
    assert r0.rhs == r3.rhs
