import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson_kit import (
    OverflowGuardError,
    TruncationAccuracyError,
    alpha_phase_pair,
    averaged_relation,
    basis_state,
    beta_closed_form,
    commutator,
    defining_relation_residual,
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


def test_solver_rejects_a_nan_rhs():
    with pytest.raises(ValueError, match=r"rhs\(0\) = nan is negative"):
        family_on_space(make_space([4]), 1, 0.5, lambda n: float("nan"))


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
    assert np.array_equal(family.raise_.toarray(), family.lower.adjoint().toarray())


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


def _beta_on_arrays(q2, rhs, cutoff):
    """The recursion on numpy array elements, as family_on_space ran it before it
    moved to Python floats: the reference for its bits."""
    values = np.array([rhs(n) for n in range(cutoff + 1)], dtype=float)
    beta = np.zeros(cutoff + 1)
    for n in range(cutoff):
        beta[n + 1] = values[n] + q2 * beta[n]
    return beta, values


@pytest.mark.parametrize("tag", ["I", "II", "III", "IV"])
@pytest.mark.parametrize("q2", [0.3, 0.5, 0.9])
def test_beta_matches_the_array_recursion_bit_for_bit(tag, q2):
    family = standard_qboson(tag, q2, 200)
    beta, values = _beta_on_arrays(q2, standard_rhs(tag, q2), 200)
    np.testing.assert_array_equal(family.beta.view(np.int64), beta.view(np.int64))
    np.testing.assert_array_equal(family.rhs_values.view(np.int64), values.view(np.int64))


def test_type_iv_relation_against_explicit_target():
    q2 = 0.5
    family = standard_qboson("IV", q2, 10)
    space = family.space
    lhs = family.lower @ family.raise_ - q2 * (family.raise_ @ family.lower)
    from qboson_kit import diagonal_operator

    occ = np.indices(space.shape).reshape(space.mode_count, -1).T[:, 0]
    target = diagonal_operator(space, ((1 - q2) * (1 / q2) ** occ).astype(complex))
    assert relation_residual(lhs, target, margin=1) < 1e-12


@pytest.mark.parametrize("build,message", [
    (lambda: standard_rhs("V", 0.5), r"unknown type tag 'V'; expected one of \('I', 'II'"),
    (lambda: beta_closed_form("V", 0.5, 2), "unknown type tag 'V'"),
], ids=["standard-rhs", "beta-closed-form"])
def test_unknown_type_tag_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
    rel = recipe_relations(0.5, 80, [("phase", "identity", 0)])[0]
    assert rel.coeff_plus == pytest.approx(1.0, abs=1e-12)
    assert rel.coeff_minus == pytest.approx(0.5, abs=1e-12)
    assert rel.rhs == pytest.approx(1.0, abs=1e-12)
    assert rel.q_squared_effective == pytest.approx(0.5, abs=1e-12)


def test_recipe_boson_gauge_type_iii():
    rel = recipe_relations(0.5, 80, [("boson", "identity", 0)])[0]
    assert rel.coeff_plus == pytest.approx(2.0, abs=1e-9)
    assert rel.coeff_minus == pytest.approx(1.0, abs=1e-9)
    assert rel.normalized_rhs == pytest.approx(0.5, abs=1e-9)


def test_recipe_shifted_gauge_type_ii():
    rel = recipe_relations(0.5, 80, [("alpha_phase", "identity", 2)])[0]
    assert rel.coeff_plus == pytest.approx(0.25, abs=1e-12)
    assert rel.coeff_minus == pytest.approx(0.125, abs=1e-12)
    assert rel.normalized_rhs == pytest.approx(4.0, abs=1e-10)


def test_recipe_step_gauge_reports_positive_exponent():
    rel = recipe_relations(0.5, 80, [("boson", "theta", 1)])[0]
    assert rel.rhs_exponent_sign == 1
    assert rel.normalized_rhs == pytest.approx((1 - 0.5) * 0.5, abs=1e-9)


def test_recipe_coefficient_ordering():
    """Thermal averaging gives coeff_plus > coeff_minus > 0."""
    for a_choice in ("phase", "boson"):
        for q2 in (0.25, 0.5, 0.8):
            rel = recipe_relations(q2, 120, [(a_choice, "identity", 0)])[0]
            assert rel.coeff_plus > rel.coeff_minus > 0


def test_recipe_closure():
    for a_choice, d0_choice, alpha in (("phase", "identity", 0),
                                       ("boson", "identity", 0),
                                       ("alpha_phase", "identity", 2),
                                       ("boson", "theta", 1)):
        rel = recipe_relations(0.5, 80, [(a_choice, d0_choice, alpha)])[0]
        family = family_from_relation(rel, cutoff=16)
        lhs = family.lower @ family.raise_ \
            - family.q_squared * (family.raise_ @ family.lower)
        rhs = rel.normalized_rhs * identity_operator(family.space)
        assert relation_residual(lhs, rhs, margin=1) <= max(1e-12, rel.tail_mass)


RECIPE_REQUESTS = [(a_choice, d0_choice, alpha) for a_choice in ("phase", "boson", "alpha_phase")
                   for d0_choice in ("identity", "theta") for alpha in range(4)]


@pytest.mark.parametrize("q_squared", [0.3, 0.5])
@pytest.mark.parametrize("cutoff", [80, 120])
def test_batched_recipe_equals_single_requests(q_squared, cutoff):
    """One shared average gives each request the relation its own call gives, bit for bit."""
    batched = recipe_relations(q_squared, cutoff, RECIPE_REQUESTS)
    assert len(batched) == len(RECIPE_REQUESTS)
    for rel, (a_choice, d0_choice, alpha) in zip(batched, RECIPE_REQUESTS):
        # repr tells -0.0 from 0.0 and covers rhs_exponent_sign.
        single = recipe_relations(q_squared, cutoff, [(a_choice, d0_choice, alpha)])[0]
        assert repr(rel) == repr(single)


@pytest.mark.parametrize("q_squared", [0.01, 0.2, 0.5, 0.8])
@pytest.mark.parametrize("cutoff", [10, 40, 80, 400])
@pytest.mark.parametrize("b_cutoff", [1, 8])
def test_recipe_relations_equal_the_two_mode_average_bit_for_bit(q_squared, cutoff, b_cutoff):
    """The averaged mode alone gives what the thermal x vacuum average on the
    (cutoff, b_cutoff) space gives: the density vanishes off the B vacuum, so each trace
    sums the same nonzero products in the same order.  Where the tail passes the budget,
    the recipe refuses."""
    space = make_space([cutoff, b_cutoff])
    rho = thermal_density(space, 1, q_squared)
    if rho.tail_mass > qboson.RECIPE_TAIL_BUDGET:
        with pytest.raises(TruncationAccuracyError, match="tail mass"):
            recipe_relations(q_squared, cutoff, RECIPE_REQUESTS)
        return
    relations = recipe_relations(q_squared, cutoff, RECIPE_REQUESTS)
    for rel, (a_choice, d0_choice, alpha) in zip(relations, RECIPE_REQUESTS, strict=True):
        pair = (ladder(space, 1) if a_choice == "boson" else
                alpha_phase_pair(space, 1, alpha if a_choice == "alpha_phase" else 0))
        step = alpha if d0_choice == "theta" else 0
        expected = averaged_relation(rho, pair.lower, pair.raise_, theta_operator(space, 1, step))
        for field in ("coeff_plus", "coeff_minus", "rhs", "tail_mass"):
            assert getattr(rel, field).hex() == getattr(expected, field).hex(), (field, alpha)
        # The step probe: the sign of q^(+-2 step) nearer the measured normalized rhs.
        sign = None
        if step > 0 and expected.coeff_plus > 0:
            q2, measured = expected.q_squared_effective, expected.normalized_rhs
            plus, minus = ((1.0 - q2) * q2 ** e for e in (step, -step))
            sign = 1 if abs(measured - plus) <= abs(measured - minus) else -1
        assert rel.rhs_exponent_sign == sign


def test_recipe_suite_shares_one_average(monkeypatch):
    """One recipe run builds one space of the averaged mode and one thermal density, and takes
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
    # The closure rows rebuild their families on spaces of cutoff 20.
    assert [tuple(args[0]) for args, _ in spaces if tuple(args[0]) != (20,)] == [(80,)]
    assert len(densities) == 1
    thermal = densities[0][1]
    assert len([args for args, _ in traces if args[0] is thermal]) == 11


def test_recipe_recovery_row_averages_on_the_run_space(monkeypatch):
    """recipe/algebraic-recovery takes the run's space and its shift-0 phase pair:
    the suite builds no second space and no second pair."""
    from qboson_kit import suites

    built = []
    monkeypatch.setattr(suites, "make_space", lambda *args: built.append(args))
    monkeypatch.setattr(suites, "phase_pair", lambda *args: built.append(args))
    relations = recipe_relations(0.5, 40, [("phase", "identity", 0)])
    assert relations.space.cutoffs == (40,)
    assert relations.pairs[0].q_squared == 0.0 and relations.pairs[0].rhs_values.all()
    checks = {c.name: c for c in run_suite(SuiteConfig(suite="recipe")).checks}
    assert built == []
    assert checks["recipe/algebraic-recovery"].residual == 0.0
    assert checks["recipe/algebraic-recovery"].passed


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
        recipe_relations(0.5, 40, [("spin", "identity", 0)])
    with pytest.raises(ValueError, match="d0_choice"):
        recipe_relations(0.5, 40, [("phase", "identity", 0), ("boson", "step", 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        recipe_relations(0.5, 40, [("boson", "theta", -1)])
    with pytest.raises(TruncationAccuracyError):
        recipe_relations(0.97, 10, [("phase", "identity", 0)])  # heavy tail


def test_recipe_b_mode_level_does_not_affect_scalar_coefficients():
    space = make_space([80, 8])
    boson = ladder(space, 1)
    step = theta_operator(space, 1, 2)

    def average(b_level):
        rho = thermal_density(space, 1, 0.5, other_levels=[b_level])
        return averaged_relation(rho, boson.lower, boson.raise_, step)

    r0, r3 = average(0), average(3)
    assert r0.coeff_plus == r3.coeff_plus
    assert r0.rhs == r3.rhs
