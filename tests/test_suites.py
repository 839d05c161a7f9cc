import dataclasses

import numpy as np
import pytest

from qboson_kit import identity_operator, ladder, make_space, suites
from qboson_kit.dump import format_operator
from qboson_kit.suites import SUITE_FLAGS, SUITES, ConfigError, SuiteConfig, run_suite


def test_every_suite_runs_green_with_defaults():
    for suite in SUITES:
        report = run_suite(SuiteConfig(suite=suite))
        assert report.overall_passed, suite
        assert report.suite == suite
        assert len(report.checks) > 0
        # The echo holds each honoured flag's default; the rest stay null.
        flags = SUITE_FLAGS[suite]
        for field in ("cutoff", "alpha", "modes", "qtype", "tolerance", "margin", "norm"):
            default = flags.get(field)
            assert report.config[field] == default, (suite, field)
        assert report.config["q"] is None


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="everything"))


def test_all_suite_covers_each_family_of_checks():
    report = run_suite(SuiteConfig(suite="all"))
    prefixes = {c.name.split("/")[0] for c in report.checks}
    assert prefixes == {"cuntz", "thermal", "coherent", "asymptotics", "qboson",
                        "recipe", "alpha", "multimode", "rmatrix", "chevalley"}


def test_operator_algebra_space_mismatch():
    a = ladder(make_space([4]), 1).lower
    b = identity_operator(make_space([5]))
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b


def test_operator_scalar_algebra():
    space = make_space([4])
    t = ladder(space, 1)
    two_a = 2.0 * t.lower
    np.testing.assert_array_equal(two_a.toarray(), 2.0 * t.lower.toarray())
    np.testing.assert_array_equal((-t.lower).toarray(), -t.lower.toarray())
    assert (t.lower - t.lower).norm() == 0.0


def test_state_vector_shape_validation():
    from qboson_kit import StateVector

    space = make_space([3])
    with pytest.raises(ValueError):
        StateVector(space, np.ones(3))


def test_dump_is_deterministic():
    space = make_space([6, 4])
    op = ladder(space, 2).raise_
    assert format_operator(op) == format_operator(op)


def test_text_report_marks_failures():
    from qboson_kit.suites import render_report

    report = run_suite(SuiteConfig(suite="cuntz", cutoff=16, tolerance=1e-18))
    text = render_report(report, "text")
    assert "FAIL" in text
    assert "overall: FAIL" in text


def test_recipe_magnitude_row_fails_on_flipped_step_exponent(monkeypatch):
    """The step-gauge magnitude is compared with (1-q^2) q^(+2 alpha), the
    convention theta_operator fixes, not with whichever sign the probe measured."""
    recipe = suites.expectation_recipe

    def flipped(a_choice, d0_choice, q_squared, cutoffs, alpha=0):
        rel = recipe(a_choice, d0_choice, q_squared, cutoffs, alpha)
        if d0_choice != "theta":
            return rel
        q2 = rel.q_squared_effective
        return dataclasses.replace(rel, rhs=rel.coeff_plus * (1.0 - q2) * q2 ** (-alpha),
                                   rhs_exponent_sign=-1)

    monkeypatch.setattr(suites, "expectation_recipe", flipped)
    checks = {c.name: c for c in run_suite(SuiteConfig(suite="recipe")).checks}
    for a in (1, 2):
        assert not checks[f"recipe/step-gauge-alpha{a}-magnitude"].passed
        assert checks[f"recipe/step-gauge-alpha{a}-exponent-sign"].measured == -1.0
