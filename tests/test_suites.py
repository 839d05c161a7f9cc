import dataclasses
import json
import math

import numpy as np
import pytest

from qboson_kit import identity_operator, ladder, make_space, suites
from qboson_kit.dump import format_operator
from qboson_kit.suites import (
    SUITE_FLAGS,
    SUITES,
    Check,
    ConfigError,
    SuiteConfig,
    SuiteReport,
    report_to_json,
    run_suite,
)


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
        assert report_to_json(report) == _indented_json(report), suite


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
    batched = suites.recipe_relations

    def flipped(q_squared, cutoffs, requests):
        relations = batched(q_squared, cutoffs, requests)
        for i, (rel, (_, d0_choice, alpha)) in enumerate(zip(relations, requests)):
            if d0_choice == "theta":
                q2 = rel.q_squared_effective
                relations[i] = dataclasses.replace(
                    rel, rhs=rel.coeff_plus * (1.0 - q2) * q2 ** (-alpha), rhs_exponent_sign=-1)
        return relations

    monkeypatch.setattr(suites, "recipe_relations", flipped)
    checks = {c.name: c for c in run_suite(SuiteConfig(suite="recipe")).checks}
    for a in (1, 2):
        assert not checks[f"recipe/step-gauge-alpha{a}-magnitude"].passed
        assert checks[f"recipe/step-gauge-alpha{a}-exponent-sign"].measured == -1.0


def _indented_json(report):
    """The reference encoding report_to_json must reproduce byte for byte."""
    return json.dumps(report, default=vars, indent=2, sort_keys=True) + "\n"


def test_report_json_matches_indented_json_dumps_on_edge_values():
    config = {"suite": "x", "q": -0.0, "alpha": (1, 2), "margin": "auto", "out": None,
              "tolerance": math.inf}
    odd = Check(name='odd/"quoted" \\ name', relation="line one\nq² → ∞ \"é\"",
                measured=math.nan, expected=-math.inf, residual=-0.0, tolerance=None,
                tail_mass=math.inf, passed=False)
    plain = Check(name="plain", relation="", measured=None, expected=None, residual=1e-300,
                  tolerance=5e-11, tail_mass=0.0, passed=True)
    for checks in ([odd, plain], [plain], []):
        report = SuiteReport(suite="x", config=config, checks=checks,
                             overall_passed=False, wall_time=math.nan)
        assert report_to_json(report) == _indented_json(report)
