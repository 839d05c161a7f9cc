import dataclasses
import json
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from qboson_kit import fock, identity_operator, ladder, make_space, suites
from qboson_kit import multimode as mm
from qboson_kit.dump import format_operator
from qboson_kit.qboson import EffectiveRelation
from qboson_kit.suites import (
    SUITE_FLAGS,
    SUITES,
    Check,
    ConfigError,
    Suite,
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

    def flipped(q_squared, cutoff, requests):
        relations = batched(q_squared, cutoff, requests)
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


def test_render_report_refuses_an_unknown_format():
    report = run_suite(SuiteConfig(suite="rmatrix", modes=2))
    with pytest.raises(ConfigError, match="unknown format 'yaml'; expected json, csv, or text"):
        suites.render_report(report, "yaml")


@pytest.mark.parametrize("reduce", [
    lambda nan: nan,
    lambda nan: mm.worst_by_relation({"r i=1": 1e-12, "r i=2": nan, "r i=3": 1e-11})["r"],
    lambda nan: mm.worst_by_relation({"r i=1": nan, "r i=2": 1e-11})["r"],
], ids=["direct", "worst-by-relation", "worst-by-relation-nan-first"])
def test_a_nan_inside_the_safe_block_fails_its_row(monkeypatch, reduce):
    """A run ignores numpy's overflow and invalid warnings, as the inf and nan outside a
    safe block are discarded; a nan inside one still fails its row (nan <= tol is false),
    also through the per-relation worst that the multimode and chevalley rows report."""
    def build(**_):
        space = make_space([4])
        big = fock.diagonal_operator(space, np.full(5, 1e300))
        square = big @ big  # inf everywhere, and inf - inf is nan
        nan = fock.relation_residual(square, square, 1)
        return [suites.Spec("x/nan", "", "constant", 1e-10, residual=reduce(nan))]
    monkeypatch.setitem(suites.SUITE_TABLE, "cuntz", Suite(build, {"cutoff": 32}))
    [check] = run_suite(SuiteConfig(suite="cuntz")).checks
    assert math.isnan(check.residual) and not check.passed


def test_tiny_q_multimode_undressing_row_fails_on_its_nan():
    """At q = 1e-150 the inverse dressing q^(-N) overflows and both undressing residuals are
    nan: the worst over them keeps the nan, where max(0.0, nan) would read 0.0, so the row fails."""
    report = run_suite(SuiteConfig(suite="multimode", q=1e-150, modes=2, cutoff=4))
    [check] = [c for c in report.checks if c.name == "multimode/N2-undressing"]
    assert math.isnan(check.residual) and not check.passed and not report.overall_passed


def _tail_bound(name):
    """The tail-based bound of a row, as (kind, constant), or None."""
    if name.startswith("recipe/closure-"):
        return "floor", 1e-12
    if "-recipe-row-" in name:
        return "floor", 1e-10
    if name.startswith(("thermal/", "recipe/shift", "recipe/boson")) or name.endswith("-magnitude"):
        return "budget", 1e-10
    return None


@pytest.mark.parametrize("config,rows", [
    (SuiteConfig(suite="recipe", q=0.9, cutoff=80), 12),
    (SuiteConfig(suite="thermal", q=0.9, cutoff=80), 12),
    (SuiteConfig(suite="multimode", q=0.9), 3),
], ids=["recipe", "thermal", "multimode"])
def test_tail_based_tolerances_follow_the_tail_where_it_decides(config, rows):
    """At q = 0.9 each tail-based row's tail mass (3.9e-8 in recipe and thermal at cutoff 80,
    2.6e-6 in multimode's recipe rows) passes its bound's constant, so the tolerance reads
    the tail: the budget |expected| max(--tol, tail) of the thermal and recipe values, the
    closure floor max(1e-12, tail) and the multimode recipe-row floor max(1e-10, tail).
    The goldens run at tails below 1e-18, where a bound without the tail reads the same."""
    checked = 0
    for c in run_suite(config).checks:
        if (bound := _tail_bound(c.name)) is None:
            continue
        kind, constant = bound
        assert c.tail_mass > constant, c.name
        floor = max(constant, c.tail_mass)
        assert c.tolerance == (abs(c.expected) * floor if kind == "budget" else floor), c.name
        checked += 1
    assert checked == rows


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
    # The separator between two encoded checks, inside a string, where it is escaped.
    seam = Check(name="seam", relation='},\n      {', measured=1.0, expected=None,
                 residual=0.0, tolerance=0.0, tail_mass=0.0, passed=True)
    for checks in ([odd, plain], [plain], [], [seam], [plain, seam, odd]):
        report = SuiteReport(suite="x", config=config, checks=checks,
                             overall_passed=False, wall_time=math.nan)
        assert report_to_json(report) == _indented_json(report)


# -- one run's shared values ---------------------------------------------------

def _probe_suite(monkeypatch, probe):
    """Make `--suite cuntz` run `probe()` alone, inside run_suite's scope."""
    def build(**_):
        probe()
        return []
    monkeypatch.setitem(suites.SUITE_TABLE, "cuntz", Suite(build, {"cutoff": 32}))


def test_a_run_shares_one_space_per_cutoff_tuple(monkeypatch):
    spaces, in_thread = [], []

    def probe():
        spaces.extend([make_space([3, 2]), make_space((3, 2)), make_space([3, 4])])
        # Another thread, started inside the run, is outside it.
        thread = threading.Thread(target=lambda: in_thread.append(fock._RUN_VALUES.get()))
        thread.start()
        thread.join(timeout=10)

    _probe_suite(monkeypatch, probe)
    run_suite(SuiteConfig(suite="cuntz"))
    assert in_thread == [None]
    same, again, other = spaces[:3]
    assert same is again and other is not same
    run_suite(SuiteConfig(suite="cuntz"))
    assert spaces[3] is spaces[4] and spaces[3] is not same  # the next run builds its own
    assert make_space([3, 2]) is not make_space([3, 2])  # outside a run nothing is shared
    assert fock._RUN_VALUES.get() is None


def test_the_run_scope_closes_when_a_suite_raises(monkeypatch):
    inside = []
    init = fock.FockSpace.__init__

    def recording(self, cutoffs):
        inside.append(fock._RUN_VALUES.get() is not None)
        init(self, cutoffs)

    monkeypatch.setattr(fock.FockSpace, "__init__", recording)
    with pytest.raises(ConfigError, match="larger --cutoff"):
        run_suite(SuiteConfig(suite="recipe", cutoff=1))
    assert inside and all(inside)  # the error came from inside the run
    assert fock._RUN_VALUES.get() is None
    assert make_space([1, 8]) is not make_space([1, 8])


def test_a_run_shares_only_immutable_values(monkeypatch):
    seen = []
    evaluate = suites._evaluate

    def recording(spec):
        seen.append(fock._RUN_VALUES.get())
        return evaluate(spec)

    monkeypatch.setattr(suites, "_evaluate", recording)
    run_suite(SuiteConfig(suite="all"))
    values = seen[-1]
    assert all(v is values for v in seen)
    kinds = Counter(type(v) for v in values.values())
    assert kinds == {fock.FockSpace: 9, float: 2, EffectiveRelation: 3, mm.RMatrix: 2,
                     mm.CovariantFamily: 2, tuple: 8}
    # The tuples: the residuals of 5 groups of table rows (multimode on modes 1..2 and
    # 1..3; chevalley on 2 and 3 modes, and the unit variant's brackets on 2) and the
    # (H, E, F) triples of 3 generator sets.
    tuples = Counter(type(v[0]) for v in values.values() if type(v) is tuple)
    assert tuples == {float: 5, tuple: 3}


def test_one_all_run_builds_each_shared_value_once(monkeypatch):
    counts = Counter()
    init = fock.FockSpace.__init__

    def counting_init(self, cutoffs):
        counts["FockSpace"] += 1
        init(self, cutoffs)

    monkeypatch.setattr(fock.FockSpace, "__init__", counting_init)
    for name in ("su_r_matrix", "yang_baxter_residual", "covariant_recipe_check"):
        def counting(*args, _fn=getattr(mm, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mm, name, counting)
    run_suite(SuiteConfig(suite="all"))
    assert counts == {"FockSpace": 9, "su_r_matrix": 2, "yang_baxter_residual": 2,
                      "covariant_recipe_check": 3}
    counts.clear()
    run_suite(SuiteConfig(suite="rmatrix"))  # ranks 2 and 3: the entry rows share R
    assert counts == {"su_r_matrix": 2, "yang_baxter_residual": 2}
    counts.clear()
    run_suite(SuiteConfig(suite="recipe", cutoff=400))
    assert counts == {"FockSpace": 2}


def test_spectral_report_rows_never_reach_the_general_norm(monkeypatch):
    """Every spectral residual of these runs is monomial: it reaches fock._norm with at
    most one diagonal, so _norm's monomial and dense-SVD branches serve only library
    callers.  The Frobenius run does make Frobenius calls."""
    calls = []
    norm = fock._norm

    def counting(diagonals, dim, kind):
        calls.append((kind, len(diagonals)))
        return norm(diagonals, dim, kind)

    monkeypatch.setattr(fock, "_norm", counting)
    run_suite(SuiteConfig(suite="all"))
    run_suite(SuiteConfig(suite="multimode", modes=4, cutoff=6))
    assert calls and {kind for kind, _ in calls} == {"spectral"}
    run_suite(SuiteConfig(suite="all", norm="frobenius", margin=2))
    assert max(n for kind, n in calls if kind == "spectral") <= 1
    assert any(kind == "frobenius" for kind, _ in calls)


def test_threads_running_suites_at_once_match_their_sequential_runs():
    configs = [SuiteConfig(suite="all"), SuiteConfig(suite="recipe"),
               SuiteConfig(suite="multimode", modes=2, cutoff=6),
               SuiteConfig(suite="rmatrix"), SuiteConfig(suite="multimode"),
               SuiteConfig(suite="cuntz", cutoff=16)]

    def rendered(config):
        return report_to_json(dataclasses.replace(run_suite(config), wall_time=0.0))

    expected = [rendered(config) for config in configs]
    results, errors = {}, []

    def worker(t):
        try:
            for k in range(len(configs)):  # each thread starts at its own suite
                i = (t + k) % len(configs)
                results[t, i] = rendered(configs[i])
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the runs
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 4 * len(configs)
    for (t, i), text in results.items():
        assert text == expected[i], (t, configs[i].suite)
