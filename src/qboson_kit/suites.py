"""Deterministic verification suites with machine-readable reports.

Each suite evaluates a fixed set of named checks; a check either measures a
scalar against a closed form or measures an operator-identity residual on a
truncation-safe subspace.  Reports are assembled in check-name order, echo
the configuration with each honoured flag resolved, and are byte-stable
across runs apart from the wall_time field.  Nothing in the toolkit draws
random numbers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import multimode as mm
from .densities import (
    ThermalParams,
    coherent_state,
    phase_asymptotics,
    poisson_probability,
    shift_expectation_matrix,
    thermal_density,
)
from .fock import (
    commutator,
    expectation,
    identity_operator,
    ladder,
    machine_zero_bound,
    make_space,
    number_state_projector,
    relation_residual,
)
from .phase import (
    alpha_boson,
    alpha_phase_pair,
    phase_pair,
    sqrt_number_operator,
    theta_operator,
)
from .qboson import (
    STANDARD_TYPES,
    beta_closed_form,
    defining_relation_residual,
    expectation_recipe,
    family_from_relation,
    precision_capped_cutoff,
    standard_qboson,
)


class ConfigError(ValueError):
    """Invalid or inconsistent suite configuration."""


@dataclass
class SuiteConfig:
    """One `run` invocation; a flag left None takes the suite's default (SUITE_FLAGS)."""

    suite: str
    cutoff: int | None = None
    q: float | None = None
    epsilon0: float | None = None
    kT: float | None = None
    alpha: int | None = None
    modes: int | None = None
    qtype: str | None = None
    tolerance: float | None = None
    margin: int | str | None = None
    norm: str | None = None
    fmt: str = "text"
    out: str | None = None

    def resolved_q_squared(self) -> float:
        """Deformation parameter from --q or the (epsilon0, kT) pair; default 0.5."""
        pair_given = self.epsilon0 is not None or self.kT is not None
        if self.q is not None and pair_given:
            raise ConfigError("give either --q or (--epsilon0, --kT), not both")
        if self.q is not None:
            if not 0.0 < self.q < 1.0:
                raise ConfigError(f"--q must lie in (0, 1), got {self.q}")
            return self.q * self.q
        if pair_given:
            if self.epsilon0 is None or self.kT is None:
                raise ConfigError("--epsilon0 and --kT must be given together")
            return ThermalParams.from_temperature(self.epsilon0, self.kT).q_squared
        return SETTINGS["q_squared"]


@dataclass
class Check:
    """One verification record.

    For measured-vs-expected checks `residual` is |measured - expected|; for
    operator identities `measured`/`expected` are None and `residual` is the
    subspace operator norm.  A None tolerance marks an informational record
    that always passes (reported, not asserted).
    """

    name: str
    relation: str
    measured: float | None
    expected: float | None
    residual: float
    tolerance: float | None
    tail_mass: float
    passed: bool


def _value_check(name: str, relation: str, measured: float, expected: float,
                 tolerance: float, tail_mass: float = 0.0) -> Check:
    residual = float(abs(measured - expected))
    return Check(name=name, relation=relation, measured=float(measured),
                 expected=float(expected), residual=residual,
                 tolerance=float(tolerance), tail_mass=float(tail_mass),
                 passed=bool(residual <= tolerance))


def _residual_check(name: str, relation: str, residual: float, tolerance: float,
                    tail_mass: float = 0.0) -> Check:
    residual = float(residual)
    return Check(name=name, relation=relation, measured=None, expected=None,
                 residual=residual, tolerance=float(tolerance),
                 tail_mass=float(tail_mass), passed=bool(residual <= tolerance))


def _info_check(name: str, relation: str, measured: float) -> Check:
    return Check(name=name, relation=relation, measured=float(measured), expected=None,
                 residual=0.0, tolerance=None, tail_mass=0.0, passed=True)


# -- individual suites ---------------------------------------------------------

def cuntz_suite(cutoff: int, margin: int | str, norm: str, tolerance: float) -> list[Check]:
    """Boson commutator, polar decomposition, shift products, shift commutators."""
    space = make_space([cutoff])
    triple = ladder(space, 1)
    pair = phase_pair(space, 1)
    one = identity_operator(space)
    sqrt_n = sqrt_number_operator(space, 1)
    vac = number_state_projector(space, 1, 0)

    def m(default: int) -> int:
        return default if margin == "auto" else int(margin)

    specs = [
        ("cuntz/boson-commutator", "[a, a+] = 1",
         commutator(triple.lower, triple.raise_), one, m(2)),
        ("cuntz/number-shift-lower", "[N, e] = -e",
         commutator(triple.number, pair.lower), -1.0 * pair.lower, m(2)),
        ("cuntz/number-shift-raise", "[N, e+] = e+",
         commutator(triple.number, pair.raise_), pair.raise_, m(2)),
        ("cuntz/polar-lower", "a = e sqrt(N)",
         triple.lower, pair.lower @ sqrt_n, m(0)),
        ("cuntz/polar-raise", "a+ = sqrt(N) e+",
         triple.raise_, sqrt_n @ pair.raise_, m(0)),
        ("cuntz/shift-left-inverse", "e+ e = 1 - |0><0|",
         pair.raise_ @ pair.lower, one - vac, m(2)),
        ("cuntz/shift-right-inverse", "e e+ = 1",
         pair.lower @ pair.raise_, one, m(2)),
    ]
    return [_residual_check(name, relation, relation_residual(lhs, rhs, mg, norm=norm), tolerance)
            for name, relation, lhs, rhs, mg in specs]


def thermal_suite(q_squared: float, cutoff: int, tolerance: float) -> list[Check]:
    """Geometric-state expectations against their closed forms.

    Tolerance per check is analytic_value * max(tolerance, tail_mass); the lost
    tail bounds the truncation error of the bounded observables.  The
    occupation-weighted observables can exceed that budget by a factor of
    order cutoff when the tail dominates the floor (see README).
    """
    space = make_space([cutoff])
    rho = thermal_density(space, 1, ThermalParams.from_q_squared(q_squared))
    tail = rho.tail_mass
    triple = ladder(space, 1)
    pair = phase_pair(space, 1)
    q2 = q_squared

    def tol(analytic: float) -> float:
        return analytic * max(tolerance, tail)

    checks = [
        _value_check("thermal/mean-occupation", "<a+ a> = q^2/(1-q^2)",
                     expectation(rho, triple.raise_ @ triple.lower).real,
                     q2 / (1 - q2), tol(q2 / (1 - q2)), tail),
        _value_check("thermal/antinormal-occupation", "<a a+> = 1/(1-q^2)",
                     expectation(rho, triple.lower @ triple.raise_).real,
                     1 / (1 - q2), tol(1 / (1 - q2)), tail),
    ]
    elow, ehigh = pair.lower, pair.raise_
    lo_pow, hi_pow = elow, ehigh
    for a in (1, 2, 3):
        checks.append(_value_check(
            f"thermal/shift-ratio-normal-{a}", f"<e+^{a} e^{a}> = q^(2*{a})",
            expectation(rho, hi_pow @ lo_pow).real, q2 ** a, tol(q2 ** a), tail))
        checks.append(_value_check(
            f"thermal/shift-ratio-antinormal-{a}", f"<e^{a} e+^{a}> = 1",
            expectation(rho, lo_pow @ hi_pow).real, 1.0, tol(1.0), tail))
        lo_pow = lo_pow @ elow
        hi_pow = hi_pow @ ehigh
    for a in (0, 1, 2, 3):
        checks.append(_value_check(
            f"thermal/step-weight-{a}", f"<theta(N-{a})> = q^(2*{a})",
            expectation(rho, theta_operator(space, 1, a)).real,
            q2 ** a, tol(q2 ** a), tail))
    return checks


def _z_label(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    if z.real == 0:
        return f"{z.imag:g}j"
    return f"{z.real:g}{z.imag:+g}j"


def coherent_suite(cutoff: int) -> list[Check]:
    """Eigenvector residual, mean occupation, and Poisson statistics."""
    space = make_space([cutoff])
    triple = ladder(space, 1)
    n_max = min(40, cutoff - 5)
    checks = []
    for z in (1.0 + 0j, 2.0 + 0j, 2.0j):
        label = _z_label(z)
        state = coherent_state(space, 1, z)
        shifted = triple.lower.apply(state).amplitudes - z * state.amplitudes
        checks.append(_residual_check(
            f"coherent/eigen-residual-z={label}", "a|z> = z|z>",
            float(np.linalg.norm(shifted)), 1e-8))
        mean_n = state.inner(triple.number.apply(state)).real
        checks.append(_value_check(
            f"coherent/mean-number-z={label}", "<z|N|z> = |z|^2",
            mean_n, abs(z) ** 2, 1e-8))
        probs = np.abs(state.amplitudes) ** 2
        dev = max(abs(probs[space.flat_index([n])] - poisson_probability(z, n))
                  for n in range(n_max + 1))
        checks.append(_residual_check(
            f"coherent/poisson-max-deviation-z={label}",
            "|<n|z>|^2 = exp(-|z|^2) |z|^(2n) / n!", dev, 1e-10))
    return checks


def asymptotics_suite(cutoff: int) -> list[Check]:
    """Two-route agreement and large-amplitude error behavior of <z|e|z>."""
    space = make_space([cutoff])
    rows = phase_asymptotics((4.0, 6.0, 8.0, 12.0), cutoff)
    checks = []
    errors = []
    for row in rows:
        label = _z_label(row.z)
        matrix_value = shift_expectation_matrix(space, 1, row.z)
        checks.append(_residual_check(
            f"asymptotics/series-vs-matrix-z={label}",
            "series and matrix evaluations of <z|e|z> agree",
            abs(row.exact - matrix_value), 1e-12))
        err_lead = abs(row.exact - row.leading)
        checks.append(Check(
            name=f"asymptotics/correction-beats-leading-z={label}",
            relation="|exact - (z/|z|)(1 - 1/(8|z|^2))| < |exact - z/|z||",
            measured=float(row.abs_error), expected=float(err_lead),
            residual=float(row.abs_error), tolerance=float(err_lead),
            tail_mass=0.0, passed=bool(row.abs_error < err_lead)))
        errors.append((abs(row.z), row.abs_error))
    errors.sort()
    for k in range(len(errors) - 1):
        (z0, e0), (z1, e1) = errors[k], errors[k + 1]
        checks.append(Check(
            name=f"asymptotics/error-decreasing-|z|={z0:g}-to-{z1:g}",
            relation="first-correction error decreases with |z|",
            measured=float(e1), expected=float(e0), residual=float(e1),
            tolerance=float(e0), tail_mass=0.0, passed=bool(e1 < e0)))
    return checks


def qboson_suite(q_squared: float, qtype: tuple[str, ...], cutoff: int,
                 tolerance: float) -> list[Check]:
    """Defining relations and closed-form magnitude sequences of the given families.

    For the growing targets (types II and IV) the effective cutoff is capped
    so float round-off stays below the tolerance; the capped value appears in
    the relation text.
    """
    if cutoff < 2:
        raise ConfigError(f"the qboson suite needs --cutoff >= 2, got {cutoff}")
    checks = []
    for t in qtype:
        eff = precision_capped_cutoff(q_squared, t, cutoff, tolerance)
        family = standard_qboson(t, q_squared, eff)
        checks.append(_residual_check(
            f"qboson/defining-relation-{t}",
            f"B- B+ - q^2 B+ B- = rhs_{t}(N) at cutoff {eff}",
            defining_relation_residual(family, margin=1, norm="spectral"), tolerance))
        closed = np.array([beta_closed_form(t, q_squared, n) for n in range(eff + 1)])
        dev = float(np.max(np.abs(family.beta - closed) / (1.0 + np.abs(closed))))
        checks.append(_residual_check(
            f"qboson/beta-closed-form-{t}",
            f"recursion magnitudes match the geometric closed form (cutoff {eff})",
            dev, 1e-12))
    return checks


def recipe_suite(q_squared: float, cutoff: int, tolerance: float) -> list[Check]:
    """Averaged two-mode relations against their normalized targets."""
    q2 = q_squared
    cutoffs = (cutoff, 8)
    checks = []

    def tol(analytic: float, tail: float) -> float:
        return abs(analytic) * max(tolerance, tail)

    rel = expectation_recipe("phase", "identity", q2, cutoffs)
    checks.append(_value_check("recipe/shift-gauge-q2",
                               "coeff ratio <e+ e>/<e e+> = q^2",
                               rel.q_squared_effective, q2, tol(q2, rel.tail_mass),
                               rel.tail_mass))
    checks.append(_value_check("recipe/shift-gauge-rhs",
                               "normalized rhs = 1 (unit-target family)",
                               rel.normalized_rhs, 1.0, tol(1.0, rel.tail_mass),
                               rel.tail_mass))
    checks.append(_closure_check("recipe/closure-shift-gauge", rel))

    rel = expectation_recipe("boson", "identity", q2, cutoffs)
    checks.append(_value_check("recipe/boson-gauge-q2",
                               "coeff ratio <a+ a>/<a a+> = q^2",
                               rel.q_squared_effective, q2, tol(q2, rel.tail_mass),
                               rel.tail_mass))
    checks.append(_value_check("recipe/boson-gauge-rhs",
                               "normalized rhs = 1 - q^2",
                               rel.normalized_rhs, 1.0 - q2, tol(1.0 - q2, rel.tail_mass),
                               rel.tail_mass))
    checks.append(_closure_check("recipe/closure-boson-gauge", rel))

    for a in (0, 1, 2):
        rel = expectation_recipe("alpha_phase", "identity", q2, cutoffs, alpha=a)
        target = q2 ** (-a)
        checks.append(_value_check(
            f"recipe/shifted-gauge-alpha{a}-rhs",
            f"normalized rhs = q^(-2*{a})",
            rel.normalized_rhs, target, tol(target, rel.tail_mass), rel.tail_mass))
    checks.append(_closure_check("recipe/closure-shifted-gauge", rel))

    for a in (1, 2):
        rel = expectation_recipe("boson", "theta", q2, cutoffs, alpha=a)
        sign = rel.rhs_exponent_sign or 1
        target = (1.0 - q2) * q2 ** (sign * a)
        checks.append(_value_check(
            f"recipe/step-gauge-alpha{a}-magnitude",
            f"normalized rhs magnitude = (1-q^2) q^(2*{a})",
            rel.normalized_rhs, target, tol(target, rel.tail_mass), rel.tail_mass))
        checks.append(_info_check(
            f"recipe/step-gauge-alpha{a}-exponent-sign",
            "measured step-projector exponent sign (+1: rhs = (1-q^2) q^(+2 alpha))",
            float(sign)))

    pure = expectation_recipe("phase", "identity", q2, cutoffs,
                              density="pure", pure_level=1)
    dev = max(abs(pure.coeff_plus - 1.0), abs(pure.coeff_minus - 1.0),
              abs(pure.rhs - 1.0))
    checks.append(_residual_check(
        "recipe/algebraic-recovery",
        "pure-state averaging recovers undeformed coefficients (1, 1, 1)",
        dev, 1e-12))
    return checks


def _closure_check(name: str, rel) -> Check:
    family = family_from_relation(rel, cutoff=20)
    lhs = family.lower @ family.raise_ - family.q_squared * (family.raise_ @ family.lower)
    rhs = rel.normalized_rhs * identity_operator(family.space)
    tolerance = max(1e-12, rel.tail_mass)
    return _residual_check(
        name, "family rebuilt from the normalized relation satisfies it",
        relation_residual(lhs, rhs, margin=1), tolerance, rel.tail_mass)


def alpha_suite(cutoff: int, alpha: tuple[int, ...], norm: str) -> list[Check]:
    """Shifted-vacuum boson: kernel size, step commutator, eigenvalues, phase defect."""
    space = make_space([cutoff])
    machine = machine_zero_bound(space)
    checks = []
    for a in alpha:
        boson = alpha_boson(space, 1, a)
        lower = boson.triple.lower.matrix.copy()
        lower.eliminate_zeros()
        zero_cols = int(np.sum(np.diff(lower.tocsc().indptr) == 0))
        checks.append(_value_check(
            f"alpha/kernel-dimension-{a}", "dim ker a(alpha) = alpha + 1",
            float(zero_cols), float(a + 1), 0.0))
        checks.append(_residual_check(
            f"alpha/commutator-step-{a}", "[a(alpha), a+(alpha)] = theta(N - alpha)",
            relation_residual(commutator(boson.triple.lower, boson.triple.raise_),
                              theta_operator(space, 1, a), margin=2, norm=norm),
            machine))
        diag = boson.triple.number.matrix.diagonal().real
        dev = max(abs(diag[space.flat_index([n + a])] - n) for n in range(cutoff - a + 1))
        checks.append(_residual_check(
            f"alpha/number-eigenvalues-{a}", "N(alpha) |n + alpha> = n |n + alpha>",
            float(dev), machine))
        pair = alpha_phase_pair(space, 1, a)
        defect = pair.lower @ pair.raise_ - pair.raise_ @ pair.lower
        checks.append(_residual_check(
            f"alpha/phase-defect-projector-{a}",
            "e(alpha) e+(alpha) - e+(alpha) e(alpha) = |alpha><alpha|",
            relation_residual(defect, number_state_projector(space, 1, a),
                              margin=1, norm=norm),
            0.0))
    return checks


def multimode_suite(q_squared: float, modes: int, cutoff: int, norm: str) -> list[Check]:
    """Covariant family relations, RTT forms, Yang-Baxter, and recipe rows."""
    if modes < 2:
        raise ConfigError("the multimode suite needs --modes >= 2")
    q = math.sqrt(q_squared)
    family = mm.covariant_bosons(modes, q, [cutoff] * modes)
    rmatrix = mm.su_r_matrix(modes, q)
    checks = []
    groups: dict[str, float] = {}
    for name, residual in {**mm.covariant_relation_residuals(family, margin=1, norm=norm),
                           **mm.rtt_residuals(family, rmatrix, margin=1, norm=norm)}.items():
        key = name.split(" ")[0]
        groups[key] = max(groups.get(key, 0.0), residual)
    relation_text = {
        "diagonal": "B-i B+i - q^2 B+i B-i = q^(2 sum_(k<i) Nk)",
        "lower-lower": "B-i B-j = q B-j B-i (i < j)",
        "raise-raise": "q B+i B+j = B+j B+i (i < j)",
        "lower-raise": "B-i B+j = q B+j B-i (i != j)",
    }
    for key in sorted(groups):
        checks.append(_residual_check(
            f"multimode/N{modes}-{key}-max",
            relation_text.get(key, "R-matrix (RTT) form of the relations"), groups[key], 1e-12))
    checks.append(_residual_check(
        f"multimode/N{modes}-undressing",
        "inverse diagonal dressing recovers the independent pairs",
        mm.undressing_residual(family), 1e-13))
    checks.append(_residual_check(
        f"multimode/N{modes}-yang-baxter", "R12 R13 R23 = R23 R13 R12",
        mm.yang_baxter_residual(rmatrix), 1e-12))
    checks.append(_info_check(
        f"multimode/N{modes}-dressing-sign",
        "dressing exponent sign satisfying all relations",
        float(family.dressing_exponent_sign)))

    q2 = q * q
    level_sets = [tuple()] + [tuple([1] * k) for k in range(1, modes)]
    for i, levels in enumerate(level_sets, start=1):
        res = mm.covariant_recipe_check(q2, levels, a_cutoff=60)
        dev = max(abs(res.coeff_plus - res.expected_plus),
                  abs(res.coeff_minus - res.expected_minus),
                  abs(res.rhs - res.expected_rhs))
        tolerance_row = max(1e-10, res.tail_mass)
        checks.append(_residual_check(
            f"multimode/N{modes}-recipe-row-{i}",
            "averaged coefficients reproduce (1, q^2, q^(2 sum levels))",
            dev, tolerance_row, res.tail_mass))
    return checks


def rmatrix_suite(q_squared: float, modes: tuple[int, ...]) -> list[Check]:
    """Entry conventions and the Yang-Baxter identity at each rank in `modes`."""
    if min(modes) < 2:
        raise ConfigError("the rmatrix suite needs --modes >= 2")
    q = math.sqrt(q_squared)
    checks = []
    for n in modes:
        rmatrix = mm.su_r_matrix(n, q)
        dev = 0.0
        for i in range(1, n + 1):
            dev = max(dev, abs(rmatrix.entry(i, i, i, i) - q))
            for j in range(1, n + 1):
                if i != j:
                    dev = max(dev, abs(rmatrix.entry(i, j, i, j) - 1.0))
                if i < j:
                    dev = max(dev, abs(rmatrix.entry(i, j, j, i) - (q - 1.0 / q)))
        checks.append(_residual_check(
            f"rmatrix/entries-n{n}",
            "diagonal q, unit mixed diagonal, q - 1/q coupling below the diagonal",
            dev, 0.0))
        checks.append(_residual_check(
            f"rmatrix/yang-baxter-n{n}", "R12 R13 R23 = R23 R13 R12",
            mm.yang_baxter_residual(rmatrix), 1e-12))
    return checks


def chevalley_suite(q_squared: float, modes: int, cutoff: int, norm: str) -> list[Check]:
    """Cartan-sector identities plus reported ladder brackets per variant/base."""
    if modes < 2:
        raise ConfigError("the chevalley suite needs --modes >= 2")
    q = math.sqrt(q_squared)
    checks = []
    combos = [("typeI_q2", q), ("typeI_q2", q * q), ("typeII_symmetric", q)]
    best = math.inf
    for variant, base in combos:
        report = mm.chevalley_check(modes, q, [cutoff] * modes, variant,
                                    bracket_base=base, norm=norm)
        label = f"{variant}-base={base:g}"
        ef_worst = max(report.ef_residuals.values())
        best = min(best, ef_worst)
        checks.append(_info_check(
            f"chevalley/N{modes}-ef-bracket-{label}",
            "worst residual of [E_i, F_i] - [H_i] (reported per variant/base)",
            ef_worst))
        if variant == "typeII_symmetric":
            for title, res in (("hh", report.hh_residuals),
                               ("cartan-e", report.cartan_e_residuals),
                               ("cartan-f", report.cartan_f_residuals)):
                checks.append(_residual_check(
                    f"chevalley/N{modes}-{title}-max",
                    {"hh": "[H_i, H_j] = 0",
                     "cartan-e": "[H_i, E_j] = A_ij E_j",
                     "cartan-f": "[H_i, F_j] = -A_ij F_j"}[title],
                    max(res.values()), 1e-12))
    checks.append(_residual_check(
        f"chevalley/N{modes}-ef-bracket-best",
        "some (variant, base) realizes [E_i, F_i] = [H_i]",
        best, 1e-10))
    return checks


# -- orchestration --------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    config: dict
    checks: list[Check]
    overall_passed: bool
    wall_time: float


@dataclass(frozen=True)
class Suite:
    """A builder and the flags it honours: `sizes` with this suite's defaults
    (a tuple default runs each entry, a given size its one value) and the
    `settings`, whose defaults SETTINGS shares."""

    build: Callable[..., list[Check]]
    sizes: dict[str, object]
    settings: tuple[str, ...] = ()


# q_squared comes from --q or --epsilon0/--kT (SuiteConfig.resolved_q_squared).
SETTINGS = {"q_squared": 0.5, "tolerance": 1e-10, "margin": "auto", "norm": "spectral"}

SUITE_TABLE = {
    "cuntz": Suite(cuntz_suite, {"cutoff": 32}, ("tolerance", "margin", "norm")),
    "thermal": Suite(thermal_suite, {"cutoff": 80}, ("q_squared", "tolerance")),
    "coherent": Suite(coherent_suite, {"cutoff": 60}),
    "asymptotics": Suite(asymptotics_suite, {"cutoff": 600}),
    "qboson": Suite(qboson_suite, {"qtype": STANDARD_TYPES, "cutoff": 24},
                    ("q_squared", "tolerance")),
    "recipe": Suite(recipe_suite, {"cutoff": 80}, ("q_squared", "tolerance")),
    "alpha": Suite(alpha_suite, {"cutoff": 32, "alpha": (1, 2, 3)}, ("norm",)),
    "multimode": Suite(multimode_suite, {"modes": 3, "cutoff": 8}, ("q_squared", "norm")),
    "rmatrix": Suite(rmatrix_suite, {"modes": (2, 3)}, ("q_squared",)),
    "chevalley": Suite(chevalley_suite, {"modes": 3, "cutoff": 6}, ("q_squared", "norm")),
}

# `--suite all` runs these rows at fixed sizes: the row's own, else the suite's defaults.
ALL_ROWS = (
    ("cuntz", {}), ("thermal", {}), ("coherent", {}), ("asymptotics", {}), ("qboson", {}),
    ("recipe", {}), ("alpha", {}),
    ("multimode", {"modes": 2, "cutoff": 6}), ("multimode", {"modes": 3, "cutoff": 6}),
    ("chevalley", {"modes": 2}), ("chevalley", {"modes": 3}), ("rmatrix", {}),
)

# The flags each suite honours, with their defaults; `all` takes no size and
# each setting one of its rows takes.
SUITE_FLAGS = {name: {**suite.sizes, **{flag: SETTINGS[flag] for flag in suite.settings}}
               for name, suite in SUITE_TABLE.items()}
SUITE_FLAGS["all"] = {flag: default for flag, default in SETTINGS.items()
                      if any(flag in SUITE_TABLE[row].settings for row, _ in ALL_ROWS)}
SUITES = tuple(SUITE_FLAGS)


def _resolve(config: SuiteConfig) -> dict[str, object]:
    """The honoured flags, as given or at their defaults; another given flag raises."""
    if config.suite not in SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}; expected one of {SUITES}")
    flags = SUITE_FLAGS[config.suite]
    for field in fields(SuiteConfig):
        if field.name in ("suite", "fmt", "out") or getattr(config, field.name) is None:
            continue
        if ("q_squared" if field.name in ("q", "epsilon0", "kT") else field.name) not in flags:
            flag = "--tol" if field.name == "tolerance" else f"--{field.name}"
            raise ConfigError(f"--suite {config.suite} does not take {flag}")
    resolved = {}
    for flag, default in flags.items():
        value = config.resolved_q_squared() if flag == "q_squared" else getattr(config, flag)
        if value is None:
            value = default
        elif isinstance(default, tuple):
            value = (value,)
        resolved[flag] = value
    tolerance = resolved.get("tolerance")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"--tol must be a positive finite number, got {tolerance}")
    return resolved


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute the configured suite; deterministic apart from wall_time."""
    resolved = _resolve(config)
    start = time.perf_counter()
    checks = []
    for name, fixed in ALL_ROWS if config.suite == "all" else ((config.suite, {}),):
        checks += SUITE_TABLE[name].build(**{flag: fixed.get(flag, resolved.get(flag, default))
                                             for flag, default in SUITE_FLAGS[name].items()})
    checks.sort(key=lambda c: c.name)
    elapsed = time.perf_counter() - start
    # The deformation source is echoed as given (q, or epsilon0 and kT).
    config_echo = asdict(config) | {flag: value for flag, value in resolved.items()
                                    if flag != "q_squared"}
    return SuiteReport(suite=config.suite, config=config_echo, checks=checks,
                       overall_passed=all(c.passed for c in checks),
                       wall_time=elapsed)


# -- rendering -------------------------------------------------------------------

def report_to_json(report: SuiteReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def report_to_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "relation", "measured", "expected", "residual",
                     "tolerance", "tail_mass", "passed"])
    for c in report.checks:
        writer.writerow([c.name, c.relation,
                         "" if c.measured is None else f"{c.measured:.17g}",
                         "" if c.expected is None else f"{c.expected:.17g}",
                         f"{c.residual:.17g}",
                         "" if c.tolerance is None else f"{c.tolerance:.17g}",
                         f"{c.tail_mass:.17g}", str(c.passed).lower()])
    return buf.getvalue()


def report_to_text(report: SuiteReport) -> str:
    lines = [f"suite: {report.suite}"]
    width = max((len(c.name) for c in report.checks), default=0)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        if c.tolerance is None:
            detail = f"reported value = {c.measured:.6g}"
        elif c.measured is not None:
            detail = (f"measured = {c.measured:.12g}  expected = {c.expected:.12g}  "
                      f"|diff| = {c.residual:.3e}  tol = {c.tolerance:.3e}")
        else:
            detail = f"residual = {c.residual:.3e}  tol = {c.tolerance:.3e}"
        lines.append(f"{status}  {c.name:<{width}}  {detail}")
    lines.append(f"overall: {'PASS' if report.overall_passed else 'FAIL'} "
                 f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks, "
                 f"{report.wall_time:.2f}s)")
    return "\n".join(lines) + "\n"


def render_report(report: SuiteReport, fmt: str) -> str:
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return report_to_csv(report)
    if fmt == "text":
        return report_to_text(report)
    raise ConfigError(f"unknown format {fmt!r}; expected json, csv, or text")
