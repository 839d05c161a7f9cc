"""Deterministic verification suites with machine-readable reports.

Each suite evaluates a fixed set of named checks; a check either measures a
scalar against a closed form or measures an operator-identity residual on a
truncation-safe subspace.  Reports are assembled in check-name order, carry
the full configuration echo, and are byte-stable across runs apart from the
wall_time field.  Nothing in the toolkit draws random numbers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass

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

SUITES = ("cuntz", "thermal", "coherent", "asymptotics", "qboson", "recipe",
          "alpha", "multimode", "rmatrix", "chevalley", "all")


class ConfigError(ValueError):
    """Invalid or inconsistent suite configuration."""


@dataclass
class SuiteConfig:
    suite: str
    cutoff: int | None = None
    q: float | None = None
    epsilon0: float | None = None
    kT: float | None = None
    alpha: int | None = None
    modes: int | None = None
    qtype: str | None = None
    tolerance: float = 1e-10
    margin: int | str = "auto"
    norm: str = "spectral"
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
        return 0.5


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

def cuntz_suite(cutoff: int = 32, margin: int | str = "auto", norm: str = "spectral",
                tolerance: float = 1e-10) -> list[Check]:
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
    checks = []
    for name, relation, lhs, rhs, mg in specs:
        checks.append(_residual_check(name, relation,
                                      relation_residual(lhs, rhs, mg, norm=norm), tolerance))
    return checks


def thermal_suite(q_squared: float, cutoff: int = 80,
                  tolerance_floor: float = 1e-10) -> list[Check]:
    """Geometric-state expectations against their closed forms.

    Tolerance per check is analytic_value * max(floor, tail_mass); the lost
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
        return analytic * max(tolerance_floor, tail)

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


def coherent_suite(cutoff: int = 60, z_values=(1.0, 2.0, 2.0j)) -> list[Check]:
    """Eigenvector residual, mean occupation, and Poisson statistics."""
    space = make_space([cutoff])
    triple = ladder(space, 1)
    n_max = min(40, cutoff - 5)
    checks = []
    for z in z_values:
        z = complex(z)
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


def asymptotics_suite(cutoff: int = 600, z_values=(4.0, 6.0, 8.0, 12.0)) -> list[Check]:
    """Two-route agreement and large-amplitude error behavior of <z|e|z>."""
    space = make_space([cutoff])
    rows = phase_asymptotics(z_values, cutoff)
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


def qboson_suite(q_squared: float, qtype: str | None = None, cutoff: int = 24,
                 tolerance: float = 1e-10) -> list[Check]:
    """Defining relations and closed-form magnitude sequences of the four families.

    For the growing targets (types II and IV) the effective cutoff is capped
    so float round-off stays below the tolerance; the capped value appears in
    the relation text.
    """
    types = STANDARD_TYPES if qtype is None else (qtype,)
    checks = []
    for t in types:
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


def recipe_suite(q_squared: float, cutoff: int = 80, b_cutoff: int = 8,
                 tolerance_floor: float = 1e-10) -> list[Check]:
    """Averaged two-mode relations against their normalized targets."""
    q2 = q_squared
    checks = []

    def tol(analytic: float, tail: float) -> float:
        return abs(analytic) * max(tolerance_floor, tail)

    rel = expectation_recipe("phase", "identity", q2, (cutoff, b_cutoff))
    checks.append(_value_check("recipe/shift-gauge-q2",
                               "coeff ratio <e+ e>/<e e+> = q^2",
                               rel.q_squared_effective, q2, tol(q2, rel.tail_mass),
                               rel.tail_mass))
    checks.append(_value_check("recipe/shift-gauge-rhs",
                               "normalized rhs = 1 (unit-target family)",
                               rel.normalized_rhs, 1.0, tol(1.0, rel.tail_mass),
                               rel.tail_mass))
    checks.append(_closure_check("recipe/closure-shift-gauge", rel))

    rel = expectation_recipe("boson", "identity", q2, (cutoff, b_cutoff))
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
        rel = expectation_recipe("alpha_phase", "identity", q2, (cutoff, b_cutoff), alpha=a)
        target = q2 ** (-a)
        checks.append(_value_check(
            f"recipe/shifted-gauge-alpha{a}-rhs",
            f"normalized rhs = q^(-2*{a})",
            rel.normalized_rhs, target, tol(target, rel.tail_mass), rel.tail_mass))
    checks.append(_closure_check("recipe/closure-shifted-gauge", rel))

    for a in (1, 2):
        rel = expectation_recipe("boson", "theta", q2, (cutoff, b_cutoff), alpha=a)
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

    pure = expectation_recipe("phase", "identity", q2, (cutoff, b_cutoff),
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


def alpha_suite(cutoff: int = 32, alphas=(1, 2, 3), norm: str = "spectral") -> list[Check]:
    """Shifted-vacuum boson: kernel size, step commutator, eigenvalues, phase defect."""
    space = make_space([cutoff])
    machine = machine_zero_bound(space)
    checks = []
    for a in alphas:
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


def multimode_suite(modes: int = 3, q: float = 0.5, cutoff: int = 8,
                    tolerance: float = 1e-12, norm: str = "spectral") -> list[Check]:
    """Covariant family relations, RTT forms, Yang-Baxter, and recipe rows."""
    if modes < 2:
        raise ConfigError("the multimode suite needs --modes >= 2")
    family = mm.covariant_bosons(modes, q, [cutoff] * modes)
    checks = []
    groups: dict[str, float] = {}
    for name, residual in mm.covariant_relation_residuals(family, margin=1, norm=norm).items():
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
            f"multimode/N{modes}-{key}-max", relation_text[key], groups[key], tolerance))
    rmatrix = mm.su_r_matrix(modes, q)
    rtt_groups: dict[str, float] = {}
    for name, residual in mm.rtt_residuals(family, rmatrix, margin=1, norm=norm).items():
        key = name.split(" ")[0]
        rtt_groups[key] = max(rtt_groups.get(key, 0.0), residual)
    for key in sorted(rtt_groups):
        checks.append(_residual_check(
            f"multimode/N{modes}-{key}-max", "R-matrix (RTT) form of the relations",
            rtt_groups[key], tolerance))
    checks.append(_residual_check(
        f"multimode/N{modes}-undressing",
        "inverse diagonal dressing recovers the independent pairs",
        mm.undressing_residual(family), 1e-13))
    checks.append(_residual_check(
        f"multimode/N{modes}-yang-baxter", "R12 R13 R23 = R23 R13 R12",
        mm.yang_baxter_residual(rmatrix), tolerance))
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


def rmatrix_suite(ns=(2, 3), q: float = 0.5) -> list[Check]:
    """Entry conventions and the Yang-Baxter identity."""
    checks = []
    for n in ns:
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


def chevalley_suite(modes: int = 3, q: float = 0.5, cutoff: int = 6,
                    norm: str = "spectral") -> list[Check]:
    """Cartan-sector identities plus reported ladder brackets per variant/base."""
    if modes < 2:
        raise ConfigError("the chevalley suite needs --modes >= 2")
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

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "overall_passed": self.overall_passed,
            "wall_time": self.wall_time,
        }


def _suite_checks(config: SuiteConfig) -> list[Check]:
    name = config.suite
    q2 = config.resolved_q_squared()
    q = math.sqrt(q2)
    tol = config.tolerance
    margin = config.margin
    norm = config.norm

    # An explicit value, even an invalid one such as 0, reaches the suite's
    # own validation; only an absent one takes the suite's default.
    def cutoff(default: int) -> int:
        return default if config.cutoff is None else config.cutoff

    def modes(default: int) -> int:
        return default if config.modes is None else config.modes

    if name == "cuntz":
        return cuntz_suite(cutoff(32), margin, norm, tol)
    if name == "thermal":
        return thermal_suite(q2, cutoff(80), tol)
    if name == "coherent":
        return coherent_suite(cutoff(60))
    if name == "asymptotics":
        return asymptotics_suite(cutoff(600))
    if name == "qboson":
        return qboson_suite(q2, config.qtype, cutoff(24), tol)
    if name == "recipe":
        return recipe_suite(q2, cutoff(80), tolerance_floor=tol)
    if name == "alpha":
        if config.alpha is not None:
            return alpha_suite(cutoff(32), alphas=(config.alpha,), norm=norm)
        return alpha_suite(cutoff(32), norm=norm)
    if name == "multimode":
        return multimode_suite(modes(3), q, cutoff(8), norm=norm)
    if name == "rmatrix":
        return rmatrix_suite((2, 3) if config.modes is None else (config.modes,), q)
    if name == "chevalley":
        return chevalley_suite(modes(3), q, cutoff(6), norm=norm)
    if name == "all":
        for flag in ("cutoff", "modes", "alpha", "qtype"):
            if getattr(config, flag) is not None:
                raise ConfigError(f"--suite all runs fixed sizes and does not take --{flag}")
        checks = []
        checks += cuntz_suite(32, margin, norm, tol)
        checks += thermal_suite(q2, 80, tol)
        checks += coherent_suite(60)
        checks += asymptotics_suite(600)
        checks += qboson_suite(q2, None, 24, tol)
        checks += recipe_suite(q2, 80, tolerance_floor=tol)
        checks += alpha_suite(32, norm=norm)
        for n in (2, 3):
            checks += multimode_suite(n, q, 6, norm=norm)
            checks += chevalley_suite(n, q, 6, norm=norm)
        checks += rmatrix_suite((2, 3), q)
        return checks
    raise ConfigError(f"unknown suite {name!r}; expected one of {SUITES}")


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute the configured suite; deterministic apart from wall_time."""
    if config.suite not in SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}; expected one of {SUITES}")
    if not (math.isfinite(config.tolerance) and config.tolerance > 0):
        raise ConfigError(f"--tol must be a positive finite number, got {config.tolerance}")
    start = time.perf_counter()
    checks = sorted(_suite_checks(config), key=lambda c: c.name)
    elapsed = time.perf_counter() - start
    config_echo = {k: v for k, v in asdict(config).items()}
    return SuiteReport(suite=config.suite, config=config_echo, checks=checks,
                       overall_passed=all(c.passed for c in checks),
                       wall_time=elapsed)


# -- rendering -------------------------------------------------------------------

def report_to_json(report: SuiteReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


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
