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
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import multimode as mm
from .densities import (
    TruncationAccuracyError,
    coherent_state,
    phase_asymptotics,
    poisson_probability,
    pure_density,
    shift_expectation_matrix,
    thermal_density,
)
from .fock import (
    _RUN_VALUES,
    DimensionLimitError,
    _run_once,
    basis_state,
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
    OverflowGuardError,
    averaged_relation,
    beta_closed_form,
    defining_relation_residual,
    family_from_relation,
    precision_capped_cutoff,
    recipe_relations,
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
            q_squared, given = self.q * self.q, f"--q {self.q}"
        elif pair_given:
            if self.epsilon0 is None or self.kT is None:
                raise ConfigError("--epsilon0 and --kT must be given together")
            if not (self.epsilon0 > 0 and self.kT > 0):
                raise ConfigError(f"--epsilon0 and --kT must be positive, "
                                  f"got {self.epsilon0} and {self.kT}")
            # The map q^2 = exp(-epsilon0 / kT), taken here so a refusal names the flags.
            q_squared = math.exp(-self.epsilon0 / self.kT)
            given = f"--epsilon0 {self.epsilon0} --kT {self.kT}"
        else:
            return SETTINGS["q_squared"]
        # A q^2 that underflows to 0 or rounds to 1 leaves the deformed families undefined.
        if not 0.0 < q_squared < 1.0:
            raise ConfigError(f"q^2 from {given} is {q_squared} in floating point, "
                              f"outside (0, 1)")
        return q_squared


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


def _check(name: str, relation: str, residual: float, tolerance: float | None,
           measured: float | None = None, expected: float | None = None,
           tail_mass: float = 0.0, strict: bool = False) -> Check:
    """The one way to make a Check: it passes when residual <= tolerance
    (< when `strict`), and always when the tolerance is None."""
    residual = float(residual)
    tolerance = None if tolerance is None else float(tolerance)
    passed = tolerance is None or (residual < tolerance if strict else residual <= tolerance)
    return Check(name=name, relation=relation,
                 measured=None if measured is None else float(measured),
                 expected=None if expected is None else float(expected),
                 residual=residual, tolerance=tolerance, tail_mass=float(tail_mass),
                 passed=bool(passed))


# The multimode and chevalley suites may hold this many complex entries at once
# (720 MB); README's suite notes give the operator counts and their measurement.
HELD_ENTRY_LIMIT = 45_000_000


def _check_held_operators(suite: str, held: int, modes: int, cutoff: int) -> None:
    """Refuse `held` operators of (cutoff + 1)^modes entries past HELD_ENTRY_LIMIT."""
    entries = held
    for _ in range(modes):
        entries *= cutoff + 1
        if entries > HELD_ENTRY_LIMIT:
            raise ConfigError(
                f"the {suite} suite holds {held} operators of (cutoff + 1)^modes entries "
                f"at once, more than {HELD_ENTRY_LIMIT} in all: got --modes {modes} "
                f"--cutoff {cutoff}")


# -- individual suites ---------------------------------------------------------

def cuntz_suite(cutoff: int, margin: int | str, norm: str, tolerance: float) -> list[Check]:
    """Boson commutator, polar decomposition, shift products, shift commutators."""
    if margin == "auto" and cutoff < 3:
        raise ConfigError(f"the cuntz suite needs --cutoff >= 3, got {cutoff}")
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
    return [_check(name, relation, relation_residual(lhs, rhs, mg, norm=norm), tolerance)
            for name, relation, lhs, rhs, mg in specs]


def thermal_suite(q_squared: float, cutoff: int, tolerance: float) -> list[Check]:
    """Geometric-state expectations against their closed forms.

    Tolerance per check is analytic_value * max(tolerance, tail_mass); the lost
    tail bounds the truncation error of the bounded observables.  The
    occupation-weighted observables can exceed that budget by a factor of
    order cutoff when the tail dominates the floor (see README).
    """
    if cutoff < 3:
        raise ConfigError(f"the thermal suite needs --cutoff >= 3, got {cutoff}")
    space = make_space([cutoff])
    rho = thermal_density(space, 1, q_squared)
    tail = rho.tail_mass
    triple = ladder(space, 1)
    pair = phase_pair(space, 1)
    q2 = q_squared

    def value(name: str, relation: str, factors, analytic: float) -> Check:
        measured = expectation(rho, *factors).real
        return _check(f"thermal/{name}", relation, abs(measured - analytic),
                      analytic * max(tolerance, tail), measured, analytic, tail)

    checks = [
        value("mean-occupation", "<a+ a> = q^2/(1-q^2)",
              (triple.raise_, triple.lower), q2 / (1 - q2)),
        value("antinormal-occupation", "<a a+> = 1/(1-q^2)",
              (triple.lower, triple.raise_), 1 / (1 - q2)),
    ]
    lo_pow, hi_pow = pair.lower, pair.raise_
    for a in (1, 2, 3):
        checks.append(value(f"shift-ratio-normal-{a}", f"<e+^{a} e^{a}> = q^(2*{a})",
                            (hi_pow, lo_pow), q2 ** a))
        checks.append(value(f"shift-ratio-antinormal-{a}", f"<e^{a} e+^{a}> = 1",
                            (lo_pow, hi_pow), 1.0))
        lo_pow = lo_pow @ pair.lower
        hi_pow = hi_pow @ pair.raise_
    for a in (0, 1, 2, 3):
        checks.append(value(f"step-weight-{a}", f"<theta(N-{a})> = q^(2*{a})",
                            (theta_operator(space, 1, a),), q2 ** a))
    return checks


def _z_label(z: complex) -> str:
    """Label of a real or purely imaginary amplitude."""
    return f"{z.real:g}" if z.imag == 0 else f"{z.imag:g}j"


def coherent_suite(cutoff: int) -> list[Check]:
    """Eigenvector residual, mean occupation, and Poisson statistics."""
    # The 1e-8 eigen-residual row at |z| = 2 first passes at cutoff 31 (the
    # coherent_state guard |z|^2 <= cutoff / 4 alone would allow 16).
    if cutoff < 31:
        raise ConfigError(f"the coherent suite needs --cutoff >= 31, got {cutoff}")
    space = make_space([cutoff])
    triple = ladder(space, 1)
    n_max = min(40, cutoff - 5)
    checks = []
    for z in (1.0 + 0j, 2.0 + 0j, 2.0j):
        label = _z_label(z)
        state = coherent_state(space, 1, z)
        shifted = triple.lower.apply(state).amplitudes - z * state.amplitudes
        checks.append(_check(
            f"coherent/eigen-residual-z={label}", "a|z> = z|z>",
            np.linalg.norm(shifted), 1e-8))
        mean_n = state.inner(triple.number.apply(state)).real
        checks.append(_check(
            f"coherent/mean-number-z={label}", "<z|N|z> = |z|^2",
            abs(mean_n - abs(z) ** 2), 1e-8, mean_n, abs(z) ** 2))
        probs = (np.abs(state.amplitudes) ** 2)[:n_max + 1].tolist()
        dev = max(abs(p - poisson_probability(z, n)) for n, p in enumerate(probs))
        checks.append(_check(
            f"coherent/poisson-max-deviation-z={label}",
            "|<n|z>|^2 = exp(-|z|^2) |z|^(2n) / n!", dev, 1e-10))
    return checks


def asymptotics_suite(cutoff: int) -> list[Check]:
    """Two-route agreement and large-amplitude error behavior of <z|e|z>."""
    if cutoff < 576:  # phase_asymptotics needs cutoff >= 4 |z|^2 at |z| = 12
        raise ConfigError(f"the asymptotics suite needs --cutoff >= 576, got {cutoff}")
    space = make_space([cutoff])
    rows = phase_asymptotics((4.0, 6.0, 8.0, 12.0), cutoff)
    checks = []
    errors = []
    for row in rows:
        label = _z_label(row.z)
        matrix_value = shift_expectation_matrix(space, 1, row.z)
        checks.append(_check(
            f"asymptotics/series-vs-matrix-z={label}",
            "series and matrix evaluations of <z|e|z> agree",
            abs(row.exact - matrix_value), 1e-12))
        err_lead = abs(row.exact - row.leading)
        checks.append(_check(
            f"asymptotics/correction-beats-leading-z={label}",
            "|exact - (z/|z|)(1 - 1/(8|z|^2))| < |exact - z/|z||",
            row.abs_error, err_lead, row.abs_error, err_lead, strict=True))
        errors.append((abs(row.z), row.abs_error))
    errors.sort()
    for (z0, e0), (z1, e1) in zip(errors, errors[1:]):
        checks.append(_check(
            f"asymptotics/error-decreasing-|z|={z0:g}-to-{z1:g}",
            "first-correction error decreases with |z|", e1, e0, e1, e0, strict=True))
    return checks


def qboson_suite(q_squared: float, qtype: tuple[str, ...], cutoff: int,
                 tolerance: float) -> list[Check]:
    """Defining relations and closed-form magnitude sequences of the given families.

    For the growing targets (types II and IV) the effective cutoff is capped so float
    round-off stays below the tolerance (precision_capped_cutoff); the capped value appears
    in the relation text, and a tolerance the round-off passes already at cutoff 2 is refused.
    """
    if cutoff < 2:
        raise ConfigError(f"the qboson suite needs --cutoff >= 2, got {cutoff}")
    caps = [precision_capped_cutoff(q_squared, t, cutoff, tolerance) for t in qtype]
    if short := [t for t, eff in zip(qtype, caps) if eff < 2]:
        raise ConfigError(f"the qboson suite cannot hold --tol {tolerance:g} for type "
                          f"{', '.join(short)} at --q {math.sqrt(q_squared):g}, even at cutoff 2")
    checks = []
    for t, eff in zip(qtype, caps):
        family = standard_qboson(t, q_squared, eff)
        checks.append(_check(
            f"qboson/defining-relation-{t}",
            f"B- B+ - q^2 B+ B- = rhs_{t}(N) at cutoff {eff}",
            defining_relation_residual(family, margin=1, norm="spectral"), tolerance))
        closed = np.array([beta_closed_form(t, q_squared, n) for n in range(eff + 1)])
        dev = float(np.max(np.abs(family.beta - closed) / (1.0 + np.abs(closed))))
        checks.append(_check(
            f"qboson/beta-closed-form-{t}",
            f"recursion magnitudes match the geometric closed form (cutoff {eff})",
            dev, 1e-12))
    return checks


def recipe_suite(q_squared: float, cutoff: int, tolerance: float) -> list[Check]:
    """Averaged two-mode relations against their normalized targets."""
    if cutoff < 1:
        raise ConfigError(f"the recipe suite needs --cutoff >= 1, got {cutoff}")
    q2 = q_squared

    def value(name: str, relation: str, measured: float, target: float, rel) -> Check:
        return _check(f"recipe/{name}", relation, abs(measured - target),
                      abs(target) * max(tolerance, rel.tail_mass), measured, target, rel.tail_mass)

    # One thermal x vacuum average serves the shift, boson, shifted and step gauges.
    requests = [("phase", "identity", 0), ("boson", "identity", 0),
                *(("alpha_phase", "identity", a) for a in (0, 1, 2)),
                *(("boson", "theta", a) for a in (1, 2))]
    try:
        shift, boson, *shifted, step1, step2 = relations = recipe_relations(q2, cutoff, requests)
    except TruncationAccuracyError as exc:
        raise ConfigError(f"the recipe suite needs a larger --cutoff: {exc}") from exc
    checks = [
        value("shift-gauge-q2", "coeff ratio <e+ e>/<e e+> = q^2",
              shift.q_squared_effective, q2, shift),
        value("shift-gauge-rhs", "normalized rhs = 1 (unit-target family)",
              shift.normalized_rhs, 1.0, shift),
        _closure_check("recipe/closure-shift-gauge", shift),
        value("boson-gauge-q2", "coeff ratio <a+ a>/<a a+> = q^2",
              boson.q_squared_effective, q2, boson),
        value("boson-gauge-rhs", "normalized rhs = 1 - q^2",
              boson.normalized_rhs, 1.0 - q2, boson),
        _closure_check("recipe/closure-boson-gauge", boson)]

    for a, rel in enumerate(shifted):
        checks.append(value(f"shifted-gauge-alpha{a}-rhs", f"normalized rhs = q^(-2*{a})",
                            rel.normalized_rhs, q2 ** (-a), rel))
    checks.append(_closure_check("recipe/closure-shifted-gauge", shifted[-1]))

    for a, rel in ((1, step1), (2, step2)):
        checks.append(value(f"step-gauge-alpha{a}-magnitude",
                            f"normalized rhs magnitude = (1-q^2) q^(2*{a})",
                            rel.normalized_rhs, (1.0 - q2) * q2 ** a, rel))
        checks.append(_check(
            f"recipe/step-gauge-alpha{a}-exponent-sign",
            "measured step-projector exponent sign (+1: rhs = (1-q^2) q^(+2 alpha))",
            0.0, None, rel.rhs_exponent_sign))

    space, pair = relations.space, relations.pairs[0]
    pure = averaged_relation(pure_density(basis_state(space, [1])), pair.lower,
                             pair.raise_, identity_operator(space))
    dev = max(abs(pure.coeff_plus - 1.0), abs(pure.coeff_minus - 1.0),
              abs(pure.rhs - 1.0))
    checks.append(_check(
        "recipe/algebraic-recovery",
        "pure-state averaging recovers undeformed coefficients (1, 1, 1)",
        dev, 1e-12))
    return checks


def _closure_check(name: str, rel) -> Check:
    return _check(
        name, "family rebuilt from the normalized relation satisfies it",
        defining_relation_residual(family_from_relation(rel, cutoff=20), margin=1),
        max(1e-12, rel.tail_mass), tail_mass=rel.tail_mass)


def alpha_suite(cutoff: int, alpha: tuple[int, ...], norm: str) -> list[Check]:
    """Shifted-vacuum boson: kernel size, step commutator, eigenvalues, phase defect."""
    if min(alpha) < 0:
        raise ConfigError(f"--alpha must be >= 0, got {min(alpha)}")
    need = max(3, max(alpha) + 2)  # margin 2 below the cutoff, alpha <= cutoff - 2
    if cutoff < need:
        raise ConfigError(f"the alpha suite needs --cutoff >= {need}, got {cutoff}")
    space = make_space([cutoff])
    machine = machine_zero_bound(space)
    checks = []
    for a in alpha:
        boson = alpha_boson(space, 1, a)
        # N(alpha) = a+(alpha) a(alpha) has diagonal |column|^2 of lower: zero on the kernel.
        number = boson.raise_ @ boson.lower
        zero_cols = int(np.count_nonzero(number.diagonal() == 0))
        checks.append(_check(
            f"alpha/kernel-dimension-{a}", "dim ker a(alpha) = alpha + 1",
            abs(zero_cols - (a + 1)), 0.0, zero_cols, a + 1))
        checks.append(_check(
            f"alpha/commutator-step-{a}", "[a(alpha), a+(alpha)] = theta(N - alpha)",
            relation_residual(commutator(boson.lower, boson.raise_),
                              theta_operator(space, 1, a), margin=2, norm=norm),
            machine))
        eigenvalues = number.diagonal().real[a:].tolist()
        dev = max(abs(value - n) for n, value in enumerate(eigenvalues))
        checks.append(_check(
            f"alpha/number-eigenvalues-{a}", "N(alpha) |n + alpha> = n |n + alpha>",
            dev, machine))
        pair = alpha_phase_pair(space, 1, a)
        defect = pair.lower @ pair.raise_ - pair.raise_ @ pair.lower
        checks.append(_check(
            f"alpha/phase-defect-projector-{a}",
            "e(alpha) e+(alpha) - e+(alpha) e(alpha) = |alpha><alpha|",
            relation_residual(defect, number_state_projector(space, 1, a),
                              margin=1, norm=norm),
            0.0))
    return checks


def multimode_suite(q_squared: float, modes: int, cutoff: int, norm: str) -> list[Check]:
    """Covariant family relations, RTT forms, Yang-Baxter, and recipe rows."""
    if modes < 2:
        raise ConfigError(f"the multimode suite needs --modes >= 2, got {modes}")
    if cutoff < 2:
        raise ConfigError(f"the multimode suite needs --cutoff >= 2, got {cutoff}")
    _check_held_operators("multimode", modes * modes + 5 * modes + 6, modes, cutoff)
    q, cutoffs = math.sqrt(q_squared), (cutoff,) * modes
    groups = mm.worst_by_relation(mm.covariant_check(modes, q, cutoffs, margin=1, norm=norm))
    family = _run_once(mm.covariant_bosons, modes, q, cutoffs)
    relation_text = {
        "diagonal": "B-i B+i - q^2 B+i B-i = q^(2 sum_(k<i) Nk)",
        "lower-lower": "B-i B-j = q B-j B-i (i < j)",
        "raise-raise": "q B+i B+j = B+j B+i (i < j)",
        "lower-raise": "B-i B+j = q B+j B-i (i != j)",
    }
    checks = [_check(f"multimode/N{modes}-{key}-max",
                     relation_text.get(key, "R-matrix (RTT) form of the relations"),
                     groups[key], 1e-12) for key in sorted(groups)]
    checks.append(_check(
        f"multimode/N{modes}-undressing",
        "inverse diagonal dressing recovers the independent pairs",
        mm.undressing_residual(family), 1e-13))
    checks.append(_check(
        f"multimode/N{modes}-yang-baxter", "R12 R13 R23 = R23 R13 R12",
        _run_once(_yang_baxter, modes, q), 1e-12))
    checks.append(_check(
        f"multimode/N{modes}-dressing-sign",
        "dressing exponent sign satisfying all relations",
        0.0, None, family.dressing_exponent_sign))

    q2 = q * q
    level_sets = [tuple()] + [tuple([1] * k) for k in range(1, modes)]
    for i, levels in enumerate(level_sets, start=1):
        res = _run_once(mm.covariant_recipe_check, q2, levels)
        dev = max(abs(res.coeff_plus - 1.0), abs(res.coeff_minus - q2),
                  abs(res.rhs - q2 ** sum(levels)))
        tolerance_row = max(1e-10, res.tail_mass)
        checks.append(_check(
            f"multimode/N{modes}-recipe-row-{i}",
            "averaged coefficients reproduce (1, q^2, q^(2 sum levels))",
            dev, tolerance_row, tail_mass=res.tail_mass))
    return checks


def rmatrix_suite(q_squared: float, modes: tuple[int, ...]) -> list[Check]:
    """Entry conventions and the Yang-Baxter identity at each rank in `modes`."""
    for n in modes:
        if not 2 <= n <= mm.RANK_LIMIT:
            bound = ">= 2" if n < 2 else f"<= {mm.RANK_LIMIT}"
            raise ConfigError(f"the rmatrix suite needs --modes {bound}, got {n}")
    q = math.sqrt(q_squared)
    checks = []
    for n in modes:
        R, dev = _run_once(mm.su_r_matrix, n, q).entries.reshape((n,) * 4), 0.0
        for i in range(n):
            dev = max(dev, abs(R[i, i, i, i] - q))
            for j in range(i + 1, n):
                dev = max(dev, abs(R[i, j, i, j] - 1.0), abs(R[j, i, j, i] - 1.0),
                          abs(R[i, j, j, i] - (q - 1.0 / q)))
        checks.append(_check(
            f"rmatrix/entries-n{n}",
            "diagonal q, unit mixed diagonal, q - 1/q coupling above the diagonal",
            dev, 0.0))
        checks.append(_check(
            f"rmatrix/yang-baxter-n{n}", "R12 R13 R23 = R23 R13 R12",
            _run_once(_yang_baxter, n, q), 1e-12))
    return checks


def _yang_baxter(n: int, q: float) -> float:
    return mm.yang_baxter_residual(_run_once(mm.su_r_matrix, n, q))


def chevalley_suite(q_squared: float, modes: int, cutoff: int, norm: str) -> list[Check]:
    """Cartan-sector identities plus reported ladder brackets per variant/base."""
    if modes < 2:
        raise ConfigError(f"the chevalley suite needs --modes >= 2, got {modes}")
    if cutoff < 3:
        raise ConfigError(f"the chevalley suite needs --cutoff >= 3, got {cutoff}")
    _check_held_operators("chevalley", modes * modes + 2 * modes + 4, modes, cutoff)
    q, cutoffs = math.sqrt(q_squared), (cutoff,) * modes
    # The symmetric variant gives the Cartan-sector rows; the unit-target one two brackets.
    sym = mm.worst_by_relation(mm.chevalley_check(modes, q, cutoffs, "typeII_symmetric", norm=norm))
    unit = mm.worst_by_relation(mm.chevalley_check(modes, q, cutoffs, "typeI_q2", (q, q * q), norm,
                                                   cartan=False))
    brackets = {("typeI_q2", base): unit[f"ef-bracket base={base!r}"] for base in (q, q * q)}
    brackets["typeII_symmetric", q] = sym[f"ef-bracket base={q!r}"]
    checks = [_check(f"chevalley/N{modes}-{title}-max", relation, sym[title], 1e-12)
              for title, relation in (("hh", "[H_i, H_j] = 0"),
                                      ("cartan-e", "[H_i, E_j] = A_ij E_j"),
                                      ("cartan-f", "[H_i, F_j] = -A_ij F_j"))]
    for (variant, base), worst in brackets.items():
        checks.append(_check(
            f"chevalley/N{modes}-ef-bracket-{variant}-base={base:g}",
            "worst residual of [E_i, F_i] - [H_i] (reported per variant/base)",
            0.0, None, worst))
    best = min(brackets.values())
    checks.append(_check(
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
    run_values = _RUN_VALUES.set({})  # what the rows share; nothing outlives the run
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan off a safe block is dropped
            for name, fixed in ALL_ROWS if config.suite == "all" else ((config.suite, {}),):
                checks += SUITE_TABLE[name].build(**{flag: fixed.get(flag, resolved.get(flag, d))
                                                     for flag, d in SUITE_FLAGS[name].items()})
    except DimensionLimitError as exc:  # refused by make_space before any array is built
        raise ConfigError(f"the {name} suite needs a smaller --cutoff: {exc}") from exc
    except OverflowGuardError as exc:  # a growing rhs past the guard at this q and cutoff
        raise ConfigError(f"the {name} suite needs a larger --q or a smaller --cutoff: "
                          f"{exc}") from exc
    except OverflowError as exc:  # a float past its range at this q, whatever the cutoff
        raise ConfigError(f"the {name} suite needs a larger --q: {exc}") from exc
    finally:
        _RUN_VALUES.reset(run_values)
    checks.sort(key=lambda c: c.name)
    elapsed = time.perf_counter() - start
    # The deformation source is echoed as given (q, or epsilon0 and kT).
    config_echo = vars(config) | {flag: value for flag, value in resolved.items()
                                    if flag != "q_squared"}
    return SuiteReport(suite=config.suite, config=config_echo, checks=checks,
                       overall_passed=all(c.passed for c in checks),
                       wall_time=elapsed)


# -- rendering -------------------------------------------------------------------

def report_to_json(report: SuiteReport) -> str:
    """The bytes of json.dumps(report, default=vars, indent=2, sort_keys=True) + "\n",
    without its pure-Python indenting encoder: one C-encoder call indents each field, and
    each raw "},\n      {" between checks (no string holds a raw newline) indents theirs."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
    flat = encoder.encode([vars(c) for c in report.checks])[2:-2]  # without "[{" and "}]"
    listed = ("[\n    {\n      " + flat.replace("},\n      {", "\n    },\n    {\n      ")
              + "\n    }\n  ]") if report.checks else "[]"
    rest = json.dumps({name: value for name, value in vars(report).items() if name != "checks"},
                      indent=2, sort_keys=True)
    return '{\n  "checks": ' + listed + "," + rest[1:] + "\n"  # "checks" sorts first


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
