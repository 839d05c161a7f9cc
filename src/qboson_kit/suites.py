"""Deterministic verification suites with machine-readable reports.

Each suite yields its named rows as data, one Spec each, and one evaluator
turns each into a Check: a scalar measured against a closed form, or an
operator-identity residual on a truncation-safe subspace, against a tolerance
of a named bound kind.  Reports are assembled in check-name order, echo
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
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, fields

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
    LinearOperator,
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


@dataclass
class Spec:
    """One report row as data, which _evaluate turns into its Check.

    The residual is relation_residual(lhs, rhs, margin, norm) when `lhs` is given, else
    `residual` when given, else |measured - expected|.  The tolerance is the `bound` kind
    applied to `limit` (README, accuracy model):
      "constant"      limit itself: --tol, a literal or exact 0;
      "machine-zero"  machine_zero_bound(limit), `limit` being the space;
      "tail-budget"   |expected| * max(limit, tail_mass);
      "tail-floor"    max(limit, tail_mass);
      "below"         expected, which the residual must stay strictly below;
      None            no tolerance: an informational row, which always passes.
    """

    name: str
    relation: str
    bound: str | None
    limit: object = None
    residual: float | None = None
    measured: float | None = None
    expected: float | None = None
    tail_mass: float = 0.0
    lhs: LinearOperator | None = None
    rhs: LinearOperator | None = None
    margin: int = 0
    norm: str = "spectral"


def _evaluate(spec: Spec) -> Check:
    """The one way to make a Check: it passes when residual <= tolerance (< for "below"),
    and always when the tolerance is None."""
    if spec.lhs is not None:
        residual = relation_residual(spec.lhs, spec.rhs, spec.margin, norm=spec.norm)
    elif spec.residual is not None:
        residual = spec.residual
    else:
        residual = abs(spec.measured - spec.expected)
    tolerance = spec.limit
    if spec.bound == "machine-zero":
        tolerance = machine_zero_bound(spec.limit)
    elif spec.bound == "tail-budget":
        tolerance = abs(spec.expected) * max(spec.limit, spec.tail_mass)
    elif spec.bound == "tail-floor":
        tolerance = max(spec.limit, spec.tail_mass)
    elif spec.bound == "below":
        tolerance = spec.expected
    residual = float(residual)
    tolerance = None if tolerance is None else float(tolerance)
    passed = tolerance is None or (residual < tolerance if spec.bound == "below"
                                   else residual <= tolerance)
    return Check(name=spec.name, relation=spec.relation,
                 measured=None if spec.measured is None else float(spec.measured),
                 expected=None if spec.expected is None else float(spec.expected),
                 residual=residual, tolerance=tolerance, tail_mass=float(spec.tail_mass),
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


@contextmanager
def _refused(subject: str, flags) -> Iterator[None]:
    """Refuse a size or a q past what the run or dump can hold, naming the flags to change:
    `subject` ("the recipe suite", "--op a") and the size flags among `flags`."""
    try:
        yield
    except DimensionLimitError as exc:  # refused by make_space before any array is built
        raise ConfigError(f"{subject} needs a smaller --cutoff: {exc}") from exc
    except OverflowGuardError as exc:  # a growing rhs past the guard at this q and cutoff
        raise ConfigError(f"{subject} needs a larger --q or a smaller --cutoff: {exc}") from exc
    except OverflowError as exc:  # a float past its range at this q, whatever the cutoff
        raise ConfigError(f"{subject} needs a larger --q: {exc}") from exc
    except MemoryError as exc:  # admitted by the dimension limit, but past this machine's memory
        sizes = " or ".join(f"--{flag}" for flag in flags if flag in ("modes", "cutoff"))
        raise ConfigError(f"{subject} needs a smaller {sizes}: out of memory: {exc}") from exc


# -- individual suites ---------------------------------------------------------
# Each suite yields its rows as Specs, in report order before the sort, and
# run_suite evaluates each as it comes, so no row's operators outlive it.

def cuntz_suite(cutoff: int, margin: int | str, norm: str, tolerance: float) -> Iterator[Spec]:
    """Boson commutator, polar decomposition, shift products, shift commutators."""
    if margin == "auto" and cutoff < 3:
        raise ConfigError(f"the cuntz suite needs --cutoff >= 3, got {cutoff}")
    space = make_space([cutoff])
    triple = ladder(space, 1)
    pair = phase_pair(space, 1)
    one = identity_operator(space)
    sqrt_n = sqrt_number_operator(space, 1)
    vac = number_state_projector(space, 1, 0)
    # --margin auto keeps 2 below the cutoff, and 0 for the polar rows.
    wide, narrow = (2, 0) if margin == "auto" else (int(margin),) * 2
    row = {"bound": "constant", "limit": tolerance, "norm": norm, "margin": wide}
    polar = row | {"margin": narrow}
    yield Spec("cuntz/boson-commutator", "[a, a+] = 1", **row,
               lhs=commutator(triple.lower, triple.raise_), rhs=one)
    yield Spec("cuntz/number-shift-lower", "[N, e] = -e", **row,
               lhs=commutator(triple.number, pair.lower), rhs=-1.0 * pair.lower)
    yield Spec("cuntz/number-shift-raise", "[N, e+] = e+", **row,
               lhs=commutator(triple.number, pair.raise_), rhs=pair.raise_)
    yield Spec("cuntz/polar-lower", "a = e sqrt(N)", **polar,
               lhs=triple.lower, rhs=pair.lower @ sqrt_n)
    yield Spec("cuntz/polar-raise", "a+ = sqrt(N) e+", **polar,
               lhs=triple.raise_, rhs=sqrt_n @ pair.raise_)
    yield Spec("cuntz/shift-left-inverse", "e+ e = 1 - |0><0|", **row,
               lhs=pair.raise_ @ pair.lower, rhs=one - vac)
    yield Spec("cuntz/shift-right-inverse", "e e+ = 1", **row,
               lhs=pair.lower @ pair.raise_, rhs=one)


def thermal_suite(q_squared: float, cutoff: int, tolerance: float) -> Iterator[Spec]:
    """Geometric-state expectations against their closed forms.

    Tolerance per check is the tail budget analytic_value * max(tolerance, tail_mass);
    the lost tail bounds the truncation error of the bounded observables.  The
    occupation-weighted observables can exceed that budget by a factor of
    order cutoff when the tail dominates the floor (see README).
    """
    if cutoff < 3:
        raise ConfigError(f"the thermal suite needs --cutoff >= 3, got {cutoff}")
    space = make_space([cutoff])
    rho = thermal_density(space, 1, q_squared)
    triple = ladder(space, 1)
    pair = phase_pair(space, 1)
    q2 = q_squared
    row = {"bound": "tail-budget", "limit": tolerance, "tail_mass": rho.tail_mass}
    yield Spec("thermal/mean-occupation", "<a+ a> = q^2/(1-q^2)", **row,
               measured=expectation(rho, triple.raise_, triple.lower).real, expected=q2 / (1 - q2))
    yield Spec("thermal/antinormal-occupation", "<a a+> = 1/(1-q^2)", **row,
               measured=expectation(rho, triple.lower, triple.raise_).real, expected=1 / (1 - q2))
    lo_pow, hi_pow = pair.lower, pair.raise_
    for a in (1, 2, 3):
        yield Spec(f"thermal/shift-ratio-normal-{a}", f"<e+^{a} e^{a}> = q^(2*{a})", **row,
                   measured=expectation(rho, hi_pow, lo_pow).real, expected=q2 ** a)
        yield Spec(f"thermal/shift-ratio-antinormal-{a}", f"<e^{a} e+^{a}> = 1", **row,
                   measured=expectation(rho, lo_pow, hi_pow).real, expected=1.0)
        lo_pow = lo_pow @ pair.lower
        hi_pow = hi_pow @ pair.raise_
    for a in (0, 1, 2, 3):
        yield Spec(f"thermal/step-weight-{a}", f"<theta(N-{a})> = q^(2*{a})", **row,
                   measured=expectation(rho, theta_operator(space, 1, a)).real, expected=q2 ** a)


def _z_label(z: complex) -> str:
    """Label of a real or purely imaginary amplitude."""
    return f"{z.real:g}" if z.imag == 0 else f"{z.imag:g}j"


def coherent_suite(cutoff: int) -> Iterator[Spec]:
    """Eigenvector residual, mean occupation, and Poisson statistics."""
    # The 1e-8 eigen-residual row at |z| = 2 first passes at cutoff 31 (the
    # coherent_state guard |z|^2 <= cutoff / 4 alone would allow 16).
    if cutoff < 31:
        raise ConfigError(f"the coherent suite needs --cutoff >= 31, got {cutoff}")
    space = make_space([cutoff])
    triple = ladder(space, 1)
    n_max = min(40, cutoff - 5)
    for z in (1.0 + 0j, 2.0 + 0j, 2.0j):
        label = _z_label(z)
        state = coherent_state(space, 1, z)
        shifted = triple.lower.apply(state).amplitudes - z * state.amplitudes
        yield Spec(f"coherent/eigen-residual-z={label}", "a|z> = z|z>", "constant", 1e-8,
                   residual=np.linalg.norm(shifted))
        yield Spec(f"coherent/mean-number-z={label}", "<z|N|z> = |z|^2", "constant", 1e-8,
                   measured=state.inner(triple.number.apply(state)).real, expected=abs(z) ** 2)
        probs = (np.abs(state.amplitudes) ** 2)[:n_max + 1].tolist()
        yield Spec(f"coherent/poisson-max-deviation-z={label}",
                   "|<n|z>|^2 = exp(-|z|^2) |z|^(2n) / n!", "constant", 1e-10,
                   residual=max(abs(p - poisson_probability(z, n)) for n, p in enumerate(probs)))


def asymptotics_suite(cutoff: int) -> Iterator[Spec]:
    """Two-route agreement and large-amplitude error behavior of <z|e|z>."""
    if cutoff < 576:  # phase_asymptotics needs cutoff >= 4 |z|^2 at |z| = 12
        raise ConfigError(f"the asymptotics suite needs --cutoff >= 576, got {cutoff}")
    space = make_space([cutoff])
    errors = []
    for row in phase_asymptotics((4.0, 6.0, 8.0, 12.0), cutoff):
        label = _z_label(row.z)
        yield Spec(f"asymptotics/series-vs-matrix-z={label}",
                   "series and matrix evaluations of <z|e|z> agree", "constant", 1e-12,
                   residual=abs(row.exact - shift_expectation_matrix(space, 1, row.z)))
        yield Spec(f"asymptotics/correction-beats-leading-z={label}",
                   "|exact - (z/|z|)(1 - 1/(8|z|^2))| < |exact - z/|z||", "below",
                   residual=row.abs_error, measured=row.abs_error,
                   expected=abs(row.exact - row.leading))
        errors.append((abs(row.z), row.abs_error))
    errors.sort()
    for (z0, e0), (z1, e1) in zip(errors, errors[1:]):
        yield Spec(f"asymptotics/error-decreasing-|z|={z0:g}-to-{z1:g}",
                   "first-correction error decreases with |z|", "below",
                   residual=e1, measured=e1, expected=e0)


def qboson_suite(q_squared: float, qtype: tuple[str, ...], cutoff: int,
                 tolerance: float) -> Iterator[Spec]:
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
    for t, eff in zip(qtype, caps):
        family = standard_qboson(t, q_squared, eff)
        yield Spec(f"qboson/defining-relation-{t}",
                   f"B- B+ - q^2 B+ B- = rhs_{t}(N) at cutoff {eff}", "constant", tolerance,
                   residual=defining_relation_residual(family, margin=1, norm="spectral"))
        closed = np.array([beta_closed_form(t, q_squared, n) for n in range(eff + 1)])
        yield Spec(f"qboson/beta-closed-form-{t}",
                   f"recursion magnitudes match the geometric closed form (cutoff {eff})",
                   "constant", 1e-12,
                   residual=np.max(np.abs(family.beta - closed) / (1.0 + np.abs(closed))))


def recipe_suite(q_squared: float, cutoff: int, tolerance: float) -> Iterator[Spec]:
    """Averaged two-mode relations against their normalized targets."""
    if cutoff < 1:
        raise ConfigError(f"the recipe suite needs --cutoff >= 1, got {cutoff}")
    q2 = q_squared
    # One thermal x vacuum average serves the shift, boson, shifted and step gauges.
    requests = [("phase", "identity", 0), ("boson", "identity", 0),
                *(("alpha_phase", "identity", a) for a in (0, 1, 2)),
                *(("boson", "theta", a) for a in (1, 2))]
    try:
        shift, boson, *shifted, step1, step2 = relations = recipe_relations(q2, cutoff, requests)
    except TruncationAccuracyError as exc:
        raise ConfigError(f"the recipe suite needs a larger --cutoff: {exc}") from exc
    # A family rebuilt from each gauge's normalized relation at cutoff 20 must satisfy it.
    closure = {"relation": "family rebuilt from the normalized relation satisfies it",
               "bound": "tail-floor", "limit": 1e-12}
    for gauge, rel, ratio, rhs, target in (
            ("shift", shift, "<e+ e>/<e e+>", "1 (unit-target family)", 1.0),
            ("boson", boson, "<a+ a>/<a a+>", "1 - q^2", 1.0 - q2)):
        row = {"bound": "tail-budget", "limit": tolerance, "tail_mass": rel.tail_mass}
        yield Spec(f"recipe/{gauge}-gauge-q2", f"coeff ratio {ratio} = q^2", **row,
                   measured=rel.q_squared_effective, expected=q2)
        yield Spec(f"recipe/{gauge}-gauge-rhs", f"normalized rhs = {rhs}", **row,
                   measured=rel.normalized_rhs, expected=target)
        yield Spec(f"recipe/closure-{gauge}-gauge", **closure, tail_mass=rel.tail_mass,
                   residual=defining_relation_residual(family_from_relation(rel, cutoff=20),
                                                       margin=1))
    for a, rel in enumerate(shifted):
        yield Spec(f"recipe/shifted-gauge-alpha{a}-rhs", f"normalized rhs = q^(-2*{a})",
                   "tail-budget", tolerance, tail_mass=rel.tail_mass,
                   measured=rel.normalized_rhs, expected=q2 ** (-a))
    yield Spec("recipe/closure-shifted-gauge", **closure, tail_mass=shifted[-1].tail_mass,
               residual=defining_relation_residual(family_from_relation(shifted[-1], cutoff=20),
                                                   margin=1))
    for a, rel in ((1, step1), (2, step2)):
        yield Spec(f"recipe/step-gauge-alpha{a}-magnitude",
                   f"normalized rhs magnitude = (1-q^2) q^(2*{a})", "tail-budget", tolerance,
                   tail_mass=rel.tail_mass, measured=rel.normalized_rhs,
                   expected=(1.0 - q2) * q2 ** a)
        yield Spec(f"recipe/step-gauge-alpha{a}-exponent-sign",
                   "measured step-projector exponent sign (+1: rhs = (1-q^2) q^(+2 alpha))",
                   None, residual=0.0, measured=rel.rhs_exponent_sign)
    space, pair = relations.space, relations.pairs[0]
    pure = averaged_relation(pure_density(basis_state(space, [1])), pair.lower,
                             pair.raise_, identity_operator(space))
    yield Spec("recipe/algebraic-recovery",
               "pure-state averaging recovers undeformed coefficients (1, 1, 1)", "constant", 1e-12,
               residual=max(abs(pure.coeff_plus - 1.0), abs(pure.coeff_minus - 1.0),
                            abs(pure.rhs - 1.0)))


def alpha_suite(cutoff: int, alpha: tuple[int, ...], norm: str) -> Iterator[Spec]:
    """Shifted-vacuum boson: kernel size, step commutator, eigenvalues, phase defect."""
    if min(alpha) < 0:
        raise ConfigError(f"--alpha must be >= 0, got {min(alpha)}")
    need = max(3, max(alpha) + 2)  # margin 2 below the cutoff, alpha <= cutoff - 2
    if cutoff < need:
        raise ConfigError(f"the alpha suite needs --cutoff >= {need}, got {cutoff}")
    space = make_space([cutoff])
    for a in alpha:
        boson = alpha_boson(space, 1, a)
        # N(alpha) = a+(alpha) a(alpha) has diagonal |column|^2 of lower: zero on the kernel.
        number = boson.raise_ @ boson.lower
        yield Spec(f"alpha/kernel-dimension-{a}", "dim ker a(alpha) = alpha + 1", "constant", 0.0,
                   measured=int(np.count_nonzero(number.diagonal() == 0)), expected=a + 1)
        yield Spec(f"alpha/commutator-step-{a}", "[a(alpha), a+(alpha)] = theta(N - alpha)",
                   "machine-zero", space, lhs=commutator(boson.lower, boson.raise_),
                   rhs=theta_operator(space, 1, a), margin=2, norm=norm)
        eigenvalues = number.diagonal().real[a:].tolist()
        yield Spec(f"alpha/number-eigenvalues-{a}", "N(alpha) |n + alpha> = n |n + alpha>",
                   "machine-zero", space,
                   residual=max(abs(value - n) for n, value in enumerate(eigenvalues)))
        pair = alpha_phase_pair(space, 1, a)
        yield Spec(f"alpha/phase-defect-projector-{a}",
                   "e(alpha) e+(alpha) - e+(alpha) e(alpha) = |alpha><alpha|", "constant", 0.0,
                   lhs=pair.lower @ pair.raise_ - pair.raise_ @ pair.lower,
                   rhs=number_state_projector(space, 1, a), margin=1, norm=norm)


def multimode_suite(q_squared: float, modes: int, cutoff: int, norm: str) -> Iterator[Spec]:
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
    for key in sorted(groups):
        yield Spec(f"multimode/N{modes}-{key}-max",
                   relation_text.get(key, "R-matrix (RTT) form of the relations"),
                   "constant", 1e-12, residual=groups[key])
    yield Spec(f"multimode/N{modes}-undressing",
               "inverse diagonal dressing recovers the independent pairs", "constant", 1e-13,
               residual=mm.undressing_residual(family))
    yield Spec(f"multimode/N{modes}-yang-baxter", "R12 R13 R23 = R23 R13 R12", "constant", 1e-12,
               residual=_run_once(_yang_baxter, modes, q))
    yield Spec(f"multimode/N{modes}-dressing-sign",
               "dressing exponent sign satisfying all relations", None,
               residual=0.0, measured=family.dressing_exponent_sign)
    q2 = q * q
    level_sets = [tuple()] + [tuple([1] * k) for k in range(1, modes)]
    for i, levels in enumerate(level_sets, start=1):
        res = _run_once(mm.covariant_recipe_check, q2, levels)
        yield Spec(f"multimode/N{modes}-recipe-row-{i}",
                   "averaged coefficients reproduce (1, q^2, q^(2 sum levels))",
                   "tail-floor", 1e-10, tail_mass=res.tail_mass,
                   residual=max(abs(res.coeff_plus - 1.0), abs(res.coeff_minus - q2),
                                abs(res.rhs - q2 ** sum(levels))))


def rmatrix_suite(q_squared: float, modes: tuple[int, ...]) -> Iterator[Spec]:
    """Entry conventions and the Yang-Baxter identity at each rank in `modes`."""
    for n in modes:
        if not 2 <= n <= mm.RANK_LIMIT:
            bound = ">= 2" if n < 2 else f"<= {mm.RANK_LIMIT}"
            raise ConfigError(f"the rmatrix suite needs --modes {bound}, got {n}")
    q = math.sqrt(q_squared)
    for n in modes:
        R, dev = _run_once(mm.su_r_matrix, n, q).entries.reshape((n,) * 4), 0.0
        for i in range(n):
            dev = max(dev, abs(R[i, i, i, i] - q))
            for j in range(i + 1, n):
                dev = max(dev, abs(R[i, j, i, j] - 1.0), abs(R[j, i, j, i] - 1.0),
                          abs(R[i, j, j, i] - (q - 1.0 / q)))
        yield Spec(f"rmatrix/entries-n{n}",
                   "diagonal q, unit mixed diagonal, q - 1/q coupling above the diagonal",
                   "constant", 0.0, residual=dev)
        yield Spec(f"rmatrix/yang-baxter-n{n}", "R12 R13 R23 = R23 R13 R12", "constant", 1e-12,
                   residual=_run_once(_yang_baxter, n, q))


def _yang_baxter(n: int, q: float) -> float:
    return mm.yang_baxter_residual(_run_once(mm.su_r_matrix, n, q))


def chevalley_suite(q_squared: float, modes: int, cutoff: int, norm: str) -> Iterator[Spec]:
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
    for title, relation in (("hh", "[H_i, H_j] = 0"), ("cartan-e", "[H_i, E_j] = A_ij E_j"),
                            ("cartan-f", "[H_i, F_j] = -A_ij F_j")):
        yield Spec(f"chevalley/N{modes}-{title}-max", relation, "constant", 1e-12,
                   residual=sym[title])
    for (variant, base), worst in brackets.items():
        yield Spec(f"chevalley/N{modes}-ef-bracket-{variant}-base={base:g}",
                   "worst residual of [E_i, F_i] - [H_i] (reported per variant/base)", None,
                   residual=0.0, measured=worst)
    yield Spec(f"chevalley/N{modes}-ef-bracket-best",
               "some (variant, base) realizes [E_i, F_i] = [H_i]", "constant", 1e-10,
               residual=min(brackets.values()))


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

    build: Callable[..., Iterable[Spec]]
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
                with _refused(f"the {name} suite", SUITE_TABLE[name].sizes):
                    checks += map(_evaluate, SUITE_TABLE[name].build(
                        **{flag: fixed.get(flag, resolved.get(flag, d))
                           for flag, d in SUITE_FLAGS[name].items()}))
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
