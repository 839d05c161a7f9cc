"""Every multimode (covariant and undressing) and Chevalley row, and the one-mode identity
rows (cuntz, alpha, the qboson defining relations and the recipe closures), against a
dense reference built here.

Each operator is a dense matrix made from its definition: `np.kron` of
single-mode ladders with closed-form magnitudes (mode 1 the slowest factor),
the covariant dressing and every right side as dense diagonals, and the
R-matrix and Cartan entries in closed form; one-mode ladders take their
closed-form magnitudes (sqrt(n), unit shifts, the geometric sums of beta).  The safe block is taken by
index selection and its norm by `np.linalg.norm`.  No code of the package
builds these matrices, so a wrong support, relabelling, shift or
coefficient in the row table shows as a residual that differs from this one
by more than round-off: machine_zero_bound(space) * max(1, |lhs|, |rhs|).
"""

import math

import numpy as np
import pytest

from qboson_kit import chevalley_check, covariant_bosons, covariant_check, make_space
from qboson_kit.fock import machine_zero_bound
from qboson_kit.multimode import _walk, undressing_rows
from qboson_kit.qboson import recipe_relations
from qboson_kit.suites import SuiteConfig, chevalley_suite, multimode_suite, run_suite

Q = math.sqrt(0.5)  # the suites' default q^2 = 0.5


def _beta(variant, q, n):
    """Closed-form magnitudes: [n] at q^2 (Arik-Coon) or the symmetric [n]_q."""
    if variant == "typeI_q2":
        return (1.0 - q ** (2 * n)) / (1.0 - q * q)
    return (q ** n - q ** -n) / (q - 1.0 / q)


def _on_mode(single, mode, cutoffs):
    """The single-mode matrix on 0-based `mode`, the identity on the others."""
    out = np.eye(1)
    for k, c in enumerate(cutoffs):
        out = np.kron(out, single if k == mode else np.eye(c + 1))
    return out


def _ladders(variant, q, cutoffs):
    """(lower, number) per mode, dense."""
    out = []
    for k, c in enumerate(cutoffs):
        a = np.zeros((c + 1, c + 1))
        for n in range(1, c + 1):
            a[n - 1, n] = math.sqrt(_beta(variant, q, n))
        out.append((_on_mode(a, k, cutoffs), _on_mode(np.diag(np.arange(c + 1.0)), k, cutoffs)))
    return out


def _occupations(cutoffs):
    return np.indices([c + 1 for c in cutoffs]).reshape(len(cutoffs), -1)


def _residual(lhs, rhs, cutoffs, margin, norm):
    """(residual, |lhs|, |rhs|) on the safe block, by index selection."""
    safe = np.flatnonzero(np.all(_occupations(cutoffs) <= np.array(cutoffs)[:, None] - margin,
                                 axis=0))
    kind = 2 if norm == "spectral" else "fro"
    block = lambda m: np.linalg.norm(m[np.ix_(safe, safe)], kind)
    return block(lhs - rhs), block(lhs), block(rhs)


def _covariant_rows(n, q, cutoffs):
    """Each covariant row's (name, lhs, rhs), dense, from the relations' definitions."""
    occ = _occupations(cutoffs)
    lowers = [lower for lower, _ in _ladders("typeI_q2", q, cutoffs)]
    dress = [np.diag(q ** occ[:i].sum(axis=0)) for i in range(n)]
    bm = [d @ a for d, a in zip(dress, lowers)]
    bp = [d @ a.T for d, a in zip(dress, lowers)]
    eye = np.eye(len(occ[0]))

    def r(i, j, k, l):  # R_{ij,kl} of the SU(N) R-matrix
        return ((q if i == j else 1.0) * (i == k and j == l)
                + (q - 1.0 / q) * (i < j and k == j and l == i))

    rows = []
    for i in range(n):
        for j in range(n):
            if i < j:
                rows.append((f"lower-lower i={i + 1} j={j + 1}", bm[i] @ bm[j], q * bm[j] @ bm[i]))
                rows.append((f"raise-raise i={i + 1} j={j + 1}", q * bp[i] @ bp[j], bp[j] @ bp[i]))
            if i == j:
                rows.append((f"diagonal i={i + 1}", bm[i] @ bp[i] - q * q * bp[i] @ bm[i],
                             np.diag(q ** (2 * occ[:i].sum(axis=0)))))
            else:
                rows.append((f"lower-raise i={i + 1} j={j + 1}", bm[i] @ bp[j], q * bp[j] @ bm[i]))
            pairs = [(k, l) for k in range(n) for l in range(n)]
            rows.append((f"rtt-lower i={i + 1} j={j + 1}", bm[i] @ bm[j],
                         sum(r(i, j, k, l) / q * bm[l] @ bm[k] for k, l in pairs)))
            rows.append((f"rtt-raise i={i + 1} j={j + 1}", bp[i] @ bp[j],
                         sum(r(l, k, i, j) / q * bp[k] @ bp[l] for k, l in pairs)))
            rows.append((f"rtt-mixed i={i + 1} j={j + 1}", bm[i] @ bp[j],
                         (i == j) * eye + sum(q * r(k, i, j, l) * bp[k] @ bm[l] for k, l in pairs)))
    return rows


def _undressing_rows(n, q, cutoffs):
    """Each undressing row's (name, lhs, rhs), dense: from mode 2, the inverse dressing
    times the dressed pair against the hatted pair."""
    occ = _occupations(cutoffs)
    rows = []
    for i, (lower, _) in enumerate(_ladders("typeI_q2", q, cutoffs)[1:], start=1):
        dress, inverse = np.diag(q ** occ[:i].sum(axis=0)), np.diag(q ** -occ[:i].sum(axis=0))
        for side, hatted in (("lower", lower), ("raise", lower.T)):
            rows.append((f"undressing i={i + 1} {side}", inverse @ (dress @ hatted), hatted))
    return rows


def _chevalley_rows(n, q, cutoffs, variant, bases):
    """Each Chevalley row's (name, lhs, rhs), dense, from the generators' definitions."""
    ladders = _ladders(variant, q, cutoffs)
    gens = [(ladders[i][1] - ladders[i + 1][1], ladders[i][0].T @ ladders[i + 1][0],
             ladders[i + 1][0].T @ ladders[i][0]) for i in range(n - 1)]
    rows = []
    for i, (h, _, _) in enumerate(gens):
        for j, (h_j, e_j, f_j) in enumerate(gens):
            a = 2.0 * (i == j) - (abs(i - j) == 1)  # the Cartan matrix of su(n)
            rows.append((f"hh i={i + 1} j={j + 1}", h @ h_j, h_j @ h))
            rows.append((f"cartan-e i={i + 1} j={j + 1}", h @ e_j - e_j @ h, a * e_j))
            rows.append((f"cartan-f i={i + 1} j={j + 1}", h @ f_j - f_j @ h, -a * f_j))
    for i, (h, e, f) in enumerate(gens):
        for b in bases:  # [H_i] = (b^H_i - b^-H_i)/(b - 1/b), H_i diagonal
            rows.append((f"ef-bracket base={b!r} i={i + 1}", e @ f - f @ e,
                         np.diag((b ** np.diag(h) - b ** -np.diag(h)) / (b - 1.0 / b))))
    return rows


def _bound(cutoffs, lhs, rhs):
    return machine_zero_bound(make_space(cutoffs)) * max(1.0, lhs, rhs)


def _worst(rows, cutoffs, margin, norm):
    """Per relation, the largest dense residual and the largest round-off bound: the
    largest of rows that each match to within their bound matches to within the largest."""
    worst = {}
    for name, lhs, rhs in rows:
        reference, lhs_norm, rhs_norm = _residual(lhs, rhs, cutoffs, margin, norm)
        residual, bound = worst.get(relation := name.split(" i=")[0], (0.0, 0.0))
        worst[relation] = max(residual, reference), max(bound, _bound(cutoffs, lhs_norm, rhs_norm))
    return worst


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
@pytest.mark.parametrize("n", [2, 3])
def test_covariant_rows_match_the_dense_reference(n, norm):
    cutoffs = (3,) * n
    measured = covariant_check(n, Q, cutoffs, margin=1, norm=norm)
    rows = _covariant_rows(n, Q, cutoffs)
    assert sorted(measured) == sorted(name for name, _, _ in rows)
    for name, lhs, rhs in rows:
        reference, lhs_norm, rhs_norm = _residual(lhs, rhs, cutoffs, 1, norm)
        assert abs(measured[name] - reference) <= _bound(cutoffs, lhs_norm, rhs_norm), name
    checks = {c.name: c for c in multimode_suite(Q * Q, modes=n, cutoff=3, norm=norm)}
    for relation, (residual, bound) in _worst(rows, cutoffs, 1, norm).items():
        assert abs(checks[f"multimode/N{n}-{relation}-max"].residual - residual) <= bound


@pytest.mark.parametrize("n", [2, 3])
def test_undressing_rows_match_the_dense_reference(n):
    """At margin 0 in the spectral norm, which the suite's row keeps under either --norm."""
    cutoffs = (3,) * n
    measured = _walk(undressing_rows, (n,), covariant_bosons, Q, cutoffs, (), 0, "spectral")
    rows = _undressing_rows(n, Q, cutoffs)
    assert list(measured) == [name for name, _, _ in rows]
    for name, lhs, rhs in rows:
        reference, lhs_norm, rhs_norm = _residual(lhs, rhs, cutoffs, 0, "spectral")
        assert abs(measured[name] - reference) <= _bound(cutoffs, lhs_norm, rhs_norm), name
    [(residual, bound)] = _worst(rows, cutoffs, 0, "spectral").values()
    for norm in ("spectral", "frobenius"):
        checks = {c.name: c for c in multimode_suite(Q * Q, modes=n, cutoff=3, norm=norm)}
        assert abs(checks[f"multimode/N{n}-undressing"].residual - residual) <= bound, norm


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
@pytest.mark.parametrize("variant", ["typeI_q2", "typeII_symmetric"])
@pytest.mark.parametrize("n", [2, 3])
def test_chevalley_rows_match_the_dense_reference(n, variant, norm):
    cutoffs, bases = (4,) * n, (Q, Q * Q)
    measured = chevalley_check(n, Q, cutoffs, variant, bases, norm=norm)
    rows = _chevalley_rows(n, Q, cutoffs, variant, bases)
    assert sorted(measured) == sorted(name for name, _, _ in rows)
    for name, lhs, rhs in rows:
        reference, lhs_norm, rhs_norm = _residual(lhs, rhs, cutoffs, 2, norm)
        assert abs(measured[name] - reference) <= _bound(cutoffs, lhs_norm, rhs_norm), name


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
@pytest.mark.parametrize("n", [2, 3])
def test_chevalley_suite_reports_the_dense_reference(n, norm):
    """The symmetric variant's Cartan-sector maxima, and the worst ladder bracket of each
    (variant, base) the suite reports."""
    cutoffs = (4,) * n
    checks = {c.name: c for c in chevalley_suite(Q * Q, modes=n, cutoff=4, norm=norm)}
    for variant, bases in (("typeII_symmetric", (Q,)), ("typeI_q2", (Q, Q * Q))):
        rows = _chevalley_rows(n, Q, cutoffs, variant, bases)
        for relation, (residual, bound) in _worst(rows, cutoffs, 2, norm).items():
            if relation.startswith("ef-bracket base="):
                base = float(relation.removeprefix("ef-bracket base="))
                measured = checks[f"chevalley/N{n}-ef-bracket-{variant}-base={base:g}"].measured
            elif variant == "typeII_symmetric":
                measured = checks[f"chevalley/N{n}-{relation}-max"].residual
            else:
                continue
            assert abs(measured - residual) <= bound, (variant, relation)


def _one_mode(magnitudes):
    """The one-mode lowering matrix |n> -> magnitudes[n] |n - 1>, dense."""
    return np.diag(np.asarray(magnitudes, dtype=float)[1:], 1)


def _assert_rows_match(checks, rows, cutoff, norm="spectral"):
    """Each (check name, lhs, rhs, margin) row's suite residual against its dense one."""
    for name, lhs, rhs, margin in rows:
        reference, lhs_norm, rhs_norm = _residual(lhs, rhs, (cutoff,), margin, norm)
        assert abs(checks[name].residual - reference) <= _bound((cutoff,), lhs_norm,
                                                                rhs_norm), name


def _checks(**config):
    return {c.name: c for c in run_suite(SuiteConfig(**config)).checks}


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
@pytest.mark.parametrize("margin", [None, 1])
def test_cuntz_rows_match_the_dense_reference(margin, norm):
    """Cutoff 8, at --margin auto (2, and 0 for the polar rows) and 1."""
    cutoff = 8
    n = np.arange(cutoff + 1.0)
    a, e = _one_mode(np.sqrt(n)), _one_mode(np.ones(cutoff + 1))
    number, sqrt_n, one = np.diag(n), np.diag(np.sqrt(n)), np.eye(cutoff + 1)
    vac = np.diag(n == 0).astype(float)
    wide, narrow = (2, 0) if margin is None else (margin, margin)
    rows = [("boson-commutator", a @ a.T - a.T @ a, one, wide),
            ("number-shift-lower", number @ e - e @ number, -e, wide),
            ("number-shift-raise", number @ e.T - e.T @ number, e.T, wide),
            ("polar-lower", a, e @ sqrt_n, narrow),
            ("polar-raise", a.T, sqrt_n @ e.T, narrow),
            ("shift-left-inverse", e.T @ e, one - vac, wide),
            ("shift-right-inverse", e @ e.T, one, wide)]
    checks = _checks(suite="cuntz", cutoff=cutoff, margin=margin, norm=norm)
    assert sorted(checks) == sorted(f"cuntz/{name}" for name, *_ in rows)
    _assert_rows_match(checks, [(f"cuntz/{name}", *rest) for name, *rest in rows], cutoff, norm)


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
def test_alpha_rows_match_the_dense_reference(norm):
    """Cutoff 10, alpha = 1, 2, 3: [a(alpha), a+(alpha)] = theta(N - alpha) at margin 2 and
    e(alpha) e+(alpha) - e+(alpha) e(alpha) = |alpha><alpha| at margin 1."""
    cutoff = 10
    n = np.arange(cutoff + 1.0)
    rows = []
    for alpha in (1, 2, 3):
        a = _one_mode(np.sqrt(np.maximum(n - alpha, 0.0)))
        e = _one_mode(n > alpha)
        rows += [(f"alpha/commutator-step-{alpha}", a @ a.T - a.T @ a,
                  np.diag(n >= alpha).astype(float), 2),
                 (f"alpha/phase-defect-projector-{alpha}", e @ e.T - e.T @ e,
                  np.diag(n == alpha).astype(float), 1)]
    _assert_rows_match(_checks(suite="alpha", cutoff=cutoff, norm=norm), rows, cutoff, norm)


def _defining_row(beta, rhs, q_squared):
    """B- B+ - q^2 B+ B- against rhs(N), dense, from the magnitudes beta(n)."""
    lower = _one_mode(np.sqrt(beta))
    return lower @ lower.T - q_squared * lower.T @ lower, np.diag(rhs)


def test_qboson_defining_rows_match_the_dense_reference():
    """Each standard type at cutoff 10, where no type's cutoff is capped, at q^2 = 0.5."""
    cutoff, q2 = 10, 0.5
    n = np.arange(cutoff + 1.0)
    closed = {"I": ((1.0 - q2 ** n) / (1.0 - q2), np.ones_like(n)),
              "II": ((q2 ** n - q2 ** -n) / (q2 - 1.0 / q2), q2 ** -n),
              "III": (1.0 - q2 ** n, np.full_like(n, 1.0 - q2)),
              "IV": (q2 * (q2 ** -n - q2 ** n) / (1.0 + q2), (1.0 - q2) * q2 ** -n)}
    checks = _checks(suite="qboson", cutoff=cutoff)
    for t in closed:
        assert checks[f"qboson/defining-relation-{t}"].relation.endswith(f"at cutoff {cutoff}")
    _assert_rows_match(checks, [(f"qboson/defining-relation-{t}",
                                 *_defining_row(beta, rhs, q2), 1)
                                for t, (beta, rhs) in closed.items()], cutoff)


@pytest.mark.parametrize("gauge,request_", [
    ("shift", ("phase", "identity", 0)), ("boson", ("boson", "identity", 0)),
    ("shifted", ("alpha_phase", "identity", 2))])
def test_recipe_closure_rows_match_the_dense_reference(gauge, request_):
    """The family rebuilt at cutoff 20 from the run's normalized relation (q^2_eff and a
    constant rhs r), with beta(n) = r (1 - q2^n) / (1 - q2), against that relation."""
    [relation] = recipe_relations(0.5, 80, [request_])  # the recipe suite's default cutoff
    q2, r, cutoff = relation.q_squared_effective, relation.normalized_rhs, 20
    n = np.arange(cutoff + 1.0)
    row = _defining_row(r * (1.0 - q2 ** n) / (1.0 - q2), np.full_like(n, r), q2)
    _assert_rows_match(_checks(suite="recipe"), [(f"recipe/closure-{gauge}-gauge", *row, 1)],
                       cutoff)
