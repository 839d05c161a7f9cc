"""Every multimode and Chevalley row against a dense reference built here.

Each operator is a dense matrix made from its definition: `np.kron` of
single-mode ladders with closed-form magnitudes (mode 1 the slowest factor),
the covariant dressing and every right side as dense diagonals, and the
R-matrix and Cartan entries in closed form.  The safe block is taken by
index selection and its norm by `np.linalg.norm`.  No code of the package
builds these matrices, so a wrong support, relabelling, shift or
coefficient in the row table shows as a residual that differs from this one
by more than round-off: machine_zero_bound(space) * max(1, |lhs|, |rhs|).
"""

import math

import numpy as np
import pytest

from qboson_kit import chevalley_check, covariant_check, make_space
from qboson_kit.fock import machine_zero_bound
from qboson_kit.suites import chevalley_suite, multimode_suite

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
